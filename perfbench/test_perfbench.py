"""Tests of the benchmark's own logic: inputs, span arithmetic, checks."""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import tracing
from workloads import THETA_RANGE, WORKLOADS

from qfcert import cli
from qfcert.boundary import find_spiral_witness, witness_to_dict
from qfcert.representations import find_complex_trace_element

HERE = Path(__file__).resolve().parent
THETA = 0.6


def _draws(name: str, seed: int, cycles: int = 4) -> list[dict]:
    rng = random.Random(seed)
    return [WORKLOADS[name].draw(rng, k) for k in range(cycles)]


# -- inputs ---------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    assert _draws(name, 7) == _draws(name, 7)


@pytest.mark.parametrize("name", ["spiral", "classes"])
def test_angles_are_drawn_from_the_seed_within_range(name):
    first, other = _draws(name, 7), _draws(name, 8)
    assert first != other
    lo, hi = THETA_RANGE
    third = (hi - lo) / 3
    for draws in (first, other):
        for k, inputs in enumerate(draws):
            stratum = lo + (k % 3) * third
            assert stratum <= inputs["theta"] <= stratum + third


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == \
        [w.why for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == run.per_layer_spec()


def test_outside_a_checkout_it_fails_without_a_result(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "orbit",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_reported_times_are_scaled_to_the_reference_speed():
    # the same work on a CPU running at two thirds of the speed
    slow, fast = run.Cycle({}, False), run.Cycle({}, False)
    for cycle, cpu, setup, ref in ((slow, 6.0, 0.3, 0.06),
                                   (fast, 4.0, 0.2, 0.04)):
        cycle.invocations.append(run.Invocation("x", 0, cpu_s=cpu,
                                                setup_s=setup, rss_mb=100.0))
        cycle.ref_s = ref
    scale = run.REF_NOMINAL_S / 0.04
    metrics = run.end_to_end([slow, fast])
    assert metrics["cpu_s"] == pytest.approx(4.0 * scale)
    assert metrics["setup_s"] == pytest.approx(0.2 * scale)
    assert metrics["cpu_raw_s"] == 5.0
    assert metrics["peak_rss_mb"] == 100.0


# -- span arithmetic ------------------------------------------------------


def _clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_subtracts_direct_children_only():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and d [5, 9]
    rec = tracing.Recorder(clock=_clock([0, 1, 2, 3, 4, 5, 9, 10]))
    a = rec.begin("a")
    b = rec.begin("b")
    c = rec.begin("c")
    rec.end(c)
    rec.end(b)
    d = rec.begin("d")
    rec.end(d)
    rec.end(a)
    assert list(rec.parents) == [-1, 0, 1, 0]
    assert tracing.self_times(rec.starts, rec.ends, rec.parents) == \
        [3.0, 2.0, 1.0, 4.0]


def _table(rec: tracing.Recorder, tmp_path: Path) -> dict:
    prefix = str(tmp_path / "report")
    return tracing.read_columns(rec.write(prefix), prefix)


def test_generator_spans_time_each_item_under_the_consumer(tmp_path):
    rec = tracing.Recorder(clock=_clock(range(100)))

    def words(n):
        return (i for i in range(n))

    traced = tracing.wrap(rec, "surface_group.enumerate_words", words)
    with rec.span("consumer"):            # t = 0
        drawn = list(traced(3))           # call 1-2, items 3-4 .. 9-10
    # consumer closes at t = 11
    assert drawn == [0, 1, 2]
    table = _table(rec, tmp_path)
    summary = tracing.summarize(table)
    row = summary["surface_group.enumerate_words"]
    assert row["calls"] == 1
    assert row["spans"] == 5              # the call, three items, the end
    assert row["words"] == 3
    assert row["self_s"] == 5.0
    assert summary["consumer"]["self_s"] == 11.0 - 5.0
    parents = {table["parent"][i] for i, nid in enumerate(table["name"])
               if table["names"][nid] == "surface_group.enumerate_words"}
    assert parents == {0}
    assert tracing.root_duration(table) == 11.0


def test_errors_counted_per_raising_function(tmp_path):
    rec = tracing.Recorder(clock=_clock(range(100)))

    def inner():
        raise ValueError("boom")

    traced_inner = tracing.wrap(rec, "m.inner", inner)
    traced_outer = tracing.wrap(rec, "m.outer", lambda: traced_inner())
    with pytest.raises(ValueError):
        traced_outer()
    traced_outer_ok = tracing.wrap(rec, "m.ok", lambda: 1)
    assert traced_outer_ok() == 1
    summary = tracing.summarize(_table(rec, tmp_path))
    assert summary["m.inner"]["errors"] == 1
    assert summary["m.outer"]["errors"] == 1
    assert summary["m.ok"]["errors"] == 0


def test_descendant_counts_follow_parent_links(tmp_path):
    rec = tracing.Recorder(clock=_clock(range(100)))
    levels = tracing.wrap(rec, "_wordarrays.reduced_word_levels",
                          lambda: [_Rows(3), _Rows(4)])
    with rec.span("boundary.limit_set_sample"):
        with rec.span("other"):
            levels()
    levels()                              # outside the sample: not counted
    table = _table(rec, tmp_path)
    assert tracing.summarize(table)["_wordarrays.reduced_word_levels"][
        "words"] == 14
    assert tracing.descendant_counts(table, "boundary.limit_set_sample",
                                     "_wordarrays.reduced_word_levels",
                                     "words") == 7


class _Rows:
    def __init__(self, n):
        self.shape = (n, 1)


# -- artifact checks ------------------------------------------------------


def _cli(tmp_path: Path, *args: str) -> Path:
    out = tmp_path / "out"
    assert cli.main(["--outdir", str(out)] + list(args)) == 0
    return out


def test_growth_check_rejects_counts_off_by_one(tmp_path):
    payload = {"schema": "qfcert/1", "type": "growth_estimate",
               "Rmax": checks.GROWTH_RMAX, "h": checks.GROWTH_H,
               "counts": list(checks.GROWTH_COUNTS)}
    (tmp_path / "growth.json").write_text(json.dumps(payload))
    assert checks.growth(tmp_path) == []
    payload["counts"][-1] += 1
    (tmp_path / "growth.json").write_text(json.dumps(payload))
    assert checks.growth(tmp_path)


def test_certificate_check_rejects_an_edited_ratio(tmp_path, monkeypatch):
    out = _cli(tmp_path, "--bend-angle", str(THETA), "certify")
    assert checks.certificate(out, THETA) == []
    path = out / "separation_certificate.json"
    payload = json.loads(path.read_text())
    # a valid certificate below the acceptance threshold is refused too
    monkeypatch.setattr(checks, "MIN_RATIO", payload["ratio"] + 1e-9)
    assert checks.certificate(out, THETA)
    monkeypatch.undo()
    payload["ratio"] += 1e-6
    path.write_text(json.dumps(payload))
    assert checks.certificate(out, THETA)


def test_witness_check_rejects_swapped_radii(tmp_path):
    rep = checks.bent(THETA)
    witness = find_spiral_witness(rep, find_complex_trace_element(rep, 4), 7)
    payload = witness_to_dict(witness)
    (tmp_path / "witness.json").write_text(json.dumps(payload))
    assert checks.witness(tmp_path, THETA) == []
    payload["radii"][1], payload["radii"][2] = \
        payload["radii"][2], payload["radii"][1]
    (tmp_path / "witness.json").write_text(json.dumps(payload))
    assert checks.witness(tmp_path, THETA)


def test_spectrum_check_rejects_an_edited_length(tmp_path):
    out = _cli(tmp_path, "--bend-angle", str(THETA), "--maxlen", "5",
               "spectrum")
    assert checks.spectrum(out, THETA) == []
    path = out / "spectrum.csv"
    lines = path.read_text().splitlines()
    word, length = lines[-1].split(",")
    lines[-1] = "%s,%.17g" % (word, float(length) + 1e-7)
    path.write_text("\n".join(lines) + "\n")
    assert checks.spectrum(out, THETA)


def test_triangle_check_rejects_a_violation_or_a_missing_record(tmp_path):
    out = _cli(tmp_path, "triangle-check")
    assert checks.triangle(out) == []
    path = out / "triangle.csv"
    good = path.read_text().splitlines()
    # a linked pair whose combined length exceeds the sum, slack consistent
    row = next(i for i, line in enumerate(good) if ",linked," in line)
    a, b, config, ell_a, ell_b, _, _ = good[row].split(",")
    combined = float(ell_a) + float(ell_b) + 0.5
    bad = list(good)
    bad[row] = ",".join([a, b, config, ell_a, ell_b, repr(combined),
                         repr(float(ell_a) + float(ell_b) - combined)])
    path.write_text("\n".join(bad) + "\n")
    assert any("minimum slack" in p for p in checks.triangle(out))
    path.write_text("\n".join(good[:-1]) + "\n")
    assert checks.triangle(out)


def test_limitset_check_rejects_broken_csv_and_svg(tmp_path):
    out = _cli(tmp_path, "--bend-angle", str(THETA), "--maxlen", "6",
               "limitset")
    assert checks.limitset(out, THETA) == []
    svg = out / "limitset.svg"
    good_svg = svg.read_text()
    svg.write_text(good_svg.replace("</svg>", ""))
    assert checks.limitset(out, THETA)
    svg.write_text(good_svg)
    csv = out / "limitset.csv"
    csv.write_text("\n".join(csv.read_text().splitlines()[:-1]) + "\n")
    assert checks.limitset(out, THETA)


def test_run_check_turns_an_unreadable_artifact_into_a_problem(tmp_path):
    problems = checks.run_check(checks.growth, tmp_path, None)
    assert len(problems) == 1 and "FileNotFoundError" in problems[0]
