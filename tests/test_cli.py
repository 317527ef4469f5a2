"""Command-line harness: artifact determinism, schema tags, config
handling, exit-code contract, and the per-command happy paths."""

import copy
import hashlib
import json
import math

import pytest

from qfcert import cli
from qfcert.boundary import witness_to_dict
from qfcert.certificates import certificate_to_dict, find_separation_certificate
from qfcert.cli import main

SCHEMA = "qfcert/1"


def run(tmp_path, *argv):
    """Invoke the CLI in-process with an isolated artifact directory."""
    out = tmp_path / "out"
    code = main(["--outdir", str(out), *argv])
    return code, out


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("QFCERT_OUTDIR", raising=False)


class TestConfigHandling:
    def test_genus_one_is_a_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"genus": 1}')
        assert main(["--config", str(cfg), "ref-rep"]) == 2
        assert "genus" in capsys.readouterr().err

    def test_unknown_config_key_is_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"ben_angle": 0.3}')
        assert main(["--config", str(cfg), "ref-rep"]) == 2
        assert "ben_angle" in capsys.readouterr().err

    def test_malformed_config_is_a_config_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert main(["--config", str(cfg), "ref-rep"]) == 2

    def test_flags_override_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"bend_angle": 0.0}')
        out = tmp_path / "out"
        code = main(["--config", str(cfg), "--bend-angle", "0.6",
                     "--outdir", str(out), "bend"])
        assert code == 0
        assert "first complex-trace word" in capsys.readouterr().out

    def test_env_var_sets_outdir_and_flag_beats_it(self, tmp_path,
                                                   monkeypatch):
        envdir = tmp_path / "from-env"
        monkeypatch.setenv("QFCERT_OUTDIR", str(envdir))
        assert main(["ref-rep"]) == 0
        assert (envdir / "representation.json").exists()
        flagdir = tmp_path / "from-flag"
        assert main(["--outdir", str(flagdir), "ref-rep"]) == 0
        assert (flagdir / "representation.json").exists()

    def test_unknown_flag_exits_with_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main(["--no-such-flag", "ref-rep"])
        assert info.value.code == 2

    def test_seed_config_key_is_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"seed": 20260816}')
        assert main(["--config", str(cfg), "ref-rep"]) == 2
        assert "unknown config key 'seed'" in capsys.readouterr().err

    def test_seed_flag_is_a_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main(["--seed", "1", "ref-rep"])
        assert info.value.code == 2

    @pytest.mark.parametrize("text", ['{"maxlen": true}', '{"Rmax": false}',
                                      '{"bend_angle": true}'],
                             ids=["maxlen", "Rmax", "bend_angle"])
    def test_boolean_is_not_a_number(self, tmp_path, capsys, text):
        # int(True) is 1: without the check, maxlen true ran at maxlen 1
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        code = main(["--config", str(cfg), "--outdir", str(tmp_path / "out"),
                     "spectrum"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "boolean" in err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "out" / "spectrum.csv").exists()

    @pytest.mark.parametrize("value", ["inf", "nan", "-1"])
    def test_rmax_must_be_finite_and_positive(self, tmp_path, capsys, value):
        # an infinite radius never stops pruning, so growth would run
        # forever; the config is checked before any command runs, and
        # ref-rep makes a regression fail fast instead of hanging
        code = main(["--outdir", str(tmp_path / "out"), "--rmax", value,
                     "ref-rep"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Rmax" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_min_ratio_must_be_finite(self, tmp_path, capsys, source):
        # no pair reaches an infinite ratio, so certify would scan every
        # pair and then fail asking for a larger maxlen
        if source == "flag":
            argv = ["--min-ratio", "inf"]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text('{"min_ratio": Infinity}')
            argv = ["--config", str(cfg)]
        code = main(["--outdir", str(tmp_path / "out"), *argv, "certify"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "min_ratio" in err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "out" / "separation_certificate.json").exists()

    @pytest.mark.parametrize("text,key", [('{"maxlen": 1e400}', "maxlen"),
                                          ('{"genus": -Infinity}', "genus")],
                             ids=["maxlen", "genus"])
    def test_infinite_integer_is_a_config_error(self, tmp_path, capsys,
                                                text, key):
        # int() of an infinite float raises OverflowError, not ValueError
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        code = main(["--config", str(cfg), "--outdir", str(tmp_path / "out"),
                     "spectrum"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "out" / "spectrum.csv").exists()

    @pytest.mark.parametrize("below", [False, True],
                             ids=["is-a-file", "under-a-file"])
    def test_uncreatable_outdir_is_a_config_error(self, tmp_path, capsys,
                                                  below):
        blocker = tmp_path / "blocker"
        blocker.write_text("a regular file")
        outdir = blocker / "out" if below else blocker
        assert main(["--outdir", str(outdir), "ref-rep"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "output directory" in err
        assert len(err.splitlines()) == 1
        assert blocker.read_text() == "a regular file"

    @pytest.mark.parametrize("value", ["1e300", "40"])
    def test_growth_refuses_an_oversized_ball(self, tmp_path, capsys,
                                              monkeypatch, value):
        # both radii are finite and positive, so RunConfig accepts them;
        # the growth preflight must refuse before any search starts
        def no_search(*args):
            raise AssertionError("orbit search started")
        monkeypatch.setattr(cli, "estimate_growth", no_search)
        code, out = run(tmp_path, "--rmax", value, "growth")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "elements" in err
        assert len(err.splitlines()) == 1
        assert not (out / "growth.json").exists()

    @pytest.mark.parametrize("value", ["5", "5.99"])
    def test_growth_refuses_rmax_below_six(self, tmp_path, capsys,
                                           monkeypatch, value):
        # too few grid points to fit is known before any search starts
        def no_search(*args):
            raise AssertionError("orbit search started")
        monkeypatch.setattr(cli, "estimate_growth", no_search)
        code, out = run(tmp_path, "--rmax", value, "growth")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Rmax" in err
        assert len(err.splitlines()) == 1
        assert not (out / "growth.json").exists()

    def test_growth_admits_rmax_six(self, tmp_path):
        code, out = run(tmp_path, "--rmax", "6", "growth")
        assert code == 0
        assert json.loads((out / "growth.json").read_text())["Rmax"] == 6.0

    def test_growth_budget_admits_rmax_14(self):
        assert cli._growth_ball_estimate(14.0) <= cli.GROWTH_BALL_BUDGET \
            < cli._growth_ball_estimate(16.0)

    @pytest.mark.parametrize("command,searches,artifact", [
        ("spectrum", ["compute_spectrum"], "spectrum.csv"),
        ("certify", ["find_separation_certificate"],
         "separation_certificate.json"),
        ("triangle-check", ["triangle_harness"], "triangle.csv"),
        ("witness", ["find_complex_trace_element", "find_spiral_witness"],
         "witness.json"),
        ("limitset", ["limit_set_sample"], "limitset.csv"),
    ])
    def test_maxlen_preflight_refuses_before_any_search(
            self, tmp_path, capsys, monkeypatch, command, searches,
            artifact):
        # maxlen 40 passes RunConfig; the preflight must refuse it
        # before any search starts
        def no_search(*args):
            raise AssertionError("search started")
        for name in searches:
            monkeypatch.setattr(cli, name, no_search)
        code, out = run(tmp_path, "--maxlen", "40", command)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "maxlen 40" in err
        assert len(err.splitlines()) == 1
        assert not (out / artifact).exists()

    @pytest.mark.parametrize("command,largest", [
        ("spectrum", 7), ("certify", 6), ("triangle-check", 4),
        ("witness", 8), ("limitset", 8)])
    def test_maxlen_budgets_admit_the_documented_sizes(self, command,
                                                       largest):
        cfg = cli.RunConfig(maxlen=largest)
        assert cli._preflight(cfg, command) == largest
        with pytest.raises(cli.ConfigError):
            cli._preflight(cli.RunConfig(maxlen=largest + 1), command)

    def test_word_estimate(self):
        assert cli._word_estimate(1) == 8.0
        assert cli._word_estimate(3) == 8.0 + 56.0 + 392.0
        assert cli._word_estimate(10 ** 6) == float("inf")


class TestArtifacts:
    def test_ref_rep_writes_schema_tagged_json(self, tmp_path, capsys):
        code, out = run(tmp_path, "ref-rep")
        assert code == 0
        payload = json.loads((out / "representation.json").read_text())
        assert payload["schema"] == SCHEMA
        assert "relator residual" in capsys.readouterr().out

    def test_spectrum_rerun_is_byte_identical(self, tmp_path):
        code1, out1 = run(tmp_path / "a", "spectrum")
        code2, out2 = run(tmp_path / "b", "spectrum")
        assert code1 == code2 == 0
        first = (out1 / "spectrum.csv").read_bytes()
        assert first == (out2 / "spectrum.csv").read_bytes()
        lines = first.decode().splitlines()
        assert lines[0] == "# schema: " + SCHEMA
        assert lines[1] == "word,length"
        assert len(lines) > 700

    def test_certificate_rerun_is_byte_identical(self, tmp_path):
        code1, out1 = run(tmp_path / "a", "certify")
        code2, out2 = run(tmp_path / "b", "certify")
        assert code1 == code2 == 0
        blob = (out1 / "separation_certificate.json").read_bytes()
        assert blob == (out2 / "separation_certificate.json").read_bytes()

    def test_growth_artifact(self, tmp_path):
        out = tmp_path / "out"
        code = main(["--outdir", str(out), "--rmax", "7", "growth"])
        assert code == 0
        payload = json.loads((out / "growth.json").read_text())
        assert payload["schema"] == SCHEMA
        assert payload["type"] == "growth_estimate"
        assert payload["h"] > 0.0

    def test_triangle_check_writes_records(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["--outdir", str(out), "--maxlen", "2",
                     "triangle-check"])
        assert code == 0
        assert "zero violations" in capsys.readouterr().out
        lines = (out / "triangle.csv").read_text().splitlines()
        assert lines[0] == "# schema: " + SCHEMA
        assert len(lines) > 1000


class TestPinnedArtifacts:
    """Artifact digests recorded from an earlier implementation of the
    enumeration, the pair search, limit-set sampling, the witness
    search, the orbit search and the combined-length harness; a refactor
    must reproduce them exactly.  A later --bend-angle
    overrides the default 0.6."""

    @pytest.mark.parametrize("argv,name,digest", [
        (["--maxlen", "4", "spectrum"], "spectrum.csv",
         "f99b2d2e603d049bc28ba689c25c6ee4c5b4e8f93ff4c87a60ccb8ff351aafad"),
        (["--maxlen", "4", "certify"], "separation_certificate.json",
         "753506d53822c0b07b0d08dda10e81f89e4d0d6f92a3dad9201fe63f278424f1"),
        (["--maxlen", "5", "certify"], "separation_certificate.json",
         "71c23b413da1f38906acad12c23d7cac8107694c2d930e9fee24ca6df6e5c49f"),
        (["triangle-check"], "triangle.csv",
         "305a990e3e7da601a36e16a72c181e4a9e1f5ddeb47f51400734005d6e1f7aaf"),
        (["--maxlen", "5", "spectrum"], "spectrum.csv",
         "17b99ec3f754288a20d932fe3347d7870b924beff89762ed1f4218af5bcec642"),
        (["--maxlen", "6", "spectrum"], "spectrum.csv",
         "cdd28969d9429a60ea0071bf21c5b89ff53a6452c03ad435852e05613dbc04a5"),
        (["--maxlen", "7", "witness"], "witness.json",
         "f7e725723e7ee6f59228db3cbc7153abe775828712065275e0200c480ca50bd7"),
        (["--maxlen", "6", "limitset"], "limitset.csv",
         "43e7fc0d7aebb7db7c1b9722128713ef7b334b397f6c80abbadc0fe7e58eef40"),
        (["--maxlen", "6", "limitset"], "limitset.svg",
         "a239a4aeb3f2df16f8ac6fa035069d0995b258ec70a898a909ebe2cf76047819"),
        # at angle 0 the bent representation is real, but its side of the
        # sample stays complex: float64 products there can flip the sign
        # of a zero imaginary part, which the csv writes as -0.0
        (["--bend-angle", "0", "--maxlen", "6", "limitset"], "limitset.csv",
         "9d8b20401fcd6fe4a7028c8bf6847f2ce8dd26ed260992e5cf80ed16d77b3374"),
        (["--bend-angle", "0.76", "--maxlen", "7", "witness"], "witness.json",
         "7b58dc2405c1108d7e1bd13085be45cdf238c8e988f8f12e644394c4cc8d773e"),
        (["--bend-angle", "0.52", "--maxlen", "7", "witness"], "witness.json",
         "1771778fd110efc26d7f0b6eed1a846740c70e87f61f2d4b4bf97c54b28997de"),
        (["--rmax", "10", "growth"], "growth.json",
         "b445ab56994bd2c45fc4042bc0f4e8ee9830414a6680937d29e817749c8066ec"),
        # Rmax 12 is the first pinned run whose levels span several
        # frontier chunks, so it covers the cross-chunk dedup
        (["--rmax", "12", "growth"], "growth.json",
         "aaf0dd18afdcb4c9e0f653278bd4b72e195e7283dffd3f9266b1f42986645698"),
        (["--maxlen", "4", "triangle-check"], "triangle.csv",
         "e56ca74f1d2b96207510192f7094b86c2b6f2801942f3f5fd779419fff1ae974"),
    ], ids=["spectrum", "certify", "certify-maxlen5", "triangle-check",
            "spectrum-maxlen5", "spectrum-maxlen6", "witness-maxlen7",
            "limitset-maxlen6", "limitset-svg-maxlen6",
            "limitset-maxlen6-theta0", "witness-maxlen7-theta0.76",
            "witness-maxlen7-theta0.52", "growth-rmax10", "growth-rmax12",
            "triangle-check-maxlen4"])
    def test_artifact_digest(self, tmp_path, argv, name, digest):
        code, out = run(tmp_path, "--bend-angle", "0.6", *argv)
        assert code == 0
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


class TestBendCommand:
    def test_oversized_angle_is_accepted_but_flagged(self, tmp_path,
                                                     capsys):
        code, out = run(tmp_path, "--bend-angle", "4.0", "bend")
        assert code == 0
        text = capsys.readouterr().out
        assert "flagged" in text and "envelope" in text
        assert (out / "bent_representation.json").exists()

    def test_zero_angle_reports_no_complex_trace(self, tmp_path, capsys):
        code, _ = run(tmp_path, "--bend-angle", "0.0", "bend")
        assert code == 0
        assert "no complex-trace word" in capsys.readouterr().out

    @pytest.mark.parametrize("angle", ["0.1", "0.6", "1.0"])
    def test_first_complex_trace_word(self, tmp_path, capsys, angle):
        code, _ = run(tmp_path, "--bend-angle", angle, "bend")
        assert code == 0
        assert "first complex-trace word up to length 4: a1 a2\n" \
            in capsys.readouterr().out

    def test_half_turn_angle_is_a_config_error(self, tmp_path, capsys):
        import math
        code, _ = run(tmp_path, "--bend-angle", str(math.pi), "bend")
        assert code == 2


class TestCertifyCommand:
    def test_search_validate_and_tamper_cycle(self, tmp_path, capsys):
        code, out = run(tmp_path, "certify")
        assert code == 0
        cert_file = out / "separation_certificate.json"

        assert main(["--outdir", str(out), "certify", "--input",
                     str(cert_file)]) == 0
        assert "certificate valid" in capsys.readouterr().out

        payload = json.loads(cert_file.read_text())
        payload["ell_q_ab"] += 1e-3
        bad_file = tmp_path / "tampered.json"
        bad_file.write_text(json.dumps(payload))
        assert main(["--outdir", str(out), "certify", "--input",
                     str(bad_file)]) == 1
        assert "INVALID" in capsys.readouterr().err

    def test_fuchsian_search_fails_with_exit_one(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["--outdir", str(out), "--bend-angle", "0.0",
                     "certify"])
        assert code == 1
        err = capsys.readouterr().err
        assert "no certificate found" in err
        assert err.startswith("pair scan: 297606 class pairs classified, "
                              "95791 unlinked-aligned, ")

    def test_search_reports_its_pair_counts_on_stderr(self, tmp_path,
                                                      capsys):
        code, _ = run(tmp_path, "certify")
        assert code == 0
        captured = capsys.readouterr()
        assert "pair scan" not in captured.out
        assert captured.err == (
            "pair scan: 297606 class pairs classified, 95791 "
            "unlinked-aligned, 12 ordered pairs evaluated exactly\n")

    @pytest.mark.parametrize("angle", ["0.6", "0.7"])
    def test_certificate_for_another_representation_is_invalid(
            self, tmp_path, capsys, angle):
        code, out = run(tmp_path, "certify")
        assert code == 0
        cert_file = out / "separation_certificate.json"
        if angle == "0.6":
            # the same lengths under another fingerprint
            payload = json.loads(cert_file.read_text())
            payload["rep_id"] = "0" * 16
            cert_file.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["--outdir", str(out), "--bend-angle", angle, "certify",
                     "--input", str(cert_file)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err[0] == "certificate INVALID:"
        assert err[1].startswith("  - rep_id stored ")
        if angle == "0.6":
            assert len(err) == 2
        else:
            assert any("ell_q_a" in line for line in err[2:])

    def test_missing_input_file_is_a_config_error(self, tmp_path):
        code, _ = run(tmp_path, "certify", "--input", "does-not-exist.json")
        assert code == 2


_CERTIFICATE_PAYLOAD = {
    "schema": SCHEMA, "type": "separation_certificate", "rep_id": "0" * 16,
    "a": "a1 b1", "b": "a2", "config": "unlinked_aligned", "ell_q_a": 1.5,
    "ell_q_b": 1.5, "ell_q_ab": 2.5, "ratio": 1.2, "alpha": 0.18,
}


class TestCertifyMalformedInput:
    @pytest.mark.parametrize("payload", [
        {k: v for k, v in _CERTIFICATE_PAYLOAD.items() if k != "ell_q_ab"},
        {**_CERTIFICATE_PAYLOAD, "a": "a9"},
        [_CERTIFICATE_PAYLOAD],
        {**_CERTIFICATE_PAYLOAD, "config": "sideways"},
        {**_CERTIFICATE_PAYLOAD, "ratio": "x"},
        {**_CERTIFICATE_PAYLOAD, "schema": "qfcert/0"},
    ], ids=["missing-key", "bad-word", "json-array", "bad-config",
            "bad-ratio", "wrong-schema"])
    def test_malformed_payload_is_a_config_error(self, tmp_path, capsys,
                                                 payload):
        path = tmp_path / "certificate.json"
        path.write_text(json.dumps(payload))
        code, _ = run(tmp_path, "certify", "--input", str(path))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err


class TestWitnessCommand:
    def test_witness_run_reports_delta_and_gap(self, tmp_path, capsys):
        code, out = run(tmp_path, "witness")
        assert code == 0
        text = capsys.readouterr().out
        assert "witness verified" in text
        assert "diagnostic delta" in text
        assert "delta/2" in text
        payload = json.loads((out / "witness.json").read_text())
        assert payload["schema"] == SCHEMA

    def test_delta_at_an_extreme_chart_ratio(self, tmp_path, capsys):
        # the diagnostic's chart puts image 1 at about 2e-15, beside image 2
        # at 0 and far inside any sphere-chordal endpoint tolerance
        code, _ = run(tmp_path, "--bend-angle", "0.76", "--maxlen", "7",
                      "witness")
        assert code == 0
        assert "diagnostic delta" in capsys.readouterr().out

    def test_unbalanced_search_fails_without_an_artifact(self, tmp_path,
                                                         capsys):
        code, out = run(tmp_path, "--bend-angle", "0.56", "--maxlen", "7",
                        "witness")
        assert code == 1
        assert capsys.readouterr().err == (
            "invariant falsified or computation failed: sample too sparse: "
            "no candidate pair balances the crossing and disjoint axes\n")
        assert not (out / "witness.json").exists()


class TestWitnessInput:
    """witness --input re-verifies a saved witness against the bent
    representation at the configured angle."""

    @pytest.fixture
    def witness_file(self, tmp_path, witness_run):
        path = tmp_path / "witness.json"
        path.write_text(json.dumps(witness_to_dict(witness_run.witness)))
        return path

    def test_valid_witness_exits_zero(self, tmp_path, capsys, witness_file):
        code, out = run(tmp_path, "--bend-angle", "0.6", "witness",
                        "--input", str(witness_file))
        assert code == 0
        assert "witness valid" in capsys.readouterr().out
        assert not (out / "witness.json").exists()

    def test_tampered_witness_exits_one(self, tmp_path, capsys,
                                        witness_file):
        payload = json.loads(witness_file.read_text())
        payload["radii"] = payload["radii"][::-1]
        witness_file.write_text(json.dumps(payload))
        code, _ = run(tmp_path, "--bend-angle", "0.6", "witness",
                      "--input", str(witness_file))
        assert code == 1
        assert "INVALID" in capsys.readouterr().err

    def test_fractional_index_is_a_config_error(self, tmp_path, capsys,
                                                witness_file):
        payload = json.loads(witness_file.read_text())
        payload["indices_n"][0] += 0.7
        witness_file.write_text(json.dumps(payload))
        code, _ = run(tmp_path, "--bend-angle", "0.6", "witness",
                      "--input", str(witness_file))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "indices_n" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("text", ['{"schema": "qfcert/1"}', "[1, 2",
                                      None],
                             ids=["malformed", "not-json", "missing-file"])
    def test_unreadable_witness_is_a_config_error(self, tmp_path, capsys,
                                                  text):
        path = tmp_path / "witness.json"
        if text is not None:
            path.write_text(text)
        code, _ = run(tmp_path, "witness", "--input", str(path))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert len(err.splitlines()) == 1


def numeric_fields(payload, path=()):
    """Paths to every number in a JSON payload, depth first."""
    items = payload.items() if isinstance(payload, dict) \
        else enumerate(payload) if isinstance(payload, list) else ()
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from numeric_fields(value, path + (key,))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield path + (key,)


def value_at(payload, path):
    for key in path:
        payload = payload[key]
    return payload


def with_value(payload, path, value):
    out = copy.deepcopy(payload)
    value_at(out, path[:-1])[path[-1]] = value
    return out


def run_input(tmp_path, command, payload):
    """Exit code of `command --input` on payload, at bend angle 0.6."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    return main(["--outdir", str(tmp_path / "out"), "--bend-angle", "0.6",
                 command, "--input", str(path)])


FORGED_VALUES = (0, -1, math.nan, math.inf, 1e308)


class TestInputContract:
    """Every numeric field of a saved witness or certificate, set to an
    extreme value, gives exit 1 or 2 and no traceback; the few settings a
    witness verifier cannot refute are listed."""

    # r0 beyond its sign comes from the sample, which the witness does not
    # carry; window 1 starting at -1 instead of 0 still holds its point
    UNPROVABLE = {(("r0",), 1e308), (("indices_n", 0), -1)}

    @pytest.fixture(scope="class")
    def certificate(self, bent_rep):
        return certificate_to_dict(find_separation_certificate(bent_rep, 4))

    @pytest.mark.parametrize("value", FORGED_VALUES, ids=str)
    def test_witness_fields(self, tmp_path, capsys, witness_run, value):
        payload = witness_to_dict(witness_run.witness)
        accepted = set()
        for path in numeric_fields(payload):
            if value_at(payload, path) == value:
                continue
            code = run_input(tmp_path, "witness",
                             with_value(payload, path, value))
            assert code in (0, 1, 2), path
            if code == 0:
                accepted.add((path, value))
        assert "Traceback" not in capsys.readouterr().err
        assert accepted == {case for case in self.UNPROVABLE
                            if case[1] == value}

    @pytest.mark.parametrize("value", FORGED_VALUES, ids=str)
    def test_certificate_fields(self, tmp_path, capsys, certificate, value):
        assert run_input(tmp_path, "certify", certificate) == 0
        fields = list(numeric_fields(certificate))
        assert len(fields) == 5
        for path in fields:
            code = run_input(tmp_path, "certify",
                             with_value(certificate, path, value))
            assert code in (1, 2), path
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("path,value", [
        (("Lambda",), 1e6), (("Lambda",), math.inf), (("Theta",), 5.0),
        (("R0",), -1.0), (("R0",), 0.0), (("r0",), -1.0), (("r0",), 0.0),
        (("r0",), math.inf), (("radii", 3), math.inf),
        (("arglift", 1), 0.25), (("arglift", 3), None),
        (("xi", 2, "angle"), None),
    ], ids=["lambda-1e6", "lambda-inf", "theta-5", "R0-negative", "R0-zero",
            "r0-negative", "r0-zero", "r0-inf", "radius-inf",
            "arglift-quarter", "arglift-shifted", "xi-angle-shifted"])
    def test_forged_witness_is_invalid(self, tmp_path, capsys, witness_run,
                                       path, value):
        payload = witness_to_dict(witness_run.witness)
        if value is None:
            # a shift of 1e-6 turns from the stored value
            value = value_at(payload, path) + 1e-6
        assert run_input(tmp_path, "witness",
                         with_value(payload, path, value)) == 1
        assert capsys.readouterr().err \
            == "witness INVALID: fails independent verification\n"

    def test_window_without_its_point_is_invalid(self, tmp_path, capsys,
                                                 witness_run):
        # window 1 moved to [-10, -4) keeps its width, so every index
        # inequality still holds, but no one fundamental interval has
        # xi[0] among its translates -10 .. -5 and each other point in
        # its own window
        payload = witness_to_dict(witness_run.witness)
        payload = with_value(with_value(payload, ("indices_n", 0), -10),
                             ("indices_m", 0), -4)
        assert run_input(tmp_path, "witness", payload) == 1
        assert capsys.readouterr().err \
            == "witness INVALID: fails independent verification\n"

    def test_relator_product_is_invalid(self, tmp_path, capsys, certificate):
        # a b is the relator: l(ab) recomputes to 0 and there is no ratio
        payload = {**certificate, "a": "a1 b1 A1 B1", "b": "a2 b2 A2 B2"}
        assert run_input(tmp_path, "certify", payload) == 1
        err = capsys.readouterr().err
        assert err.startswith("certificate INVALID:\n")
        assert "  - l(ab) recomputes to 0, not positive\n" in err
        assert "Traceback" not in err


class TestLimitsetCommand:
    def test_limitset_emits_enough_points(self, tmp_path, capsys):
        code, out = run(tmp_path, "limitset")
        assert code == 0
        lines = (out / "limitset.csv").read_text().splitlines()
        assert lines[0] == "# schema: " + SCHEMA
        assert lines[1] == "word,angle_ref,re,im"
        assert len(lines) - 2 >= 1000
        svg = (out / "limitset.svg").read_text()
        assert svg.startswith("<!-- schema: " + SCHEMA + " -->")
        assert svg.count("<circle") >= 1000
