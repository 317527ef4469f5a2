"""Command-line harness: artifact determinism, schema tags, config
handling, exit-code contract, and the per-command happy paths."""

import ast
import copy
import dataclasses
import errno
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qfcert import boundary, certificates, check, cli
from qfcert.certificates import find_separation_certificate
from qfcert.check import (
    BoundaryError,
    CertificateError,
    certificate_to_dict,
    witness_to_dict,
)
from qfcert.cli import ConfigError, main
from qfcert.moebius import InvariantError, MoebiusError
from qfcert.representations import (
    GrowthEstimate,
    RepresentationError,
    envelope,
)

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
    def test_genus_is_an_unknown_config_key(self, tmp_path, capsys):
        # the group is genus 2; there is no genus to configure
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"genus": 2}')
        assert main(["--config", str(cfg), "ref-rep"]) == 2
        assert "unknown config key 'genus'" in capsys.readouterr().err

    def test_genus_flag_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["--outdir", str(tmp_path / "out"), "--genus", "2",
                  "ref-rep"])
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()

    def test_unknown_config_key_is_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"ben_angle": 0.3}')
        assert main(["--config", str(cfg), "ref-rep"]) == 2
        assert "ben_angle" in capsys.readouterr().err

    def test_malformed_config_is_a_config_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert main(["--config", str(cfg), "ref-rep"]) == 2

    @pytest.mark.parametrize("argv", [
        ["--config", "{path}", "spectrum"],
        ["certify", "--input", "{path}"],
        ["witness", "--input", "{path}"],
    ], ids=["config", "certify-input", "witness-input"])
    def test_deep_nesting_is_a_config_error(self, tmp_path, capsys, argv):
        # json.loads raises RecursionError on nesting this deep
        path = tmp_path / "deep.json"
        path.write_text("[" * 200000 + "]" * 200000)
        code, _ = run(tmp_path, *(a.format(path=path) for a in argv))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot read ")
        assert len(err.splitlines()) == 1

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

    def test_quoted_number_is_not_a_number(self, tmp_path, capsys):
        # int("3") and float("0.6") would parse the strings
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"maxlen": "3", "bend_angle": "0.6"}')
        code = main(["--config", str(cfg), "--outdir", str(tmp_path / "out"),
                     "spectrum"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: config key ") \
            and "expected a number, got '" in err
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
                                          ('{"maxlen": -Infinity}', "maxlen")],
                             ids=["maxlen", "negative-maxlen"])
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

    # one case per write path: the CSV rows, a JSON payload, a whole text
    @pytest.mark.parametrize("args,artifact", [
        (("--maxlen", "2", "spectrum"), "spectrum.csv"),
        (("--rmax", "7", "growth"), "growth.json"),
        (("ref-rep",), "representation.json"),
    ], ids=["csv", "json", "text"])
    def test_unwritable_artifact_is_a_config_error(self, tmp_path, capsys,
                                                   args, artifact):
        # a directory in the artifact's place cannot be opened for writing
        (tmp_path / artifact).mkdir()
        assert main(["--outdir", str(tmp_path), *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot write") \
            and artifact in err
        assert len(err.splitlines()) == 1
        assert (tmp_path / artifact).is_dir()

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

    # each search is patched where its handler looks it up: cli for the
    # representations names, the defining module for the names that a
    # handler imports when it runs
    @pytest.mark.parametrize("command,searches,artifact", [
        ("spectrum", ["qfcert.cli.spectrum_rows"], "spectrum.csv"),
        ("certify", ["qfcert.certificates.find_separation_certificate"],
         "separation_certificate.json"),
        ("triangle-check", ["qfcert.certificates.triangle_harness"],
         "triangle.csv"),
        ("witness", ["qfcert.cli.find_complex_trace_element",
                     "qfcert.boundary.find_spiral_witness"], "witness.json"),
        ("limitset", ["qfcert.boundary.limit_set_sample"], "limitset.csv"),
    ])
    def test_maxlen_preflight_refuses_before_any_search(
            self, tmp_path, capsys, monkeypatch, command, searches,
            artifact):
        # maxlen 40 passes RunConfig; the preflight must refuse it
        # before any search starts
        def no_search(*args):
            raise AssertionError("search started")
        for target in searches:
            monkeypatch.setattr(target, no_search)
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
        with pytest.raises(cli.ConfigError, match="^%s at maxlen %d is over "
                           "its cap of maxlen %d$"
                           % (command, largest + 1, largest)):
            cli._preflight(cli.RunConfig(maxlen=largest + 1), command)


INVARIANT_ERRORS = [MoebiusError, RepresentationError, BoundaryError,
                    CertificateError]


class TestErrorMapping:
    """main maps a ConfigError to exit 2 and an InvariantError to exit 1,
    each with one stderr line; any other exception propagates."""

    @staticmethod
    def _raising(monkeypatch, exc):
        def command(cfg, out, args):
            raise exc
        monkeypatch.setitem(cli._COMMANDS, "ref-rep", command)

    @pytest.mark.parametrize("error", INVARIANT_ERRORS,
                             ids=lambda error: error.__name__)
    def test_error_class_is_an_invariant_error(self, error):
        assert issubclass(error, InvariantError)

    @pytest.mark.parametrize("error", INVARIANT_ERRORS,
                             ids=lambda error: error.__name__)
    def test_invariant_error_exits_one(self, tmp_path, capsys, monkeypatch,
                                       error):
        self._raising(monkeypatch, error("forced failure"))
        code, _ = run(tmp_path, "ref-rep")
        assert code == 1
        assert capsys.readouterr().err == (
            "invariant falsified or computation failed: forced failure\n")

    def test_config_error_exits_two(self, tmp_path, capsys, monkeypatch):
        self._raising(monkeypatch, ConfigError("forced failure"))
        code, _ = run(tmp_path, "ref-rep")
        assert code == 2
        assert capsys.readouterr().err == "config error: forced failure\n"

    def test_plain_value_error_propagates(self, tmp_path, monkeypatch):
        self._raising(monkeypatch, ValueError("not an invariant"))
        with pytest.raises(ValueError, match="not an invariant"):
            run(tmp_path, "ref-rep")


def _fresh_env(**preset):
    """The environment of a fresh interpreter that imports this tree's
    qfcert, with no output directory and no OpenBLAS timeout inherited,
    then preset on top."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    env.pop("QFCERT_OUTDIR", None)
    env.pop("OPENBLAS_THREAD_TIMEOUT", None)
    env.update(preset)
    return env


_BROKEN_PIPE = "config error: cannot write standard output: [Errno 32] " \
    "Broken pipe\n"


class TestStandardOutput:
    """A write or flush of standard output that fails is a config error:
    exit 2 with one stderr line and no traceback, whether it fails in a
    command's print or in main's final flush of a buffer."""

    @pytest.mark.parametrize("method, error", [
        ("write", BrokenPipeError(errno.EPIPE, "Broken pipe")),
        ("write", OSError(errno.ENOSPC, "No space left on device")),
        ("flush", BrokenPipeError(errno.EPIPE, "Broken pipe")),
    ], ids=["write-broken-pipe", "write-no-space", "flush-broken-pipe"])
    def test_failed_stdout_exits_two(self, tmp_path, capsys, monkeypatch,
                                     method, error):
        def fail(*args):
            raise error

        stdout = io.StringIO()
        monkeypatch.setattr(stdout, method, fail)
        monkeypatch.setattr(sys, "stdout", stdout)
        code, out = run(tmp_path, "--maxlen", "3", "spectrum")
        assert code == 2
        assert capsys.readouterr().err == (
            "config error: cannot write standard output: %s\n" % error)
        assert sys.stdout is stdout
        assert (out / "spectrum.csv").exists()

    def test_absent_stdout_is_left_alone(self, tmp_path, monkeypatch):
        # sys.stdout is None when the process started with fd 1 closed;
        # print then writes nothing, and the command runs as before
        monkeypatch.setattr(sys, "stdout", None)
        code, out = run(tmp_path, "--maxlen", "3", "spectrum")
        assert code == 0
        assert sys.stdout is None
        assert (out / "spectrum.csv").exists()

    @pytest.mark.parametrize("buffered,argv,code,stderr", [
        (False, ["--maxlen", "3", "spectrum"], 2, _BROKEN_PIPE),
        (True, ["--maxlen", "3", "spectrum"], 2, _BROKEN_PIPE),
        # argparse's help drops the failed write and exits 0; buffered,
        # the write fails only at the interpreter's shutdown flush instead
        (False, ["--help"], 0, ""),
    ], ids=["unbuffered", "buffered", "help-unbuffered"])
    def test_closed_pipe_exits_two_without_traceback(self, tmp_path,
                                                     buffered, argv, code,
                                                     stderr):
        # buffered, the lines reach the pipe only at main's final flush
        env = _fresh_env()
        env.pop("PYTHONUNBUFFERED", None)
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "qfcert.cli", "--outdir",
                 str(tmp_path), *argv],
                stdout=write_end, stderr=subprocess.PIPE, env=env,
                text=True, timeout=300)
        finally:
            os.close(write_end)
        assert "Traceback" not in done.stderr
        assert "Exception ignored" not in done.stderr
        assert done.stderr == stderr
        assert done.returncode == code


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
        # the envelope, the dataclass's fields, and the radius it ran to
        assert payload.keys() == {
            *envelope("growth_estimate"),
            *(f.name for f in dataclasses.fields(GrowthEstimate)), "Rmax"}

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
    overrides the default 0.6.  The maxlen-7 witness digests were taken
    again when the sample began walking normal forms: its maxlen-7 sample
    lost two rows, spellings that were not normal forms."""

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
         "2a1529e9e3d789ef27eb155e07c0aef84462634acf1e695612b09a74d0f40946"),
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
         "d5775d002ea5138b3a138b84e2d40edab5df1f14aeb375fe112120a411d8360c"),
        (["--bend-angle", "0.52", "--maxlen", "7", "witness"], "witness.json",
         "8e2b85c44da303a39ddf91d930f354cd13abb117513ed2ed59edb033ab11adf7"),
        (["--rmax", "10", "growth"], "growth.json",
         "b445ab56994bd2c45fc4042bc0f4e8ee9830414a6680937d29e817749c8066ec"),
        # Rmax 12 walks about seven times as many elements as Rmax 10
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
        # the whole report, counts and best ratio included
        assert capsys.readouterr().err == (
            "pair scan: 297606 class pairs classified, 95791 "
            "unlinked-aligned, 67486 pairs evaluated exactly\n"
            "no certificate found: no unlinked-aligned pair reached ratio "
            "1.0000010 (best found 1.0000000); increase maxlen or the "
            "deformation\n")

    def test_search_reports_its_pair_counts_on_stderr(self, tmp_path,
                                                      capsys):
        for maxlen, counts in (("4", (297606, 95791, 67486)),
                               ("5", (8402950, 2716606, 94118))):
            code, _ = run(tmp_path, "--maxlen", maxlen, "certify")
            assert code == 0
            captured = capsys.readouterr()
            assert "pair scan" not in captured.out
            assert captured.err == (
                "pair scan: %d class pairs classified, %d unlinked-aligned, "
                "%d pairs evaluated exactly\n" % counts)

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

    def test_failed_revalidation_writes_no_certificate(self, tmp_path, capsys,
                                                        monkeypatch):
        # the search's own acceptance check rejects its winner
        monkeypatch.setattr(certificates, "certificate_problems",
                            lambda cert, rep: ["forced problem"])
        code, out = run(tmp_path, "certify")
        assert code == 1
        scan, failure = capsys.readouterr().err.splitlines()
        assert scan.startswith("pair scan: ")
        assert failure.startswith("no certificate found: winning pair failed "
                                  "scalar recomputation")
        assert failure.endswith("; forced problem")
        assert not (out / "separation_certificate.json").exists()


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
        assert text.index("witness verified") < text.index("diagnostic delta") \
            < text.index("delta/2")
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

    def test_failed_verification_writes_no_witness(self, tmp_path, capsys,
                                                   monkeypatch, witness_run):
        # the search returns the fixture's witness; the check inside
        # diagnostic_delta, the gate before the write, fails
        monkeypatch.setattr(boundary, "find_spiral_witness",
                            lambda rep, gamma, maxlen: witness_run.witness)
        monkeypatch.setattr(certificates, "verify_witness_orders",
                            lambda witness, rep: False)
        code, out = run(tmp_path, "witness")
        assert code == 1
        assert capsys.readouterr().err == (
            "invariant falsified or computation failed: witness does not "
            "verify against this representation\n")
        assert not (out / "witness.json").exists()


    def test_failed_delta_writes_no_witness(self, tmp_path, capsys,
                                            monkeypatch):
        def no_delta(rep, witness):
            raise CertificateError("forced delta failure")
        monkeypatch.setattr(certificates, "diagnostic_delta", no_delta)
        code, out = run(tmp_path, "--maxlen", "6", "--bend-angle", "0.5",
                        "witness")
        assert code == 1
        assert "forced delta failure" in capsys.readouterr().err
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


# 10 ** 400 is beyond float range: float() raises OverflowError on it
FORGED_VALUES = (0, -1, math.nan, math.inf, 1e308, 10 ** 400, True)


def forged_id(value):
    """The test id of a forged value; the 401-digit integer is named."""
    return "10**400" if value == 10 ** 400 else str(value)


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

    @pytest.mark.parametrize("value", FORGED_VALUES, ids=forged_id)
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

    @pytest.mark.parametrize("value", FORGED_VALUES, ids=forged_id)
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
        # a word that does not name the stored point, or names none
        (("xi_star", "word"), "b2"), (("xi_star", "word"), ""),
    ], ids=["lambda-1e6", "lambda-inf", "theta-5", "R0-negative", "R0-zero",
            "r0-negative", "r0-zero", "r0-inf", "radius-inf",
            "arglift-quarter", "arglift-shifted", "xi-angle-shifted",
            "xi-star-word-b2", "xi-star-word-empty"])
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

    @staticmethod
    def assert_malformed(capsys, what, runs):
        err = capsys.readouterr().err.splitlines()
        assert len(err) == runs
        assert all(line.startswith("config error: cannot read %s " % what)
                   and "malformed %s payload" % what in line for line in err)

    def test_quoted_certificate_numbers_are_malformed(self, tmp_path, capsys,
                                                      certificate):
        # float() would parse "1.5", so a quoted number would still validate
        payload = certificate
        for path in numeric_fields(certificate):
            payload = with_value(payload, path, repr(value_at(payload, path)))
        assert run_input(tmp_path, "certify", payload) == 2
        self.assert_malformed(capsys, "certificate", 1)

    def test_quoted_witness_numbers_are_malformed(self, tmp_path, capsys,
                                                  witness_run):
        payload = witness_to_dict(witness_run.witness)
        paths = list(numeric_fields(payload))
        for path in paths:
            quoted = with_value(payload, path, repr(value_at(payload, path)))
            assert run_input(tmp_path, "witness", quoted) == 2, path
        self.assert_malformed(capsys, "witness", len(paths))

    def test_witness_lists_must_be_arrays(self, tmp_path, capsys,
                                          witness_run):
        # iterating the string "1234" would read radii (1, 2, 3, 4)
        payload = witness_to_dict(witness_run.witness)
        keys = ("xi", "indices_n", "indices_m", "radii", "arglift")
        for key in keys:
            assert run_input(tmp_path, "witness", {**payload, key: "1234"}) \
                == 2, key
        self.assert_malformed(capsys, "witness", len(keys))

    def test_certificate_text_fields_must_be_strings(self, tmp_path, capsys,
                                                     certificate):
        # str() would make the number 1234 a rep_id, which only mismatches
        for key in ("rep_id", "a", "b"):
            assert run_input(tmp_path, "certify", {**certificate, key: 1234}) \
                == 2, key
        self.assert_malformed(capsys, "certificate", 3)


def calls_of(module, name):
    """(enclosing top-level function, whether inside an ``if args.input is
    not None`` body) for each call of name in module's source."""
    found = []

    def visit(node, top, in_input):
        if isinstance(node, ast.Call) and name in (
                getattr(node.func, "id", None),
                getattr(node.func, "attr", None)):
            found.append((top, in_input))
        input_branch = isinstance(node, ast.If) \
            and ast.unparse(node.test) == "args.input is not None"
        for child in ast.iter_child_nodes(node):
            visit(child, top,
                  in_input or (input_branch and child in node.body))

    for top in ast.parse(Path(module.__file__).read_text()).body:
        visit(top, getattr(top, "name", None), False)
    return found


class TestOneAcceptanceCheck:
    """Each artifact is accepted once, by the code that produces it: the
    search's winner by certificate_problems, a witness by the search and
    again by diagnostic_delta; the CLI applies each rule only to --input
    files."""

    def test_only_certificate_problems_classifies_a_certificate_pair(self):
        assert calls_of(check, "classify_pairs") \
            == [("certificate_problems", False)]

    @pytest.mark.parametrize("name,command", [
        ("verify_witness_orders", "cmd_witness"),
        ("certificate_problems", "cmd_certify")])
    def test_cli_checks_only_input_files(self, name, command):
        assert calls_of(cli, name) == [(command, True)]

    def test_verifier_classifies_only_the_image_side(self):
        assert [top for top, _ in calls_of(check, "classify_real_pairs")
                if top == "verify_witness_orders"] \
            == ["verify_witness_orders"]


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

    def test_failed_svg_writes_no_csv(self, tmp_path, capsys, monkeypatch):
        def no_svg(sample):
            raise BoundaryError("forced svg failure")
        monkeypatch.setattr(boundary, "sample_to_svg", no_svg)
        code, out = run(tmp_path, "--maxlen", "3", "limitset")
        assert code == 1
        assert "forced svg failure" in capsys.readouterr().err
        assert not (out / "limitset.csv").exists()


class TestImports:
    """Each command loads only the modules it runs.  np.unique and
    np.percentile go through numpy.ma; the endpoint ranking deduplicates
    and the SVG window takes its quantiles by sorting.  check, boundary
    and certificates are imported by the handlers that use them, and an
    --input check loads check alone.  Each check runs commands in a fresh
    interpreter, since this one has loaded every module already."""

    @staticmethod
    def _run_fresh(tmp_path, unloaded, *calls):
        """Run calls in a fresh interpreter, then assert that none of the
        modules named in unloaded was imported."""
        script = "\n".join([
            "import sys",
            "from qfcert.cli import main",
            "out = ['--outdir', sys.argv[1]]",
            *calls,
            *("assert %r not in sys.modules, '%s was imported'"
              % (name, name) for name in unloaded)])
        done = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                              env=_fresh_env(), capture_output=True,
                              text=True, timeout=300)
        assert done.returncode == 0, done.stderr

    def test_pair_scans_do_not_import_numpy_ma(self, tmp_path):
        self._run_fresh(
            tmp_path, ["numpy.ma"],
            "assert main([*out, '--maxlen', '3', 'certify']) in (0, 1)",
            "assert main([*out, 'triangle-check']) == 0")

    def test_limitset_does_not_import_numpy_ma(self, tmp_path):
        # the SVG window's quantiles come from a sort, not np.percentile
        self._run_fresh(
            tmp_path, ["numpy.ma"],
            "assert main([*out, '--maxlen', '4', 'limitset']) == 0")

    def test_growth_does_not_import_numpy_ma(self, tmp_path):
        self._run_fresh(
            tmp_path, ["numpy.ma"],
            "assert main([*out, '--rmax', '6', 'growth']) == 0")

    def test_witness_does_not_import_numpy_ma(self, tmp_path):
        self._run_fresh(
            tmp_path, ["numpy.ma"],
            "assert main([*out, '--maxlen', '5', 'witness']) == 0",
            "assert main([*out, 'witness', '--input',"
            " sys.argv[1] + '/witness.json']) == 0")

    @pytest.mark.parametrize("argv", [
        ["--rmax", "6", "growth"],
        ["spectrum"],
        ["ref-rep"],
        ["bend"],
    ], ids=["growth", "spectrum", "ref-rep", "bend"])
    def test_command_loads_neither_boundary_nor_certificates(self, tmp_path,
                                                             argv):
        self._run_fresh(
            tmp_path, ["qfcert.boundary", "qfcert.certificates",
                       "qfcert.check"],
            "assert main([*out, *%r]) == 0" % (argv,))

    def test_certificate_input_loads_only_the_checker(self, tmp_path,
                                                      bent_rep):
        path = tmp_path / "certificate.json"
        path.write_text(json.dumps(certificate_to_dict(
            find_separation_certificate(bent_rep, 4))))
        self._run_fresh(
            tmp_path, ["qfcert.boundary", "qfcert.certificates"],
            "assert main([*out, 'certify', '--input', %r]) == 0" % str(path),
            "assert 'qfcert.check' in sys.modules")

    def test_witness_input_loads_only_the_checker(self, tmp_path,
                                                  witness_run):
        path = tmp_path / "witness.json"
        path.write_text(json.dumps(witness_to_dict(witness_run.witness)))
        self._run_fresh(
            tmp_path, ["qfcert.boundary", "qfcert.certificates"],
            "assert main([*out, 'witness', '--input', %r]) == 0" % str(path),
            "assert 'qfcert.check' in sys.modules")

    def test_limitset_does_not_load_certificates(self, tmp_path):
        self._run_fresh(
            tmp_path, ["qfcert.certificates"],
            "assert main([*out, '--maxlen', '4', 'limitset']) == 0",
            "assert 'qfcert.boundary' in sys.modules")

    def test_config_error_loads_neither_boundary_nor_certificates(
            self, tmp_path):
        # load_config refuses before any handler runs
        self._run_fresh(
            tmp_path, ["qfcert.boundary", "qfcert.certificates",
                       "qfcert.check"],
            "assert main([*out, '--rmax', '-1', 'certify']) == 2",
            "assert main([*out, '--config', sys.argv[1] + '/missing.json',"
            " 'witness']) == 2")


class TestBlasThreadTimeout:
    """The CLI sets OPENBLAS_THREAD_TIMEOUT before numpy loads, so the
    worker thread numpy's OpenBLAS starts on import sleeps at once; a
    value already set holds, and the package and library modules leave
    the environment alone.  Each check runs in a fresh interpreter whose
    environment lacks the variable."""

    @staticmethod
    def _run_fresh(*lines, **preset):
        done = subprocess.run([sys.executable, "-c", "\n".join(lines)],
                              env=_fresh_env(**preset), capture_output=True,
                              text=True, timeout=300)
        assert done.returncode == 0, done.stderr

    def test_set_before_numpy_is_looked_up(self):
        self._run_fresh(
            "import os, sys",
            "seen = []",
            "class Spy:",
            "    @staticmethod",
            "    def find_spec(name, path=None, target=None):",
            "        if name == 'numpy':",
            "            if 'OPENBLAS_THREAD_TIMEOUT' not in os.environ:",
            "                raise ImportError('numpy looked up before "
            "OPENBLAS_THREAD_TIMEOUT was set')",
            "            seen.append(name)",
            "sys.meta_path.insert(0, Spy)",
            "assert 'numpy' not in sys.modules",
            "import qfcert.cli",
            "assert seen == ['numpy'], seen",
            "assert os.environ['OPENBLAS_THREAD_TIMEOUT'] == '4'")

    def test_preset_value_holds(self):
        self._run_fresh(
            "import os",
            "import qfcert.cli",
            "assert os.environ['OPENBLAS_THREAD_TIMEOUT'] == '12'",
            OPENBLAS_THREAD_TIMEOUT="12")

    def test_library_imports_leave_it_unset(self):
        self._run_fresh(
            "import os, sys",
            "import qfcert",
            "assert 'OPENBLAS_THREAD_TIMEOUT' not in os.environ",
            "import qfcert.boundary",
            "assert 'numpy' in sys.modules",
            "assert 'qfcert.cli' not in sys.modules",
            "assert 'OPENBLAS_THREAD_TIMEOUT' not in os.environ")
