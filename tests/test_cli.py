"""Command-line harness: artifact determinism, schema tags, config
handling, exit-code contract, and the per-command happy paths."""

import hashlib
import json

import pytest

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
    enumeration and pair search; a refactor must reproduce them exactly."""

    @pytest.mark.parametrize("argv,name,digest", [
        (["--maxlen", "4", "spectrum"], "spectrum.csv",
         "f99b2d2e603d049bc28ba689c25c6ee4c5b4e8f93ff4c87a60ccb8ff351aafad"),
        (["--maxlen", "4", "certify"], "separation_certificate.json",
         "753506d53822c0b07b0d08dda10e81f89e4d0d6f92a3dad9201fe63f278424f1"),
        (["triangle-check"], "triangle.csv",
         "305a990e3e7da601a36e16a72c181e4a9e1f5ddeb47f51400734005d6e1f7aaf"),
        (["--maxlen", "5", "spectrum"], "spectrum.csv",
         "17b99ec3f754288a20d932fe3347d7870b924beff89762ed1f4218af5bcec642"),
    ], ids=["spectrum", "certify", "triangle-check", "spectrum-maxlen5"])
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
        assert "no certificate found" in capsys.readouterr().err

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
