"""Combined-length inequalities, spectrum-ratio bounds, and separation
certificates: search, independent re-validation, tamper detection, and
the witness-based boundary diagnostic."""

import cmath
import dataclasses
import math

import pytest

import qfcert.certificates as certmod
from qfcert.boundary import PairConfig, classify_pairs
from qfcert.certificates import (
    CertificateError,
    certificate_from_dict,
    certificate_problems,
    certificate_to_dict,
    certify,
    diagnostic_delta,
    find_separation_certificate,
    ratio_lower_bound,
    triangle_harness,
)
from qfcert.moebius import MoebiusMap
from qfcert.representations import (
    LengthSpectrum,
    bend,
    compute_spectrum,
    conjugate_representation,
    evaluate,
    fuchsian_octagon,
    normalize_spectrum,
    stable_length,
)
from qfcert.surface_group import Word


@pytest.fixture(scope="module")
def reference_rep():
    return fuchsian_octagon()


@pytest.fixture(scope="module")
def harness_records(reference_rep):
    return triangle_harness(reference_rep, 3)


@pytest.fixture(scope="module")
def bent_certificate(bent_rep):
    return find_separation_certificate(bent_rep, 4)


class TestTriangleHarness:
    def test_runs_clean_with_positive_slack(self, harness_records):
        # the harness raises on any violation, so completing is the check
        assert len(harness_records) > 10_000
        assert min(r.slack for r in harness_records) > 1e-9

    def test_covers_all_three_configurations(self, harness_records):
        seen = {r.config for r in harness_records}
        assert PairConfig.LINKED in seen
        assert PairConfig.UNLINKED_ALIGNED in seen
        assert PairConfig.UNLINKED_MISALIGNED in seen

    def test_record_configs_match_scalar_classification(
            self, harness_records):
        assert all(r.config is classify_pairs(r.a, r.b)
                   for r in harness_records)

    def test_same_axis_pairs_are_skipped(self, harness_records):
        a1 = Word((1,))
        square = Word((1, 1))
        for r in harness_records:
            assert not (r.a == a1 and r.b == square)
            assert r.config is not PairConfig.DEGENERATE

    def test_linked_slack_against_direct_trace_recomputation(
            self, reference_rep, harness_records):
        rec = next(r for r in harness_records
                   if r.config is PairConfig.LINKED)
        prod = evaluate(reference_rep, rec.a * rec.b)
        ell = 2.0 * abs(cmath.acosh(prod.trace / 2.0).real)
        assert rec.ell_combined == pytest.approx(ell, abs=1e-9)
        assert rec.slack == pytest.approx(
            (rec.ell_a + rec.ell_b) - ell, abs=1e-9)


class TestRatioLowerBound:
    def test_identical_spectra_give_zero(self, reference_rep):
        spec = compute_spectrum(reference_rep, 3)
        bound = ratio_lower_bound(spec, spec, 3)
        assert bound.value == 0.0

    def test_rescaled_spectrum_gives_zero(self, reference_rep):
        spec = compute_spectrum(reference_rep, 3)
        scaled = normalize_spectrum(spec, 1.7)
        bound = ratio_lower_bound(spec, scaled, 3)
        assert abs(bound.value) < 1e-12

    def test_deformation_is_detected(self, reference_rep, bent_rep):
        spec_f = compute_spectrum(reference_rep, 4)
        spec_q = compute_spectrum(bent_rep, 4)
        bound = ratio_lower_bound(spec_f, spec_q, 4)
        assert bound.value > 0.05

    def test_symmetric_in_its_arguments(self, reference_rep, bent_rep):
        spec_f = compute_spectrum(reference_rep, 3)
        spec_q = compute_spectrum(bent_rep, 3)
        fwd = ratio_lower_bound(spec_f, spec_q, 3)
        rev = ratio_lower_bound(spec_q, spec_f, 3)
        assert fwd.value == pytest.approx(rev.value, abs=1e-12)

    def test_no_common_words_is_an_error(self):
        s1 = LengthSpectrum(rep_id="x", entries={Word((1,)): 1.0})
        s2 = LengthSpectrum(rep_id="y", entries={Word((2,)): 1.0})
        with pytest.raises(CertificateError):
            ratio_lower_bound(s1, s2, 3)


class TestSeparationCertificate:
    def test_search_succeeds_on_bent_representation(self, bent_certificate):
        cert = bent_certificate
        assert cert.a == Word((1, 3))
        assert cert.b == Word((1, 3, 1, -3))
        assert cert.ratio > 1.0 + 1e-6
        assert cert.alpha == pytest.approx(math.log(cert.ratio), abs=1e-15)

    def test_certify_revalidates(self, bent_certificate, bent_rep):
        assert certify(bent_certificate, bent_rep)
        assert certificate_problems(bent_certificate, bent_rep) == []

    def test_lengths_match_independent_recomputation(
            self, bent_certificate, bent_rep):
        cert = bent_certificate
        assert stable_length(bent_rep, cert.a) == pytest.approx(
            cert.ell_q_a, abs=1e-9)
        assert stable_length(bent_rep, cert.b) == pytest.approx(
            cert.ell_q_b, abs=1e-9)
        assert stable_length(bent_rep, cert.a * cert.b) == pytest.approx(
            cert.ell_q_ab, abs=1e-9)
        assert classify_pairs(cert.a, cert.b) is PairConfig.UNLINKED_ALIGNED

    def test_fuchsian_control_finds_nothing(self, reference_rep):
        with pytest.raises(CertificateError) as info:
            find_separation_certificate(reference_rep, 4)
        assert info.value.best_ratio is not None
        assert info.value.best_ratio < 1.0

    def test_nonpositive_maxlen_is_an_error(self, bent_rep):
        with pytest.raises(CertificateError):
            find_separation_certificate(bent_rep, 0)

    def test_tampered_length_is_rejected_with_discrepancy(
            self, bent_certificate, bent_rep):
        bad = dataclasses.replace(bent_certificate,
                                  ell_q_ab=bent_certificate.ell_q_ab + 1e-3)
        assert not certify(bad, bent_rep)
        problems = certificate_problems(bad, bent_rep)
        assert any("ell_q_ab" in p for p in problems)

    def test_tampered_configuration_is_rejected(self, bent_certificate,
                                                bent_rep):
        bad = dataclasses.replace(bent_certificate,
                                  config=PairConfig.LINKED)
        assert not certify(bad, bent_rep)

    def test_tampered_ratio_is_rejected(self, bent_certificate, bent_rep):
        bad = dataclasses.replace(bent_certificate, ratio=0.9)
        assert not certify(bad, bent_rep)

    def test_dict_roundtrip(self, bent_certificate):
        payload = certificate_to_dict(bent_certificate)
        assert payload["schema"] == "qfcert/1"
        assert payload["type"] == "separation_certificate"
        assert certificate_from_dict(payload) == bent_certificate

    def test_from_dict_rejects_wrong_schema(self, bent_certificate):
        payload = certificate_to_dict(bent_certificate)
        payload["schema"] = "qfcert/999"
        with pytest.raises(CertificateError):
            certificate_from_dict(payload)


class TestDiagnosticDelta:
    def test_positive_on_verified_witness(self, witness_run):
        delta = diagnostic_delta(witness_run.rep, witness_run.witness)
        assert delta > 0.0
        assert delta < 1e-3  # wild spiraling means a tiny crossing gap

    def test_invariant_under_global_conjugation(self, witness_run):
        delta = diagnostic_delta(witness_run.rep, witness_run.witness)
        g = MoebiusMap(1.3 - 0.4j, 0.2 + 0.1j, 0.05j, 0.9 + 0.2j)
        moved = conjugate_representation(witness_run.rep, g)
        moved_delta = diagnostic_delta(moved, witness_run.witness)
        assert moved_delta == pytest.approx(delta, rel=1e-9)

    def test_unverifiable_witness_is_rejected(self, witness_run):
        bad = dataclasses.replace(
            witness_run.witness,
            radii=tuple(reversed(witness_run.witness.radii)))
        with pytest.raises(CertificateError):
            diagnostic_delta(witness_run.rep, bad)

    def test_coincident_image_points_are_rejected(self, witness_run,
                                                  monkeypatch):
        xi = witness_run.witness.xi
        bad = dataclasses.replace(witness_run.witness,
                                  xi=(xi[0], xi[1], xi[1], xi[3]))
        monkeypatch.setattr(certmod, "verify_witness_orders",
                            lambda w, rep: True)
        with pytest.raises(CertificateError):
            diagnostic_delta(witness_run.rep, bad)
