"""Combined-length inequalities, spectrum-ratio bounds, and separation
certificates: search, independent re-validation, tamper detection, and
the witness-based boundary diagnostic."""

import ast
import cmath
import dataclasses
import itertools
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import qfcert.certificates as certmod
from qfcert import _wordarrays as wa
from qfcert import boundary
from qfcert.boundary import pair_blocks
from qfcert.certificates import (
    TriangleRecords,
    diagnostic_delta,
    find_separation_certificate,
    ratio_lower_bound,
    triangle_harness,
)
from qfcert.check import (
    PAIR_CONFIGS,
    CertificateError,
    PairConfig,
    certificate_from_dict,
    certificate_problems,
    certificate_to_dict,
    certify,
    classify_pairs,
)
from qfcert.moebius import INF, Geodesic3, MoebiusMap
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
from qfcert.surface_group import Word, word_to_text

from array_reference import ratio_bounds
from geometry_reference import axis_crossing_gap, translation_lengths
from pair_walk import walk_codes


@pytest.fixture(scope="module")
def reference_rep():
    return fuchsian_octagon()


@pytest.fixture(scope="module")
def harness_records(reference_rep):
    return triangle_harness(reference_rep, 3)


@pytest.fixture(scope="module")
def bent_certificate(bent_rep):
    return find_separation_certificate(bent_rep, 4)


def record_rows(records):
    """Each record as (a, b, config, l(a), l(b), l(combined), slack)."""
    words = [Word(wa.ranks_to_letters(row)) for row in records.ranks]
    return [(words[i], words[j], PAIR_CONFIGS[c],
             records.lengths[i], records.lengths[j], ell, gap)
            for i, j, c, ell, gap in zip(
                records.a.tolist(), records.b.tolist(),
                records.config.tolist(), records.ell_combined.tolist(),
                records.slack.tolist())]


class TestTriangleHarness:
    def test_runs_clean_with_positive_slack(self, harness_records):
        # the harness raises on any violation, so completing is the check
        assert len(harness_records) > 10_000
        assert harness_records.slack.min() > 1e-9

    def test_columns_index_the_class_table(self, reference_rep,
                                           harness_records):
        rows, _, _ = certmod._class_table(reference_rep, 3)
        assert harness_records.ranks.dtype == rows.dtype
        assert np.array_equal(harness_records.ranks, rows)
        assert len(harness_records.lengths) == len(rows)
        assert harness_records.config.dtype == np.int8
        for column in (harness_records.a, harness_records.b,
                       harness_records.config, harness_records.ell_combined,
                       harness_records.slack):
            assert column.shape == (len(harness_records),)
        assert 0 <= min(harness_records.a.min(), harness_records.b.min())
        assert max(harness_records.a.max(), harness_records.b.max()) \
            < len(rows)

    def test_covers_all_three_configurations(self, harness_records):
        seen = {PAIR_CONFIGS[c] for c in harness_records.config.tolist()}
        assert PairConfig.LINKED in seen
        assert PairConfig.UNLINKED_ALIGNED in seen
        assert PairConfig.UNLINKED_MISALIGNED in seen

    def test_record_configs_match_scalar_classification(
            self, harness_records):
        assert all(config is classify_pairs(a, b)
                   for a, b, config, *_ in record_rows(harness_records))

    def test_same_axis_pairs_are_skipped(self, harness_records):
        a1 = Word((1,))
        square = Word((1, 1))
        for a, b, config, *_ in record_rows(harness_records):
            assert not (a == a1 and b == square)
            assert config is not PairConfig.DEGENERATE

    def test_linked_slack_against_direct_trace_recomputation(
            self, reference_rep, harness_records):
        a, b, _, ell_a, ell_b, ell_combined, slack = next(
            r for r in record_rows(harness_records)
            if r[2] is PairConfig.LINKED)
        prod = evaluate(reference_rep, a * b)
        ell = 2.0 * abs(cmath.acosh(prod.trace / 2.0).real)
        assert ell_combined == pytest.approx(ell, abs=1e-9)
        assert slack == pytest.approx((ell_a + ell_b) - ell, abs=1e-9)

    def test_lengths_equal_scalar_stable_length(self, reference_rep,
                                                harness_records):
        # the batch join and composition reproduce the scalar lengths
        # bit for bit, on every maxlen-3 record
        for a, b, config, ell_a, ell_b, ell_combined, _ in record_rows(
                harness_records):
            first = a.inverse() \
                if config is PairConfig.UNLINKED_MISALIGNED else a
            assert ell_combined == stable_length(reference_rep, first * b)
            assert ell_a == stable_length(reference_rep, a)
            assert ell_b == stable_length(reference_rep, b)

    def test_builds_no_word(self, reference_rep, monkeypatch):
        built = []
        post_init = Word.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(Word, "__post_init__", counting)
        records = triangle_harness(reference_rep, 3)
        monkeypatch.undo()
        n = len(certmod._class_table(reference_rep, 3)[0])
        assert len(records.ranks) == n
        assert built == []

    def test_trivial_representation_gives_no_records(self, reference_rep):
        # every image is the identity, so the class table is empty
        identity = MoebiusMap(1.0, 0.0, 0.0, 1.0)
        rep = dataclasses.replace(
            reference_rep, images={x: identity for x in (1, 2, 3, 4)})
        assert len(certmod._class_table(rep, 2)[0]) == 0
        records = triangle_harness(rep, 2)
        assert isinstance(records, TriangleRecords)
        assert len(records) == 0
        assert (len(records.ranks), records.lengths) == (0, [])
        with pytest.raises(CertificateError, match="not enough classes"):
            find_separation_certificate(rep, 2)

    def test_relator_length_maxlen_is_an_error(self, reference_rep):
        with pytest.raises(CertificateError, match="below 8"):
            triangle_harness(reference_rep, 8)

    @pytest.mark.parametrize("angle", [0.8, 1.0])
    def test_first_violation_matches_scalar_scan(self, angle):
        # a bent representation breaks the plane inequalities; the error
        # names the first violated pair in row-major class order
        rep = bend(fuchsian_octagon(), angle)
        rows, _, _ = certmod._class_table(rep, 2)
        words = [Word(wa.ranks_to_letters(row)) for row in rows]
        expected = None
        for a, b in itertools.product(words, words):
            config = classify_pairs(a, b)
            if a == b or config is PairConfig.DEGENERATE:
                continue
            first = a.inverse() \
                if config is PairConfig.UNLINKED_MISALIGNED else a
            gap = stable_length(rep, first * b) \
                - stable_length(rep, a) - stable_length(rep, b)
            if config is PairConfig.LINKED:
                gap = -gap
            if not gap > 0.0:
                expected = "combined-length inequality violated for " \
                    "%s, %s (%s, slack %.3e)" % (
                        word_to_text(a), word_to_text(b), config.value, gap)
                break
        assert expected is not None
        with pytest.raises(CertificateError) as info:
            triangle_harness(rep, 2)
        assert str(info.value) == expected


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

    def test_only_certificate_problems_accepts_the_winner(self, bent_rep,
                                                          monkeypatch):
        monkeypatch.setattr(certmod, "certificate_problems",
                            lambda cert, rep: ["forced problem"])
        with pytest.raises(CertificateError) as info:
            find_separation_certificate(bent_rep, 4)
        assert str(info.value).startswith(
            "winning pair failed scalar recomputation: ratio ")
        assert str(info.value).endswith("; forced problem")
        assert info.value.best_ratio > 1.0
        assert info.value.scan is not None

    def test_zero_product_length_is_a_certificate_error(
            self, bent_certificate, bent_rep, monkeypatch):
        product = bent_certificate.a * bent_certificate.b
        monkeypatch.setattr(
            certmod, "stable_length",
            lambda rep, w: 0.0 if w == product else stable_length(rep, w))
        with pytest.raises(CertificateError) as info:
            find_separation_certificate(bent_rep, 4)
        assert "stored ell_q_ab = 0.0 is not positive" in str(info.value)
        assert math.isnan(info.value.best_ratio)

    def test_nonpositive_maxlen_is_an_error(self, bent_rep):
        with pytest.raises(CertificateError):
            find_separation_certificate(bent_rep, 0)

    def test_relator_length_maxlen_is_an_error(self, bent_rep):
        # the class table ends below the relator's 8 letters
        with pytest.raises(CertificateError, match="below 8"):
            find_separation_certificate(bent_rep, 8)

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

    def test_dict_roundtrip_builds_no_representation(self, bent_certificate,
                                                     octagon_refused):
        # the text form of a word needs no representation
        assert certificate_from_dict(
            certificate_to_dict(bent_certificate)) == bent_certificate

    def test_from_dict_rejects_wrong_schema(self, bent_certificate):
        payload = certificate_to_dict(bent_certificate)
        payload["schema"] = "qfcert/999"
        with pytest.raises(CertificateError):
            certificate_from_dict(payload)


SCAN_ANGLES = [0.3, 0.5, 0.6, 0.85, 0.99]
ALIGNED = PAIR_CONFIGS.index(PairConfig.UNLINKED_ALIGNED)
# in this chart the bend by 0.99 has the largest ratio of the ordered
# grid at a pair (j, i), j > i, one ulp above the ratio of (i, j): the
# scan of pairs i < j names another pair, with b1 b2 b1 A2 as a
SKEW_CHART = MoebiusMap(-0.8691056643855141 + 0.4281468299936646j,
                        -0.36392457162681147 + 0.36178020343117j,
                        -0.2699619286239732 + 0.6931732713919744j,
                        -0.9442898028405537 - 0.06255282941830957j)


def ordered_ratio_blocks(rep_m, ell, angles):
    """Reference: the ratio grid over all ordered class pairs as the
    search computed it before it scanned unordered pairs, by blocks of
    rows: (first row, ratios of those rows against every class)."""
    n = len(rep_m)
    codes = walk_codes(angles)
    block = max(1, min(256, (1 << 24) // n))
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        aligned = codes[lo:hi] == ALIGNED
        tr = np.einsum("aij,bji->ab", rep_m[lo:hi], rep_m)
        ell_ab = 2.0 * np.abs(np.arccosh(tr.astype(complex) / 2.0).real)
        ok = aligned & (ell_ab > 1e-9)
        denom = np.where(ok, ell_ab, 1.0)
        yield lo, np.where(ok, (ell[lo:hi, None] + ell[None, :]) / denom,
                           -np.inf)


def ordered_pair_scan(rep, maxlen, min_ratio):
    """Reference: the certificate search over every pair of classes in
    row order, i < j, each with the ratio of (i, j) from the full grid;
    returns the certificate's (a, b, ratio) or the failure's (message,
    best ratio)."""
    threshold = max(min_ratio, 1.0 + certmod.MIN_CERTIFICATE_MARGIN)
    rows, rep_m, angles = certmod._class_table(rep, maxlen)
    lengths = (rows >= 0).sum(axis=1)
    best_any = -math.inf
    best = None
    for lo, ratio in ordered_ratio_blocks(
            rep_m, translation_lengths(rep_m), angles):
        upper = np.arange(ratio.shape[1]) > lo + np.arange(len(ratio))[:, None]
        ratio = np.where(upper, ratio, -np.inf)
        block_best = float(ratio.max())
        best_any = max(best_any, block_best)
        if block_best < threshold:
            continue
        ii, jj = np.nonzero(ratio >= max(threshold, block_best))
        for i, j in zip(ii.tolist(), jj.tolist()):
            cand = (-float(ratio[i, j]), int(lengths[lo + i] + lengths[j]),
                    lo + i, j)
            if best is None or cand < best:
                best = cand
    if best is None:
        return ("no unlinked-aligned pair reached ratio %.7f "
                "(best found %.7f); increase maxlen or the deformation"
                % (threshold, best_any), best_any)
    a, b = (Word(wa.ranks_to_letters(rows[k])) for k in best[2:])
    ratio = (stable_length(rep, a) + stable_length(rep, b)) \
        / stable_length(rep, a * b)
    return a, b, ratio


class TestAlignedPairGrid:
    @pytest.mark.parametrize("chart", [None, SKEW_CHART],
                             ids=["plain", "skew"])
    @pytest.mark.parametrize("angle", SCAN_ANGLES)
    @pytest.mark.parametrize("maxlen", [4, 5])
    def test_equals_the_config_grid_on_every_scan_block(self, maxlen, angle,
                                                        chart):
        # the blocks find_separation_certificate classifies, read as it
        # reads them, against the codes of the walk of every ordered pair
        rep = bend(fuchsian_octagon(), angle)
        if chart is not None:
            rep = conjugate_representation(rep, chart)
        _, _, angles = certmod._class_table(rep, maxlen)
        n, codes = len(angles), walk_codes(angles)
        for lo, hi, linked, misaligned in pair_blocks(angles, True):
            got = ~(linked | misaligned)
            above = np.arange(lo, n) > np.arange(lo, hi)[:, None]
            assert np.array_equal(got, above & (codes[lo:hi, lo:] == ALIGNED))


class TestCertificateScan:
    """The search classifies unordered pairs and evaluates only aligned
    ones; it must find what a full scan of the pairs i < j finds."""

    @pytest.mark.parametrize("angle,min_ratio,chart", [
        *((angle, 1.0 + 1e-6, None) for angle in SCAN_ANGLES),
        (0.6, 1.001, None),  # above the best ratio: the failure path, bent
        (0.99, 1.0 + 1e-6, SKEW_CHART),
        (0.99, 1.1, SKEW_CHART),
    ], ids=[*map(str, SCAN_ANGLES), "0.6-failing", "0.99-skew",
            "0.99-skew-failing"])
    def test_equals_ordered_pair_scan(self, angle, min_ratio, chart):
        rep = bend(fuchsian_octagon(), angle)
        if chart is not None:
            rep = conjugate_representation(rep, chart)
        want = ordered_pair_scan(rep, 4, min_ratio)
        try:
            cert = find_separation_certificate(rep, 4, min_ratio)
            got = (cert.a, cert.b, cert.ratio)
        except CertificateError as exc:
            got = (str(exc), exc.best_ratio)
        assert got == want
        if min_ratio > 1.0 + 1e-6:
            assert 1.0 < want[1] < min_ratio

    @pytest.mark.parametrize("maxlen,angle", [
        *((4, angle) for angle in SCAN_ANGLES), (5, 0.6)])
    def test_aligned_grid_is_symmetric(self, maxlen, angle):
        # the scan classifies each unordered pair once, at j > i
        _, _, angles = certmod._class_table(
            bend(fuchsian_octagon(), angle), maxlen)
        aligned = walk_codes(angles) == ALIGNED
        assert np.array_equal(aligned, aligned.T)
        assert not aligned.diagonal().any()

    @pytest.mark.parametrize("chart", [None, SKEW_CHART],
                             ids=["plain", "skew"])
    @pytest.mark.parametrize("angle", SCAN_ANGLES)
    def test_pair_ratios_equal_the_ordered_grid(self, angle, chart):
        # every aligned ordered pair, not only the winner, gets the
        # ratio of the full grid bit for bit
        rep = bend(fuchsian_octagon(), angle)
        if chart is not None:
            rep = conjugate_representation(rep, chart)
        _, rep_m, angles = certmod._class_table(rep, 4)
        ell = translation_lengths(rep_m)
        grid = np.concatenate(
            [ratio for _, ratio in ordered_ratio_blocks(rep_m, ell, angles)])
        ii, jj = np.nonzero(walk_codes(angles) == ALIGNED)
        table = np.ascontiguousarray(rep_m.transpose(1, 2, 0))
        assert np.array_equal(certmod._pair_ratios(table, ell, ii, jj),
                              grid[ii, jj])

    def test_equals_ordered_pair_scan_at_maxlen_5(self):
        rep = bend(fuchsian_octagon(), 0.594867)
        cert = find_separation_certificate(rep, 5)
        assert (cert.a, cert.b, cert.ratio) == ordered_pair_scan(
            rep, 5, 1.0 + 1e-6)

    def test_each_ordered_pair_within_its_bound_of_the_maximum_is_evaluated_once(
            self, bent_rep, monkeypatch):
        # once, and only as (lower row, higher row)
        evaluated, screened, kept = [], [], set()
        ratios, keep = certmod._pair_ratios, certmod._Screen.keep

        def recording(table, ell, first, second):
            evaluated.extend(zip(first.tolist(), second.tolist()))
            return ratios(table, ell, first, second)

        def keeping(self, lo, hi, best):
            grid = keep(self, lo, hi, best)
            screened.append(lo)
            i, j = np.nonzero(grid)
            kept.update(zip((i + lo).tolist(), (j + lo).tolist()))
            return grid

        monkeypatch.setattr(certmod, "_pair_ratios", recording)
        monkeypatch.setattr(certmod._Screen, "keep", keeping)
        cert = find_separation_certificate(bent_rep, 4)
        table, ell, norm, ii, jj = aligned_scan_inputs(bent_rep, 4)
        bound = ratio_bounds(table, ell, norm, ii, jj)
        within = bound >= ratios(table, ell, ii, jj).max()
        assert len(evaluated) == len(set(evaluated)) == cert.scan.exact
        assert all(i < j for i, j in evaluated)
        aligned = set(zip(ii.tolist(), jj.tolist()))
        assert set(zip(ii[within].tolist(), jj[within].tolist())) \
            <= set(evaluated)
        # every aligned pair the screen keeps is evaluated, and so is
        # every aligned pair of the first block, which is not screened
        assert set(evaluated) == aligned & kept \
            | {(i, j) for i, j in aligned if i < screened[0]}
        assert cert.scan.aligned == len(ii)
        # the first block's 67 486 aligned pairs and no later one of the
        # 95 791
        assert len(evaluated) == 67486

    def test_each_scan_ranks_its_table_once(self, bent_rep, reference_rep,
                                            monkeypatch):
        calls = []
        rank_endpoints = boundary.rank_endpoints

        def counting(angles):
            calls.append(len(angles))
            return rank_endpoints(angles)

        monkeypatch.setattr(boundary, "rank_endpoints", counting)
        find_separation_certificate(bent_rep, 4)
        triangle_harness(reference_rep, 3)
        assert calls == [len(certmod._class_table(bent_rep, 4)[0]),
                         len(certmod._class_table(reference_rep, 3)[0])]

    def test_class_table_composes_the_reference_side_in_float64(
            self, bent_rep, monkeypatch):
        dtypes = []
        classes = wa.conjugacy_classes

        def recording(maxlen, *gens):
            dtypes.append([g.dtype for g in gens])
            return classes(maxlen, *gens)

        monkeypatch.setattr(wa, "conjugacy_classes", recording)
        certmod._class_table(bent_rep, 3)
        assert dtypes == [[np.complex128, np.float64]]

    def test_peak_memory_is_the_first_blocks_exact_ratios(self, bent_rep):
        # a float64 bound tier that gathered eight complex columns of the
        # first block peaked at 20.4 MiB; the exact ratios of its 94 118
        # pairs take about 11
        tracemalloc.start()
        try:
            cert = find_separation_certificate(bent_rep, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cert.scan.exact == 94118
        assert peak < 14 * 2 ** 20

    def test_scan_counts(self, bent_rep):
        with pytest.raises(CertificateError) as info:
            find_separation_certificate(bent_rep, 3, min_ratio=2.0)
        n = len(certmod._class_table(bent_rep, 3)[0])
        scan = info.value.scan
        assert scan.classified == n * (n - 1) // 2
        assert 0 < scan.exact <= scan.aligned < scan.classified


def aligned_scan_inputs(rep, maxlen):
    """The certificate scan's class table, lengths, Frobenius norms and
    aligned unordered pairs (i < j) for rep."""
    _, rep_m, angles = certmod._class_table(rep, maxlen)
    ii, jj = np.nonzero(np.triu(walk_codes(angles) == ALIGNED))
    table = np.ascontiguousarray(rep_m.transpose(1, 2, 0))
    norm = np.sqrt((np.abs(rep_m) ** 2).sum(axis=(1, 2)))
    return table, translation_lengths(rep_m), norm, ii, jj


class TestRatioBounds:
    @pytest.mark.parametrize("chart", [None, SKEW_CHART],
                             ids=["plain", "skew"])
    @pytest.mark.parametrize("angle", SCAN_ANGLES)
    def test_exact_ratios_never_exceed_their_bound(self, angle, chart):
        # every aligned ordered pair at maxlen 4, in both orientations
        rep = bend(fuchsian_octagon(), angle)
        if chart is not None:
            rep = conjugate_representation(rep, chart)
        table, ell, norm, ii, jj = aligned_scan_inputs(rep, 4)
        bound = ratio_bounds(table, ell, norm, ii, jj)
        assert np.isfinite(bound).all()
        for first, second in ((ii, jj), (jj, ii)):
            exact = certmod._pair_ratios(table, ell, first, second)
            assert (exact <= bound).all()
            # and the bound is close: within 1e-11 relative
            assert (bound <= exact * (1.0 + 1e-11)).all()

    def test_short_lengths_are_not_bounded(self):
        # a trace near 2 bounds l(ab) below only by 0: such a pair must
        # go to the exact evaluation
        eye = np.eye(2, dtype=complex)
        near = np.array([[1.0, 1e-3], [0.0, 1.0]], dtype=complex)
        mats = np.stack([eye, near, 5.0 * eye])
        table = np.ascontiguousarray(mats.transpose(1, 2, 0))
        norm = np.sqrt((np.abs(mats) ** 2).sum(axis=(1, 2)))
        bound = ratio_bounds(table, np.ones(3), norm, np.array([0, 1]),
                             np.array([1, 2]))
        assert bound[0] == np.inf
        assert np.isfinite(bound[1])


def scan_record(rep, maxlen, monkeypatch, screen=True):
    """The (i, j, ratio) of the search's _pair_ratios calls, in order,
    its outcome with the classified and aligned counts, and the number
    of pairs its screen dropped, with the screen as built or patched to
    keep every pair."""
    calls, dropped = [], []
    ratios, keep = certmod._pair_ratios, certmod._Screen.keep

    def recording(table, ell, first, second):
        ratio = ratios(table, ell, first, second)
        calls.extend(zip(first.tolist(), second.tolist(), ratio.tolist()))
        return ratio

    def counting(self, lo, hi, best):
        grid = keep(self, lo, hi, best) if screen else \
            np.ones((hi - lo, len(self.ell) - lo), dtype=bool)
        dropped.append(grid.size - int(np.count_nonzero(grid)))
        return grid

    with monkeypatch.context() as patch:
        patch.setattr(certmod, "_pair_ratios", recording)
        patch.setattr(certmod._Screen, "keep", counting)
        try:
            cert = find_separation_certificate(rep, maxlen)
            outcome, scan = (cert.a, cert.b, cert.ratio), cert.scan
        except CertificateError as exc:
            outcome, scan = (str(exc), exc.best_ratio), exc.scan
    return calls, (*outcome, scan.classified, scan.aligned), sum(dropped)


def scan_rep(angle, chart):
    """The octagon bent by angle, conjugated by chart unless it is None."""
    rep = bend(fuchsian_octagon(), angle)
    return rep if chart is None else conjugate_representation(rep, chart)


class TestScreen:
    """The float32 screen drops only pairs whose ratio is below the best
    ratio, so the search finds what it would without it; the float64
    bound, which is at least the ratio, checks its argument."""

    @pytest.mark.parametrize("maxlen,angle,chart", [
        *((4, angle, None) for angle in SCAN_ANGLES),
        *((4, angle, SKEW_CHART) for angle in SCAN_ANGLES),
        (1, 0.0, None), (2, 0.0, None), (4, 0.0, None),  # best below 1
        (5, 0.6, None),
    ], ids=[*("4-%s" % a for a in SCAN_ANGLES),
            *("4-%s-skew" % a for a in SCAN_ANGLES),
            "1-0.0", "2-0.0", "4-0.0", "5-0.6"])
    def test_search_is_the_search_without_the_screen(
            self, maxlen, angle, chart, monkeypatch):
        rep = scan_rep(angle, chart)
        calls, outcome, dropped = scan_record(rep, maxlen, monkeypatch)
        want_calls, want, _ = scan_record(rep, maxlen, monkeypatch,
                                          screen=False)
        assert outcome == want
        # the screened evaluations, ratios included, are a subsequence of
        # the unscreened ones, and none left out reaches their maximum
        rest = iter(want_calls)
        assert all(call in rest for call in calls)
        top = max(ratio for _, _, ratio in want_calls)
        assert all(ratio < top for _, _, ratio in
                   set(want_calls).difference(calls))
        if maxlen >= 4:
            assert dropped > 0
        if angle == 0.0:
            assert outcome[1] < 1.0

    @pytest.mark.parametrize("chart", [None, SKEW_CHART],
                             ids=["plain", "skew"])
    @pytest.mark.parametrize("angle", SCAN_ANGLES)
    def test_keeps_every_pair_whose_bound_reaches_b(self, angle, chart):
        table, ell, norm, ii, jj = aligned_scan_inputs(
            scan_rep(angle, chart), 4)
        bound = ratio_bounds(table, ell, norm, ii, jj)
        top = float(certmod._pair_ratios(table, ell, ii, jj).max())
        screen = certmod._Screen(table, ell, norm)
        near = [top * (1.0 + k * 2.0 ** -52) for k in range(-4, 5)]
        wide = [top * (1.0 + d) for d in (-1e-3, -1e-6, -1e-9, 1e-9, 1e-6)]
        for b in [*near, np.nextafter(top, 0.0), np.nextafter(top, 2.0),
                  *wide, 0.5]:
            kept = screen.keep(0, len(ell), b)[ii, jj]
            assert kept[bound >= b].all()
        # at the maximum it keeps under 1 % of the aligned pairs
        assert np.count_nonzero(screen.keep(0, len(ell), top)[ii, jj]) \
            < len(ii) // 100

    def test_non_finite_values_are_kept_without_warning(self):
        mats = np.array([
            [[2, 1], [1, 1]],
            [[3, 2], [1, 1]],
            # their products overflow float32 unless scaled by the norms
            1e20 * np.array([[1, 1], [1, 2]]),
            1e30 * np.array([[2, 1j], [1, 1]]),
            1e200 * np.array([[1, 1], [1, 2]]),  # its norm overflows float64
            [[np.inf, 0], [0, 1]],
            [[np.nan, 0], [0, 1]],
            [[2, 1], [1, 1]],  # cosh of its length overflows float32
            [[2, 1], [1, 1]],  # and float64
        ], dtype=complex)
        with np.errstate(all="ignore"):
            norm = np.sqrt((np.abs(mats) ** 2).sum(axis=(1, 2)))
            ell = 2.0 * np.abs(np.arccosh(np.trace(mats, axis1=1,
                                                   axis2=2) / 2.0).real)
        ell[7:] = 1e3, 1e5
        table = np.ascontiguousarray(mats.transpose(1, 2, 0))
        n = len(mats)
        ii, jj = np.triu_indices(n, 1)
        with np.errstate(all="ignore"):
            bound = ratio_bounds(table, ell, norm, ii, jj)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            screen = certmod._Screen(table, ell, norm)
            grids = {b: screen.keep(0, n, b) for b in (0.5, 1.0, 1.5, 4.0)}
        for b, grid in grids.items():
            assert grid[ii, jj][~(bound < b)].all()
            assert grid[4:, :].all() and grid[:, 4:].all()
        # the finite rows are screened: not every pair is kept
        assert not grids[4.0][:4, :4].all()


class TestFixedOrderTrace:
    """_pair_ratios sums each trace in one fixed order on the real and
    imaginary planes; np.einsum, which it replaced, is the oracle here
    and nowhere in src/."""

    @pytest.mark.parametrize("angle", [0.0, 0.6, 0.99])
    def test_pair_ratios_equal_the_einsum_trace_on_every_ordered_pair(
            self, angle):
        _, rep_m, _ = certmod._class_table(bend(fuchsian_octagon(), angle),
                                           4)
        table = np.ascontiguousarray(rep_m.transpose(1, 2, 0))
        ell = translation_lengths(rep_m)
        n = len(rep_m)
        first, second = np.repeat(np.arange(n), n), np.tile(np.arange(n), n)
        tr = np.einsum("ijk,jik->k", table.take(first, axis=2),
                       table.take(second, axis=2))
        ell_ab = 2.0 * np.abs(np.arccosh(tr / 2.0).real)
        ok = ell_ab > 1e-9
        want = np.where(ok, (ell[first] + ell[second])
                        / np.where(ok, ell_ab, 1.0), -np.inf)
        got = certmod._pair_ratios(table, ell, first, second)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_no_einsum_in_src(self):
        # names in code only: docstrings may still cite einsum's order
        src = Path(certmod.__file__).parent
        found = []
        for path in sorted(src.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                name = getattr(node, "attr", None) or getattr(node, "id", None) \
                    or getattr(node, "name", None)
                if name == "einsum":
                    found.append("%s:%d" % (path.name, node.lineno))
        assert len(list(src.glob("*.py"))) > 5
        assert not found


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

    @staticmethod
    def _delta_of(monkeypatch, u):
        """diagnostic_delta on image points 1, 2, 3, 4 at 2u/(1+u), 0, 1, 2,
        which put image 1 at u in the chart sending 2, 3, 4 to 0, 1, inf;
        returns (delta, the u those points give)."""
        points = (2.0 * u / (1.0 + u), 0j, 1 + 0j, 2 + 0j)
        monkeypatch.setattr(certmod, "verify_witness_orders",
                            lambda w, rep: True)
        monkeypatch.setattr(certmod, "witness_image_points",
                            lambda w, rep: points)
        p1, p2, p3, p4 = points
        chart_u = ((p1 - p2) / (p1 - p4)) / ((p3 - p2) / (p3 - p4))
        # both collaborators are patched, so no witness or rep is read
        return diagnostic_delta(None, None), chart_u

    @pytest.mark.parametrize("u", [1e-3, 1e-9, 1e-12, 1e-50, 1e-150,
                                   1e-300])
    def test_exact_at_extreme_chart_ratios(self, monkeypatch, u):
        # the small u put image 1 inside any sphere-chordal endpoint
        # tolerance of image 2; the chart formula stays exact
        delta, chart_u = self._delta_of(monkeypatch, complex(u))
        assert chart_u.imag == 0.0
        exact = -math.log1p(-chart_u.real)
        assert math.isfinite(delta) and delta > 0.0
        assert abs(delta - exact) <= 1e-14 * exact

    @pytest.mark.parametrize("u", [0.3, 0.3 + 1e-12j])
    def test_agrees_with_general_geometry(self, monkeypatch, u):
        delta, chart_u = self._delta_of(monkeypatch, complex(u))
        general = axis_crossing_gap(Geodesic3.through(chart_u, INF),
                                    Geodesic3.through(0.0, 1.0),
                                    Geodesic3.through(0.0, INF))
        assert delta == pytest.approx(general, abs=1e-9)
