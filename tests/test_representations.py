"""Tests for surface-group representations into hyperbolic isometries.

Oracle values are frozen from independent computations: the octagon
translation length is 2*arccosh(1 + sqrt(2)) from the regular-octagon
apothem, orbit estimates are checked against the displacement-average
definition, and enumeration counts are checked against word counts with
relator coincidences removed.
"""

import json
import math

import numpy as np
import pytest

from qfcert import _wordarrays as wa
from qfcert.moebius import (
    BASEPOINT,
    IsometryKind,
    MoebiusMap,
    Point3,
    classify,
    dist_h3,
    translation_length,
)
from qfcert.representations import (
    OCTAGON_TRANSLATION_LENGTH,
    Representation,
    RepresentationError,
    bend,
    bending_curve_word,
    compute_spectrum,
    estimate_growth,
    evaluate,
    find_complex_trace_element,
    fuchsian_octagon,
    normalize_spectrum,
    orbit_distance,
    orbit_length_estimate,
    orbit_point_distances,
    power_displacement,
    representation_from_dict,
    representation_hash,
    representation_json,
    representation_to_dict,
    stable_length,
    with_basepoint,
)
from qfcert.surface_group import GroupPresentation, Word, enumerate_words, rotations

# 2 * arccosh(1 + sqrt(2)), the displacement of a side-pairing
# translation of the regular octagon with vertex angle pi/4
EXPECTED_GENERATOR_LENGTH = 3.057141838961996
# |trace| of such a translation: 2 cosh(length / 2) = 2 (1 + sqrt(2))
EXPECTED_GENERATOR_TRACE = 4.82842712474619

BEND_ANGLES = (0.0, 0.1, 0.3, 0.6, 1.0)


@pytest.fixture(scope="module")
def base_rep():
    return fuchsian_octagon()


@pytest.fixture(scope="module")
def bent_rep(base_rep):
    return bend(base_rep, 0.6)


class TestReferenceRepresentation:
    def test_relator_residual_tiny(self, base_rep):
        assert base_rep.relator_residual() <= 1e-9

    def test_kind_and_angle(self, base_rep):
        assert base_rep.kind == "fuchsian"
        assert base_rep.angle == 0.0

    def test_images_real(self, base_rep):
        for letter in (1, 2, 3, 4):
            m = base_rep.images[letter]
            for e in m.entries():
                assert abs(e.imag) <= 1e-12

    def test_generator_lengths_all_equal(self, base_rep):
        for letter in (1, 2, 3, 4):
            ell = stable_length(base_rep, Word((letter,)))
            assert ell == pytest.approx(EXPECTED_GENERATOR_LENGTH, abs=1e-10)
            assert ell == pytest.approx(OCTAGON_TRANSLATION_LENGTH, abs=1e-10)

    def test_generator_traces(self, base_rep):
        for letter in (1, 2, 3, 4):
            tr = base_rep.images[letter].trace
            assert abs(tr) == pytest.approx(EXPECTED_GENERATOR_TRACE, abs=1e-9)
            assert abs(tr.imag) <= 1e-12

    def test_generators_hyperbolic(self, base_rep):
        for letter in (1, 2, 3, 4):
            cl = classify(base_rep.images[letter])
            assert cl.kind == IsometryKind.HYPERBOLIC

    def test_negative_letters_are_inverses(self, base_rep):
        for letter in (1, 2, 3, 4):
            prod = base_rep.images[letter] @ base_rep.images[-letter]
            assert prod.is_identity(1e-12)

    def test_evaluate_trivial_word(self, base_rep):
        assert evaluate(base_rep, Word(())).is_identity(0.0)

    def test_evaluate_relator(self, base_rep):
        m = evaluate(base_rep, base_rep.presentation.relator())
        assert m.is_identity(1e-9)

    def test_constructor_rejects_broken_relator(self, base_rep):
        images = dict(base_rep.images)
        bad = images[1] @ MoebiusMap(math.e ** 0.001, 0.0, 0.0, math.e ** -0.001)
        images = {k: v for k, v in images.items() if k > 0}
        images[1] = bad
        with pytest.raises(RepresentationError):
            Representation(base_rep.presentation, images, kind="fuchsian")

    def test_fuchsian_tag_rejects_complex_entries(self, base_rep, bent_rep):
        images = {k: v for k, v in bent_rep.images.items() if k > 0}
        with pytest.raises(RepresentationError):
            Representation(bent_rep.presentation, images, kind="fuchsian")


class TestBending:
    @pytest.mark.parametrize("angle", BEND_ANGLES)
    def test_relator_preserved(self, base_rep, angle):
        assert bend(base_rep, angle).relator_residual() <= 1e-9

    def test_bending_curve_is_first_commutator(self):
        assert bending_curve_word() == Word((1, 2, -1, -2))

    def test_zero_angle_preserves_lengths(self, base_rep):
        b0 = bend(base_rep, 0.0)
        for w in enumerate_words(base_rep.presentation, 3, mode="conjugacy"):
            assert stable_length(b0, w) == pytest.approx(
                stable_length(base_rep, w), abs=1e-9)

    def test_nonzero_angle_leaves_the_plane(self, bent_rep):
        m = evaluate(bent_rep, Word((1, 3)))
        assert abs(m.trace.imag) > 1e-6

    def test_first_handle_lengths_unchanged(self, base_rep, bent_rep):
        # the twist commutes with the first handle only up to conjugacy,
        # but each single first-handle generator is conjugated, so its
        # length is exactly preserved
        for letter in (1, 2):
            assert stable_length(bent_rep, Word((letter,))) == pytest.approx(
                EXPECTED_GENERATOR_LENGTH, abs=1e-9)

    def test_bending_curve_length_constant_along_family(self, base_rep):
        ref = stable_length(base_rep, bending_curve_word())
        for angle in BEND_ANGLES:
            b = bend(base_rep, angle)
            assert stable_length(b, bending_curve_word()) == pytest.approx(
                ref, abs=1e-9)

    def test_small_angle_continuity(self, base_rep):
        b1 = bend(base_rep, 0.3)
        b2 = bend(base_rep, 0.3 + 1e-6)
        for letter in (1, 2, 3, 4):
            assert b1.images[letter].distance_to(b2.images[letter]) < 1e-4

    def test_rejects_bending_a_bent_representation(self, base_rep, bent_rep):
        with pytest.raises(RepresentationError):
            bend(bent_rep, 0.1)

    def test_rejects_half_turn_angles(self, base_rep):
        with pytest.raises(RepresentationError):
            bend(base_rep, math.pi)

    def test_negative_angle_mirrors_positive(self, base_rep):
        bpos = bend(base_rep, 0.4)
        bneg = bend(base_rep, -0.4)
        w = Word((1, 3))
        assert evaluate(bneg, w).trace == pytest.approx(
            evaluate(bpos, w).trace.conjugate(), abs=1e-9)


class TestStableLength:
    def test_rejects_trivial_word(self, base_rep):
        with pytest.raises(RepresentationError):
            stable_length(base_rep, Word((1, -1)))

    def test_power_law(self, base_rep):
        # tolerance 2e-7: traces reach e^10, where each composition's
        # unit-determinant renormalization injects noise of order
        # (entry scale)^2 * machine epsilon
        rng = np.random.default_rng(5)
        words = list(enumerate_words(base_rep.presentation, 3, mode="reduced"))
        for idx in rng.choice(len(words), size=25, replace=False):
            w = words[idx]
            assert stable_length(base_rep, w * w) == pytest.approx(
                2.0 * stable_length(base_rep, w), abs=2e-7)

    def test_conjugacy_invariance(self, base_rep, bent_rep):
        # the image of u w u^-1 can have entries of size e^13 while its
        # trace stays small; reading a length off such a matrix is only
        # accurate to (entry scale)^2 * machine epsilon, so the tolerance
        # follows that error model
        rng = np.random.default_rng(11)
        words = list(enumerate_words(base_rep.presentation, 3, mode="reduced"))
        for rep in (base_rep, bent_rep):
            for _ in range(100):
                w = words[rng.integers(len(words))]
                u = words[rng.integers(len(words))]
                conj = u * w * u.inverse()
                if not conj.letters:
                    continue
                scale = max(abs(e) for e in evaluate(rep, conj).entries())
                tol = 1e-9 + 16.0 * scale * scale * 2.3e-16
                assert stable_length(rep, conj) == pytest.approx(
                    stable_length(rep, w), abs=tol)

    def test_orbit_distance_dominates(self, base_rep):
        for w in enumerate_words(base_rep.presentation, 2, mode="reduced"):
            assert orbit_distance(base_rep, w) >= stable_length(base_rep, w) - 1e-12

    def test_orbit_distance_is_basepoint_displacement(self, base_rep):
        w = Word((1, 2))
        m = evaluate(base_rep, w)
        y = base_rep.basepoint
        assert orbit_distance(base_rep, w) == pytest.approx(
            dist_h3(m(y), y), abs=1e-12)


class TestPowerDisplacement:
    def test_matches_direct_computation_at_small_power(self):
        m = MoebiusMap(2.0, 1.0, 1.0, 1.0)
        y = Point3(0.3 + 0.1j, 1.7)
        direct = dist_h3((m ** 8)(y), y)
        assert power_displacement(m, 8, y) == pytest.approx(direct, abs=1e-10)

    def test_exact_on_axis(self):
        ell = 0.75
        m = MoebiusMap(math.exp(ell / 2), 0.0, 0.0, math.exp(-ell / 2))
        assert power_displacement(m, 1000000, BASEPOINT) == pytest.approx(
            1000000 * ell, rel=1e-12)

    def test_huge_powers_do_not_overflow(self, base_rep):
        m = evaluate(base_rep, Word((1, 2, 3)))
        val = power_displacement(m, 4096, BASEPOINT)
        assert math.isfinite(val)
        assert val > 1000.0

    def test_rejects_nonpositive_power(self):
        with pytest.raises(RepresentationError):
            power_displacement(MoebiusMap(2.0, 0.0, 0.0, 0.5), 0, BASEPOINT)


class TestOrbitLengthEstimate:
    def test_matches_stable_length_on_sample(self, base_rep, bent_rep):
        rng = np.random.default_rng(23)
        words = list(enumerate_words(base_rep.presentation, 3, mode="reduced"))
        picks = rng.choice(len(words), size=20, replace=False)
        for rep in (base_rep, bent_rep):
            for idx in picks:
                w = words[idx]
                est = orbit_length_estimate(rep, w, n=64)
                assert abs(est - stable_length(rep, w)) <= 0.01

    def test_basepoint_sensitivity_bounded(self, base_rep):
        # |d(m^n y1, y1) - d(m^n y2, y2)| <= 2 d(y1, y2)
        w = Word((1, -2, 3))
        n = 64
        y1 = base_rep.basepoint
        y2 = Point3(0.4 - 0.2j, 2.5)
        e1 = orbit_length_estimate(base_rep, w, n=n, y=y1)
        e2 = orbit_length_estimate(base_rep, w, n=n, y=y2)
        assert abs(e1 - e2) <= 2.0 * dist_h3(y1, y2) / n + 1e-12


class TestSpectrum:
    def test_class_count_short_words(self, base_rep):
        spec = compute_spectrum(base_rep, 2)
        # 8 one-letter classes + 32 cyclically-reduced two-letter classes
        assert len(spec.entries) == 40

    def test_all_lengths_positive(self, base_rep):
        spec = compute_spectrum(base_rep, 3)
        assert all(v > 1.0 for v in spec.lengths())

    def test_shortest_length_is_generator_length(self, base_rep):
        spec = compute_spectrum(base_rep, 3)
        assert min(spec.lengths()) == pytest.approx(
            EXPECTED_GENERATOR_LENGTH, abs=1e-10)

    def test_fuchsian_traces_real(self, base_rep):
        for w in compute_spectrum(base_rep, 3).entries:
            assert abs(evaluate(base_rep, w).trace.imag) <= 1e-9

    def test_normalization_scales_lengths(self, base_rep):
        spec = compute_spectrum(base_rep, 2)
        h = 1.1317
        norm = normalize_spectrum(spec, h)
        assert norm.normalization == "entropy_normalized"
        assert norm.h == h
        for w, v in spec.entries.items():
            assert norm.entries[w] == pytest.approx(h * v, rel=1e-15)

    def test_normalization_preserves_ratios(self, base_rep):
        spec = compute_spectrum(base_rep, 2)
        norm = normalize_spectrum(spec, 0.93)
        raw = sorted(spec.lengths())
        scaled = sorted(norm.lengths())
        assert scaled[-1] / scaled[0] == pytest.approx(raw[-1] / raw[0], rel=1e-12)

    def test_double_normalization_rejected(self, base_rep):
        norm = normalize_spectrum(compute_spectrum(base_rep, 2), 1.0)
        with pytest.raises(RepresentationError):
            normalize_spectrum(norm, 1.0)

    def test_nonpositive_h_rejected(self, base_rep):
        spec = compute_spectrum(base_rep, 2)
        with pytest.raises(RepresentationError):
            normalize_spectrum(spec, 0.0)


def dehn_classes(rep: Representation, maxlen: int) -> list[tuple[int, ...]]:
    """The class table's reference: a rotation class merges into an earlier
    kept one when some pair of their rotations is equal in the group (Dehn
    reduction).  |trace| only preselects the classes compared."""
    pres = rep.presentation
    kept: list[tuple[float, list[Word]]] = []
    out = []
    for w in enumerate_words(pres, maxlen, mode="conjugacy"):
        size = abs(evaluate(rep, w).trace)
        rots = rotations(w)
        for other_size, other_rots in kept:
            if abs(size - other_size) <= 1e-6 * size and any(
                    pres.are_equal(r, s) for r in rots for s in other_rots):
                break
        else:
            kept.append((size, rots))
            out.append(w.letters)
    return out


class TestClassTable:
    """The one class table: products bit for bit equal to scalar evaluation,
    classes equal to the group's own conjugacy merges."""

    @pytest.mark.parametrize("angle", [0.0, 0.6])
    def test_products_equal_scalar_evaluation(self, base_rep, angle):
        rep = bend(base_rep, angle)
        got, want = [], []
        for level in wa.reduced_word_levels(4):
            mats = wa.compose_matrices(level, rep.generator_matrix_array())
            for row, m in zip(level, mats.reshape(-1, 4).tolist()):
                got.append(MoebiusMap._unit_det(*m).entries())
                want.append(evaluate(rep, Word(wa.ranks_to_letters(row))).entries())
        assert len(got) == 8 + 56 + 392 + 2744
        assert got == want

    def test_spectrum_lengths_equal_scalar_lengths(self, bent_rep):
        spec = compute_spectrum(bent_rep, 5)
        assert len(spec.entries) == 4100
        assert list(spec.entries.values()) == [
            translation_length(evaluate(bent_rep, w)) for w in spec.entries]

    @pytest.mark.parametrize("angle", [0.0, 0.6])
    def test_classes_equal_dehn_reference(self, base_rep, angle):
        rep = bend(base_rep, angle)
        gens = rep.generator_matrix_array()
        rows, mats = wa.conjugacy_classes(4, gens)
        assert [wa.ranks_to_letters(row) for row in rows] \
            == dehn_classes(rep, 4)
        assert np.array_equal(mats, wa.compose_matrices(rows, gens))

    def test_cumulative_class_counts(self, bent_rep):
        rows, _ = wa.conjugacy_classes(5, bent_rep.generator_matrix_array())
        lengths = (rows >= 0).sum(axis=1)
        # the relator merges 8 rotation classes up to length 4 (780 -> 772)
        # and 48 up to length 5 (4148 -> 4100)
        assert [int((lengths <= n).sum()) for n in range(1, 6)] \
            == [8, 40, 160, 772, 4100]


class TestOrbitEnumeration:
    def test_matches_per_word_brute_force(self, base_rep):
        # enumerate words to length 3, dedup elements by matrix, and
        # compare the distance multiset with the vectorized enumeration
        seen = {}
        y = base_rep.basepoint
        ref = [0.0]
        for w in enumerate_words(base_rep.presentation, 3, mode="reduced"):
            m = evaluate(base_rep, w)
            key = tuple(round(v, 6) for e in m.entries()
                        for v in (abs(e.real), abs(e.imag)))
            sign_key = tuple(round(v, 6) for e in m.entries()
                             for v in (e.real, e.imag))
            neg_key = tuple(round(-v, 6) for e in m.entries()
                            for v in (e.real, e.imag))
            canon = min(sign_key, neg_key)
            if canon in seen:
                continue
            seen[canon] = True
            ref.append(dist_h3(m(y), y))
        fast = orbit_point_distances(base_rep, max_word_length=3)
        assert fast.size == len(ref)
        assert np.allclose(np.sort(np.array(ref)), fast, atol=1e-9)

    def test_relator_coincidences_merged(self, base_rep):
        # 3201 reduced words of length <= 4 collapse to 3193 distinct
        # elements: the eight relator-cycle pairs merge
        d = orbit_point_distances(base_rep, max_word_length=4)
        assert d.size == 3193

    def test_identity_counted_once(self, base_rep):
        d = orbit_point_distances(base_rep, max_word_length=2)
        assert np.count_nonzero(d < 1e-9) == 1

    def test_requires_some_bound(self, base_rep):
        with pytest.raises(RepresentationError):
            orbit_point_distances(base_rep)

    def test_pruning_sound_and_complete_within_margin(self, base_rep):
        # pruning at R may drop elements whose every spelling detours
        # beyond R (first loss observed near R - 2.2); the 4.0 margin
        # used for growth counting keeps everything below R - 4
        full = orbit_point_distances(base_rep, max_word_length=5)
        pruned = orbit_point_distances(base_rep, prune_radius=8.0,
                                       max_word_length=5)
        assert pruned.max() <= 8.0
        assert pruned.size <= full[full <= 8.0].size
        inner = 8.0 - 4.0
        assert np.allclose(full[full <= inner], pruned[pruned <= inner],
                           atol=1e-9)


class TestGrowth:
    def test_prune_matches_brute_force(self, base_rep):
        # no element of word length 7+ sits below distance 6.3, so the
        # unpruned length-6 enumeration is complete on this grid
        est = estimate_growth(base_rep, 6.0)
        brute = orbit_point_distances(base_rep, max_word_length=6)
        for r, n in zip(est.radii, est.counts):
            assert n == int(np.searchsorted(brute, r, side="left"))

    def test_counts_nondecreasing(self, base_rep):
        est = estimate_growth(base_rep, 6.0)
        assert all(b >= a for a, b in zip(est.counts, est.counts[1:]))

    def test_exponent_near_one(self, base_rep):
        est = estimate_growth(base_rep, 9.0)
        assert 0.7 <= est.h <= 1.3

    def test_rejects_small_radius(self, base_rep):
        with pytest.raises(RepresentationError):
            estimate_growth(base_rep, 4.0)


class TestComplexTraceSearch:
    def test_finds_short_witness_when_bent(self, bent_rep):
        w = find_complex_trace_element(bent_rep, 4)
        assert len(w.letters) <= 4
        m = evaluate(bent_rep, w)
        assert abs(m.trace.imag) > 1e-6
        cl = classify(m)
        assert cl.kind in (IsometryKind.LOXODROMIC, IsometryKind.HYPERBOLIC)

    def test_reports_failure_on_plane_preserving(self, base_rep):
        with pytest.raises(RepresentationError):
            find_complex_trace_element(base_rep, 3)

    def test_witness_is_shortlex_first(self, bent_rep):
        w = find_complex_trace_element(bent_rep, 4)
        for earlier in enumerate_words(bent_rep.presentation, len(w.letters),
                                       mode="reduced"):
            if earlier == w:
                break
            assert abs(evaluate(bent_rep, earlier).trace.imag) <= 1e-6


class TestSerialization:
    def test_roundtrip_bytes_stable(self, base_rep, bent_rep):
        for rep in (base_rep, bent_rep):
            payload = representation_json(rep)
            back = representation_from_dict(json.loads(payload))
            assert representation_json(back) == payload
            assert representation_hash(back) == representation_hash(rep)

    def test_schema_and_fields(self, bent_rep):
        d = representation_to_dict(bent_rep)
        assert d["schema"] == "qfcert/1"
        assert d["type"] == "representation"
        assert d["kind"] == "bent"
        assert d["angle"] == 0.6
        assert d["genus"] == 2
        assert set(d["images"]) == {"a1", "b1", "a2", "b2"}
        for quad in d["images"].values():
            assert len(quad) == 4
            assert all(len(pair) == 2 for pair in quad)

    def test_roundtrip_preserves_action(self, bent_rep):
        back = representation_from_dict(representation_to_dict(bent_rep))
        for letter in (1, 2, 3, 4):
            assert back.images[letter].distance_to(bent_rep.images[letter]) == 0.0

    def test_hash_distinguishes_angles(self, base_rep):
        h1 = representation_hash(bend(base_rep, 0.3))
        h2 = representation_hash(bend(base_rep, 0.31))
        assert h1 != h2

    def test_rejects_unknown_schema(self, base_rep):
        d = representation_to_dict(base_rep)
        d["schema"] = "qfcert/999"
        with pytest.raises(RepresentationError):
            representation_from_dict(d)

    def test_rejects_tampered_images(self, base_rep):
        d = representation_to_dict(base_rep)
        d["images"]["a1"][0][0] *= 1.001
        with pytest.raises(RepresentationError):
            representation_from_dict(d)

    def test_deterministic_bytes_across_rebuilds(self):
        a = representation_json(bend(fuchsian_octagon(), 0.6))
        b = representation_json(bend(fuchsian_octagon(), 0.6))
        assert a == b


class TestBasepoint:
    def test_with_basepoint_changes_orbit_distance(self, base_rep):
        y = Point3(0.5 + 0.25j, 2.0)
        moved = with_basepoint(base_rep, y)
        w = Word((1,))
        m = evaluate(moved, w)
        assert orbit_distance(moved, w) == pytest.approx(
            dist_h3(m(y), y), abs=1e-12)

    def test_with_basepoint_preserves_images(self, base_rep):
        moved = with_basepoint(base_rep, Point3(1.0j, 3.0))
        for letter in (1, 2, 3, 4):
            assert moved.images[letter].entries() == base_rep.images[letter].entries()
