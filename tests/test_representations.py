"""Tests for surface-group representations into hyperbolic isometries.

Oracle values are frozen from independent computations: the octagon
translation length is 2*arccosh(1 + sqrt(2)) from the regular-octagon
apothem, orbit estimates are checked against the displacement-average
definition, and enumeration counts are checked against word counts with
relator coincidences removed.
"""

import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from qfcert import _wordarrays as wa
from qfcert import boundary, representations
from qfcert.moebius import (
    BASEPOINT,
    IsometryKind,
    MoebiusError,
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
    orbit_length_estimate,
    orbit_point_distances,
    power_displacement,
    representation_hash,
    representation_json,
    representation_to_dict,
    stable_length,
    stable_lengths,
)
from qfcert.surface_group import GroupPresentation, Word, enumerate_words

from geometry_reference import translation_lengths
from word_reference import are_equal

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


def _matrices(rep, words):
    """(n, 2, 2) images of words, evaluated one at a time."""
    return np.array([[[m.a, m.b], [m.c, m.d]]
                     for m in (evaluate(rep, w) for w in words)],
                    dtype=complex)


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

    @pytest.mark.parametrize("bad", [complex("nan"), complex("inf"),
                                     complex(0.0, float("-inf"))])
    def test_batch_lengths_reject_non_finite_entries(self, bad):
        mats = np.array([[[2.0, 1.0], [1.0, 1.0]]] * 2, dtype=complex)
        mats[1, 1, 0] = bad
        with pytest.raises(MoebiusError, match="non-finite"):
            stable_lengths(mats)

    def test_batch_lengths_ignore_the_sign_of_the_lift(self, bent_rep):
        # evaluate's canonical sign makes the length a function of the
        # map, so a negated product has bit for bit the same length
        _, mats = wa.conjugacy_classes(3, bent_rep.generator_matrix_array())
        assert stable_lengths(-mats) == stable_lengths(mats)

    def test_orbit_distance_dominates(self, base_rep):
        words = list(enumerate_words(base_rep.presentation, 2, mode="reduced"))
        dists = representations._orbit_distances_of(
            _matrices(base_rep, words), base_rep.basepoint)
        for w, d in zip(words, dists):
            assert d >= stable_length(base_rep, w) - 1e-12

    def test_orbit_distance_is_basepoint_displacement(self, bent_rep):
        # the batch distance of the orbit search, at the default basepoint
        # and at a moved one
        words = list(enumerate_words(bent_rep.presentation, 2, mode="reduced"))
        mats = _matrices(bent_rep, words)
        for y in (BASEPOINT, Point3(0.5 + 0.25j, 2.0)):
            dists = representations._orbit_distances_of(mats, y)
            for w, d in zip(words, dists):
                m = evaluate(bent_rep, w)
                assert d == pytest.approx(dist_h3(m(y), y), abs=1e-12)


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
        rots = [Word(w.letters[i:] + w.letters[:i]) for i in range(len(w))]
        for other_size, other_rots in kept:
            if abs(size - other_size) <= 1e-6 * size and any(
                    are_equal(pres, r, s) for r in rots for s in other_rots):
                break
        else:
            kept.append((size, rots))
            out.append(w.letters)
    return out


# The numeric relator merge that the class table used before its swap
# rule, kept as a reference: matrices equal up to sign within
# FINGERPRINT_TOL per entry are one element, and only classes in
# neighbouring |trace| buckets compare.
FINGERPRINT_TOL = 1e-6
TRACE_BUCKET = 1e-4


def numeric_classes(maxlen: int, gens: np.ndarray):
    """Rows and products of the class table, merged by matrices: a rotation
    class is dropped when one of its rotations has, up to sign, the matrix
    of a rotation of an earlier kept class."""
    rows, mats, buckets = [], [], {}
    for level in wa.reduced_word_levels(maxlen):
        level = level[wa.conjugacy_class_mask(level)]
        n, length = level.shape
        rolled = np.concatenate([np.roll(level, -s, axis=1)
                                 for s in range(length)])
        # rots[s, i] is the product of rotation s of class row i
        rots = wa.compose_matrices(rolled, gens).reshape(length, n, 4)
        tr = rots[0, :, 0] + rots[0, :, 3]
        keys = np.rint(np.abs(np.stack([tr.real, tr.imag], axis=1))
                       / TRACE_BUCKET).astype(np.int64).tolist()
        keep = np.ones(n, dtype=bool)
        for i, (kr, ki) in enumerate(keys):
            near = [m for dr in (-1, 0, 1) for di in (-1, 0, 1)
                    for m in buckets.get((kr + dr, ki + di), ())]
            if near:
                # max entry gap of each rotation pair, minimized over sign
                a, b = rots[:, i, None], np.concatenate(near)[None]
                keep[i] = not (np.minimum(np.abs(a - b).max(axis=-1),
                                          np.abs(a + b).max(axis=-1))
                               <= FINGERPRINT_TOL).any()
            if keep[i]:
                buckets.setdefault((kr, ki), []).append(rots[:, i])
        rows.append(np.pad(level[keep], ((0, 0), (0, maxlen - length)),
                           constant_values=-1))
        mats.append(rots[0, keep].reshape(-1, 2, 2))
    return np.concatenate(rows), np.concatenate(mats)


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

    @pytest.mark.parametrize("maxlen,angle", [
        *((m, t) for m in range(1, 6)
          for t in (0.0, 0.3, 0.6, 0.85, 0.99, -0.6)),
        (6, 0.6)])
    def test_swap_rule_equals_numeric_merge(self, base_rep, maxlen, angle):
        gens = bend(base_rep, angle).generator_matrix_array()
        rows, mats = wa.conjugacy_classes(maxlen, gens)
        want_rows, want_mats = numeric_classes(maxlen, gens)
        assert _same_bits(rows, want_rows)
        assert _same_bits(mats, want_mats)

    def test_rows_do_not_depend_on_the_generators(self, base_rep, bent_rep):
        # the third array is no representation: the relator does not hold
        noise = np.random.default_rng(23).normal(size=(8, 2, 2))
        rows = [wa.conjugacy_classes(5, gens)[0] for gens in (
            base_rep.generator_matrix_array(),
            bent_rep.generator_matrix_array(), noise)]
        assert np.array_equal(rows[0], rows[1])
        assert np.array_equal(rows[0], rows[2])

    def test_short_genus3_words_keep_every_rotation_class(self):
        # a swap needs at least 2g = 6 letters, so nothing merges here
        gens = np.random.default_rng(29).normal(size=(12, 2, 2))
        rows, mats = wa.conjugacy_classes(4, gens)
        pres = GroupPresentation(genus=3)
        assert [wa.ranks_to_letters(row, 3) for row in rows] == [
            w.letters for w in enumerate_words(pres, 4, mode="conjugacy")]
        assert len(mats) == len(rows)

    def test_relator_length_is_refused(self, bent_rep):
        with pytest.raises(ValueError, match="maxlen < 4g = 8"):
            wa.conjugacy_classes(8, bent_rep.generator_matrix_array())

    def test_every_swap_is_a_group_equality(self):
        pres = GroupPresentation(genus=2)
        swaps = wa._relator_swaps(2)
        pairs = [(s, r) for s, rs in swaps.items() for r in rs]
        # the 16 cells (rotations of the relator and its inverse) give 16
        # swaps at each |s| from 4 to 7; two glued cells give 112 more,
        # each with |s| = |r| = 7
        assert len(pairs) == 4 * 16 + 112
        for s, r in pairs:
            assert len(r) <= len(s) < 8
            assert are_equal(pres, Word(wa.ranks_to_letters(np.array(s))),
                                  Word(wa.ranks_to_letters(np.array(r))))

    def test_one_product_per_class_row(self, bent_rep, monkeypatch):
        composed = []
        compose = wa.compose_matrices

        def counting(words, gen_mats):
            composed.append(len(words))
            return compose(words, gen_mats)

        monkeypatch.setattr(wa, "compose_matrices", counting)
        rows, _ = wa.conjugacy_classes(5, bent_rep.generator_matrix_array())
        assert sum(composed) == len(rows) == 4100


def _einsum_times(m, g):
    """The batch product as np.einsum computes it: the reference that
    wa._times must equal bit for bit."""
    return np.einsum("nij,njk->nik", m, g)


def _same_bits(got, want):
    return got.dtype == want.dtype and got.shape == want.shape \
        and got.tobytes() == want.tobytes()


def _random_mats(rng, n, real):
    """(n, 2, 2) entries spread over many binades, with signed zeros."""
    def plane():
        x = rng.normal(size=(n, 2, 2)) * 10.0 ** rng.uniform(-4, 4, (n, 2, 2))
        zero = rng.random((n, 2, 2)) < 0.1
        x[zero] = np.where(rng.random(zero.sum()) < 0.5, 0.0, -0.0)
        return x
    return plane() if real else plane() + 1j * plane()


class TestProductKernel:
    """wa._times sums each entry as (0.0 + p0) + p1 with complex terms
    formed on the planes, so it equals np.einsum("nij,njk->nik") bit for
    bit; its float64 branch equals the real part of the complex einsum."""

    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    def test_times_equals_einsum(self, real):
        rng = np.random.default_rng(7)
        m, g = _random_mats(rng, 5000, real), _random_mats(rng, 5000, real)
        got = wa._times(m, g)
        assert got.dtype == (np.float64 if real else np.complex128)
        assert _same_bits(got, _einsum_times(m, g))

    def test_real_branch_equals_real_part_of_complex_einsum(self):
        rng = np.random.default_rng(8)
        m, g = _random_mats(rng, 5000, True), _random_mats(rng, 5000, True)
        want = _einsum_times(m.astype(complex), g.astype(complex))
        assert _same_bits(wa._times(m, g), np.ascontiguousarray(want.real))
        assert not want.imag.any()

    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    def test_two_negative_zero_terms_sum_to_positive_zero(self, real):
        # entry (0, 0) is (-1)(0) + (1)(-0): both terms are -0.0
        m = np.array([[[-1.0, 1.0], [2.0, 3.0]]])
        g = np.array([[[0.0, 1.0], [-0.0, 1.0]]])
        if not real:
            m, g = m.astype(complex), g.astype(complex)
        got = wa._times(m, g)
        assert _same_bits(got, _einsum_times(m, g))
        assert got[0, 0, 0] == 0.0 and not np.signbit(got.real[0, 0, 0])

    @pytest.mark.parametrize("genus", [2, 3])
    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    def test_extend_products_equals_repeat_and_einsum(self, genus, real):
        rng = np.random.default_rng(genus)
        gens = _random_mats(rng, 4 * genus, real)
        fan = 4 * genus - 1
        parents = None
        for level in wa.reduced_word_levels(4 if genus == 2 else 3, genus):
            last = level[:, -1]
            if parents is None:
                parents = gens[last]
                continue
            got = wa.extend_products(parents, last, gens)
            want = _einsum_times(np.repeat(parents, fan, axis=0), gens[last])
            assert _same_bits(got, want)
            parents = want

    def test_reference_octagon_composes_in_float64(self, base_rep, bent_rep):
        gens = base_rep.generator_matrix_array()
        real = wa.exact_real(gens)
        assert real.dtype == np.float64 and np.array_equal(real, gens)
        assert wa.exact_real(bent_rep.generator_matrix_array()).dtype \
            == np.complex128
        levels = wa.reduced_word_levels(5)
        got = wa.compose_matrices(levels[-1], real)
        want = wa.compose_matrices(levels[-1], gens)
        assert _same_bits(got, np.ascontiguousarray(want.real))


class TestTranslating:
    """wa.translating, the sample's and the class table's filter, keeps
    exactly the products whose np.arccosh length exceeds 1e-9."""

    @pytest.mark.parametrize("angle", [None, 0.0, 0.6, 0.99, -0.6],
                             ids=["reference", "0", "0.6", "0.99", "-0.6"])
    def test_equals_the_arccosh_length_threshold(self, base_rep, angle):
        gens = wa.exact_real(base_rep.generator_matrix_array()) \
            if angle is None else bend(base_rep, angle).generator_matrix_array()
        mats = None
        for level in wa.reduced_word_levels(6):
            last = level[:, -1]
            mats = gens[last] if mats is None \
                else wa.extend_products(mats, last, gens)
            assert np.array_equal(wa.translating(wa.traces(mats)),
                                  translation_lengths(mats) > 1e-9)

    @pytest.mark.parametrize("dtype", [complex, float])
    def test_boundary_cases(self, dtype):
        tol = 1e-9
        traces = {
            # +-I with rounding, parabolic and elliptic traces
            2.0 + 4.4e-16: False, -2.0 - 4.4e-16: False, 2.0: False,
            -2.0: False, 2.0 * math.cos(0.3): False, 0.0: False,
            # each side of the parabolic tolerance
            2.0 + 0.5 * tol: False, 2.0 + 2.0 * tol: True,
            -2.0 - 0.5 * tol: False, -2.0 - 2.0 * tol: True, 5.0: True,
        }
        if dtype is complex:
            traces.update({
                # each side of the real-trace tolerance
                1.0 + 0.5j * tol: False, 1.0 + 2j * tol: True,
                2.0 - 0.5j * tol: False, -2.0 - 2j * tol: True,
                2j: True,
            })
        tr = np.array(list(traces), dtype=dtype)
        # diagonal matrices with the trace split in two exact halves
        mats = np.zeros((tr.size, 2, 2), dtype=dtype)
        mats[:, 0, 0] = mats[:, 1, 1] = tr / 2.0
        got = wa.translating(wa.traces(mats))
        assert got.tolist() == list(traces.values())
        assert np.array_equal(got, translation_lengths(mats) > 1e-9)


class TestPrefixProducts:
    """Limit-set sampling multiplies each word's parent product by one
    generator; the parent of row i is row i // (4g - 1) of the level
    before, and the products equal full composition bit for bit."""

    @pytest.mark.parametrize("genus,maxlen", [(2, 5), (3, 3)])
    def test_row_extends_parent_row(self, genus, maxlen):
        levels = wa.reduced_word_levels(maxlen, genus)
        for prev, level in zip(levels, levels[1:]):
            parent = np.arange(level.shape[0]) // (4 * genus - 1)
            assert parent[-1] == prev.shape[0] - 1
            assert np.array_equal(level[:, :-1], prev[parent])

    # 98-word chunks put sibling groups on both sides of chunk edges
    @pytest.mark.parametrize("chunk", [boundary._CHUNK, 100])
    @pytest.mark.parametrize("angle", [0.0, 0.6])
    def test_sample_products_equal_full_composition(self, base_rep, angle,
                                                    chunk, monkeypatch):
        monkeypatch.setattr(boundary, "_CHUNK", chunk)
        # the reference side composes in float64, as limit_set_sample does
        gens = (wa.exact_real(base_rep.generator_matrix_array()),
                bend(base_rep, angle).generator_matrix_array())
        products = None
        for level in wa.reduced_word_levels(5):
            n, width = level.shape
            out = (np.empty((n, width), dtype=np.int8), np.empty(n),
                   np.empty((n, 2), dtype=complex))
            _, products = boundary._accumulate_level(
                level, gens, products, True, out, 0)
            for got, g in zip(products, gens):
                assert np.array_equal(got, wa.compose_matrices(level, g))


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


def _dedup_then_prune_reference(rep, prune_radius=None, max_word_length=None):
    """The orbit search as it was before pruning moved ahead of dedup:
    every candidate enters the seen table, then elements beyond the
    radius are dropped.  It composes with the complex generators by
    np.repeat and einsum and signs with the reference below, not the
    kernels under test.  Kept as the bit-for-bit reference."""
    gens = rep.generator_matrix_array()
    genus = rep.presentation.genus
    y = rep.basepoint
    chunk = representations._FRONTIER_CHUNK
    frontier = np.eye(2, dtype=complex)[None, :, :]
    seen = np.sort(wa.rows_as_void(wa.quantize_keys(frontier)))
    last = None
    dists = [np.zeros(1)]
    depth = 0
    while frontier.shape[0]:
        depth += 1
        if max_word_length is not None and depth > max_word_length:
            break
        level_keys = seen[:0]
        level_mats, level_last, level_dists = [], [], []
        for lo in range(0, frontier.shape[0], chunk):
            if last is None:
                kids, cand = np.arange(gens.shape[0], dtype=np.int8), gens
            else:
                kids = wa.child_ranks(last[lo:lo + chunk], genus)
                cand = _einsum_times(
                    np.repeat(frontier[lo:lo + chunk], gens.shape[0] - 1,
                              axis=0), gens[kids])
            cand = _gather_canonical_sign(cand)
            v = wa.rows_as_void(wa.quantize_keys(cand))
            uniq_v, uniq_idx = np.unique(v, return_index=True)
            new_mask = ~wa.member_of_sorted(uniq_v, seen)
            new_mask &= ~wa.member_of_sorted(uniq_v, level_keys)
            level_keys = np.sort(np.concatenate([level_keys, uniq_v[new_mask]]))
            pick = uniq_idx[new_mask]
            fresh, fresh_last = cand[pick], kids[pick]
            dist = representations._orbit_distances_of(fresh, y)
            if prune_radius is not None:
                keep = dist <= prune_radius
                fresh, fresh_last, dist = fresh[keep], fresh_last[keep], dist[keep]
            level_mats.append(fresh)
            level_last.append(fresh_last)
            level_dists.append(dist)
        if level_keys.size == 0:
            break
        seen = np.sort(np.concatenate([seen, level_keys]))
        frontier = np.concatenate(level_mats)
        last = np.concatenate(level_last)
        dists.extend(level_dists)
    return np.sort(np.concatenate(dists))


class TestOrbitSearchReference:
    """Pruning before dedup keeps only in-radius elements in the seen
    table and returns the same distances, bit for bit, as deduplicating
    every candidate first."""

    @pytest.mark.parametrize("prune_radius,max_word_length", [
        (9.0, None), (10.0, None), (8.0, 5),
        (None, 1), (None, 2), (None, 3), (None, 4), (None, 5),
    ])
    def test_equals_dedup_then_prune(self, base_rep, prune_radius,
                                     max_word_length):
        got = orbit_point_distances(base_rep, prune_radius=prune_radius,
                                    max_word_length=max_word_length)
        want = _dedup_then_prune_reference(base_rep, prune_radius,
                                           max_word_length)
        assert np.array_equal(got, want)

    def test_small_chunks_equal_reference(self, base_rep, monkeypatch):
        # 100-element chunks split every level past the third, so the
        # chunk-order pick and the cross-chunk level table are exercised
        monkeypatch.setattr(representations, "_FRONTIER_CHUNK", 100)
        got = orbit_point_distances(base_rep, prune_radius=10.0)
        want = _dedup_then_prune_reference(base_rep, 10.0)
        assert np.array_equal(got, want)


def _plane_stack_keys(mats):
    """Element keys as a stack of real and imaginary planes, eight columns
    for any batch: the layout quantize_keys replaced, kept as reference."""
    flat = mats.reshape(mats.shape[0], 4)
    parts = np.stack([flat.real, flat.imag], axis=-1).reshape(mats.shape[0], 8)
    return np.round(parts * (10.0 ** wa.KEY_DECIMALS)).astype(np.int64)


class TestElementKeys:
    """quantize_keys reads the batch's own float64 view: complex keys
    are the plane-stack keys, and real keys drop only all-zero columns,
    so the dedup picks the same rows."""

    def test_complex_keys_equal_plane_stack(self, bent_rep):
        gens = bent_rep.generator_matrix_array()
        for level in wa.reduced_word_levels(4):
            mats = wa.canonical_sign(wa.compose_matrices(level, gens))
            assert mats.dtype == np.complex128
            assert _same_bits(wa.quantize_keys(mats), _plane_stack_keys(mats))

    def test_real_keys_drop_only_zero_columns(self, base_rep):
        # level 4 holds the eight relator coincidences that
        # test_relator_coincidences_merged counts
        gens = wa.exact_real(base_rep.generator_matrix_array())
        mats = wa.canonical_sign(
            wa.compose_matrices(wa.reduced_word_levels(4)[-1], gens))
        assert mats.dtype == np.float64
        got, want = wa.quantize_keys(mats), _plane_stack_keys(mats)
        assert _same_bits(got, want[:, 0::2])
        assert not want[:, 1::2].any()
        # np.unique lists first occurrences in memcmp key order, the
        # order the frontier keeps
        _, got_idx = np.unique(wa.rows_as_void(got), return_index=True)
        _, want_idx = np.unique(wa.rows_as_void(want), return_index=True)
        assert np.array_equal(got_idx, want_idx)
        assert got_idx.size == len(mats) - 8

    def test_no_allocator_tuning_in_src(self):
        # allocator settings are process-wide: a library call must not
        # leave them changed in its caller
        src = Path(representations.__file__).parent
        files = sorted(src.rglob("*.py"))
        found = [path.name for path in files
                 if re.search(r"mallopt|ctypes", path.read_text())]
        assert len(files) > 5
        assert not found


# canonical_sign as it was before a float64 batch stayed in float64,
# kept as a reference: it gathers each row's lead entry.

def _gather_canonical_sign(mats):
    """canonical_sign by an (n, 4) abs, argmax and gather."""
    flat = mats.reshape(mats.shape[0], 4)
    signif = np.abs(flat) > 1e-9
    # force a pick even for near-zero rows
    signif[:, 3] |= ~signif.any(axis=1)
    first = np.argmax(signif, axis=1)
    lead = flat[np.arange(flat.shape[0]), first]
    use_imag = np.abs(lead.real) <= 1e-12 * np.abs(lead)
    key = np.where(use_imag, lead.imag, lead.real)
    sign = np.where(key < 0.0, -1.0, 1.0)
    return mats * sign[:, None, None]


def _bits(x):
    """Raw 64-bit words, so that signed zeros count."""
    return np.ascontiguousarray(x).view(np.uint64)


def _level_products(gens, maxlen):
    """Products of every reduced word up to maxlen, level by level."""
    mats, out = None, []
    for level in wa.reduced_word_levels(maxlen):
        last = level[:, -1]
        mats = gens[last] if mats is None \
            else wa.extend_products(mats, last, gens)
        out.append(mats)
    return out


def _elliptic_gens(base_rep):
    """The octagon's float64 generators with a1 a quarter turn, so that
    products hold +-I and elliptic rows (as the sample's dropped-row test
    builds them)."""
    ref = wa.exact_real(base_rep.generator_matrix_array()).copy()
    ref[0], ref[4] = [[0.0, -1.0], [1.0, 0.0]], [[0.0, 1.0], [-1.0, 0.0]]
    return ref


# leading entries at 0, -0, on either side of the 1e-9 cut and with a
# vanishing real part; the last rows have no entry past the cut, and
# zero entries carry either sign
_EDGE_ROWS = np.array([
    [[0.0, -2.0], [1.0, -0.5]], [[-0.0, 0.0], [-3.0, 1.0 / 3.0]],
    [[5e-10, -1.0], [1.0, 2.0]], [[-5e-10, 4.0], [-0.25, 3.0]],
    [[-1e-9, 1e-9], [-2.0, -0.5]], [[-1e-8, 3.0], [-1.0 / 3.0, -0.1]],
    [[-2.0, 0.0], [0.0, -0.5]], [[0.5, -0.0], [-0.0, 2.0]],
    [[-1e-10, 2e-10], [0.0, 3e-10]], [[0.0, -0.0], [-0.0, -1e-10]],
])


class TestKernelBits:
    """canonical_sign keeps a float64 batch in float64 with the bits of
    the reference above, and a complex batch gets the reference's own
    bits; orbit distances do not see the sign."""

    @pytest.fixture(scope="class")
    def batches(self, base_rep):
        real = wa.exact_real(base_rep.generator_matrix_array())
        out = {"octagon": _level_products(real, 6),
               "elliptic": _level_products(_elliptic_gens(base_rep), 4)}
        out["octagon-complex"] = [m.astype(complex) for m in out["octagon"]]
        for angle in (0.0, 0.6):
            out["bent-%g" % angle] = _level_products(
                bend(base_rep, angle).generator_matrix_array(), 6)
        rng = np.random.default_rng(19)
        out["edges"] = [_EDGE_ROWS, _EDGE_ROWS.astype(complex),
                        _EDGE_ROWS * (1.0 - 1j), _EDGE_ROWS * 1j,
                        _random_mats(rng, 500, True),
                        _random_mats(rng, 500, False)]
        return out

    @pytest.mark.parametrize("name", ["octagon", "octagon-complex", "bent-0",
                                      "bent-0.6", "elliptic", "edges"])
    def test_canonical_sign(self, batches, name):
        for mats in batches[name]:
            got, want = wa.canonical_sign(mats), _gather_canonical_sign(mats)
            assert got.dtype == mats.dtype == want.dtype
            assert np.array_equal(_bits(got), _bits(want))

    @pytest.mark.parametrize("name", ["octagon", "octagon-complex", "bent-0",
                                      "bent-0.6", "elliptic", "edges"])
    @pytest.mark.parametrize("y", [BASEPOINT, Point3(0.5, 2.0),
                                   Point3(0.5 + 0.25j, 2.0)],
                             ids=["basepoint", "real-axis", "off-axis"])
    def test_orbit_distances_ignore_the_sign(self, batches, name, y):
        # the search signs after its prune, so -m must prune as m does
        for mats in batches[name]:
            # the random rows with c = d = 0 send y to infinity
            mats = mats[(mats[:, 1] != 0.0).any(axis=1)]
            got = representations._orbit_distances_of(mats, y)
            assert np.array_equal(
                _bits(representations._orbit_distances_of(-mats, y)),
                _bits(got))

    def test_sign_sees_only_in_radius_rows(self, base_rep, monkeypatch):
        # prune radius 14 (growth --rmax 10) builds 1 123 032 candidates
        # and keeps 166 160; only those are signed
        rows = []
        signed = wa.canonical_sign

        def counting(mats):
            rows.append(mats.shape[0])
            return signed(mats)

        monkeypatch.setattr(wa, "canonical_sign", counting)
        orbit_point_distances(base_rep, prune_radius=14.0)
        assert sum(rows) == 166160


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
        # the JSON text reparses to the same bytes, and the hash is the
        # digest of that payload's compact form
        for rep in (base_rep, bent_rep):
            payload = representation_json(rep)
            parsed = json.loads(payload)
            assert json.dumps(parsed, sort_keys=True, indent=2) + "\n" \
                == payload
            compact = json.dumps(parsed, sort_keys=True,
                                 separators=(",", ":")).encode()
            assert representation_hash(rep) \
                == hashlib.sha256(compact).hexdigest()[:16]

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

    def test_hash_distinguishes_angles(self, base_rep):
        h1 = representation_hash(bend(base_rep, 0.3))
        h2 = representation_hash(bend(base_rep, 0.31))
        assert h1 != h2

    def test_deterministic_bytes_across_rebuilds(self):
        a = representation_json(bend(fuchsian_octagon(), 0.6))
        b = representation_json(bend(fuchsian_octagon(), 0.6))
        assert a == b

