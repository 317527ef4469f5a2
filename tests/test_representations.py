"""Tests for surface-group representations into hyperbolic isometries.

Oracle values are frozen from independent computations: the octagon
translation length is 2*arccosh(1 + sqrt(2)) from the regular-octagon
apothem, orbit estimates are checked against the displacement-average
definition, and enumeration counts are checked against word counts with
relator coincidences removed.
"""

import ast
import hashlib
import itertools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qfcert import _wordarrays as wa
from qfcert import representations
from qfcert.certificates import _class_table
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
    GROWTH_MARGIN,
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
    spectrum_rows,
    stable_length,
    stable_lengths,
)
from qfcert.surface_group import (
    RELATOR_WORD,
    Word,
    WordError,
    enumerate_words,
)

from array_reference import plane_times
from geometry_reference import translation_lengths
from word_reference import (
    are_equal,
    child_ranks,
    is_identity,
    reduced_word_levels,
)

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

    def test_evaluate_refuses_out_of_range_letters(self, base_rep):
        with pytest.raises(WordError):
            evaluate(base_rep, Word((5,)))

    def test_evaluate_relator(self, base_rep):
        m = evaluate(base_rep, RELATOR_WORD)
        assert m.is_identity(1e-9)

    def test_constructor_rejects_broken_relator(self, base_rep):
        images = dict(base_rep.images)
        bad = images[1] @ MoebiusMap(math.e ** 0.001, 0.0, 0.0, math.e ** -0.001)
        images = {k: v for k, v in images.items() if k > 0}
        images[1] = bad
        with pytest.raises(RepresentationError):
            Representation(images, kind="fuchsian")

    def test_fuchsian_tag_rejects_complex_entries(self, base_rep, bent_rep):
        images = {k: v for k, v in bent_rep.images.items() if k > 0}
        with pytest.raises(RepresentationError):
            Representation(images, kind="fuchsian")


class TestBending:
    @pytest.mark.parametrize("angle", BEND_ANGLES)
    def test_relator_preserved(self, base_rep, angle):
        assert bend(base_rep, angle).relator_residual() <= 1e-9

    def test_bending_curve_is_first_commutator(self):
        assert bending_curve_word() == Word((1, 2, -1, -2))

    def test_zero_angle_preserves_lengths(self, base_rep):
        b0 = bend(base_rep, 0.0)
        for w in enumerate_words(3, mode="conjugacy"):
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

    def test_bending_never_lengthens_a_class(self, base_rep):
        # the pleated plane is a 1-Lipschitz equivariant map
        # (Epstein-Marden 1987), so no class gets longer; the 474 classes
        # that miss the bending curve keep their length.  The angles lie
        # inside the proved quasi-Fuchsian range |angle| < 1.27354, and
        # the bend by -angle is the mirror image, the same to the bit
        rows, ell0 = spectrum_rows(base_rep, 6)
        ell0 = np.array(ell0)
        assert len(rows) == 23455
        kept = []
        for angle in (0.3, 0.6, 1.0, 1.27):
            bent_rows, ell = spectrum_rows(bend(base_rep, angle), 6)
            assert np.array_equal(bent_rows, rows)
            ell = np.array(ell)
            assert np.all(ell <= ell0 * (1.0 + 1e-12)), angle
            kept.append(np.flatnonzero(np.abs(ell - ell0) <= 1e-13 * ell0))
            mirror_rows, mirror = spectrum_rows(bend(base_rep, -angle), 6)
            assert np.array_equal(mirror_rows, rows)
            assert mirror == ell.tolist(), angle
        assert len(kept[0]) == 474
        assert all(np.array_equal(k, kept[0]) for k in kept)

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
        words = list(enumerate_words(3, mode="reduced"))
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
        words = list(enumerate_words(3, mode="reduced"))
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
        words = list(enumerate_words(2, mode="reduced"))
        dists = representations._basepoint_distances(
            _matrices(base_rep, words))
        for w, d in zip(words, dists):
            assert d >= stable_length(base_rep, w) - 1e-12

    def test_orbit_distance_is_basepoint_displacement(self, base_rep):
        # the batch distance of the orbit search, cosh d = ||m||_F^2 / 2,
        # is the displacement of BASEPOINT; of a moved point y once the
        # products are moved there, on the octagon and bend 0.6
        words = list(enumerate_words(3, mode="reduced"))
        for rep in (base_rep, bend(base_rep, 0.6)):
            mats = _matrices(rep, words)
            for y in (BASEPOINT, Point3(0.5 + 0.25j, 2.0)):
                dists = representations._basepoint_distances(
                    _moved_to(mats, y))
                for w, d in zip(words, dists):
                    m = evaluate(rep, w)
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
        words = list(enumerate_words(3, mode="reduced"))
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
        y1 = BASEPOINT
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

    @pytest.mark.parametrize("maxlen", [0, 8])
    def test_maxlen_outside_the_class_table_is_refused(self, base_rep,
                                                        maxlen):
        with pytest.raises(RepresentationError, match="at least 1"):
            compute_spectrum(base_rep, maxlen)

    def test_spectrum_keeps_the_rows_the_scans_drop(self):
        # at bend 2.0 some classes stop translating: the spectrum keeps
        # them with length 0, the pair scans' table leaves them out
        rep = bend(fuchsian_octagon(), 2.0)
        rows, lengths = spectrum_rows(rep, 5)
        zero = np.array(lengths) == 0.0
        assert (len(rows), int(zero.sum())) == (4100, 20)
        table = _class_table(rep, 5)[0]
        assert len(table) == 4080
        assert np.array_equal(rows[~zero], table)

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
    kept: list[tuple[float, list[Word]]] = []
    out = []
    for w in enumerate_words(maxlen, mode="conjugacy"):
        size = abs(evaluate(rep, w).trace)
        rots = [Word(w.letters[i:] + w.letters[:i]) for i in range(len(w))]
        for other_size, other_rots in kept:
            if abs(size - other_size) <= 1e-6 * size and any(
                    are_equal(r, s) for r in rots for s in other_rots):
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
    for level in reduced_word_levels(maxlen):
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
        for level in reduced_word_levels(4):
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

    def test_short_words_keep_every_rotation_class(self, bent_rep):
        # a swap needs at least 4 letters, so nothing merges to length 3
        rows, mats = wa.conjugacy_classes(
            3, bent_rep.generator_matrix_array())
        assert [wa.ranks_to_letters(row) for row in rows] == [
            w.letters for w in enumerate_words(3, mode="conjugacy")]
        assert len(mats) == len(rows)

    def test_relator_length_is_refused(self, bent_rep):
        with pytest.raises(ValueError, match="maxlen < 8"):
            wa.conjugacy_classes(8, bent_rep.generator_matrix_array())

    def test_every_swap_is_a_group_equality(self):
        swaps = wa._relator_swaps()
        pairs = [(s, r) for s, rs in swaps.items() for r in rs]
        # the 16 cells (rotations of the relator and its inverse) give 16
        # swaps at each |s| from 4 to 7; two glued cells give 112 more,
        # each with |s| = |r| = 7
        assert len(pairs) == 4 * 16 + 112
        for s, r in pairs:
            assert len(r) <= len(s) < 8
            assert are_equal(Word(wa.ranks_to_letters(np.array(s))),
                             Word(wa.ranks_to_letters(np.array(r))))

    def test_one_product_per_class_row(self, base_rep, bent_rep,
                                       monkeypatch):
        # the products are the walk's: the table composes no row again
        composed = []
        compose = wa.compose_matrices

        def counting(words, gen_mats):
            composed.append(len(words))
            return compose(words, gen_mats)

        monkeypatch.setattr(wa, "compose_matrices", counting)
        gens = (bent_rep.generator_matrix_array(),
                base_rep.generator_matrix_array())
        rows, *mats = wa.conjugacy_classes(5, *gens)
        assert composed == []
        assert len(rows) == 4100
        assert len(mats) == 2
        for got, g in zip(mats, gens):
            assert _same_bits(got, compose(rows, g))


# The right sides of the rewriting system whose left sides
# _wordarrays.SHORTLEX_LEFT_SIDES lists, from the same Knuth-Bendix
# completion.
SHORTLEX_RIGHT_SIDES = {
    "a2 b2 A2 B2": "b1 a1 B1 A1", "b2 a2 B2 A2": "a1 b1 A1 B1",
    "A1 b2 a2 B2": "b1 A1 B1 a2", "B1 a2 b2 A2": "a1 B1 A1 b2",
    "B1 A1 b2 a2": "A1 B1 a2 b2", "A2 b1 a1 B1": "b2 A2 B2 a1",
    "B2 a1 b1 A1": "a2 B2 A2 b1", "B2 A2 b1 a1": "A2 B2 a1 b1",
    "a1 b1 A1 B1 a2": "b2 a2 B2", "b1 a1 B1 A1 b2": "a2 b2 A2",
    "b1 A1 B1 a2 b2": "A1 b2 a2", "b2 A2 B2 a1 b1": "A2 b1 a1",
    "a2 b2 A2 A2 B2 a1 b1": "b1 a1 B1 A1 A2 b1 a1",
    "A1 b2 a2 a2 B2 A2 b1": "b1 A1 B1 a2 a1 b1 A1",
    "B1 a2 b2 b2 A2 B2 a1": "a1 B1 A1 b2 b1 a1 B1",
    "B1 A1 b2 b1 a1 B1 A1": "A1 B1 a2 b2 b2 A2 B2",
    "A2 b1 a1 a1 B1 A1 b2": "b2 A2 B2 a1 a2 b2 A2",
    "B2 a1 b1 b1 A1 B1 a2": "a2 B2 A2 b1 b2 a2 B2",
}
# prefix period^k suffix -> FAMILY_PERIOD^(k+1) tail, one tail per suffix
FAMILY_PERIOD, FAMILY_TAILS = "A1 b2 a2 a2 B2 A2", ("", "A1 b2 a2")


def _shortlex_rules(max_k):
    """(left, right) rank tuples: the free cancellations, the listed rules
    and the families for k <= max_k."""
    def ranks(text):
        return tuple(wa.NAMES.index(name) for name in text.split())

    yield from (((r, r ^ 4), ()) for r in range(8))
    assert set(SHORTLEX_RIGHT_SIDES) == set(wa.SHORTLEX_LEFT_SIDES)
    yield from ((ranks(left), ranks(right))
                for left, right in SHORTLEX_RIGHT_SIDES.items())
    prefix, period, suffixes = wa.SHORTLEX_FAMILY
    for k in range(max_k + 1):
        for suffix, tail in zip(suffixes, FAMILY_TAILS):
            yield (ranks(" ".join([prefix] + [period] * k + [suffix])),
                   ranks(" ".join([FAMILY_PERIOD] * (k + 1) + [tail])))


def _acceptor_run(word):
    """Acceptor states after each prefix of a rank sequence, the empty
    one first."""
    table, states = wa.shortlex_acceptor(), [wa.START]
    for rank in word:
        states.append(int(table[states[-1], rank]))
    return states


def _accepts(word):
    return _acceptor_run(word)[-1] != wa.DEAD


class TestShortlexAcceptor:
    """The acceptor accepts exactly one word per element of the genus-2
    group, its shortlex-least spelling."""

    def test_sphere_counts_are_the_growth_series(self):
        # normal forms of length n, by the transfer matrix, against the
        # coefficients of (1 + 2x + 2x^2 + 2x^3 + x^4) /
        # (1 - 6x - 6x^2 - 6x^3 + x^4) (Floyd-Plotnick), to the orbit
        # search's depth guard of 64 letters; Python ints do not overflow
        numerator, denominator = (1, 2, 2, 2, 1), (1, -6, -6, -6, 1)
        table = wa.shortlex_acceptor().tolist()
        live, spheres, series = {wa.START: 1}, [], []
        for n in range(65):
            spheres.append(sum(live.values()))
            series.append((numerator[n] if n < 5 else 0) - sum(
                denominator[k] * series[n - k] for k in range(1, min(n, 4) + 1)))
            step = {}
            for state, count in live.items():
                for nxt in table[state]:
                    if nxt != wa.DEAD:
                        step[nxt] = step.get(nxt, 0) + count
            live = step
        assert spheres[:5] == [1, 8, 56, 392, 2736]
        assert spheres == series

    def test_each_rule_is_a_group_equality(self):
        # l = r in the group and r precedes l in shortlex order, so no
        # normal form contains l; r is a normal form, and so is every
        # proper subword of l: no left side holds another
        # the families to k = 8, whose longest left side has 59 letters
        rules = list(_shortlex_rules(8))
        assert len(rules) == 8 + 18 + 2 * 9
        for left, right in rules:
            assert (len(right), right) < (len(left), left)
            assert is_identity(_rank_word(left) * _rank_word(right).inverse())
            assert _accepts(right)
            assert not _accepts(left)
            assert _accepts(left[:-1]) and _accepts(left[1:])

    def test_accepted_words_are_freely_reduced_and_prefix_closed(self):
        table = wa.shortlex_acceptor()
        # one cached table serves every caller
        assert not table.flags.writeable
        assert (table[wa.DEAD] == wa.DEAD).all()
        accepted = 0
        for word in itertools.product(range(8), repeat=5):
            live = [state != wa.DEAD for state in _acceptor_run(word)]
            # once a prefix is rejected, every longer one is
            assert live == sorted(live, reverse=True)
            if live[-1]:
                accepted += 1
                assert all(b != a ^ 4 for a, b in zip(word, word[1:]))
        assert accepted == 19096

    def test_normal_forms_are_the_first_spellings(self, base_rep):
        # in shortlex order, a reduced word up to length 5 is accepted
        # exactly when no earlier word has its matrix (float keys of the
        # octagon, which is faithful, are exact at this length)
        gens = base_rep.generator_matrix_array()
        seen = set()
        for level in reduced_word_levels(5):
            keys = _quantize_keys(_gather_canonical_sign(
                wa.compose_matrices(level, gens)))
            first = []
            for key in map(bytes, keys):
                first.append(key not in seen)
                seen.add(key)
            state = np.full(len(level), wa.START)
            for column in level.T:
                state = wa.shortlex_acceptor()[state, column]
            assert np.array_equal(state != wa.DEAD, first)

    def test_built_on_first_use(self):
        # the table is built by the first search, never at import
        code = ("import qfcert.cli\n"
                "from qfcert import _wordarrays as wa\n"
                "print(wa.shortlex_acceptor.cache_info().currsize)\n")
        env = dict(os.environ, PYTHONPATH=str(Path(wa.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "0"


def _rank_word(ranks):
    return Word(wa.ranks_to_letters(np.array(ranks, dtype=np.int8)))


def _einsum_times(m, g):
    """The batch product as np.einsum computes it: the reference that
    the plane products must equal bit for bit."""
    return np.einsum("nij,njk->nik", m, g)


def _child_products(parents, last, gens):
    """Products of the 7 children of each parent, whose last ranks are
    last (flat, in parent order), by np.einsum."""
    return _einsum_times(np.repeat(parents, 7, axis=0), gens[last])


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
    """wa._plane_products sums each entry as (0.0 + p0) + p1 with complex
    terms formed on the planes, so it equals np.einsum("nij,njk->nik") bit for
    bit; its float64 branch equals the real part of the complex einsum."""

    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    def test_times_equals_einsum(self, real):
        rng = np.random.default_rng(7)
        m, g = _random_mats(rng, 5000, real), _random_mats(rng, 5000, real)
        got = plane_times(m, g)
        assert got.dtype == (np.float64 if real else np.complex128)
        assert _same_bits(got, _einsum_times(m, g))

    def test_real_branch_equals_real_part_of_complex_einsum(self):
        rng = np.random.default_rng(8)
        m, g = _random_mats(rng, 5000, True), _random_mats(rng, 5000, True)
        want = _einsum_times(m.astype(complex), g.astype(complex))
        assert _same_bits(plane_times(m, g), np.ascontiguousarray(want.real))
        assert not want.imag.any()

    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    def test_two_negative_zero_terms_sum_to_positive_zero(self, real):
        # entry (0, 0) is (-1)(0) + (1)(-0): both terms are -0.0
        m = np.array([[[-1.0, 1.0], [2.0, 3.0]]])
        g = np.array([[[0.0, 1.0], [-0.0, 1.0]]])
        if not real:
            m, g = m.astype(complex), g.astype(complex)
        got = plane_times(m, g)
        assert _same_bits(got, _einsum_times(m, g))
        assert got[0, 0, 0] == 0.0 and not np.signbit(got.real[0, 0, 0])

    def test_reference_octagon_composes_in_float64(self, base_rep, bent_rep):
        gens = base_rep.generator_matrix_array()
        real = wa.exact_real(gens)
        assert real.dtype == np.float64 and np.array_equal(real, gens)
        assert wa.exact_real(bent_rep.generator_matrix_array()).dtype \
            == np.complex128
        levels = reduced_word_levels(5)
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
        for level in reduced_word_levels(6):
            last = level[:, -1]
            mats = gens[last] if mats is None \
                else _child_products(mats, last, gens)
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
    """The normal-form walk multiplies each word's parent product by one
    generator, and its products equal full composition bit for bit; in
    reduced_word_levels the parent of row i is row i // 7 of the level
    before."""

    def test_row_extends_parent_row(self):
        levels = reduced_word_levels(5)
        for prev, level in zip(levels, levels[1:]):
            parent = np.arange(level.shape[0]) // 7
            assert parent[-1] == prev.shape[0] - 1
            assert np.array_equal(level[:, :-1], prev[parent])

    # 100-parent chunks split every length past the third
    @pytest.mark.parametrize("chunk", [None, 100])
    @pytest.mark.parametrize("angle", [0.0, 0.6])
    def test_sample_products_equal_full_composition(self, base_rep, angle,
                                                    chunk, monkeypatch):
        if chunk is not None:
            monkeypatch.setattr(wa, "_WALK_CHUNK", chunk)
        # the reference side composes in float64, as limit_set_sample does
        gens = (wa.exact_real(base_rep.generator_matrix_array()),
                bend(base_rep, angle).generator_matrix_array())
        assert [g.dtype for g in gens] == [np.float64, np.complex128]
        for rows, products in wa.normal_forms(gens, 5):
            for got, g in zip(products, gens):
                assert _same_bits(got, wa.compose_matrices(rows, g))


def _unpruned_walk(gens, maxlen, accept):
    """The normal-form walk without keep, as it was when every chunk
    gathered each live child's row and product before storing it."""
    fan = accept.shape[1] - 1
    chunks = [(np.arange(accept.shape[1], dtype=np.int8)[:, None],
               accept[wa.START], gens)]
    for width in range(1, maxlen + 1):
        store = [[], [], [[] for _ in gens]]
        for rows, kid_state, mats in chunks:
            yield rows, mats
            store[0].append(rows)
            store[1].append(kid_state)
            for kept, m in zip(store[2], mats):
                kept.append(m)
        if width == maxlen:
            return
        rows, state = np.concatenate(store[0]), np.concatenate(store[1])
        mats = [np.concatenate(m) for m in store[2]]
        chunks = []
        for lo in range(0, len(rows), wa._WALK_CHUNK):
            hi = lo + wa._WALK_CHUNK
            kids = child_ranks(rows[lo:hi, -1])
            kid_state = accept[np.repeat(state[lo:hi], fan), kids]
            ok = kid_state != wa.DEAD
            parent = lo + np.flatnonzero(ok) // fan
            chunks.append((np.column_stack([rows[parent], kids[ok]]),
                           kid_state[ok],
                           tuple(_child_products(m[lo:hi], kids, g)[ok]
                                 for m, g in zip(mats, gens))))


class TestNormalFormWalk:
    """wa.normal_forms yields the genus-2 normal forms, or over
    wa.free_acceptor the freely reduced words, in shortlex order, and
    yields and extends only the rows that keep picks."""

    def test_rows_come_in_shortlex_order(self, base_rep):
        gens = (base_rep.generator_matrix_array(),)
        rows = [tuple(r) for chunk, _ in wa.normal_forms(gens, 5)
                for r in chunk.tolist()]
        assert rows == sorted(rows, key=lambda r: (len(r), r))
        assert [sum(len(r) == n for r in rows) for n in range(1, 6)] \
            == [8, 56, 392, 2736, 19096]
        assert all(_accepts(r) for r in rows)

    @pytest.mark.parametrize("chunk", [None, 100])
    def test_keep_drops_the_descendants(self, base_rep, chunk, monkeypatch):
        if chunk is not None:
            monkeypatch.setattr(wa, "_WALK_CHUNK", chunk)
        gens = (wa.exact_real(base_rep.generator_matrix_array()),)

        def near(products):
            return representations._basepoint_distances(products[0]) <= 6.0

        seen = []

        def spy(products):
            seen.append(products[0].copy())
            return near(products)

        walked = [(rows.copy(), products[0].copy()) for rows, products
                  in wa.normal_forms(gens, 5, keep=spy)]
        # level by level: the normal forms whose proper prefixes were all
        # kept, in shortlex order, and the ones among them that near keeps
        kept, offered, picked = set(), [], []
        for level in reduced_word_levels(5):
            rows = level[[_accepts(r) and all(r[:k] in kept
                                              for k in range(1, len(r)))
                          for r in map(tuple, level.tolist())]]
            mats = wa.compose_matrices(rows, gens[0])
            inside = near((mats,))
            kept.update(map(tuple, rows[inside].tolist()))
            offered.append(mats)
            picked.append((rows[inside], mats[inside]))
        assert 0 < len(kept) < sum(map(len, offered))
        # keep sees exactly the offered products, each once, in order
        assert _same_bits(np.concatenate(seen), np.concatenate(offered))
        # the walk yields exactly the normal forms of which every prefix,
        # the form itself included, was kept, each once
        assert [tuple(r) for rows, _ in walked for r in rows.tolist()] \
            == [tuple(r) for rows, _ in picked for r in rows.tolist()]
        assert _same_bits(np.concatenate([m for _, m in walked]),
                          np.concatenate([m for _, m in picked]))

    # 100-parent chunks split every length past the third
    @pytest.mark.parametrize("chunk", [None, 100])
    @pytest.mark.parametrize("free", [False, True], ids=["shortlex", "free"])
    def test_walk_without_keep_yields_the_unpruned_chunks(
            self, base_rep, bent_rep, chunk, free, monkeypatch):
        # the same chunks, rows and products bit for bit, as the walk
        # that built every live child's row before keep could prune
        if chunk is not None:
            monkeypatch.setattr(wa, "_WALK_CHUNK", chunk)
        gens = (wa.exact_real(base_rep.generator_matrix_array()),
                bent_rep.generator_matrix_array())
        accept = wa.free_acceptor() if free else wa.shortlex_acceptor()
        got = list(wa.normal_forms(gens, 5, accept))
        want = list(_unpruned_walk(gens, 5, accept))
        assert len(got) == len(want) > 5
        for (rows, mats), (want_rows, want_mats) in zip(got, want):
            assert _same_bits(rows, want_rows)
            assert all(map(_same_bits, mats, want_mats))

    @pytest.mark.parametrize("pruned", [False, True], ids=["all", "keep"])
    @pytest.mark.parametrize("free", [False, True], ids=["shortlex", "free"])
    def test_each_product_is_written_once(self, base_rep, bent_rep, free,
                                          pruned, monkeypatch):
        # past the first length, whose products are the generators, the
        # walk forms exactly the accepted children's products, each in the
        # array that it yields: no dead child's product, and no copy
        plane_products, outs, offered = wa._plane_products, [], []

        def spy(mp, gp, out):
            outs.append(out)
            plane_products(mp, gp, out)

        def every_third_dropped(products):
            offered.append(len(products[0]))
            return np.arange(len(products[0])) % 3 > 0

        monkeypatch.setattr(wa, "_plane_products", spy)
        gens = (wa.exact_real(base_rep.generator_matrix_array()),
                bent_rep.generator_matrix_array())
        accept = wa.free_acceptor() if free else wa.shortlex_acceptor()
        longer = [(rows, products) for rows, products in wa.normal_forms(
            gens, 6, accept, every_third_dropped if pruned else None)
            if rows.shape[1] > 1]
        # the first keep call offers the letters
        children = sum(offered[1:]) if pruned \
            else sum(len(rows) for rows, _ in longer)
        assert len(longer) > 5 and children > 0
        assert sum(out[0].size for out in outs) == len(gens) * children
        for _, products in longer:
            for p in products:
                assert any(np.may_share_memory(p, out) for out in outs)

    def test_free_acceptor_walks_the_reduced_words(self):
        rng = np.random.default_rng(31)
        gens = (rng.normal(size=(8, 2, 2)) + 1j * rng.normal(size=(8, 2, 2)),
                rng.normal(size=(8, 2, 2)))
        walked = list(wa.normal_forms(gens, 5, wa.free_acceptor()))
        rows = [tuple(r) for chunk, _ in walked for r in chunk.tolist()]
        assert rows == [tuple(r) for level in reduced_word_levels(5)
                        for r in level.tolist()]
        assert rows == sorted(rows, key=lambda r: (len(r), r))
        for chunk, products in walked:
            for got, g in zip(products, gens):
                assert _same_bits(got, wa.compose_matrices(chunk, g))

    def test_src_does_not_name_reduced_word_levels(self):
        # the walk is the one enumerator: the tests keep the reference
        src = Path(wa.__file__).parent
        found = []
        for path in sorted(src.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                name = getattr(node, "attr", None) or getattr(node, "id", None) \
                    or getattr(node, "name", None)
                if name == "reduced_word_levels":
                    found.append("%s:%d" % (path.name, node.lineno))
        assert len(list(src.glob("*.py"))) > 5
        assert not found


class TestOrbitEnumeration:
    def test_matches_per_word_brute_force(self, base_rep):
        # enumerate words to length 3, dedup elements by matrix, and
        # compare the distance multiset with the vectorized enumeration
        seen = {}
        y = BASEPOINT
        ref = [0.0]
        for w in enumerate_words(3, mode="reduced"):
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

    @pytest.mark.parametrize("angle", [None, 0.6], ids=["octagon", "bent-0.6"])
    def test_balls_are_the_growth_series(self, base_rep, angle):
        # one distance per normal form: the partial sums of the growth
        # series, whatever the representation; at length 4 the 3201
        # reduced words hold 3193 elements, as eight relator pairs merge
        rep = base_rep if angle is None else bend(base_rep, angle)
        sizes = [orbit_point_distances(rep, max_word_length=k).size
                 for k in range(1, 7)]
        assert sizes == [9, 65, 457, 3193, 22289, 155577]

    def test_identity_counted_once(self, base_rep):
        d = orbit_point_distances(base_rep, max_word_length=2)
        assert np.count_nonzero(d < 1e-9) == 1

    def test_requires_some_bound(self, base_rep):
        with pytest.raises(RepresentationError):
            orbit_point_distances(base_rep)

    def test_stops_where_a_65_letter_word_would_be_walked(self, base_rep,
                                                           monkeypatch):
        # an acceptor of the powers of each letter: every word has one
        # live child, so a search that keeps a 64-letter word cannot end
        powers = np.full((10, 8), wa.DEAD, dtype=np.int8)
        ranks = np.arange(8)
        powers[wa.START, ranks] = powers[2 + ranks, ranks] = 2 + ranks
        monkeypatch.setattr(wa, "shortlex_acceptor", lambda: powers)
        capped = orbit_point_distances(base_rep, max_word_length=64)
        assert capped.size == 1 + 64 * 8
        for kwargs in ({"prune_radius": math.inf}, {"max_word_length": 65},
                       {"prune_radius": capped.max()}):
            with pytest.raises(RepresentationError,
                               match="failed to terminate"):
                orbit_point_distances(base_rep, **kwargs)
        # a radius just short of every 64-letter power ends the walk there
        longest = np.setdiff1d(
            capped, orbit_point_distances(base_rep, max_word_length=63))
        radius = np.nextafter(longest.min(), 0.0)
        assert np.array_equal(
            orbit_point_distances(base_rep, prune_radius=radius),
            orbit_point_distances(base_rep, prune_radius=radius,
                                  max_word_length=64))

    def test_pruning_sound_and_complete_within_margin(self, base_rep):
        # pruning at R drops the elements whose normal form has a prefix
        # beyond R; the 4.0 margin used for growth counting keeps
        # everything below R - 4
        full = orbit_point_distances(base_rep, max_word_length=5)
        pruned = orbit_point_distances(base_rep, prune_radius=8.0,
                                       max_word_length=5)
        assert pruned.max() <= 8.0
        assert pruned.size <= full[full <= 8.0].size
        inner = 8.0 - GROWTH_MARGIN
        assert np.allclose(full[full <= inner], pruned[pruned <= inner],
                           atol=1e-9)

    def test_margin_covers_every_prefix_detour(self, base_rep):
        # a prune at R keeps every element within R - GROWTH_MARGIN when
        # no prefix of a normal form lies GROWTH_MARGIN farther out than
        # its element; the largest detour to length 6 is 3.055
        gens = wa.exact_real(base_rep.generator_matrix_array())
        accept = wa.shortlex_acceptor()
        mats, last, state = gens, np.arange(8, dtype=np.int8), accept[wa.START]
        dist = farthest = representations._basepoint_distances(mats)
        worst = 0.0
        for _ in range(5):
            kids = child_ranks(last)
            kid_state = accept[np.repeat(state, 7), kids]
            keep = kid_state != wa.DEAD
            mats = _child_products(mats, kids, gens)[keep]
            last, state = kids[keep], kid_state[keep]
            dist = representations._basepoint_distances(mats)
            farthest = np.maximum(np.repeat(farthest, 7)[keep], dist)
            worst = max(worst, (farthest - dist).max())
        assert len(dist) == 133288
        assert 3.0 < worst < GROWTH_MARGIN

    def test_small_chunks_give_the_same_bits(self, base_rep, monkeypatch):
        # 100-parent chunks split every length past the third, so the
        # acceptor states must follow their rows across chunk edges
        want = orbit_point_distances(base_rep, prune_radius=10.0)
        monkeypatch.setattr(wa, "_WALK_CHUNK", 100)
        got = orbit_point_distances(base_rep, prune_radius=10.0)
        assert np.array_equal(_bits(got), _bits(want))


# The orbit search as it was before it walked normal forms, kept as a
# reference with the float keys it deduplicated by: every spelling is
# extended, and an element counts once by its signed matrix rounded to
# 1e-6.

_KEY_DECIMALS = 6


def _quantize_keys(mats):
    """Integer key rows of signed matrices: the entries' float64 view,
    rounded to _KEY_DECIMALS places."""
    flat = np.ascontiguousarray(mats).reshape(mats.shape[0], 4)
    return np.round(flat.view(np.float64) * (10.0 ** _KEY_DECIMALS)) \
        .astype(np.int64)


def _rows_as_void(rows):
    """Key rows as scalars compared by memcmp."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.dtype.itemsize
                               * rows.shape[1]))).ravel()


def _member_of_sorted(values, table):
    """Which values occur in the sorted array table."""
    if table.size == 0:
        return np.zeros(values.shape[0], dtype=bool)
    pos = np.searchsorted(table, values)
    inside = pos < table.size
    out = np.zeros(values.shape[0], dtype=bool)
    out[inside] = table[pos[inside]] == values[inside]
    return out


def _gather_canonical_sign(mats):
    """Flip each matrix's sign so that its first entry past 1e-9 (d when
    none is) has positive real part, or positive imaginary part when the
    real part vanishes: an (n, 4) abs, argmax and gather."""
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


def _float_dedup_reference(rep, prune_radius=None, max_word_length=None):
    """Breadth-first over reduced words; each batch of candidates is
    pruned, signed and keyed, and only keys that no earlier candidate
    had are kept.  It composes with the complex generators by np.repeat
    and einsum and signs with the gather reference below."""
    gens = rep.generator_matrix_array()
    chunk = wa._WALK_CHUNK
    frontier = np.eye(2, dtype=complex)[None, :, :]
    seen = _rows_as_void(_quantize_keys(frontier))
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
                kids = child_ranks(last[lo:lo + chunk])
                cand = _einsum_times(
                    np.repeat(frontier[lo:lo + chunk], gens.shape[0] - 1,
                              axis=0), gens[kids])
            dist = representations._basepoint_distances(cand)
            if prune_radius is not None:
                keep = dist <= prune_radius
                cand, kids, dist = cand[keep], kids[keep], dist[keep]
            cand = _gather_canonical_sign(cand)
            v = _rows_as_void(_quantize_keys(cand))
            uniq_v, uniq_idx = np.unique(v, return_index=True)
            new_mask = ~_member_of_sorted(uniq_v, seen)
            new_mask &= ~_member_of_sorted(uniq_v, level_keys)
            level_keys = np.sort(np.concatenate([level_keys, uniq_v[new_mask]]))
            pick = uniq_idx[new_mask]
            level_mats.append(cand[pick])
            level_last.append(kids[pick])
            level_dists.append(dist[pick])
        if level_keys.size == 0:
            break
        seen = np.sort(np.concatenate([seen, level_keys]))
        frontier = np.concatenate(level_mats)
        last = np.concatenate(level_last)
        dists.extend(level_dists)
    return np.sort(np.concatenate(dists))


class TestOrbitSearchReference:
    """The normal-form walk finds the elements that float dedup finds:
    all of them for a length cap, and below prune_radius - GROWTH_MARGIN
    for a radius.  Beyond that the two prune different spellings."""

    @pytest.mark.parametrize("prune_radius,max_word_length", [
        (9.0, None), (10.0, None), (8.0, 5),
        (None, 1), (None, 2), (None, 3), (None, 4), (None, 5),
    ])
    def test_equals_float_dedup_within_the_margin(
            self, base_rep, prune_radius, max_word_length):
        got = orbit_point_distances(base_rep, prune_radius=prune_radius,
                                    max_word_length=max_word_length)
        want = _float_dedup_reference(base_rep, prune_radius,
                                      max_word_length)
        if prune_radius is None:
            assert got.size == want.size
        else:
            inner = prune_radius - GROWTH_MARGIN
            got, want = got[got <= inner], want[want <= inner]
            assert got.size == want.size
        assert np.allclose(got, want, atol=1e-9)


class TestSourceGuards:
    def test_no_allocator_tuning_in_src(self):
        # allocator settings are process-wide: a library call must not
        # leave them changed in its caller
        assert not _src_files_naming(r"mallopt|ctypes")

    def test_no_float_dedup_in_src(self):
        # the orbit search walks normal forms; no element is found by
        # its rounded matrix
        assert not _src_files_naming(
            r"quantize_keys|rows_as_void|member_of_sorted|canonical_sign"
            r"|KEY_DECIMALS")


def _src_files_naming(pattern):
    src = Path(representations.__file__).parent
    files = sorted(src.rglob("*.py"))
    assert len(files) > 5
    return [path.name for path in files
            if re.search(pattern, path.read_text())]


def _bits(x):
    """Raw 64-bit words, so that signed zeros count."""
    return np.ascontiguousarray(x).view(np.uint64)


def _moved_to(mats, y):
    """h^-1 m h for each m, where h = [[sqrt t, z / sqrt t], [0, 1 / sqrt t]]
    sends BASEPOINT to y = (z, t): d(BASEPOINT, h^-1 m h.BASEPOINT) is
    d(y, m.y).  Real products stay real for real z."""
    r = math.sqrt(y.t)
    z = y.z.real if y.z.imag == 0.0 else y.z
    h = np.array([[r, z / r], [0.0, 1.0 / r]])
    h_inv = np.array([[1.0 / r, -z / r], [0.0, r]])
    return h_inv @ mats @ h


def _level_products(gens, maxlen):
    """Products of every reduced word up to maxlen, level by level."""
    mats, out = None, []
    for level in reduced_word_levels(maxlen):
        last = level[:, -1]
        mats = gens[last] if mats is None \
            else _child_products(mats, last, gens)
        out.append(mats)
    return out


def _elliptic_gens(base_rep):
    """The octagon's float64 generators with a1 a quarter turn, so that
    products hold +-I and elliptic rows (as the sample's dropped-row test
    builds them)."""
    ref = wa.exact_real(base_rep.generator_matrix_array()).copy()
    ref[0], ref[4] = [[0.0, -1.0], [1.0, 0.0]], [[0.0, 1.0], [-1.0, 0.0]]
    return ref


# rows with entries at 0 and -0, tiny entries near 1e-9 and, multiplied
# by 1j, a vanishing real part
_EDGE_ROWS = np.array([
    [[0.0, -2.0], [1.0, -0.5]], [[-0.0, 0.0], [-3.0, 1.0 / 3.0]],
    [[5e-10, -1.0], [1.0, 2.0]], [[-5e-10, 4.0], [-0.25, 3.0]],
    [[-1e-9, 1e-9], [-2.0, -0.5]], [[-1e-8, 3.0], [-1.0 / 3.0, -0.1]],
    [[-2.0, 0.0], [0.0, -0.5]], [[0.5, -0.0], [-0.0, 2.0]],
    [[-1e-10, 2e-10], [0.0, 3e-10]], [[0.0, -0.0], [-0.0, -1e-10]],
])


class TestKernelBits:
    """Orbit distances do not see a matrix's sign: the search keeps
    whichever sign its products carry."""

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
    @pytest.mark.parametrize("y", [BASEPOINT, Point3(0.5, 2.0),
                                   Point3(0.5 + 0.25j, 2.0)],
                             ids=["basepoint", "real-axis", "off-axis"])
    def test_orbit_distances_ignore_the_sign(self, batches, name, y):
        # an element's distance is the same from either of its matrices,
        # also for products moved to y (real for real z, else complex)
        for mats in batches[name]:
            if y is not BASEPOINT:
                mats = _moved_to(mats, y)
            got = representations._basepoint_distances(mats)
            assert np.array_equal(
                _bits(representations._basepoint_distances(-mats)),
                _bits(got))

    @pytest.fixture(scope="class")
    def walk14(self, base_rep):
        """Every product that the prune-radius-14 orbit search measures."""
        gens = (wa.exact_real(base_rep.generator_matrix_array()),)
        seen = []

        def near(products):
            # a copy: the walk overwrites keep's views after keep returns
            seen.append(products[0].copy())
            return representations._basepoint_distances(products[0]) <= 14.0

        for _ in wa.normal_forms(gens, 64, keep=near):
            pass
        return np.concatenate(seen)

    def test_float64_equals_complex(self, walk14):
        # one kernel for both dtypes: real products and their complex
        # copies, whose imaginary parts are zeros, give the same bits
        assert walk14.dtype == np.float64 and len(walk14) > 10 ** 6
        got = representations._basepoint_distances(walk14)
        want = representations._basepoint_distances(walk14.astype(complex))
        assert got.dtype == np.float64
        assert np.array_equal(_bits(got), _bits(want))

    def test_off_axis_basepoint_takes_the_complex_path(self, walk14):
        # real products moved to (0.5 + 0.25i, 2) are complex, and the
        # kernel reads their imaginary parts: the distances are not those
        # of the real-axis point (0.5, 2) that dropping z's imaginary part
        # would give
        mats = walk14[:20000]
        moved = _moved_to(mats, Point3(0.5 + 0.25j, 2.0))
        assert moved.dtype == complex
        got = representations._basepoint_distances(moved)
        assert np.array_equal(_bits(got), _bits(
            representations._basepoint_distances(
                _moved_to(mats.astype(complex), Point3(0.5 + 0.25j, 2.0)))))
        assert not np.allclose(got, representations._basepoint_distances(
            _moved_to(mats, Point3(0.5, 2.0))))


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

    @pytest.mark.parametrize("Rmax", [math.nan, math.inf])
    def test_rejects_non_finite_radius(self, base_rep, Rmax, monkeypatch):
        # refused before any walk: an infinite radius would prune nothing
        def walk(*args, **kwargs):
            raise AssertionError("the orbit search was started")

        monkeypatch.setattr(representations, "orbit_point_distances", walk)
        with pytest.raises(RepresentationError, match="finite"):
            estimate_growth(base_rep, Rmax)


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
        for earlier in enumerate_words(len(w.letters), mode="reduced"):
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

