"""Tests for boundary-circle combinatorics, limit-set sampling, and the
spiral witness.

Oracle strategy: pair-configuration examples are asserted on hand-placed
angles where the answer is readable from the circle; classification
symmetries are exercised over seeded random quadruples; sampling is
checked against the reference representation, where the boundary map is
the identity chart; the normalization chart and the argument lift are
checked against the linear action z -> mu z they are defined to produce;
the end-to-end witness for the bent representation is re-validated by an
independent verifier, and tampered witnesses must fail it.
"""

import ast
import hashlib
import itertools
import json
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from qfcert import _wordarrays as wa
from qfcert import boundary, check
from qfcert.boundary import (
    LimitSetSample,
    MIN_THETA,
    find_spiral_witness,
    limit_set_sample,
    normalize_at,
    pair_blocks,
    rank_endpoints,
    sample_to_csv,
    sample_to_svg,
)
from qfcert.check import (
    DEGENERATE_TOL,
    PAIR_CONFIGS,
    BoundaryError,
    BoundaryPointRef,
    PairConfig,
    _rank_pair_codes,
    _rank_pair_parts,
    classify_angle_pairs,
    classify_pairs,
    classify_real_pairs,
    disk_angle,
    fixed_angles,
    reference_representation,
    verify_witness_orders,
    witness_from_dict,
    witness_to_dict,
)
from qfcert.certificates import _class_table
from qfcert.moebius import (
    BoundaryPoint,
    IsometryKind,
    MoebiusMap,
    circular_distance_turns,
    classify,
    wrap_turns,
)
from qfcert.representations import (
    RepresentationError,
    bend,
    evaluate,
    find_complex_trace_element,
    fuchsian_octagon,
)
from qfcert.surface_group import Word, enumerate_words

from array_reference import strided_times
from geometry_reference import translation_lengths
from pair_walk import block_codes, walk_codes
from word_reference import is_reduced, reduced_word_levels

A1 = Word((1,))
B1 = Word((2,))
A2 = Word((3,))
B2 = Word((4,))
RELATOR = Word((1, 2, -1, -2, 3, 4, -3, -4))


def to_c(p: BoundaryPoint):
    """Complex value of a boundary point, with None standing for infinity."""
    return None if p.is_infinity else p.to_complex()


def chordal(z, w) -> float:
    """Chordal distance on the Riemann sphere; None stands for infinity."""
    if z is None and w is None:
        return 0.0
    if z is None:
        return 2.0 / math.sqrt(1.0 + abs(w) ** 2)
    if w is None:
        return 2.0 / math.sqrt(1.0 + abs(z) ** 2)
    return 2.0 * abs(z - w) / math.sqrt((1.0 + abs(z) ** 2) * (1.0 + abs(w) ** 2))


def synthetic_sample(points) -> LimitSetSample:
    """A sample backed by given chart-domain points (for lift tests)."""
    pairs = np.array([[complex(p), 1.0 + 0j] for p in points])
    n = len(points)
    return LimitSetSample(ranks=np.zeros((n, 1), dtype=np.int8),
                          angles=np.zeros(n), image_pairs=pairs)


IDENTITY_CHART = MoebiusMap(1.0, 0.0, 0.0, 1.0)


def scalar_pair_config(alpha, beta, tol=DEGENERATE_TOL) -> PairConfig:
    """Scalar reference for classify_angle_pairs: circular_distance_turns
    gaps, then float offsets from a1 in place of endpoint ranks."""
    a1, a2 = alpha
    b1, b2 = beta
    pts = (a1, a2, b1, b2)
    for i in range(4):
        for j in range(i + 1, 4):
            if circular_distance_turns(pts[i], pts[j]) < tol:
                return PairConfig.DEGENERATE
    v = (a2 - a1) % 1.0
    u1 = (b1 - a1) % 1.0
    u2 = (b2 - a1) % 1.0
    in1 = u1 < v
    in2 = u2 < v
    if in1 != in2:
        return PairConfig.LINKED
    if in1:
        aligned = u1 < u2
    else:
        aligned = u1 > u2
    return PairConfig.UNLINKED_ALIGNED if aligned else PairConfig.UNLINKED_MISALIGNED


def label_rotation_config(alpha, beta) -> PairConfig:
    """Reference for classify_real_pairs: the sorted order of the four
    reals read as a word in A, a, B, b and matched up to rotation."""
    a1, a2 = alpha
    b1, b2 = beta
    if len({a1, a2, b1, b2}) < 4:
        return PairConfig.DEGENERATE
    labels = "".join({a1: "A", a2: "a", b1: "B", b2: "b"}[x]
                     for x in sorted((a1, a2, b1, b2)))
    rotations = {labels[i:] + labels[:i] for i in range(4)}
    if rotations & {"ABba", "AabB"}:
        return PairConfig.UNLINKED_ALIGNED
    if rotations & {"AbBa", "AaBb"}:
        return PairConfig.UNLINKED_MISALIGNED
    return PairConfig.LINKED


class TestFixedAngles:
    def test_inverse_swaps_pair(self):
        for w in (A1, B1, A1 * A2, Word((1, 2, -1))):
            mn, mx = fixed_angles(w)
            imn, imx = fixed_angles(w.inverse())
            assert abs(wrap_turns(mn - imx)) < 1e-9
            assert abs(wrap_turns(mx - imn)) < 1e-9

    def test_powers_share_axis(self):
        for w in (A1, B1 * A2):
            base = fixed_angles(w)
            for n in (2, 3):
                pw = fixed_angles(w ** n)
                assert abs(wrap_turns(base[0] - pw[0])) < 1e-9
                assert abs(wrap_turns(base[1] - pw[1])) < 1e-9

    def test_side_pairing_axes_cross(self):
        a = fixed_angles(A1)
        b = fixed_angles(B1)
        angles = [*a, *b]
        for i in range(4):
            for j in range(i + 1, 4):
                assert abs(wrap_turns(angles[i] - angles[j])) > 1e-6
        assert classify_pairs(A1, B1) == PairConfig.LINKED

    def test_angle_just_below_zero_is_zero(self):
        # the angle is -1.6e-18 turns, and -1.6e-18 % 1.0 is 1.0 in floats
        p = BoundaryPoint.from_complex(1e16)
        assert disk_angle(p) == 0.0
        assert BoundaryPointRef(A1, disk_angle(p)).angle == 0.0

    def test_trivial_and_identity_words_rejected(self):
        with pytest.raises(BoundaryError):
            fixed_angles(Word(()))
        with pytest.raises(BoundaryError):
            fixed_angles(RELATOR)


class TestClassify:
    def test_linked_example(self):
        assert classify_angle_pairs((0.0, 0.5), (0.25, 0.75)) == PairConfig.LINKED

    def test_aligned_example(self):
        assert classify_angle_pairs((0.0, 0.5), (0.2, 0.3)) \
            == PairConfig.UNLINKED_ALIGNED

    def test_misaligned_example(self):
        assert classify_angle_pairs((0.0, 0.5), (0.3, 0.2)) \
            == PairConfig.UNLINKED_MISALIGNED

    def test_degenerate_on_near_coincident(self):
        assert classify_angle_pairs((0.0, 0.5), (0.5 + 1e-12, 0.75)) \
            == PairConfig.DEGENERATE

    def test_symmetries_on_random_quadruples(self):
        rng = np.random.default_rng(20260816)
        seen = set()
        for _ in range(1000):
            vals = rng.uniform(0.0, 1.0, size=4)
            if min(abs(wrap_turns(vals[i] - vals[j]))
                   for i in range(4) for j in range(i + 1, 4)) < 1e-6:
                continue
            alpha = (float(vals[0]), float(vals[1]))
            beta = (float(vals[2]), float(vals[3]))
            base = classify_angle_pairs(alpha, beta)
            seen.add(base)
            both_flipped = classify_angle_pairs(alpha[::-1], beta[::-1])
            one_flipped = classify_angle_pairs(alpha, beta[::-1])
            swapped = classify_angle_pairs(beta, alpha)
            if base == PairConfig.LINKED:
                assert both_flipped == PairConfig.LINKED
                assert one_flipped == PairConfig.LINKED
                assert swapped == PairConfig.LINKED
            elif base == PairConfig.UNLINKED_ALIGNED:
                assert both_flipped == PairConfig.UNLINKED_ALIGNED
                assert one_flipped == PairConfig.UNLINKED_MISALIGNED
                assert swapped == PairConfig.UNLINKED_ALIGNED
            elif base == PairConfig.UNLINKED_MISALIGNED:
                assert one_flipped == PairConfig.UNLINKED_ALIGNED
        assert {PairConfig.LINKED, PairConfig.UNLINKED_ALIGNED,
                PairConfig.UNLINKED_MISALIGNED} <= seen

    def test_real_pair_classification_matches_angles(self):
        # points on the real line embed in the circle; configurations agree
        # with the angular classifier on the Cayley image
        rng = np.random.default_rng(7)
        for _ in range(200):
            vals = rng.standard_cauchy(4) * 3.0
            if len(set(np.round(vals, 9))) < 4:
                continue
            angs = [disk_angle(BoundaryPoint(complex(v), 1.0)) for v in vals]
            got = classify_real_pairs((vals[0], vals[1]), (vals[2], vals[3]))
            want = scalar_pair_config((angs[0], angs[1]), (angs[2], angs[3]),
                                      tol=0.0)
            assert got == want

    def test_real_pair_degenerate(self):
        assert classify_real_pairs((1.0, 1.0), (2.0, 3.0)) \
            == PairConfig.DEGENERATE

    def test_angle_pairs_match_the_scalar_reference(self):
        # every quadruple of angles at the tolerance edges, across the
        # 0/1 wrap and at 1.0
        tol = DEGENERATE_TOL
        edges = sorted({0.35, 0.85, 1.0} | {
            (x + d) % 1.0 for x in (0.0, 0.6)
            for d in (0.0, 0.9999 * tol, -0.9999 * tol, 1.0001 * tol,
                      -1.0001 * tol)})
        pairs = [(x, y) for x in edges for y in edges if x != y]
        seen = set()
        for alpha in pairs:
            for beta in pairs:
                got = classify_angle_pairs(alpha, beta)
                assert got == scalar_pair_config(alpha, beta)
                seen.add(got)
        assert seen == set(PairConfig)


class TestRealPairs:
    """classify_real_pairs against the label-rotation reference, at the
    magnitudes its docstring promises and on exact ties."""

    @staticmethod
    def assert_matches_reference(quads):
        seen = set()
        for a1, a2, b1, b2 in quads:
            got = classify_real_pairs((a1, a2), (b1, b2))
            assert got == label_rotation_config((a1, a2), (b1, b2))
            seen.add(got)
        return seen

    def test_magnitudes_from_1e_minus_300_to_1e300(self):
        rng = np.random.default_rng(20261018)
        quads = (rng.choice([-1.0, 1.0], (4000, 4))
                 * 10.0 ** rng.uniform(-300.0, 300.0, (4000, 4))).tolist()
        # neighbours one ulp apart, where any angular chart collapses
        for x in (1e-300, -3e-200, 7.5, 1e300, -1e300):
            up = np.nextafter(x, math.inf)
            down = np.nextafter(x, -math.inf)
            quads += [[x, up, down, -x], [down, x, -x, up], [x, -x, up, down]]
        seen = self.assert_matches_reference(quads)
        assert seen == {PairConfig.LINKED, PairConfig.UNLINKED_ALIGNED,
                        PairConfig.UNLINKED_MISALIGNED}

    def test_exact_ties_are_degenerate(self):
        rng = np.random.default_rng(3)
        quads = rng.integers(-3, 4, (2000, 4)).astype(float).tolist()
        quads += [[0.0, -0.0, 1.0, 2.0], [5, 5.0, -1.0, 2.0],
                  [1e300, 2.0, 1e300, -1e-300]]
        seen = self.assert_matches_reference(quads)
        for quad in quads:
            tied = len(set(quad)) < 4
            assert (classify_real_pairs(quad[:2], quad[2:])
                    == PairConfig.DEGENERATE) == tied
        assert seen == set(PairConfig)

    def test_strict_order_fixes_the_witness_configurations(self):
        # verify_witness_orders requires t1 < t2 < t3 < t4 on the boundary
        # side and classifies nothing there: the order alone makes
        # (t1, t4)/(t2, t3) unlinked-aligned and (t1, t3)/(t2, t4) linked
        rng = np.random.default_rng(20261019)
        quads = np.sort(rng.uniform(-1e3, 1e3, (2000, 4)), axis=1).tolist()
        signed = np.concatenate([-np.logspace(300, -300, 7),
                                 np.logspace(-300, 300, 7)])
        quads += [sorted(rng.choice(signed, 4, replace=False).tolist())
                  for _ in range(200)]
        quads += [[-1e300, -1e-300, 1e-300, 1e300], [1e-300, 1e-200, 1e200,
                  1e300], [-1e300, -1e200, -1e-200, -1e-300],
                  [0.0, np.nextafter(0.0, 1.0), 1e-300, 1e300]]
        for t1, t2, t3, t4 in quads:
            assert t1 < t2 < t3 < t4
            assert classify_real_pairs((t1, t4), (t2, t3)) \
                == PairConfig.UNLINKED_ALIGNED
            assert classify_real_pairs((t1, t3), (t2, t4)) \
                == PairConfig.LINKED


def scalar_grid(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """The pair walk's reference: scalar_pair_config pair by pair."""
    return np.array([[PAIR_CONFIGS.index(scalar_pair_config(a, b))
                      for b in beta.tolist()] for a in alpha.tolist()])


def float_pair_codes(a1, a2, b1, b2) -> np.ndarray:
    """The float rule that classify_angle_pairs applied before the rank
    rule, elementwise on broadcast arrays of endpoints; int8 indices into
    PAIR_CONFIGS.  Its gap, 1 - ((p - q) mod 1) for p just below q, may
    differ from the gap with p and q swapped in the last bit."""
    degenerate = np.zeros(np.broadcast_shapes(*map(np.shape, (a1, a2, b1, b2))),
                          dtype=bool)
    for p, q in itertools.combinations((a1, a2, b1, b2), 2):
        y = (p - q) - np.floor(p - q)  # abs(wrap_turns(p - q)) elementwise
        degenerate |= np.where(y > 0.5, 1.0 - y, y) < DEGENERATE_TOL
    v = (a2 - a1) % 1.0
    u1 = (b1 - a1) % 1.0
    u2 = (b2 - a1) % 1.0
    in1 = u1 < v
    return np.select(
        [degenerate, in1 != (u2 < v), np.where(in1, u1 < u2, u1 > u2)],
        [PAIR_CONFIGS.index(c) for c in (PairConfig.DEGENERATE,
                                         PairConfig.LINKED,
                                         PairConfig.UNLINKED_ALIGNED)],
        PAIR_CONFIGS.index(PairConfig.UNLINKED_MISALIGNED)).astype(np.int8)


def float_grid(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """The float rule over a whole grid."""
    return float_pair_codes(alpha[:, 0, None], alpha[:, 1, None],
                            beta[None, :, 0], beta[None, :, 1])


class TestPairConfigGrid:
    def test_matches_scalar_on_all_class_pairs(self):
        # the angles the triangle harness and the certificate search use,
        # against classify_pairs on the words (scalar fixed_angles)
        rows, _, angles = _class_table(reference_representation(), 3)
        words = [Word(wa.ranks_to_letters(row)) for row in rows]
        grid = walk_codes(angles)
        assert np.array_equal(grid, walk_codes(angles, angles))
        expected = np.array([[PAIR_CONFIGS.index(classify_pairs(a, b))
                              for b in words] for a in words])
        assert np.array_equal(grid, expected)
        off = ~np.eye(len(rows), dtype=bool)
        degenerate = grid[off] == PAIR_CONFIGS.index(PairConfig.DEGENERATE)
        # the triangle harness's 25 260 records and 180 degenerate pairs
        assert (int(degenerate.sum()), int((~degenerate).sum())) == (180, 25260)

    def test_matches_scalar_at_the_tolerance_and_across_the_wrap(self):
        below = DEGENERATE_TOL * (1.0 - 1e-4)
        above = DEGENERATE_TOL * (1.0 + 1e-4)
        values = sorted({0.1, 0.35, 0.85} | {
            (x + d) % 1.0 for x in (0.0, 0.6)
            for d in (0.0, below, -below, above, -above)})
        pairs = np.array([(x, y) for x in values for y in values if x != y])
        grid = walk_codes(pairs, pairs)
        assert np.array_equal(grid, walk_codes(pairs))
        assert np.array_equal(grid, scalar_grid(pairs, pairs))
        assert np.array_equal(grid, float_grid(pairs, pairs))
        assert set(grid.ravel().tolist()) == set(range(len(PAIR_CONFIGS)))
        # 1 - gap and 0 sit gap apart across the wrap
        for gap, first, second in (
                (below, PairConfig.DEGENERATE, PairConfig.DEGENERATE),
                (above, PairConfig.LINKED, PairConfig.UNLINKED_MISALIGNED)):
            alpha = np.array([[0.0, 0.2], [0.5, 1.0 - gap]])
            beta = np.array([[1.0 - gap, 0.15], [0.0, 0.2]])
            codes = walk_codes(alpha, beta)
            assert (PAIR_CONFIGS[codes[0, 0]], PAIR_CONFIGS[codes[1, 1]]) \
                == (first, second)


class TestRankClassifier:
    """The pair walk marks the pairs with an endpoint gap under
    DEGENERATE_TOL and classifies the rest by endpoint rank; it must agree
    with the scalar reference and the float rule where ranks and floats
    could part: gaps near DEGENERATE_TOL, exact duplicates, the wrap at
    0/1 and large clusters."""

    def test_near_tolerance_pairs_of_the_class_table(self):
        # consecutive sorted endpoints of the maxlen-5 table at gaps from
        # 5e-9 to 3e-8, e.g. 0.0020318008 / 0.0020318161 of a1 A2 and
        # a1 A2 a1 A2 b2, on both sides of DEGENERATE_TOL
        rows, _, angles = _class_table(
            bend(fuchsian_octagon(), 0.594867), 5)
        flat = angles.ravel()
        order = np.argsort(flat, kind="stable")
        gaps = np.diff(flat[order])
        near = np.flatnonzero((gaps > 5e-9) & (gaps < 3e-8))
        assert (gaps[near] < DEGENERATE_TOL).any()
        assert (gaps[near] > DEGENERATE_TOL).any()
        assert any(abs(flat[order[k]] - 0.0020318008) < 1e-10
                   and abs(flat[order[k + 1]] - 0.0020318161) < 1e-10
                   for k in near.tolist())
        classes = np.unique(np.concatenate([order[near], order[near + 1]])
                            // 2)
        alpha = angles[classes]
        beta = np.concatenate([alpha, angles[::37]])
        assert np.array_equal(walk_codes(alpha, beta),
                              scalar_grid(alpha, beta))

    def test_exact_duplicate_endpoints_of_class_powers(self):
        # a class and its powers share both fixed points exactly
        rows, _, angles = _class_table(reference_representation(), 5)
        flat = angles.ravel()
        _, inverse, counts = np.unique(flat, return_inverse=True,
                                       return_counts=True)
        shared = np.unique(np.flatnonzero(counts[inverse] > 1) // 2)
        assert len(shared) > 100
        alpha = angles[shared]
        grid = walk_codes(alpha, alpha)
        assert np.array_equal(grid, scalar_grid(alpha, alpha))
        assert (grid == PAIR_CONFIGS.index(PairConfig.DEGENERATE)).sum() \
            > len(shared)

    @pytest.mark.parametrize("gap", [0.0, 5e-9, 1.5e-8, 3e-8, 1e-3])
    def test_an_angle_of_one_next_to_zero(self, gap):
        # 1.0 and 0.0 are one point of the circle; gap moves a third
        # endpoint off it on either side
        ends = [1.0, 0.0, gap, 1.0 - gap, 0.25, 0.5, 0.75]
        pairs = np.array([(x, y) for x in ends for y in ends if x != y])
        assert np.array_equal(walk_codes(pairs, pairs),
                              scalar_grid(pairs, pairs))

    @pytest.mark.parametrize("spread", [0.0, 1e-9, 4e-9])
    def test_cluster_of_more_than_sixteen_points(self, spread):
        # 40 endpoints within 40 * spread of 0.3, mixed with far ones,
        # on both sides of the grid and inside single rows
        rng = np.random.default_rng(11)
        cluster = 0.3 + spread * np.arange(40)
        far = rng.uniform(0.0, 1.0, 40)
        alpha = np.stack([cluster, far], axis=1)
        alpha[::5] = alpha[::5, ::-1]
        alpha[3] = (cluster[3], cluster[5])
        beta = np.concatenate([alpha[::-1], np.stack([far, cluster], 1)])
        assert np.array_equal(walk_codes(alpha, beta),
                              scalar_grid(alpha, beta))

    def test_random_endpoints_on_a_fine_lattice(self):
        # many gaps of a few DEGENERATE_TOL, around the wrap too
        rng = np.random.default_rng(5)
        step = DEGENERATE_TOL / 3.0
        centers = rng.uniform(0.0, 1.0, 6)
        centers[0] = 0.0
        ends = (centers[rng.integers(0, 6, (300, 2))]
                + step * rng.integers(-8, 9, (300, 2))) % 1.0
        alpha, beta = ends[:120], ends[120:]
        assert np.array_equal(walk_codes(alpha, beta),
                              scalar_grid(alpha, beta))

    @pytest.mark.parametrize("angle", [0.0, 0.6, 0.99])
    def test_equals_the_float_rule_on_the_scan_blocks(self, angle):
        # every block the certificate scan classifies at maxlen 5, on
        # the pairs j > i it reads; both grids hold on the others
        _, _, angles = _class_table(bend(fuchsian_octagon(), angle), 5)
        n = len(angles)
        for lo, hi, linked, misaligned in pair_blocks(angles, True):
            above = np.arange(lo, n) > np.arange(lo, hi)[:, None]
            assert np.array_equal(
                block_codes(linked, misaligned)[above],
                float_grid(angles[lo:hi], angles[lo:])[above])
            assert (linked & misaligned)[~above].all()

    def test_rank_endpoints_of_a_table(self):
        # endpoint k is row k % n; degenerate pairs, across the wrap too,
        # come in both orders with the diagonal, sorted, and a row whose
        # own endpoints are close is a degenerate row
        angles = np.array([[0.0, 0.6], [0.6 + 1e-9, 0.3], [0.9, 1.0],
                           [0.45, 0.45 + 1e-9]])
        ranks, pairs, rows = rank_endpoints(angles)
        assert ranks.dtype == np.int32
        assert ranks.tolist() == [[0, 4], [5, 1], [6, 7], [2, 3]]
        assert pairs.tolist() == [[0, 0, 0, 1, 1, 2, 2, 3],
                                  [0, 1, 2, 0, 1, 0, 2, 3]]
        assert rows.tolist() == [3]
        assert np.array_equal(walk_codes(angles), scalar_grid(angles, angles))

    @pytest.mark.parametrize("table", ["maxlen3", "maxlen4", "lattice"])
    def test_rank_endpoints_matches_all_pairs_reference(self, table):
        # the degenerate pairs and rows against every endpoint pair and
        # np.unique; the lattice has clusters and close endpoints in a row
        if table == "lattice":
            rng = np.random.default_rng(7)
            step = DEGENERATE_TOL / 3.0
            centers = rng.uniform(0.0, 1.0, 5)
            angles = (centers[rng.integers(0, 5, (200, 2))]
                      + step * rng.integers(-4, 5, (200, 2))) % 1.0
        else:
            _, _, angles = _class_table(bend(fuchsian_octagon(), 0.6),
                                        int(table[-1]))
        n = len(angles)
        points = angles.T.ravel()
        row = np.tile(np.arange(n), 2)
        k, l = np.nonzero(circular_distance_turns(
            points[:, None], points[None, :]) < DEGENERATE_TOL)
        ranks, pairs, rows = rank_endpoints(angles)
        assert np.array_equal(np.argsort(points, kind="stable"),
                              np.argsort(ranks.T.ravel()))
        assert np.array_equal(pairs,
                              np.unique(np.stack([row[k], row[l]]), axis=1))
        assert np.array_equal(rows, np.unique(row[k][(row[k] == row[l])
                                                     & (k != l)]))
        assert pairs.dtype == rows.dtype == np.int64

    def test_rank_pair_codes_equal_the_scalar_rule(self):
        # the 24 orders of four distinct ranks, as scalars and broadcast,
        # against scalar_pair_config at angles a quarter turn apart
        perms = np.array(list(itertools.permutations(range(4))))
        want = [PAIR_CONFIGS.index(scalar_pair_config(
            tuple((p[:2] + 0.5) / 4.0), tuple((p[2:] + 0.5) / 4.0)))
            for p in perms]
        assert [int(_rank_pair_codes(*p)) for p in perms] == want
        codes = _rank_pair_codes(*perms.T)
        assert codes.dtype == np.int8 and codes.tolist() == want
        linked, misaligned = _rank_pair_parts(*perms.T)
        assert np.array_equal(linked, codes == 0)
        assert np.array_equal(misaligned, codes == 2)
        # misaligned is cleared on linked pairs, as scalars too
        assert not (linked & misaligned).any()
        assert not any(np.logical_and(*_rank_pair_parts(*p)) for p in perms)
        assert set(want) == {0, 1, 2}

    def test_rank_endpoints_of_an_empty_table(self):
        ranks, pairs, rows = rank_endpoints(np.zeros((0, 2)))
        assert (ranks.shape, pairs.shape, rows.shape) \
            == ((0, 2), (2, 0), (0,))
        assert walk_codes(np.zeros((0, 2))).shape == (0, 0)

    @staticmethod
    def degenerate_table() -> np.ndarray:
        """48 rows with endpoints at 0.0 and 1.0 (one point of the
        circle), rows whose own endpoints meet, and row pairs that share
        an endpoint or sit within DEGENERATE_TOL of one."""
        rng = np.random.default_rng(17)
        ends = rng.uniform(0.0, 1.0, (48, 2))
        ends[:12] = [[0.0, 0.5], [1.0, 0.25], [0.3, 0.3], [0.3 + 5e-9, 0.7],
                     [0.7, 0.0], [0.9, 0.5 + 5e-9], [0.6, 0.6 + 2e-9],
                     [1.0, 0.125], [0.8, 1.0 - 5e-9], [0.125, 0.875],
                     [0.25 + 3e-8, 0.75], [0.0, 1.0]]
        ends[40:44] = ends[2:6]
        return ends

    @pytest.mark.parametrize("upper", [False, True])
    @pytest.mark.parametrize("block", [1, 7, 100, 1000, 1 << 18])
    def test_blocks_tile_the_pairs_in_row_major_order(self, block, upper,
                                                      monkeypatch):
        # every ordered pair once, or every pair i < j once when upper,
        # in row-major order across blocks of one row, of a few rows,
        # and of the whole table; both grids hold on the other cells
        monkeypatch.setattr(boundary, "_PAIR_BLOCK", block)
        ends = self.degenerate_table()
        n = len(ends)
        assert rank_endpoints(ends)[2].size >= 4
        cells, codes, end = [], [], 0
        for lo, hi, linked, misaligned in pair_blocks(ends, upper):
            assert lo == end < hi
            end, start = hi, lo if upper else 0
            assert linked.dtype == misaligned.dtype == bool
            assert linked.shape == misaligned.shape == (hi - lo, n - start)
            i, j = np.indices(linked.shape)
            i += lo
            j += start
            pair = j > i if upper else np.ones(linked.shape, dtype=bool)
            assert (linked & misaligned)[~pair].all()
            cells += zip(i[pair].tolist(), j[pair].tolist())
            codes.append(block_codes(linked, misaligned)[pair])
        want = [(i, j) for i in range(n) for j in range(n)
                if j > i or not upper]
        assert cells == want
        got = np.concatenate(codes)
        assert np.array_equal(
            got, scalar_grid(ends, ends)[tuple(np.array(want).T)])
        assert set(got.tolist()) == set(range(len(PAIR_CONFIGS)))

    @pytest.mark.parametrize("upper", [False, True])
    def test_empty_and_one_row_tables_yield_no_pair(self, upper):
        assert list(pair_blocks(np.zeros((0, 2)), upper)) == []
        blocks = list(pair_blocks(np.array([[0.25, 0.5]]), upper))
        if upper:
            assert blocks == []
        else:
            # the row against itself only, which is degenerate
            (lo, hi, linked, misaligned), = blocks
            assert (lo, hi) == (0, 1)
            assert linked.tolist() == misaligned.tolist() == [[True]]

    def test_src_names_no_float_rule(self):
        # one configuration rule in src: the float rule is a test reference
        src = Path(boundary.__file__).parent
        found = []
        for path in sorted(src.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                name = getattr(node, "attr", None) or getattr(node, "id", None) \
                    or getattr(node, "name", None)
                if name == "_float_pair_codes" or (
                        name == "select" and isinstance(node, ast.Attribute)
                        and getattr(node.value, "id", None) == "np"):
                    found.append("%s:%d" % (path.name, node.lineno))
        assert len(list(src.glob("*.py"))) > 5
        assert not found


# two endpoints DEGENERATE_TOL apart to within an ulp of the tolerance:
# the gap (p - q) - floor(p - q), folded, read this pair as degenerate in
# one argument order and not in the other
EDGE_ALPHA = (0.007091828603166261, 0.5)
EDGE_BETA = (0.007091838603166257, 0.3)


class TestSwapSymmetry:
    """Swapping the two pairs never changes a configuration, at the
    tolerance edge too, and angles classify as their residues mod 1."""

    def test_the_tolerance_edge_quadruple(self):
        assert classify_angle_pairs(EDGE_ALPHA, EDGE_BETA) \
            == classify_angle_pairs(EDGE_BETA, EDGE_ALPHA)

    @pytest.mark.parametrize("p", [0.0, 0.007091828603166261, 0.3, 0.6,
                                   1.0 - DEGENERATE_TOL])
    def test_ulp_offsets_of_the_tolerance(self, p):
        far = ((p + 0.5) % 1.0, (p + 0.25) % 1.0)
        seen = set()
        for direction in (math.inf, -math.inf):
            q = p + DEGENERATE_TOL
            for _ in range(200):
                alpha, beta = (p, far[0]), (q, far[1])
                got = classify_angle_pairs(alpha, beta)
                assert classify_angle_pairs(beta, alpha) == got
                assert classify_angle_pairs(beta[::-1], alpha[::-1]) == got
                seen.add(got)
                q = math.nextafter(q, direction)
        assert PairConfig.DEGENERATE in seen and len(seen) == 2

    def test_grid_of_the_edge_pair_equals_its_transpose(self):
        angles = np.array([EDGE_ALPHA, EDGE_BETA, (0.8, 0.9)])
        grid = walk_codes(angles)
        assert np.array_equal(grid, grid.T)
        assert np.array_equal(grid, np.array(
            [[PAIR_CONFIGS.index(classify_angle_pairs(a, b))
              for b in angles.tolist()] for a in angles.tolist()]))

    def test_angles_classify_as_their_residues(self):
        quads = [((0.25, 0.5), (0.3, 0.7)), ((0.25, 0.5), (0.3, 0.4)),
                 ((0.25, 0.5), (0.4, 0.3)), ((0.25, 0.5), (0.25, 0.7))]
        assert {classify_angle_pairs(*q) for q in quads} == set(PairConfig)
        for alpha, beta in quads:
            want = classify_angle_pairs(alpha, beta)
            assert classify_angle_pairs((1.25, alpha[1]), beta) == want
            assert classify_angle_pairs((-0.75, alpha[1]), beta) == want
            assert classify_angle_pairs(alpha, (beta[0] + 2.0,
                                                beta[1] - 1.0)) == want


# The sampler and the window scan as they were before the sample was
# written into preallocated arrays and the window candidates were read
# off a sorted circle, kept as references: each level's rows are computed
# whole, then masked and concatenated, and every power scans every point.
_DEFAULT_CHUNK = boundary._CHUNK


def reference_level(words, gens, parents, store):
    """(angles, attracting pairs, keep mask, products) of one level."""
    n = words.shape[0]
    fan = 1 if parents is None else gens[0].shape[0] - 1
    angles = np.empty(n, dtype=float)
    pairs = np.empty((n, 2), dtype=complex)
    keep = np.empty(n, dtype=bool)
    mats = tuple(np.empty((n, 2, 2), dtype=g.dtype) for g in gens) \
        if store else None
    step = _DEFAULT_CHUNK // fan * fan
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        last = words[lo:hi, -1]
        if parents is None:
            ref_m, rep_m = (g[last] for g in gens)
        else:
            ref_m, rep_m = (strided_times(np.repeat(p[lo // fan:hi // fan],
                                                    fan, axis=0), g[last])
                            for p, g in zip(parents, gens))
        keep[lo:hi] = (translation_lengths(ref_m) > 1e-9) \
            & (translation_lengths(rep_m) > 1e-9)
        angles[lo:hi] = wa.disk_angles_turns(wa.attracting_fixed_pairs(ref_m))
        pairs[lo:hi] = wa.attracting_fixed_pairs(rep_m)
        if store:
            mats[0][lo:hi] = ref_m
            mats[1][lo:hi] = rep_m
    return angles, pairs, keep, mats


def reference_sample(rep, maxlen):
    """(ranks, angles, image pairs) of limit_set_sample(rep, maxlen)."""
    gens = (wa.exact_real(reference_representation().generator_matrix_array()),
            rep.generator_matrix_array())
    all_ranks, all_angles, all_pairs = [], [], []
    products = None
    for words in reduced_word_levels(maxlen):
        angles, pairs, keep, products = reference_level(
            words, gens, products, store=words.shape[1] < maxlen)
        padded = np.full((words.shape[0], maxlen), -1, dtype=np.int8)
        padded[:, :words.shape[1]] = words
        all_ranks.append(padded[keep])
        all_angles.append(angles[keep])
        all_pairs.append(pairs[keep])
    ranks = np.concatenate(all_ranks)
    angles = np.concatenate(all_angles)
    pairs = np.concatenate(all_pairs)
    _, first = np.unique(np.round(angles, 12), return_index=True)
    first.sort()
    return ranks[first], angles[first], pairs[first]


def reference_window_candidates(base_args, theta_rad, powers, target):
    """(|off|, off, n, j) of _window_candidates, scanning every point."""
    cols = []
    for n in powers:
        off = np.angle(np.exp(1j * (base_args + n * theta_rad - target)))
        mag = np.abs(off)
        kth = min(boundary._WINDOW_KEEP, mag.size) - 1
        j = np.flatnonzero(mag <= np.partition(mag, kth)[kth])
        cols.append((mag[j], off[j], np.full(j.size, n), j))
    mag, off, n, j = (np.concatenate(c) for c in zip(*cols))
    best = np.lexsort((j, n, off, mag))[:boundary._WINDOW_KEEP]
    return mag[best], off[best], n[best], j[best]


def same_bytes(got, want) -> bool:
    return got.dtype == want.dtype and got.shape == want.shape \
        and got.tobytes() == want.tobytes()


def accepted(rows):
    """Which -1-padded rank rows are shortlex normal forms."""
    table, state = wa.shortlex_acceptor(), np.full(len(rows), wa.START)
    for column in rows.T:
        state = np.where(column >= 0, table[state, column], state)
    return state != wa.DEAD


def normal_form_rows(maxlen):
    """Every normal form up to maxlen letters, -1 padded, in shortlex
    order: the reduced words that the acceptor takes."""
    rows = np.concatenate([
        np.pad(level, ((0, 0), (0, maxlen - level.shape[1])),
               constant_values=-1)
        for level in reduced_word_levels(maxlen)])
    return rows[accepted(rows)]


def small_chunks(monkeypatch, chunk):
    """Walk chunk and merge slices of `chunk` rows; None keeps both."""
    if chunk is not None:
        monkeypatch.setattr(wa, "_WALK_CHUNK", chunk)
        monkeypatch.setattr(boundary, "_CHUNK", chunk)


class TestSampleReference:
    """The streamed sample and the sorted-circle window scan reproduce
    their references byte for byte."""

    # 100-parent chunks split every length past the third
    @pytest.mark.parametrize("chunk", [None, 100])
    @pytest.mark.parametrize("angle", [0.0, 0.52, 0.6, 0.76, 0.93, -0.6])
    def test_sample_equals_the_concatenating_reference(self, angle, chunk,
                                                       monkeypatch):
        small_chunks(monkeypatch, chunk)
        rep = bend(fuchsian_octagon(), angle)
        for maxlen in range(1, 7):
            got = limit_set_sample(rep, maxlen)
            want = reference_sample(rep, maxlen)
            assert all(same_bytes(g, w) for g, w in zip(
                (got.ranks, got.angles, got.image_pairs), want))

    # no word of length 7 or less is dropped for the octagon and its
    # bends, so an elliptic first generator makes the dropped rows
    @pytest.mark.parametrize("chunk", [None, 100])
    def test_dropped_rows_are_left_out(self, bent_rep, chunk, monkeypatch):
        small_chunks(monkeypatch, chunk)
        ref = wa.exact_real(reference_representation()
                            .generator_matrix_array()).copy()
        ref[0], ref[4] = [[0.0, -1.0], [1.0, 0.0]], [[0.0, 1.0], [-1.0, 0.0]]
        monkeypatch.setattr(boundary, "reference_representation",
                            lambda: SimpleNamespace(
                                generator_matrix_array=lambda: ref))
        got = limit_set_sample(bent_rep, 4)
        # the reference composes every normal form whole, and solves for
        # the fixed points of the dropped rows too
        rows = normal_form_rows(4)
        ref_m, rep_m = (wa.compose_matrices(rows, g)
                        for g in (ref, bent_rep.generator_matrix_array()))
        keep = (translation_lengths(ref_m) > 1e-9) \
            & (translation_lengths(rep_m) > 1e-9)
        with np.errstate(invalid="ignore"):
            angles = wa.disk_angles_turns(wa.attracting_fixed_pairs(ref_m))
            pairs = wa.attracting_fixed_pairs(rep_m)
        _, first = np.unique(np.round(angles[keep], 12), return_index=True)
        first.sort()
        assert np.count_nonzero(~keep) > 0
        assert all(same_bytes(g, w[keep][first]) for g, w in zip(
            (got.ranks, got.angles, got.image_pairs), (rows, angles, pairs)))

    def test_peak_memory_is_near_what_the_sample_keeps(self, bent_rep):
        # levels masked, concatenated and gathered again peaked at 3.8
        # times the kept bytes; written in place, about 2.1; from the
        # normal-form walk, 1.6
        tracemalloc.start()
        try:
            sample = limit_set_sample(bent_rep, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = sum(a.nbytes for a in (sample.ranks, sample.angles,
                                      sample.image_pairs))
        assert len(sample) == 1077823
        assert peak <= 2.25 * kept

    @pytest.mark.parametrize("angle,maxlen", [
        (0.52, 6), (0.6, 6), (0.76, 6), (0.93, 6), (0.6, 7)])
    def test_candidates_equal_the_full_scan_on_real_intervals(
            self, angle, maxlen, monkeypatch):
        found = []
        sorted_scan = boundary._window_candidates

        def compare(base_args, by_arg, theta_rad, powers, target):
            got = sorted_scan(base_args, by_arg, theta_rad, powers, target)
            want = reference_window_candidates(base_args, theta_rad, powers,
                                               target)
            found.append(all(same_bytes(g, w) for g, w in zip(got, want)))
            return got

        monkeypatch.setattr(boundary, "_window_candidates", compare)
        rep = bend(fuchsian_octagon(), angle)
        gamma = find_complex_trace_element(rep, 4)
        try:
            find_spiral_witness(rep, gamma, maxlen)
        except BoundaryError:
            pass   # candidates come before the pairs that can fail
        assert found == [True] * 4

    @staticmethod
    def _adversarial(case: str) -> tuple[np.ndarray, float, range]:
        rng = np.random.default_rng(20)
        pi = math.pi
        if case == "duplicates":
            # 63 distinct values, about 300 points each: the cut falls
            # inside a run of exact ties that reaches past the first run
            args = np.round(rng.uniform(-pi, pi, 20000), 1)
            return args, 0.37, range(0, 24)
        if case == "tie-block":
            # 700 equal arguments, more than the first run holds, with
            # the centres of both targets sweeping across them
            args = np.concatenate([np.full(700, -0.5), np.full(700, pi - 0.5),
                                   rng.uniform(-pi, pi, 3000)])
            return args, 0.01, range(40, 60)
        if case == "wrap":
            # blocks at -pi and pi, one circle point, next to points just
            # inside them, with centres landing on the wrap: n theta_rad
            # is a multiple of pi / 4
            edge = [np.nextafter(pi, 0.0), np.nextafter(-pi, 0.0)]
            args = np.concatenate([np.full(400, pi), np.full(400, -pi),
                                   np.repeat(edge, 80),
                                   rng.uniform(-pi, pi, 3000)])
            return args, pi / 4.0, range(0, 16)
        if case == "cluster":
            # dense on one side of every centre near 0, sparse elsewhere
            args = np.concatenate([rng.uniform(0.0, 1e-3, 3000),
                                   rng.uniform(-pi, pi, 40)])
            return args, 1e-4, range(-12, 12)
        if case == "many-turns":
            args = rng.uniform(-pi, pi, 5000)
            return args, 2.3, range(100_000, 100_024)
        size = int(case.split("-")[1])
        return rng.uniform(-pi, pi, size), 0.9, range(3, 19)

    @pytest.mark.parametrize("case", [
        "duplicates", "tie-block", "wrap", "cluster", "many-turns",
        "size-1", "size-5",
        "size-255", "size-256", "size-257", "size-511", "size-512",
        "size-600", "size-1023"])
    @pytest.mark.parametrize("target", [0.0, math.pi])
    def test_candidates_equal_the_full_scan_on_adversarial_arguments(
            self, case, target):
        args, theta_rad, powers = self._adversarial(case)
        by_arg = np.argsort(args, kind="stable")
        got = boundary._window_candidates(args, by_arg, theta_rad, powers,
                                          target)
        want = reference_window_candidates(args, theta_rad, powers, target)
        assert all(same_bytes(g, w) for g, w in zip(got, want))


class TestLimitSetSample:
    def test_reference_sample_is_identity_chart(self):
        sample = limit_set_sample(reference_representation(), 4)
        for i in range(len(sample)):
            pair = sample.image_pairs[i]
            got = disk_angle(BoundaryPoint(complex(pair[0]), complex(pair[1])))
            assert abs(wrap_turns(got - float(sample.angles[i]))) < 1e-9

    def test_sample_size_monotone(self):
        sizes = [len(limit_set_sample(reference_representation(), k))
                 for k in (1, 2, 3, 4)]
        assert sizes == sorted(sizes)
        assert sizes[0] == 8

    def test_bent_sample_leaves_the_circle(self, bent_rep):
        sample = limit_set_sample(bent_rep, 4)
        zs = sample.image_complex()
        finite = np.isfinite(zs.real) & np.isfinite(zs.imag)
        assert np.max(np.abs(zs[finite].imag)) > 1e-6

    def test_words_round_trip_and_angles_in_range(self, bent_rep):
        sample = limit_set_sample(bent_rep, 3)
        assert np.all(sample.angles >= 0.0) and np.all(sample.angles < 1.0)
        for i in range(0, len(sample), 37):
            w = sample.word_at(i)
            assert len(w) >= 1 and is_reduced(w)

    def test_take_preserves_entries(self, bent_rep):
        sample = limit_set_sample(bent_rep, 2)
        sub = sample.take([3, 1, 2])
        assert len(sub) == 3
        assert sub.word_at(0) == sample.word_at(3)
        assert sub.angles[1] == sample.angles[1]

    @pytest.mark.parametrize("indices", [
        "mask", [1.7, 2.2], np.array([1.0, 2.0]), [True, False]])
    def test_take_refuses_non_integer_indices(self, bent_rep, indices):
        # a mask once read as rows 0 and 1, and 1.7 as row 1
        sample = limit_set_sample(bent_rep, 2)
        if isinstance(indices, str):
            indices = np.arange(len(sample)) % 7 == 0
        with pytest.raises(BoundaryError, match="integers"):
            sample.take(indices)

    def test_take_of_no_indices_is_empty(self, bent_rep):
        sample = limit_set_sample(bent_rep, 2)
        for indices in ([], np.array([], dtype=np.int64)):
            sub = sample.take(indices)
            assert len(sub) == 0
            assert sub.ranks.shape == (0, 2)
            assert sub.image_pairs.shape == (0, 2)

    def test_equivariance_of_sampled_boundary_map(self, bent_rep):
        # conjugating the word transports its attracting point by the image
        # of the conjugator
        sample = limit_set_sample(bent_rep, 4)
        conjugators = [u for u in enumerate_words(2, mode="reduced")
                       if len(u) >= 1]
        step = max(1, len(sample) // 12)
        rows = list(range(0, len(sample), step))[:12]
        for u in conjugators:
            mu_map = evaluate(bent_rep, u)
            for i in rows:
                w = sample.word_at(i)
                conj = (u * w) * u.inverse()
                cl = classify(evaluate(bent_rep, conj))
                if cl.kind not in (IsometryKind.LOXODROMIC,
                                   IsometryKind.HYPERBOLIC):
                    continue
                got = to_c(cl.data.fix_plus)
                pair = sample.image_pairs[i]
                moved = to_c(mu_map(BoundaryPoint(complex(pair[0]),
                                                  complex(pair[1]))))
                assert chordal(got, moved) < 1e-8

    def test_rows_are_the_normal_forms(self, bent_rep):
        # two spellings that the 12-digit key kept beside the normal
        # forms of their elements, a1 and A1 b2 a2 a2 B2
        sample = limit_set_sample(bent_rep, 7)
        assert len(sample) == 1077823
        assert accepted(sample.ranks).all()

        def present(text):
            row = np.full(7, -1, dtype=np.int8)
            names = text.split()
            row[:len(names)] = [wa.NAMES.index(n) for n in names]
            return (sample.ranks == row).all(axis=1).any()

        assert present("a1")
        assert not present("b2 a2 B2 A2 b1 a1 B1")
        assert not present("b1 A1 B1 a2 b2 a2 B2")

    def test_rejects_bad_maxlen(self):
        with pytest.raises(BoundaryError):
            limit_set_sample(reference_representation(), 0)


class TestNormalizeAt:
    def test_postconditions(self, bent_rep):
        gamma = A1 * A2
        conj, chart = normalize_at(bent_rep, gamma)
        m0 = evaluate(bent_rep, gamma)
        m1 = evaluate(conj, gamma)
        cl0 = classify(m0)
        cl1 = classify(m1)
        assert cl1.kind == IsometryKind.LOXODROMIC
        lo = to_c(cl1.data.fix_minus)
        hi = to_c(cl1.data.fix_plus)
        assert lo is not None and abs(lo) < 1e-9
        assert hi is None or abs(hi) > 1e9
        assert abs(cl1.data.lam - cl0.data.lam) < 1e-10
        assert abs(wrap_turns(cl1.data.theta - cl0.data.theta)) < 1e-10
        moved = to_c(m1(BoundaryPoint(1.0, 1.0)))
        mu = cl0.data.lam * complex(math.cos(2 * math.pi * cl0.data.theta),
                                    math.sin(2 * math.pi * cl0.data.theta))
        assert moved is not None and abs(moved - mu) < 1e-10

    def test_chart_conjugates_the_action(self, bent_rep):
        gamma = A1 * A2
        conj, chart = normalize_at(bent_rep, gamma)
        m = evaluate(bent_rep, gamma)
        lhs = chart @ m
        rhs = evaluate(conj, gamma) @ chart
        z = BoundaryPoint(0.37 + 0.0j, 1.0)
        assert chordal(to_c(lhs(z)), to_c(rhs(z))) < 1e-9

    def test_requires_strictly_loxodromic(self):
        with pytest.raises(BoundaryError):
            normalize_at(reference_representation(), A1 * A2)


def scalar_lift(zs) -> list[tuple[float, float]]:
    """The argument lift as a per-point loop: the reference the array
    version must reproduce bit for bit."""
    out, s, prev = [], 0.0, None
    for z in zs:
        z = complex(z)
        arg = math.atan2(z.imag, z.real) / (2.0 * math.pi)
        s = arg if prev is None else s + wrap_turns(arg - prev)
        prev = arg
        out.append((abs(z), s))
    return out


def argument_lift(sample: LimitSetSample,
                  chart: MoebiusMap) -> list[tuple[float, float]]:
    """(r, s) for each sample point, in sample order, in the given chart:
    the witness search's chart projection and path lift on a whole sample.

    s is the continuous lift of the argument in turns: the first value is
    the principal argument in (-1/2, 1/2]; each successive value adds the
    representative of the argument difference in (-1/2, 1/2].  Points at
    0 or infinity in the chart are errors.
    """
    z, finite = boundary._chart_points(sample.image_pairs, chart)
    if not finite.all():
        raise BoundaryError("argument lift needs finite nonzero points")
    r, s = boundary._lift_path(z)
    return list(zip(r.tolist(), s.tolist()))


class TestArgumentLift:
    def test_equals_scalar_loop_bit_for_bit(self):
        rng = np.random.default_rng(7)
        n = 20000
        radii = np.exp(rng.uniform(-30.0, 30.0, n))
        # a walk of up to 0.45 turns per step winds many times both ways,
        # then uniform arguments put every step through the wrap
        turns = np.concatenate([np.cumsum(rng.uniform(-0.45, 0.45, n // 2)),
                                rng.uniform(-40.0, 40.0, n - n // 2)])
        # and steps of exactly half a turn sit on the wrap's closed end
        pts = np.concatenate([[1.0, -1.0, -1j, 1j],
                              radii * np.exp(2j * np.pi * turns)])
        lift = argument_lift(synthetic_sample(pts), IDENTITY_CHART)
        assert [s for _, s in lift[:4]] == [0.0, 0.5, 0.75, 1.25]
        assert abs(lift[n // 2 + 3][1] - lift[4][1]) > 5.0
        assert lift == scalar_lift(pts)

    def test_constant_argument(self):
        pts = [r * complex(math.cos(0.7), math.sin(0.7))
               for r in (0.5, 1.5, 2.5, 9.0)]
        lift = argument_lift(synthetic_sample(pts), IDENTITY_CHART)
        args = [s for _, s in lift]
        radii = [r for r, _ in lift]
        assert all(abs(s - args[0]) < 1e-12 for s in args)
        assert radii == pytest.approx([0.5, 1.5, 2.5, 9.0])

    def test_gamma_orbit_increments_by_theta(self, bent_rep):
        gamma = A1 * A2
        cl = classify(evaluate(bent_rep, gamma))
        mu = cl.data.lam * complex(math.cos(2 * math.pi * cl.data.theta),
                                   math.sin(2 * math.pi * cl.data.theta))
        z = 0.8 + 0.3j
        pts = [z, mu * z, mu * mu * z]
        lift = argument_lift(synthetic_sample(pts), IDENTITY_CHART)
        rep_theta = wrap_turns(cl.data.theta)
        for i in range(2):
            ds = lift[i + 1][1] - lift[i][1]
            assert abs(ds - rep_theta) < 1e-12

    def test_offset_independence_up_to_global_integer(self):
        rng = np.random.default_rng(11)
        pts = [complex(*rng.standard_normal(2)) for _ in range(30)]
        pts = [p for p in pts if abs(p) > 1e-3]
        full = argument_lift(synthetic_sample(pts), IDENTITY_CHART)
        tail = argument_lift(synthetic_sample(pts[1:]), IDENTITY_CHART)
        diffs = [full[i + 1][1] - tail[i][1] for i in range(len(tail))]
        assert max(diffs) - min(diffs) < 1e-12
        assert abs(diffs[0] - round(diffs[0])) < 1e-12

    def test_rejects_zero_and_infinity(self):
        with pytest.raises(BoundaryError):
            argument_lift(synthetic_sample([1.0, 0.0]), IDENTITY_CHART)
        sample = synthetic_sample([1.0, 2.0])
        inf_pairs = sample.image_pairs.copy()
        inf_pairs[1] = (1.0, 0.0)
        bad = LimitSetSample(ranks=sample.ranks, angles=sample.angles,
                             image_pairs=inf_pairs)
        with pytest.raises(BoundaryError):
            argument_lift(bad, IDENTITY_CHART)

    @pytest.mark.parametrize("point", [complex(math.nan, 0.0),
                                       complex(1.0, math.nan)])
    def test_rejects_non_finite(self, point):
        with pytest.raises(BoundaryError, match="finite nonzero"):
            argument_lift(synthetic_sample([1.0, point, 2.0]), IDENTITY_CHART)


@pytest.fixture(scope="module")
def witness07():
    """(witness, rep): the witness of `witness --maxlen 7` at theta 0.7."""
    rep = bend(fuchsian_octagon(), 0.7)
    return find_spiral_witness(rep, find_complex_trace_element(rep, 4), 7), rep


class TestSpiralWitness:
    def test_end_to_end_witness_verifies(self, witness_run):
        w = witness_run.witness
        assert verify_witness_orders(w, witness_run.rep)
        assert w.Lambda > 1.0
        assert abs(w.Theta) >= MIN_THETA
        assert w.xi_star.word == witness_run.gamma

    def test_witness_radii_strictly_increase(self, witness_run):
        r = witness_run.witness.radii
        assert r[0] < r[1] < r[2] < r[3]
        assert r[0] > 0.0

    def test_witness_index_inequalities(self, witness_run):
        w = witness_run.witness
        for n_k, m_k in zip(w.indices_n, w.indices_m):
            assert (m_k - n_k) * abs(w.Theta) > 1.0
        for k in range(3):
            assert w.Lambda ** (w.indices_n[k + 1] - w.indices_m[k]) \
                > w.R0 / w.r0

    def test_witness_hits_alternating_half_turn_levels(self, witness_run):
        for k, s in enumerate(witness_run.witness.arglift, start=1):
            assert abs(wrap_turns(s - k / 2.0)) < 0.01

    def test_fuchsian_has_no_complex_trace_element(self):
        with pytest.raises(RepresentationError):
            find_complex_trace_element(reference_representation(), 4)

    def test_fuchsian_rejected_as_witness_base(self):
        with pytest.raises(BoundaryError):
            find_spiral_witness(reference_representation(), A1 * A2, 2)

    def test_verifier_rejects_swapped_points(self, witness_run):
        w = witness_run.witness
        swapped = replace(
            w,
            xi=(w.xi[0], w.xi[2], w.xi[1], w.xi[3]),
            radii=(w.radii[0], w.radii[2], w.radii[1], w.radii[3]),
            arglift=(w.arglift[0], w.arglift[2], w.arglift[1], w.arglift[3]),
        )
        assert not verify_witness_orders(swapped, witness_run.rep)

    def test_verifier_rejects_zero_theta(self, witness_run):
        assert not verify_witness_orders(
            replace(witness_run.witness, Theta=0.0), witness_run.rep)

    def test_verifier_rejects_tampered_radii(self, witness_run):
        w = witness_run.witness
        bad = replace(w, radii=(w.radii[0], w.radii[2], w.radii[1], w.radii[3]))
        assert not verify_witness_orders(bad, witness_run.rep)

    @pytest.mark.parametrize("key", ["indices_n", "indices_m", "radii",
                                     "arglift"])
    def test_verifier_rejects_three_entries(self, witness07, key):
        # a short radii or indices_n would be indexed past its end, and zip
        # would cut the checks short at a short indices_m or arglift
        w, rep = witness07
        assert verify_witness_orders(w, rep)
        assert not verify_witness_orders(
            replace(w, **{key: getattr(w, key)[:3]}), rep)

    def test_windows_read_the_points_not_the_spelling(self, witness_run):
        # Read against gamma F instead of F, the same four points sit one
        # translate lower: every window drops by one.  xi[1] = gamma^12 u
        # gamma^-12 is then translate 11, the top of window [6, 12), of
        # the gamma-conjugate gamma u gamma^-1, although its word strips
        # to the power 12.
        w = witness_run.witness
        shifted = replace(w, indices_n=tuple(n - 1 for n in w.indices_n),
                          indices_m=tuple(m - 1 for m in w.indices_m))
        strip = check._strip_conjugator(w.xi[1].word, w.gamma)[0]
        assert strip == shifted.indices_m[1]
        assert verify_witness_orders(shifted, witness_run.rep)

    def test_verifier_splits_each_point_once(self, witness_run, monkeypatch):
        # the boundary side and the image side read one split per xi word
        # and one chart of gamma
        calls = {"_strip_conjugator": 0, "_gamma_chart": 0}
        for name in calls:
            def counted(*args, _fn=getattr(check, name), _name=name):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(check, name, counted)
        assert verify_witness_orders(witness_run.witness, witness_run.rep)
        assert calls == {"_strip_conjugator": 4, "_gamma_chart": 1}

    def test_word_stripping_below_its_window_verifies(self):
        # at theta 0.78, maxlen 7, the sample word drawn for level 4
        # cancels a gamma against the conjugating power: its xi word
        # strips to gamma^17, below window [18, 23), and the point still
        # lies in that window's translates
        rep = bend(fuchsian_octagon(), 0.78)
        w = find_spiral_witness(rep, find_complex_trace_element(rep, 4), 7)
        strip = check._strip_conjugator(w.xi[3].word, w.gamma)[0]
        assert strip < w.indices_n[3]
        assert verify_witness_orders(w, rep)

    def test_witness_serialization_round_trip(self, witness_run):
        w = witness_run.witness
        payload = witness_to_dict(w)
        text = json.dumps(payload, sort_keys=True)
        back = witness_from_dict(json.loads(text))
        assert back == w
        assert verify_witness_orders(back, witness_run.rep)

    def test_serialization_builds_no_representation(self, witness_run,
                                                    octagon_refused):
        # the text form of a word needs no representation
        w = witness_run.witness
        assert witness_from_dict(witness_to_dict(w)) == w

    @pytest.mark.parametrize("mutate,match", [
        (lambda p: [p], "not a spiral witness"),
        (lambda p: {k: v for k, v in p.items() if k != "R0"}, "R0"),
        (lambda p: {**p, "Lambda": "big"}, "big"),
        (lambda p: {**p, "radii": [p["radii"][0], None, *p["radii"][2:]]},
         "NoneType"),
        (lambda p: {**p, "xi": [{**p["xi"][0], "word": "a9"}, *p["xi"][1:]]},
         "a9"),
        (lambda p: {**p, "gamma": 5}, "expected a string"),
        (lambda p: {**p, "xi_star": "a1"}, "string indices"),
        (lambda p: {**p, "radii": p["radii"][:3]}, "four radii"),
        (lambda p: {**p, "indices_n": [12.7, *p["indices_n"][1:]]},
         "indices_n must be integers, got 12.7"),
        (lambda p: {**p, "indices_m": [True, *p["indices_m"][1:]]},
         "indices_m must be integers, got True"),
        (lambda p: {**p, "indices_m": ["3", *p["indices_m"][1:]]},
         "indices_m must be integers, got '3'"),
        (lambda p: {**p, "indices_n": 4}, "not iterable"),
    ], ids=["json-array", "missing-key", "non-numeric", "null-number",
            "bad-word", "word-not-text", "point-not-object", "three-radii",
            "fractional-index", "boolean-index", "string-index",
            "indices-not-list"])
    def test_malformed_payload_is_a_boundary_error(self, witness_run,
                                                   mutate, match):
        payload = mutate(witness_to_dict(witness_run.witness))
        with pytest.raises(BoundaryError, match=match):
            witness_from_dict(payload)

    def test_lift_shift_consistency(self, bent_rep, bent_sample8, witness_run):
        # translating sample points by gamma shifts every lifted argument by
        # one rotation-number representative
        gamma = witness_run.gamma
        _, chart = normalize_at(bent_rep, gamma)
        a_minus, a_plus = fixed_angles(gamma)
        v = (a_plus - a_minus) % 1.0
        x = (bent_sample8.angles - a_minus) % 1.0
        pos = x / v
        inside = (pos > 0.1) & (pos < 0.9) & (x < v)
        rows = np.flatnonzero(inside)
        rows = rows[np.argsort(pos[rows])][:200]
        base = bent_sample8.take(rows)
        lift0 = argument_lift(base, chart)

        m = evaluate(bent_rep, gamma)
        moved_pairs = base.image_pairs @ np.array(
            [[m.a, m.c], [m.b, m.d]], dtype=complex)
        moved = LimitSetSample(ranks=base.ranks, angles=base.angles,
                               image_pairs=moved_pairs)
        lift1 = argument_lift(moved, chart)
        w = witness_run.witness
        for (_, s0), (_, s1) in zip(lift0, lift1):
            assert abs(wrap_turns(s1 - s0 - w.Theta)) < 2e-3


# maxlen 6 at theta 0.50, 0.54, ..., 0.98: the sha256 of the witness.json
# bytes the CLI writes, or None where no middle pair is proposed
WITNESS_GRID_MAXLEN6 = {
    0.50: "565a95ed2f6d994f02f5e182b746d63356bb400f9588ad625cb26b86aa13020f",
    0.54: "17f23f3eb28315f6e2c224dd4930f0172d7ad4fb123eeaaa80d5ef25beb4a754",
    0.58: None,
    0.62: None,
    0.66: None,
    0.70: "55ab6b6f9a144aa39a570ecb140dd94bfbc9e801a8058e428590be362c98617c",
    0.74: "73da50f54b18f1e66d38f78522ebbc15409093dbdfc112a10c220cdacfba1346",
    0.78: "acc564d1e1f7ef617e87c08f719e93d22570e9eba2b95f970ca4ca2f7974e88c",
    0.82: "89827a1d50fdcb7e6bcea4254e602a9db32f98f6f9371019d308d23e7867178d",
    0.86: "2de3bdfb27626f66c68063bf02671a97807746ea4077b1df0c840edd8fd4a790",
    0.90: None,
    0.94: "4b892bbbde9ae5ba19f31e1088bdeb478829140087b76dd9f7c502256e72a8db",
    0.98: "ed654c94bdb092322be7779ad3547b2ffc991a74183684ce07d9e6d8e20970e9",
}


class TestWitnessGrid:
    """The witness outcome per angle is pinned, successes and failures."""

    @pytest.mark.parametrize("theta", sorted(WITNESS_GRID_MAXLEN6))
    def test_outcome_per_angle(self, theta):
        rep = bend(fuchsian_octagon(), theta)
        gamma = find_complex_trace_element(rep, 4)
        digest = WITNESS_GRID_MAXLEN6[theta]
        if digest is None:
            with pytest.raises(BoundaryError) as exc:
                find_spiral_witness(rep, gamma, 6)
            assert str(exc.value) == (
                "sample too sparse: no candidate pair balances the crossing "
                "and disjoint axes")
            return
        text = json.dumps(witness_to_dict(find_spiral_witness(rep, gamma, 6)),
                          sort_keys=True, indent=2) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_only_the_verifier_applies_the_axis_tolerances(self):
        # the search proposes and the verifier accepts: no other code in
        # src names _geodesic_gap
        src = Path(boundary.__file__).parent
        users = set()
        for path in sorted(src.glob("*.py")):
            for top in ast.parse(path.read_text()).body:
                for node in ast.walk(top):
                    name = getattr(node, "attr", None) \
                        or getattr(node, "id", None)
                    if name == "_geodesic_gap":
                        users.add((path.name, getattr(top, "name", None)))
        assert len(list(src.glob("*.py"))) > 5
        assert users == {("check.py", "verify_witness_orders")}


class TestExports:
    def test_csv_shape(self, bent_rep):
        sample = limit_set_sample(bent_rep, 2)
        text = sample_to_csv(sample)
        lines = text.strip().split("\n")
        assert lines[0] == "word,angle_ref,re,im"
        assert len(lines) == len(sample) + 1
        assert all(line.count(",") == 3 for line in lines)

    def test_csv_rows_spell_words_and_flag_points_at_infinity(self):
        # the third point's parts are finite but its modulus overflows;
        # the fourth sits at infinity (w2 = 0)
        sample = LimitSetSample(
            ranks=np.array([[0, 5, -1], [7, 7, 2], [3, -1, -1], [4, -1, -1]],
                           dtype=np.int8),
            angles=np.array([0.25, 0.1, 1.0 / 3.0, 0.5]),
            image_pairs=np.array([[0.5 - 2j, 1], [-1.5 + 1e-300j, 1],
                                  [1.5e308 + 1.5e308j, 1], [1, 0]]))
        assert sample_to_csv(sample).split("\n") == [
            "word,angle_ref,re,im",
            "a1 B1,0.25,0.5,-2.0",
            "B2 B2 a2,0.1,-1.5,1e-300",
            "b2,0.3333333333333333,inf,inf",
            "A1,0.5,inf,inf",
            ""]

    def test_percentiles_match_numpy(self):
        # the SVG window's 2 / 98 % quantiles, bit for bit, on arrays of
        # 1 to 1000 points, with ties and a wide spread; 0.0 and -0.0
        # compare equal, so which one a sort or a partition puts at an
        # index is open, and mixed zeros match as values
        rng = np.random.default_rng(28)
        sizes = [1, 2, 3, 49, 50, 51, 52, 101, 999, 1000] \
            + rng.integers(1, 1001, 40).tolist()
        for n in sizes:
            for x in (rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3, n),
                      rng.integers(-3, 4, n).astype(float),
                      np.round(rng.normal(size=n), 1) + 0.0,
                      np.where(rng.random(n) < 0.5, -0.0, 0.0)):
                got = np.array(boundary._percentiles(x, (2, 98)))
                want = np.percentile(x, [2, 98])
                assert np.array_equal(got, want), (n, x)
                zeros = np.signbit(x[x == 0.0])
                if zeros.any() and not zeros.all():
                    continue
                assert np.array_equal(got.view(np.uint64),
                                      want.view(np.uint64)), (n, x)

    def test_svg_renders_points(self, bent_rep):
        sample = limit_set_sample(bent_rep, 3)
        svg = sample_to_svg(sample, size=400)
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        assert svg.count("<circle") > 100
