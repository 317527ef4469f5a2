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

import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from qfcert import _wordarrays as wa
from qfcert import boundary
from qfcert.boundary import (
    DEGENERATE_TOL,
    PAIR_CONFIGS,
    BoundaryError,
    BoundaryPointRef,
    LimitSetSample,
    MIN_THETA,
    PairConfig,
    classify_angle_pairs,
    classify_pairs,
    classify_real_pairs,
    disk_angle,
    find_spiral_witness,
    fixed_angles,
    limit_set_sample,
    normalize_at,
    pair_config_grid,
    rank_endpoints,
    reference_representation,
    sample_to_csv,
    sample_to_svg,
    verify_witness_orders,
    witness_from_dict,
    witness_to_dict,
    _float_pair_codes,
)
from qfcert.certificates import _PAIR_BLOCK, _class_table
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

from geometry_reference import translation_lengths
from word_reference import is_reduced

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
    return LimitSetSample(rep=reference_representation(), maxlen=1,
                          ranks=np.zeros((n, 1), dtype=np.int8),
                          angles=np.zeros(n), image_pairs=pairs)


IDENTITY_CHART = MoebiusMap(1.0, 0.0, 0.0, 1.0)


def scalar_pair_config(alpha, beta, tol=DEGENERATE_TOL) -> PairConfig:
    """Reference for the float rule: the scalar classifier, pair by pair."""
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


def two_set_grid(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """pair_config_grid of every alpha pair against every beta pair: the
    rows of one table, alpha then beta, against its columns from beta."""
    table = np.concatenate([alpha, beta])
    n = alpha.shape[0]
    return pair_config_grid(table, rank_endpoints(table), 0, n, n)


def table_grid(angles: np.ndarray) -> np.ndarray:
    """pair_config_grid of a whole table against itself."""
    return pair_config_grid(angles, rank_endpoints(angles), 0, len(angles))


def scalar_grid(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """pair_config_grid's reference: scalar_pair_config pair by pair."""
    return np.array([[PAIR_CONFIGS.index(scalar_pair_config(a, b))
                      for b in beta.tolist()] for a in alpha.tolist()])


def float_grid(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """The float rule of classify_angle_pairs over a whole grid."""
    return _float_pair_codes(alpha[:, 0, None], alpha[:, 1, None],
                             beta[None, :, 0], beta[None, :, 1])


class TestPairConfigGrid:
    def test_matches_scalar_on_all_class_pairs(self):
        # the angles the triangle harness and the certificate search use,
        # against classify_pairs on the words (scalar fixed_angles)
        rows, _, angles = _class_table(reference_representation(), 3)
        words = [Word(wa.ranks_to_letters(row)) for row in rows]
        grid = table_grid(angles)
        assert np.array_equal(grid, two_set_grid(angles, angles))
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
        grid = two_set_grid(pairs, pairs)
        assert np.array_equal(grid, table_grid(pairs))
        assert np.array_equal(grid, scalar_grid(pairs, pairs))
        assert np.array_equal(grid, float_grid(pairs, pairs))
        assert set(grid.ravel().tolist()) == set(range(len(PAIR_CONFIGS)))
        # 1 - gap and 0 sit gap apart across the wrap
        for gap, first, second in (
                (below, PairConfig.DEGENERATE, PairConfig.DEGENERATE),
                (above, PairConfig.LINKED, PairConfig.UNLINKED_MISALIGNED)):
            alpha = np.array([[0.0, 0.2], [0.5, 1.0 - gap]])
            beta = np.array([[1.0 - gap, 0.15], [0.0, 0.2]])
            codes = two_set_grid(alpha, beta)
            assert (PAIR_CONFIGS[codes[0, 0]], PAIR_CONFIGS[codes[1, 1]]) \
                == (first, second)


class TestRankClassifier:
    """pair_config_grid ranks endpoints and applies the float rule only
    near the tolerance; it must agree with the scalar reference where the
    two rules could part: gaps near DEGENERATE_TOL, exact duplicates,
    the wrap at 0/1 and large clusters."""

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
        assert np.array_equal(two_set_grid(alpha, beta),
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
        grid = two_set_grid(alpha, alpha)
        assert np.array_equal(grid, scalar_grid(alpha, alpha))
        assert (grid == PAIR_CONFIGS.index(PairConfig.DEGENERATE)).sum() \
            > len(shared)

    @pytest.mark.parametrize("gap", [0.0, 5e-9, 1.5e-8, 3e-8, 1e-3])
    def test_an_angle_of_one_next_to_zero(self, gap):
        # 1.0 and 0.0 are one point of the circle; gap moves a third
        # endpoint off it on either side
        ends = [1.0, 0.0, gap, 1.0 - gap, 0.25, 0.5, 0.75]
        pairs = np.array([(x, y) for x in ends for y in ends if x != y])
        assert np.array_equal(two_set_grid(pairs, pairs),
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
        assert np.array_equal(two_set_grid(alpha, beta),
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
        assert np.array_equal(two_set_grid(alpha, beta),
                              scalar_grid(alpha, beta))

    @pytest.mark.parametrize("angle", [0.0, 0.6, 0.99])
    def test_equals_the_float_rule_on_the_scan_blocks(self, angle):
        # every block the certificate scan classifies at maxlen 5
        _, _, angles = _class_table(bend(fuchsian_octagon(), angle), 5)
        ranking = rank_endpoints(angles)
        n, lo = len(angles), 0
        while lo < n - 1:
            hi = min(n, lo + max(1, _PAIR_BLOCK // (n - lo)))
            assert np.array_equal(pair_config_grid(angles, ranking, lo, hi, lo),
                                  float_grid(angles[lo:hi], angles[lo:]))
            lo = hi

    def test_rank_endpoints_of_a_table(self):
        # endpoint k is row k % n; near pairs, across the wrap too, come
        # in both orders with the diagonal, sorted, and a row whose own
        # endpoints are close is a near row
        angles = np.array([[0.0, 0.6], [0.6 + 1e-9, 0.3], [0.9, 1.0],
                           [0.45, 0.45 + 1e-9]])
        ranks, near, near_rows = rank_endpoints(angles)
        assert ranks.dtype == np.int32
        assert ranks.tolist() == [[0, 4], [5, 1], [6, 7], [2, 3]]
        assert near.tolist() == [[0, 0, 0, 1, 1, 2, 2, 3],
                                 [0, 1, 2, 0, 1, 0, 2, 3]]
        assert near_rows.tolist() == [3]
        assert np.array_equal(table_grid(angles), scalar_grid(angles, angles))

    def test_rank_endpoints_of_an_empty_table(self):
        ranks, near, near_rows = rank_endpoints(np.zeros((0, 2)))
        assert (ranks.shape, near.shape, near_rows.shape) \
            == ((0, 2), (2, 0), (0,))
        assert table_grid(np.zeros((0, 2))).shape == (0, 0)


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
            ref_m, rep_m = (wa.extend_products(p[lo // fan:hi // fan], last, g)
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
    for words in wa.reduced_word_levels(maxlen):
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


class TestSampleReference:
    """The streamed sample and the sorted-circle window scan reproduce
    their references byte for byte."""

    @pytest.mark.parametrize("chunk", [_DEFAULT_CHUNK, 100])
    @pytest.mark.parametrize("angle", [0.0, 0.52, 0.6, 0.76, 0.93, -0.6])
    def test_sample_equals_the_concatenating_reference(self, angle, chunk,
                                                       monkeypatch):
        monkeypatch.setattr(boundary, "_CHUNK", chunk)
        rep = bend(fuchsian_octagon(), angle)
        for maxlen in range(1, 7):
            got = limit_set_sample(rep, maxlen)
            want = reference_sample(rep, maxlen)
            assert all(same_bytes(g, w) for g, w in zip(
                (got.ranks, got.angles, got.image_pairs), want))

    # no word of length 7 or less is dropped for the octagon and its
    # bends, so an elliptic first generator makes the dropped rows
    @pytest.mark.parametrize("chunk", [_DEFAULT_CHUNK, 100])
    def test_dropped_rows_are_left_out(self, bent_rep, chunk, monkeypatch):
        monkeypatch.setattr(boundary, "_CHUNK", chunk)
        ref = wa.exact_real(reference_representation()
                            .generator_matrix_array()).copy()
        ref[0], ref[4] = [[0.0, -1.0], [1.0, 0.0]], [[0.0, 1.0], [-1.0, 0.0]]
        gens = (ref, bent_rep.generator_matrix_array())
        levels = wa.reduced_word_levels(4)
        total = sum(level.shape[0] for level in levels)
        out = (np.full((total, 4), -1, dtype=np.int8), np.empty(total),
               np.empty((total, 2), dtype=complex))
        count, products, want_products, dropped = 0, None, None, 0
        for words in levels:
            start = count
            count, products = boundary._accumulate_level(
                words, gens, products, True, out, count)
            # the reference solves for fixed points of the dropped rows too
            with np.errstate(invalid="ignore"):
                angles, pairs, keep, want_products = reference_level(
                    words, gens, want_products, True)
            dropped += int(np.count_nonzero(~keep))
            width = words.shape[1]
            assert same_bytes(out[0][start:count, :width], words[keep])
            assert (out[0][start:count, width:] == -1).all()
            assert same_bytes(out[1][start:count], angles[keep])
            assert same_bytes(out[2][start:count], pairs[keep])
            assert all(same_bytes(g, w)
                       for g, w in zip(products, want_products))
        assert dropped > 0

    def test_peak_memory_is_near_what_the_sample_keeps(self, bent_rep):
        # levels masked, concatenated and gathered again peaked at 3.8
        # times the kept bytes; written in place, about 2.1
        tracemalloc.start()
        try:
            sample = limit_set_sample(bent_rep, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = sum(a.nbytes for a in (sample.ranks, sample.angles,
                                      sample.image_pairs))
        assert len(sample) == 1077825
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
        pres = bent_rep.presentation
        conjugators = [u for u in enumerate_words(pres, 2, mode="reduced")
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
        bad = LimitSetSample(rep=sample.rep, maxlen=1, ranks=sample.ranks,
                             angles=sample.angles, image_pairs=inf_pairs)
        with pytest.raises(BoundaryError):
            argument_lift(bad, IDENTITY_CHART)

    @pytest.mark.parametrize("point", [complex(math.nan, 0.0),
                                       complex(1.0, math.nan)])
    def test_rejects_non_finite(self, point):
        with pytest.raises(BoundaryError, match="finite nonzero"):
            argument_lift(synthetic_sample([1.0, point, 2.0]), IDENTITY_CHART)


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

    def test_windows_read_the_points_not_the_spelling(self, witness_run):
        # Read against gamma F instead of F, the same four points sit one
        # translate lower: every window drops by one.  xi[1] = gamma^12 u
        # gamma^-12 is then translate 11, the top of window [6, 12), of
        # the gamma-conjugate gamma u gamma^-1, although its word strips
        # to the power 12.
        w = witness_run.witness
        shifted = replace(w, indices_n=tuple(n - 1 for n in w.indices_n),
                          indices_m=tuple(m - 1 for m in w.indices_m))
        strip = boundary._strip_conjugator(w.xi[1].word, w.gamma)[0]
        assert strip == shifted.indices_m[1]
        assert verify_witness_orders(shifted, witness_run.rep)

    def test_word_stripping_below_its_window_verifies(self):
        # at theta 0.78, maxlen 7, the sample word drawn for level 4
        # cancels a gamma against the conjugating power: its xi word
        # strips to gamma^17, below window [18, 23), and the point still
        # lies in that window's translates
        rep = bend(fuchsian_octagon(), 0.78)
        w = find_spiral_witness(rep, find_complex_trace_element(rep, 4), 7)
        strip = boundary._strip_conjugator(w.xi[3].word, w.gamma)[0]
        assert strip < w.indices_n[3]
        assert verify_witness_orders(w, rep)

    def test_witness_serialization_round_trip(self, witness_run):
        w = witness_run.witness
        payload = witness_to_dict(w)
        text = json.dumps(payload, sort_keys=True)
        back = witness_from_dict(json.loads(text))
        assert back == w
        assert verify_witness_orders(back, witness_run.rep)

    @pytest.mark.parametrize("mutate,match", [
        (lambda p: [p], "not a spiral witness"),
        (lambda p: {k: v for k, v in p.items() if k != "R0"}, "R0"),
        (lambda p: {**p, "Lambda": "big"}, "big"),
        (lambda p: {**p, "radii": [p["radii"][0], None, *p["radii"][2:]]},
         "NoneType"),
        (lambda p: {**p, "xi": [{**p["xi"][0], "word": "a9"}, *p["xi"][1:]]},
         "a9"),
        (lambda p: {**p, "gamma": 5}, "'5'"),
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
        moved = LimitSetSample(rep=base.rep, maxlen=base.maxlen,
                               ranks=base.ranks, angles=base.angles,
                               image_pairs=moved_pairs)
        lift1 = argument_lift(moved, chart)
        w = witness_run.witness
        for (_, s0), (_, s1) in zip(lift0, lift1):
            assert abs(wrap_turns(s1 - s0 - w.Theta)) < 2e-3


class TestExports:
    def test_csv_shape(self, bent_rep):
        sample = limit_set_sample(bent_rep, 2)
        text = sample_to_csv(sample)
        lines = text.strip().split("\n")
        assert lines[0] == "word,angle_ref,re,im"
        assert len(lines) == len(sample) + 1
        assert all(line.count(",") == 3 for line in lines)

    def test_svg_renders_points(self, bent_rep):
        sample = limit_set_sample(bent_rep, 3)
        svg = sample_to_svg(sample, size=400)
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        assert svg.count("<circle") > 100
