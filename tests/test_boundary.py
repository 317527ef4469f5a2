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
from dataclasses import replace

import numpy as np
import pytest

from qfcert import _wordarrays as wa
from qfcert.boundary import (
    DEGENERATE_TOL,
    PAIR_CONFIGS,
    BoundaryError,
    LimitSetSample,
    MIN_THETA,
    PairConfig,
    argument_lift,
    classify_angle_pairs,
    classify_pairs,
    classify_real_pairs,
    disk_angle,
    find_spiral_witness,
    fixed_angles,
    limit_set_sample,
    normalize_at,
    pair_config_grid,
    reference_representation,
    sample_to_csv,
    sample_to_svg,
    verify_witness_orders,
    witness_from_dict,
    witness_to_dict,
)
from qfcert.certificates import _class_table
from qfcert.moebius import BoundaryPoint, IsometryKind, MoebiusMap, classify, wrap_turns
from qfcert.representations import (
    RepresentationError,
    evaluate,
    find_complex_trace_element,
    fuchsian_octagon,
)
from qfcert.surface_group import Word, enumerate_words

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
            want = classify_angle_pairs((angs[0], angs[1]), (angs[2], angs[3]),
                                        tol=0.0)
            assert got == want

    def test_real_pair_degenerate(self):
        assert classify_real_pairs((1.0, 1.0), (2.0, 3.0)) \
            == PairConfig.DEGENERATE


def scalar_grid(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """pair_config_grid's reference: classify_angle_pairs pair by pair."""
    return np.array([[PAIR_CONFIGS.index(classify_angle_pairs(tuple(a), tuple(b)))
                      for b in beta.tolist()] for a in alpha.tolist()])


class TestPairConfigGrid:
    def test_matches_scalar_on_all_class_pairs(self):
        # the angles the triangle harness and the certificate search use,
        # against classify_pairs on the words (scalar fixed_angles)
        rows, _, angles = _class_table(reference_representation(), 3)
        words = [Word(wa.ranks_to_letters(row)) for row in rows]
        grid = pair_config_grid(angles, angles)
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
        grid = pair_config_grid(pairs, pairs)
        assert np.array_equal(grid, scalar_grid(pairs, pairs))
        assert set(grid.ravel().tolist()) == set(range(len(PAIR_CONFIGS)))
        # 1 - gap and 0 sit gap apart across the wrap
        for gap, first, second in (
                (below, PairConfig.DEGENERATE, PairConfig.DEGENERATE),
                (above, PairConfig.LINKED, PairConfig.UNLINKED_MISALIGNED)):
            alpha = np.array([[0.0, 0.2], [0.5, 1.0 - gap]])
            beta = np.array([[1.0 - gap, 0.15], [0.0, 0.2]])
            codes = pair_config_grid(alpha, beta)
            assert (PAIR_CONFIGS[codes[0, 0]], PAIR_CONFIGS[codes[1, 1]]) \
                == (first, second)


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
            assert len(w) >= 1 and w.is_reduced

    def test_take_preserves_entries(self, bent_rep):
        sample = limit_set_sample(bent_rep, 2)
        sub = sample.take([3, 1, 2])
        assert len(sub) == 3
        assert sub.word_at(0) == sample.word_at(3)
        assert sub.angles[1] == sample.angles[1]

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


class TestArgumentLift:
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

    def test_witness_serialization_round_trip(self, witness_run):
        w = witness_run.witness
        payload = witness_to_dict(w)
        text = json.dumps(payload, sort_keys=True)
        back = witness_from_dict(json.loads(text))
        assert back == w
        assert verify_witness_orders(back, witness_run.rep)

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
