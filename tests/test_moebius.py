"""Oracle and invariance tests for the Moebius / hyperbolic-geometry layer.

Expected values are frozen from independent closed forms (inline
comments give the derivation), never from the code under test.
"""

import cmath
import math

import numpy as np
import pytest

from qfcert.moebius import (
    BASEPOINT,
    BoundaryPoint,
    Geodesic3,
    INF,
    IsometryKind,
    MoebiusError,
    MoebiusMap,
    Point3,
    busemann_gap,
    circular_distance_turns,
    classify,
    dist_h3,
    dist_to_geodesic,
    fixed_points,
    geodesic_point,
    normalizer_to_axis,
    point_near_geodesic,
    translation_length,
    wrap_turns,
)

# general geodesic geometry that no command uses: its closed-form tests
# below keep it a trustworthy oracle for certificates.diagnostic_delta
from geometry_reference import (
    axis_crossing_gap,
    geodesic_distance,
    geodesic_through_points,
    midpoint,
)

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def random_map(rng: np.random.Generator, real: bool = False) -> MoebiusMap:
    """A generic invertible matrix; the constructor renormalizes it."""
    while True:
        vals = rng.normal(size=(4, 2))
        if real:
            vals[:, 1] = 0.0
        a, b, c, d = (complex(x, y) for x, y in vals)
        if abs(a * d - b * c) > 1e-3:
            return MoebiusMap(a, b, c, d)


class TestWrapTurns:
    @pytest.mark.parametrize(
        "x,expected",
        [(0.0, 0.0), (0.25, 0.25), (0.5, 0.5), (-0.5, 0.5), (1.25, 0.25),
         (-0.3, -0.3), (0.75, -0.25), (-1.0, 0.0), (3.5, 0.5)],
    )
    def test_values(self, x, expected):
        assert wrap_turns(x) == pytest.approx(expected, abs=1e-15)

    def test_range(self):
        rng = np.random.default_rng(7)
        for x in rng.uniform(-20, 20, size=500):
            y = wrap_turns(float(x))
            assert -0.5 < y <= 0.5
            # x and y agree modulo 1
            assert abs((x - y) - round(x - y)) < 1e-9

    def test_circular_distance(self):
        assert circular_distance_turns(0.1, 0.9) == pytest.approx(0.2, abs=1e-15)
        assert circular_distance_turns(0.0, 0.5) == pytest.approx(0.5)


class TestBoundaryPoint:
    def test_infinity(self):
        assert INF.is_infinity
        with pytest.raises(MoebiusError):
            INF.to_complex()

    def test_chordal_poles(self):
        # 0 and inf are antipodal on the sphere: chordal distance 2
        z = BoundaryPoint.from_complex(0.0)
        assert z.chordal(INF) == pytest.approx(2.0)
        assert z.chordal(z) == 0.0

    def test_chordal_symmetric_scale_invariant(self):
        p = BoundaryPoint(3.0 + 1j, 2.0)
        q = BoundaryPoint((3.0 + 1j) * (0.2 - 5j), 2.0 * (0.2 - 5j))
        assert p.chordal(q) == pytest.approx(0.0, abs=1e-15)

    def test_huge_modulus(self):
        # no overflow; points this extreme collapse to infinity projectively
        p = BoundaryPoint.from_complex(1e200)
        assert p.chordal(INF) == pytest.approx(2e-200, rel=1e-9)
        assert p.is_infinity
        q = BoundaryPoint.from_complex(1e10)
        assert not q.is_infinity
        assert q.to_complex() == pytest.approx(1e10, rel=1e-12)

    def test_invalid(self):
        with pytest.raises(MoebiusError):
            BoundaryPoint(0.0, 0.0)


class TestPoint3:
    def test_validation(self):
        with pytest.raises(MoebiusError):
            Point3(0.0, 0.0)
        with pytest.raises(MoebiusError):
            Point3(0.0, -1.0)
        with pytest.raises(MoebiusError):
            Point3(0.0, math.inf)

    def test_basepoint(self):
        assert BASEPOINT.z == 0.0 and BASEPOINT.t == 1.0


class TestMoebiusMap:
    def test_unimodular_after_construction(self):
        m = MoebiusMap(3.0, 1.0, 2.0, 5.0)  # det 13, gets renormalized
        assert abs(m.det - 1.0) < 1e-14

    def test_singular_raises(self):
        with pytest.raises(MoebiusError):
            MoebiusMap(1.0, 2.0, 2.0, 4.0)

    def test_sign_canonicalization(self):
        m1 = MoebiusMap(2.0, 1.0, 1.0, 1.0)
        m2 = MoebiusMap(-2.0, -1.0, -1.0, -1.0)
        assert m1.entries() == m2.entries()
        assert m1.trace.real > 0

    def test_traceless_sign_canonicalization(self):
        m1 = MoebiusMap(0.0, 1.0, -1.0, 0.0)
        m2 = MoebiusMap(0.0, -1.0, 1.0, 0.0)
        assert m1.distance_to(m2) < 1e-15
        assert m1.entries() == m2.entries()

    def test_inverse(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            m = random_map(rng)
            assert (m @ m.inverse()).is_identity(1e-12)

    def test_pow_matches_repeated_product(self):
        rng = np.random.default_rng(13)
        m = random_map(rng)
        prod = MoebiusMap.identity()
        for _ in range(5):
            prod = prod @ m
        assert (m ** 5).distance_to(prod) < 1e-12
        assert (m ** -2).distance_to(m.inverse() @ m.inverse()) < 1e-12
        assert (m ** 0).is_identity(0.0)

    def test_determinant_drift_long_composition(self):
        # bounded (rotation) compositions: the determinant read-back is
        # well conditioned, so drift must stay at machine scale
        rng = np.random.default_rng(17)
        prod = MoebiusMap.identity()
        for _ in range(512):
            th, ph, ps = rng.uniform(0.0, 2.0 * math.pi, size=3)
            u = complex(math.cos(th), math.sin(th) * math.cos(ph))
            v = complex(math.sin(th) * math.sin(ph) * math.cos(ps),
                        math.sin(th) * math.sin(ph) * math.sin(ps))
            prod = prod @ MoebiusMap(u, v, -v.conjugate(), u.conjugate())
        assert abs(prod.det - 1.0) <= 1e-13

    def test_determinant_drift_growing_composition(self):
        # entries grow exponentially; reading the determinant back then
        # cancels catastrophically, so the honest bound scales with the
        # square of the entry size
        rng = np.random.default_rng(17)
        prod = MoebiusMap.identity()
        for _ in range(64):
            prod = prod @ random_map(rng)
        scale = max(abs(e) for e in prod.entries())
        assert abs(prod.det - 1.0) <= 1e-12 * max(1.0, scale * scale)

    def test_normalization_idempotent(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            m = random_map(rng)
            again = MoebiusMap(*m.entries())
            assert again.entries() == m.entries()

    def test_boundary_action_moves_infinity(self):
        m = MoebiusMap(0.0, -1.0, 1.0, 0.0)  # z -> -1/z
        assert m(INF).to_complex() == pytest.approx(0.0)
        assert m(0.0).is_infinity
        assert m(2.0).to_complex() == pytest.approx(-0.5)

    def test_point_action_translation(self):
        m = MoebiusMap(1.0, 3.0 + 1j, 0.0, 1.0)
        p = m(Point3(1j, 2.0))
        assert p.z == pytest.approx(3.0 + 2j)
        assert p.t == pytest.approx(2.0)

    def test_point_action_inversion_fixes_summit(self):
        # z -> -1/z fixes the point (0, 1) of upper half-space
        m = MoebiusMap(0.0, -1.0, 1.0, 0.0)
        p = m(Point3(0.0, 1.0))
        assert abs(p.z) < 1e-15 and p.t == pytest.approx(1.0)
        q = m(Point3(0.0, 2.0))
        assert q.t == pytest.approx(0.5)

    def test_point_action_is_isometry(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            m = random_map(rng)
            p = Point3(complex(*rng.normal(size=2)), float(rng.uniform(0.1, 5.0)))
            q = Point3(complex(*rng.normal(size=2)), float(rng.uniform(0.1, 5.0)))
            assert dist_h3(m(p), m(q)) == pytest.approx(dist_h3(p, q), abs=1e-9)

    def test_point_action_matches_boundary_action_near_floor(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            m = random_map(rng)
            z = complex(*rng.normal(size=2))
            img = m(Point3(z, 1e-9))
            w = m(z)
            if not w.is_infinity and abs(m.c * z + m.d) > 1e-3:
                assert abs(img.z - w.to_complex()) < 1e-6


class TestClassification:
    def test_identity(self):
        assert classify(MoebiusMap.identity()).kind is IsometryKind.IDENTITY
        assert classify(MoebiusMap(-1.0, 0.0, 0.0, -1.0)).kind is IsometryKind.IDENTITY

    def test_parabolic(self):
        cl = classify(MoebiusMap(1.0, 1.0, 0.0, 1.0))
        assert cl.kind is IsometryKind.PARABOLIC
        assert translation_length(MoebiusMap(1.0, 1.0, 0.0, 1.0)) == 0.0

    def test_elliptic(self):
        t = 0.7
        m = MoebiusMap(math.cos(t), -math.sin(t), math.sin(t), math.cos(t))
        assert classify(m).kind is IsometryKind.ELLIPTIC
        assert translation_length(m) == 0.0

    def test_hyperbolic_diag_2_half(self):
        # diag(2, 1/2): multiplier 4, translation length log 4
        m = MoebiusMap(2.0, 0.0, 0.0, 0.5)
        cl = classify(m)
        assert cl.kind is IsometryKind.HYPERBOLIC
        assert cl.data.lam == pytest.approx(4.0, rel=1e-12)
        assert cl.data.ell == pytest.approx(math.log(4.0), abs=1e-12)
        assert cl.data.theta == pytest.approx(0.0, abs=1e-12)
        assert cl.data.fix_minus.to_complex() == pytest.approx(0.0)
        assert cl.data.fix_plus.is_infinity

    def test_loxodromic_eighth_turn(self):
        # diag(k, 1/k) with k = sqrt(2) e^{i pi/4}: multiplier modulus 2,
        # translation length log 2, rotation one quarter turn
        k = math.sqrt(2.0) * cmath.exp(1j * math.pi / 4.0)
        cl = classify(MoebiusMap(k, 0.0, 0.0, 1.0 / k))
        assert cl.kind is IsometryKind.LOXODROMIC
        assert cl.data.lam == pytest.approx(2.0, rel=1e-12)
        assert cl.data.ell == pytest.approx(math.log(2.0), abs=1e-12)
        assert cl.data.theta == pytest.approx(0.25, abs=1e-12)

    def test_classification_invariant_under_conjugation(self):
        rng = np.random.default_rng(29)
        samples = [
            MoebiusMap(1.0, 1.0, 0.0, 1.0),
            MoebiusMap(math.cos(0.4), -math.sin(0.4), math.sin(0.4), math.cos(0.4)),
            MoebiusMap(2.0, 0.0, 0.0, 0.5),
            MoebiusMap(1.5 + 0.5j, 0.0, 0.0, 1.0 / (1.5 + 0.5j)),
        ]
        for m in samples:
            base = classify(m)
            for _ in range(50):
                g = random_map(rng)
                cl = classify(m.conjugate_by(g))
                assert cl.kind is base.kind
                if base.data is not None:
                    assert cl.data.ell == pytest.approx(base.data.ell, abs=1e-8)
                    assert circular_distance_turns(cl.data.theta, base.data.theta) < 1e-8

    def test_translation_length_power_law(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            m = random_map(rng)
            ell = translation_length(m)
            if ell < 0.1:
                continue
            for n in (2, 3, 5):
                assert translation_length(m ** n) == pytest.approx(n * ell, rel=1e-9)

    def test_rotation_angle_power_law(self):
        k = math.sqrt(2.0) * cmath.exp(1j * math.pi / 4.0)
        m = MoebiusMap(k, 0.0, 0.0, 1.0 / k)
        for n in range(1, 9):
            cl = classify(m ** n)
            assert circular_distance_turns(cl.data.theta, n * 0.25) < 1e-10


class TestFixedPoints:
    def test_golden_ratio_example(self):
        # [[2,1],[1,1]]: z = (2z+1)/(z+1) -> z^2 - z - 1 = 0, roots (1 +- sqrt 5)/2;
        # trace 3 > 2, attracting eigenvalue is the larger root's
        rep, att = fixed_points(MoebiusMap(2.0, 1.0, 1.0, 1.0))
        assert rep.to_complex() == pytest.approx(1.0 - GOLDEN, abs=1e-12)
        assert att.to_complex() == pytest.approx(GOLDEN, abs=1e-12)

    def test_substitution_oracle(self):
        # m(fix) == fix in the chordal metric, across random translation-type maps
        rng = np.random.default_rng(37)
        checked = 0
        while checked < 200:
            m = random_map(rng)
            if translation_length(m) < 1e-3:
                continue
            for f in fixed_points(m):
                assert m(f).chordal(f) < 1e-10
            checked += 1

    def test_attracting_is_attracting(self):
        rng = np.random.default_rng(41)
        checked = 0
        while checked < 50:
            m = random_map(rng)
            if translation_length(m) < 0.5:
                continue
            rep, att = fixed_points(m)
            z = BoundaryPoint.from_complex(complex(*rng.normal(size=2)))
            if min(z.chordal(rep), z.chordal(att)) < 1e-2:
                continue
            w = z
            for _ in range(60):
                w = m(w)
            assert w.chordal(att) < 1e-6
            checked += 1

    def test_equivariance(self):
        rng = np.random.default_rng(43)
        m = MoebiusMap(2.0, 1.0, 1.0, 1.0)
        for _ in range(50):
            g = random_map(rng)
            rep, att = fixed_points(m)
            rep_c, att_c = fixed_points(m.conjugate_by(g))
            assert rep_c.chordal(g(rep)) < 1e-8
            assert att_c.chordal(g(att)) < 1e-8

    def test_parabolic_single_point(self):
        p1, p2 = fixed_points(MoebiusMap(1.0, 1.0, 0.0, 1.0))
        assert p1.is_infinity and p2.is_infinity
        # conjugate so the fixed point moves to a finite position
        g = MoebiusMap(0.0, -1.0, 1.0, -3.0)  # sends inf -> 0... check equivariance
        q1, q2 = fixed_points(MoebiusMap(1.0, 1.0, 0.0, 1.0).conjugate_by(g))
        assert q1.chordal(q2) < 1e-12
        assert q1.chordal(g(INF)) < 1e-9

    def test_identity_raises(self):
        with pytest.raises(MoebiusError):
            fixed_points(MoebiusMap.identity())


class TestDistances:
    def test_dist_vertical(self):
        # along the vertical axis: d((0,1),(0,e^s)) = |s|
        assert dist_h3(Point3(0.0, 1.0), Point3(0.0, math.e)) == pytest.approx(1.0)
        assert dist_h3(Point3(0.0, 4.0), Point3(0.0, 1.0)) == pytest.approx(math.log(4.0))

    def test_dist_symmetric_triangle(self):
        rng = np.random.default_rng(47)
        for _ in range(100):
            pts = [
                Point3(complex(*rng.normal(size=2)), float(rng.uniform(0.1, 4.0)))
                for _ in range(3)
            ]
            p, q, r = pts
            assert dist_h3(p, q) == pytest.approx(dist_h3(q, p), abs=1e-12)
            assert dist_h3(p, r) <= dist_h3(p, q) + dist_h3(q, r) + 1e-9

    def test_dist_to_vertical_axis(self):
        # cosh d = sqrt(|z|^2 + t^2)/t at (1, 1): cosh d = sqrt 2
        geo = Geodesic3.through(0.0, INF)
        d, foot = dist_to_geodesic(Point3(1.0, 1.0), geo)
        assert d == pytest.approx(math.acosh(math.sqrt(2.0)), abs=1e-12)
        assert d == pytest.approx(0.881373587019543, abs=1e-12)
        assert abs(foot.z) < 1e-12
        assert foot.t == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_dist_to_geodesic_is_minimum(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            geo = Geodesic3.through(
                complex(*rng.normal(size=2)), complex(*rng.normal(size=2) + (4, 0))
            )
            p = Point3(complex(*rng.normal(size=2)), float(rng.uniform(0.2, 3.0)))
            d, foot = dist_to_geodesic(p, geo)
            assert dist_h3(p, foot) == pytest.approx(d, abs=1e-9)
            dfoot, _ = dist_to_geodesic(foot, geo)
            assert dfoot < 1e-7
            for s in np.linspace(-4.0, 4.0, 41):
                assert d <= dist_h3(p, geodesic_point(geo, float(s))) + 1e-9

    def test_point_near_geodesic_distance(self):
        rng = np.random.default_rng(59)
        geo = Geodesic3.through(-2.0 + 1j, 5.0)
        for _ in range(50):
            s, r, psi = rng.uniform(-2, 2), rng.uniform(0.01, 3.0), rng.uniform(0, 6.3)
            p = point_near_geodesic(geo, float(s), float(r), float(psi))
            d, _ = dist_to_geodesic(p, geo)
            assert d == pytest.approx(float(r), abs=1e-9)

    def test_geodesic_point_unit_speed(self):
        geo = Geodesic3.through(1j, 3.0 - 2j)
        for s1, s2 in [(-1.0, 0.5), (0.0, 2.0), (-3.0, -1.0)]:
            d = dist_h3(geodesic_point(geo, s1), geodesic_point(geo, s2))
            assert d == pytest.approx(abs(s2 - s1), abs=1e-9)


class TestBusemannGap:
    def test_frozen_value(self):
        geo = Geodesic3.through(0.0, INF)
        gap = busemann_gap(Point3(1.0, 1.0), geo)
        assert gap.value == pytest.approx(math.log(2.0), abs=1e-12)
        assert gap.value == pytest.approx(0.6931471805599453, abs=1e-12)

    def test_zero_iff_on_geodesic(self):
        geo = Geodesic3.through(-1.0, 1.0)
        on = geodesic_point(geo, 0.7)
        assert busemann_gap(on, geo).value < 1e-10
        off = point_near_geodesic(geo, 0.7, 0.3)
        assert busemann_gap(off, geo).value > 1e-3

    def test_truncated_limit_oracle(self):
        # value must match d(p, geo(s)) + d(p, geo(-s)) - 2s at s = 15
        rng = np.random.default_rng(61)
        for _ in range(200):
            geo = Geodesic3.through(
                complex(*rng.normal(size=2)), complex(*rng.normal(size=2) + (5, 0))
            )
            p = point_near_geodesic(
                geo, float(rng.uniform(-2, 2)), float(rng.uniform(0, 2.5)),
                float(rng.uniform(0, 6.3)),
            )
            s = 15.0
            truncated = (
                dist_h3(p, geodesic_point(geo, s))
                + dist_h3(p, geodesic_point(geo, -s))
                - 2.0 * s
            )
            assert busemann_gap(p, geo).value == pytest.approx(truncated, abs=1e-6)

    def test_invariance(self):
        rng = np.random.default_rng(67)
        geo = Geodesic3.through(0.5j, -2.0)
        p = Point3(1.0 + 1j, 0.7)
        base = busemann_gap(p, geo).value
        for _ in range(50):
            g = random_map(rng)
            moved = busemann_gap(g(p), Geodesic3(g(geo.xi), g(geo.eta))).value
            assert moved == pytest.approx(base, abs=1e-8)


class TestGeodesics:
    def test_coincident_endpoints_raise(self):
        with pytest.raises(MoebiusError):
            Geodesic3.through(1.0, 1.0)

    def test_normalizer(self):
        rng = np.random.default_rng(71)
        for _ in range(50):
            geo = Geodesic3.through(
                complex(*rng.normal(size=2)), complex(*rng.normal(size=2) + (3, 0))
            )
            n = normalizer_to_axis(geo)
            assert n(geo.xi).chordal(BoundaryPoint.from_complex(0.0)) < 1e-10
            assert n(geo.eta).chordal(INF) < 1e-10

    def test_through_points(self):
        rng = np.random.default_rng(73)
        for _ in range(50):
            p = Point3(complex(*rng.normal(size=2)), float(rng.uniform(0.1, 3.0)))
            q = Point3(complex(*rng.normal(size=2)), float(rng.uniform(0.1, 3.0)))
            if dist_h3(p, q) < 1e-3:
                continue
            geo = geodesic_through_points(p, q)
            dp, _ = dist_to_geodesic(p, geo)
            dq, _ = dist_to_geodesic(q, geo)
            assert dp < 1e-9 and dq < 1e-9

    def test_through_points_vertical(self):
        geo = geodesic_through_points(Point3(2j, 1.0), Point3(2j, 3.0))
        assert geo.eta.is_infinity or geo.xi.is_infinity

    def test_midpoint(self):
        rng = np.random.default_rng(79)
        for _ in range(50):
            p = Point3(complex(*rng.normal(size=2)), float(rng.uniform(0.1, 3.0)))
            q = Point3(complex(*rng.normal(size=2)), float(rng.uniform(0.1, 3.0)))
            if dist_h3(p, q) < 1e-3:
                continue
            m = midpoint(p, q)
            half = dist_h3(p, q) / 2.0
            assert dist_h3(p, m) == pytest.approx(half, abs=1e-9)
            assert dist_h3(q, m) == pytest.approx(half, abs=1e-9)


class TestGeodesicDistance:
    def test_frozen_value(self):
        # axis (0, inf) vs half-circle (1, 3): the perpendicular meets the
        # circle |z| = sqrt 3 ... closed form gives d = arccosh(2)
        d, fa, fb = geodesic_distance(Geodesic3.through(0.0, INF), Geodesic3.through(1.0, 3.0))
        assert d == pytest.approx(math.acosh(2.0), abs=1e-12)
        assert d == pytest.approx(1.3169578969248166, abs=1e-12)
        assert abs(fa.z) < 1e-12 and fa.t == pytest.approx(math.sqrt(3.0), abs=1e-12)
        assert fb.z == pytest.approx(1.5)
        assert fb.t == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-12)

    def test_matches_sampled_minimum(self):
        rng = np.random.default_rng(83)
        for _ in range(10):
            ga = Geodesic3.through(complex(*rng.normal(size=2)), complex(*rng.normal(size=2) + (6, 0)))
            gb = Geodesic3.through(
                complex(*rng.normal(size=2) + (0, 6)), complex(*rng.normal(size=2) + (6, 6))
            )
            d, fa, fb = geodesic_distance(ga, gb)
            assert dist_h3(fa, fb) == pytest.approx(d, abs=1e-8)
            da, _ = dist_to_geodesic(fa, ga)
            db, _ = dist_to_geodesic(fb, gb)
            assert da < 1e-7 and db < 1e-7
            sampled = min(
                dist_to_geodesic(geodesic_point(ga, float(s)), gb)[0]
                for s in np.linspace(-6, 6, 601)
            )
            assert d <= sampled + 1e-9
            assert sampled - d < 1e-3  # grid resolution

    def test_crossing_geodesics(self):
        # (-1,1) and (-i,i) intersect at (0,1)
        d, fa, fb = geodesic_distance(Geodesic3.through(-1.0, 1.0), Geodesic3.through(-1j, 1j))
        assert d < 1e-9
        assert dist_h3(fa, Point3(0.0, 1.0)) < 1e-7
        assert dist_h3(fb, Point3(0.0, 1.0)) < 1e-7

    def test_shared_endpoint_raises(self):
        with pytest.raises(MoebiusError):
            geodesic_distance(Geodesic3.through(0.0, INF), Geodesic3.through(0.0, 1.0))

    def test_symmetry_and_invariance(self):
        rng = np.random.default_rng(89)
        ga = Geodesic3.through(-1.0, 1.0)
        gb = Geodesic3.through(4.0, 6.0 + 1j)
        d0, _, _ = geodesic_distance(ga, gb)
        d1, _, _ = geodesic_distance(gb, ga)
        assert d0 == pytest.approx(d1, abs=1e-12)
        for _ in range(25):
            g = random_map(rng)
            dm, _, _ = geodesic_distance(
                Geodesic3(g(ga.xi), g(ga.eta)), Geodesic3(g(gb.xi), g(gb.eta))
            )
            assert dm == pytest.approx(d0, abs=1e-8)


class TestAxisCrossingGap:
    def test_frozen_value(self):
        # crossing axes meet at (0,1); reference geodesic (i, 1) passes at
        # gap 2 log cosh dist((0,1), geo(i,1)) = log 2
        val = axis_crossing_gap(
            Geodesic3.through(-1.0, 1.0),
            Geodesic3.through(-1j, 1j),
            Geodesic3.through(1j, 1.0),
        )
        assert val == pytest.approx(math.log(2.0), abs=1e-9)

    def test_zero_when_reference_through_crossing(self):
        val = axis_crossing_gap(
            Geodesic3.through(-1.0, 1.0),
            Geodesic3.through(-1j, 1j),
            Geodesic3.through(0.0, INF),  # passes through (0, 1)
        )
        assert val < 1e-9

    def test_identical_axes_raise(self):
        with pytest.raises(MoebiusError):
            axis_crossing_gap(
                Geodesic3.through(-1.0, 1.0),
                Geodesic3.through(1.0, -1.0),
                Geodesic3.through(0.0, INF),
            )
