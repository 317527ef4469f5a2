"""Moebius transformations and hyperbolic geometry in upper half-space.

A unimodular 2x2 complex matrix [[a, b], [c, d]] acts on the Riemann
sphere by z -> (az + b)/(cz + d) and extends to an isometry of upper
half-space H^3 = {(z, t) : z in C, t > 0} via the Poincare extension

    (z, t)  ->  ( ((az+b) conj(cz+d) + a conj(c) t^2) / D,  t / D ),
    D = |cz+d|^2 + |c|^2 t^2.

Matrices are kept unimodular (renormalized by a square root of the
determinant on every composition) and stored with a canonical choice of
the +/- lift, so traces are reported consistently.

Boundary points live on CP^1 as projective pairs (w1 : w2); the point at
infinity is (1 : 0) and needs no special-casing in the group action.
Comparisons between boundary points use the chordal metric on the unit
sphere, d(p, q) = 2 |w1 v2 - w2 v1| for unit-norm representatives.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

# Trace-based classification thresholds.
PARABOLIC_TRACE_TOL = 1e-9
REAL_TRACE_TOL = 1e-9
IDENTITY_TOL = 1e-9
# Coincidence threshold for boundary points (chordal metric).
ENDPOINT_TOL = 1e-10


class InvariantError(ValueError):
    """Base of the errors a computation raises when a mathematical
    invariant fails or a search finds nothing; the CLI maps it to exit 1."""


class MoebiusError(InvariantError):
    """Raised for singular matrices or degenerate geometric input."""


def wrap_turns(x: float) -> float:
    """Reduce an angle in turns to the representative in (-1/2, 1/2]."""
    y = x - math.floor(x)
    if y > 0.5:
        y -= 1.0
    return y


def circular_distance_turns(x, y):
    """Distance between two circle positions measured in turns, in [0, 1/2],
    elementwise on arrays.  |x - y| is the same bits in either argument
    order, and so is the distance."""
    d = abs(x - y) % 1.0
    return np.minimum(d, 1.0 - d)


@dataclass(frozen=True, eq=False)
class BoundaryPoint:
    """A point of the ideal boundary C u {inf} as a projective pair (w1 : w2).

    Representatives are normalized to unit Euclidean norm at construction;
    the overall phase is irrelevant.
    """

    w1: complex
    w2: complex

    def __post_init__(self) -> None:
        n = math.hypot(abs(self.w1), abs(self.w2))
        if not (n > 0.0) or not math.isfinite(n):
            raise MoebiusError("invalid projective pair (%r : %r)" % (self.w1, self.w2))
        object.__setattr__(self, "w1", self.w1 / n)
        object.__setattr__(self, "w2", self.w2 / n)

    @classmethod
    def from_complex(cls, z: complex) -> "BoundaryPoint":
        z = complex(z)
        if abs(z) > 1e154:
            # guard against overflow in |z|^2; treat as a steep projective pair
            return cls(1.0, 1.0 / z)
        return cls(z, 1.0)

    @classmethod
    def infinity(cls) -> "BoundaryPoint":
        return cls(1.0, 0.0)

    @property
    def is_infinity(self) -> bool:
        return abs(self.w2) <= 1e-15

    def to_complex(self) -> complex:
        if self.is_infinity:
            raise MoebiusError("boundary point at infinity has no complex value")
        return self.w1 / self.w2

    def chordal(self, other: "BoundaryPoint") -> float:
        """Chordal distance on the sphere, in [0, 2]."""
        return 2.0 * abs(self.w1 * other.w2 - self.w2 * other.w1)

    def __repr__(self) -> str:
        if self.is_infinity:
            return "BoundaryPoint(inf)"
        return "BoundaryPoint(%r)" % (self.to_complex(),)


INF = BoundaryPoint.infinity()


def as_boundary_point(x) -> BoundaryPoint:
    if isinstance(x, BoundaryPoint):
        return x
    return BoundaryPoint.from_complex(x)


@dataclass(frozen=True, eq=False)
class Point3:
    """A point (z, t) of upper half-space, t > 0."""

    z: complex
    t: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "z", complex(self.z))
        object.__setattr__(self, "t", float(self.t))
        if not (self.t > 0.0) or not math.isfinite(self.t):
            raise MoebiusError("height must be positive and finite, got %r" % (self.t,))

    def __repr__(self) -> str:
        return "Point3(%r, %r)" % (self.z, self.t)


BASEPOINT = Point3(0.0, 1.0)


@dataclass(frozen=True, eq=False)
class MoebiusMap:
    """Unimodular 2x2 complex matrix with a canonical +/- lift.

    The constructor rescales by a square root of the determinant and then
    flips the overall sign so that Re(tr) > 0, or Re(tr) = 0 and
    Im(tr) >= 0.  For the measure-zero case tr = 0 the sign is fixed by
    the first entry of (a, b, c, d) that is nonzero.
    """

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self) -> None:
        a, b, c, d = (complex(self.a), complex(self.b), complex(self.c), complex(self.d))
        det = a * d - b * c
        if abs(det) < 1e-30 or not math.isfinite(abs(det)):
            raise MoebiusError("singular or non-finite matrix, det = %r" % (det,))
        # idempotent: entries already unit-determinant to machine precision
        # pass through unchanged, so reconstruction from entries() is exact
        if abs(det - 1.0) > 1e-14:
            s = cmath.sqrt(det)
            a, b, c, d = a / s, b / s, c / s, d / s
        if _needs_sign_flip(a, b, c, d):
            a, b, c, d = -a, -b, -c, -d
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    @classmethod
    def identity(cls) -> "MoebiusMap":
        return cls(1.0, 0.0, 0.0, 1.0)

    @property
    def trace(self) -> complex:
        return self.a + self.d

    @property
    def det(self) -> complex:
        return self.a * self.d - self.b * self.c

    def entries(self) -> tuple[complex, complex, complex, complex]:
        return (self.a, self.b, self.c, self.d)

    @classmethod
    def _unit_det(cls, a: complex, b: complex,
                  c: complex, d: complex) -> "MoebiusMap":
        """Wrap entries that are unit-determinant by algebra, not by rescaling.

        Products and adjugates of unit-determinant maps stay unit-determinant
        exactly; recomputing the determinant from large entries and dividing
        by it only injects its own rounding error (quadratic in the entry
        scale), so this path keeps the entries as computed and applies just
        the canonical sign.
        """
        if not (math.isfinite(abs(a)) and math.isfinite(abs(b))
                and math.isfinite(abs(c)) and math.isfinite(abs(d))):
            raise MoebiusError("non-finite matrix entries in a product")
        if _needs_sign_flip(a, b, c, d):
            a, b, c, d = -a, -b, -c, -d
        m = object.__new__(cls)
        object.__setattr__(m, "a", a)
        object.__setattr__(m, "b", b)
        object.__setattr__(m, "c", c)
        object.__setattr__(m, "d", d)
        return m

    def __matmul__(self, other: "MoebiusMap") -> "MoebiusMap":
        return MoebiusMap._unit_det(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "MoebiusMap":
        return MoebiusMap._unit_det(self.d, -self.b, -self.c, self.a)

    def __pow__(self, n: int) -> "MoebiusMap":
        if n < 0:
            return self.inverse() ** (-n)
        result = MoebiusMap.identity()
        base = self
        while n:
            if n & 1:
                result = result @ base
            base = base @ base
            n >>= 1
        return result

    def conjugate_by(self, g: "MoebiusMap") -> "MoebiusMap":
        """Return g @ self @ g^-1."""
        return g @ self @ g.inverse()

    def apply_boundary(self, p: BoundaryPoint) -> BoundaryPoint:
        return BoundaryPoint(self.a * p.w1 + self.b * p.w2, self.c * p.w1 + self.d * p.w2)

    def apply_point(self, p: Point3) -> Point3:
        cz_d = self.c * p.z + self.d
        den = abs(cz_d) ** 2 + (abs(self.c) * p.t) ** 2
        z = ((self.a * p.z + self.b) * cz_d.conjugate() + self.a * self.c.conjugate() * p.t * p.t) / den
        return Point3(z, p.t / den)

    def __call__(self, x):
        if isinstance(x, Point3):
            return self.apply_point(x)
        return self.apply_boundary(as_boundary_point(x))

    def distance_to(self, other: "MoebiusMap") -> float:
        """Max entry difference between the two maps, minimized over the +/- lift."""
        d_plus = max(
            abs(self.a - other.a), abs(self.b - other.b),
            abs(self.c - other.c), abs(self.d - other.d),
        )
        d_minus = max(
            abs(self.a + other.a), abs(self.b + other.b),
            abs(self.c + other.c), abs(self.d + other.d),
        )
        return min(d_plus, d_minus)

    def is_identity(self, tol: float = IDENTITY_TOL) -> bool:
        return self.distance_to(MoebiusMap.identity()) <= tol

    def __repr__(self) -> str:
        return "MoebiusMap(%r, %r, %r, %r)" % (self.a, self.b, self.c, self.d)


def _needs_sign_flip(a: complex, b: complex, c: complex, d: complex) -> bool:
    tr = a + d
    if abs(tr) > 1e-12:
        if abs(tr.real) > 1e-14 * abs(tr):
            return tr.real < 0.0
        return tr.imag < 0.0
    # traceless: pin the lift by the first significant entry instead
    for x in (a, b, c, d):
        if abs(x) > 1e-12:
            if abs(x.real) > 1e-14 * abs(x):
                return x.real < 0.0
            return x.imag < 0.0
    return False


class IsometryKind(Enum):
    IDENTITY = "identity"
    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"
    HYPERBOLIC = "hyperbolic"          # real trace, |tr| > 2: pure translation
    LOXODROMIC = "loxodromic"          # non-real trace: translation with twist


@dataclass(frozen=True, eq=False)
class LoxodromicData:
    """Multiplier data of a translation-type isometry.

    lam   -- modulus of the multiplier, > 1
    theta -- rotation angle in turns, in (-1/2, 1/2]
    ell   -- translation length, log(lam)
    """

    lam: float
    theta: float
    ell: float
    fix_minus: BoundaryPoint
    fix_plus: BoundaryPoint


@dataclass(frozen=True, eq=False)
class IsometryClass:
    kind: IsometryKind
    data: LoxodromicData | None = None


def translation_length(m: MoebiusMap) -> float:
    """Translation length 2 |Re arccosh(tr/2)|; zero off the translation types."""
    tr = m.trace
    if abs(tr.imag) <= REAL_TRACE_TOL:
        x = abs(tr.real)
        if x <= 2.0 + PARABOLIC_TRACE_TOL:
            return 0.0
    return 2.0 * abs(cmath.acosh(tr / 2.0).real)


def _eigenvector(m: MoebiusMap, kappa: complex) -> BoundaryPoint:
    v1 = (m.b, kappa - m.a)
    v2 = (kappa - m.d, m.c)
    n1 = math.hypot(abs(v1[0]), abs(v1[1]))
    n2 = math.hypot(abs(v2[0]), abs(v2[1]))
    v = v1 if n1 >= n2 else v2
    if max(n1, n2) < 1e-18:
        raise MoebiusError("no well-defined eigenvector; matrix is a scalar multiple of I")
    return BoundaryPoint(v[0], v[1])


def fixed_points(m: MoebiusMap) -> tuple[BoundaryPoint, BoundaryPoint]:
    """Fixed points on the sphere, ordered (repelling, attracting).

    For a parabolic map the single fixed point is returned twice; use
    classify() to detect that case.  For elliptic maps the dynamical
    ordering is vacuous and the returned order is a deterministic
    convention (eigenvalue with positive imaginary part last).
    """
    if m.is_identity():
        raise MoebiusError("identity has no distinguished fixed points")
    tr = m.trace
    if abs(tr.imag) <= REAL_TRACE_TOL and abs(abs(tr.real) - 2.0) <= PARABOLIC_TRACE_TOL:
        p = _parabolic_fixed_point(m)
        return (p, p)
    disc = tr * tr - 4.0
    sq = cmath.sqrt(disc)
    k_plus = (tr + sq) / 2.0
    k_minus = (tr - sq) / 2.0
    if abs(abs(k_plus) - abs(k_minus)) <= 1e-15 * max(abs(k_plus), 1.0):
        # elliptic: no attracting direction; order by imaginary part of kappa
        if k_plus.imag >= k_minus.imag:
            return (_eigenvector(m, k_minus), _eigenvector(m, k_plus))
        return (_eigenvector(m, k_plus), _eigenvector(m, k_minus))
    if abs(k_plus) > abs(k_minus):
        big, small = k_plus, k_minus
    else:
        big, small = k_minus, k_plus
    return (_eigenvector(m, small), _eigenvector(m, big))


def _parabolic_fixed_point(m: MoebiusMap) -> BoundaryPoint:
    if abs(m.c) > 1e-15:
        return BoundaryPoint((m.a - m.d) / 2.0, m.c)
    return BoundaryPoint.infinity()


def classify(m: MoebiusMap) -> IsometryClass:
    """Classify by trace: identity, elliptic, parabolic, hyperbolic, loxodromic."""
    if m.is_identity():
        return IsometryClass(IsometryKind.IDENTITY)
    tr = m.trace
    real_trace = abs(tr.imag) <= REAL_TRACE_TOL
    if real_trace and abs(abs(tr.real) - 2.0) <= PARABOLIC_TRACE_TOL:
        return IsometryClass(IsometryKind.PARABOLIC)
    if real_trace and abs(tr.real) < 2.0:
        return IsometryClass(IsometryKind.ELLIPTIC)
    u = cmath.acosh(tr / 2.0)  # principal branch, Re u >= 0
    ell = 2.0 * abs(u.real)
    lam = math.exp(ell)
    theta = wrap_turns(u.imag / math.pi)
    fmin, fplus = fixed_points(m)
    data = LoxodromicData(lam=lam, theta=theta, ell=ell, fix_minus=fmin, fix_plus=fplus)
    kind = IsometryKind.HYPERBOLIC if real_trace else IsometryKind.LOXODROMIC
    return IsometryClass(kind, data)


def dist_h3(p: Point3, q: Point3) -> float:
    """Hyperbolic distance: cosh d = 1 + (|z1-z2|^2 + (t1-t2)^2) / (2 t1 t2)."""
    num = abs(p.z - q.z) ** 2 + (p.t - q.t) ** 2
    return math.acosh(max(1.0, 1.0 + num / (2.0 * p.t * q.t)))


@dataclass(frozen=True, eq=False)
class Geodesic3:
    """Unoriented-by-convention geodesic of H^3 given by two ideal endpoints."""

    xi: BoundaryPoint
    eta: BoundaryPoint

    def __post_init__(self) -> None:
        if self.xi.chordal(self.eta) < ENDPOINT_TOL:
            raise MoebiusError("geodesic endpoints coincide")

    @classmethod
    def through(cls, xi, eta) -> "Geodesic3":
        return cls(as_boundary_point(xi), as_boundary_point(eta))


def normalizer_to_axis(geo: Geodesic3) -> MoebiusMap:
    """A Moebius map sending geo.xi -> 0 and geo.eta -> inf."""
    x, e = geo.xi, geo.eta
    return MoebiusMap(x.w2, -x.w1, e.w2, -e.w1)


def dist_to_geodesic(p: Point3, geo: Geodesic3) -> tuple[float, Point3]:
    """Distance from p to geo and the foot of the perpendicular.

    After normalizing geo to the vertical axis (0, inf) the distance from
    (z, t) satisfies cosh d = sqrt(|z|^2 + t^2) / t and the foot is
    (0, sqrt(|z|^2 + t^2)).
    """
    n = normalizer_to_axis(geo)
    q = n.apply_point(p)
    s = math.hypot(abs(q.z), q.t)
    d = math.acosh(max(1.0, s / q.t))
    foot = n.inverse().apply_point(Point3(0.0, s))
    return (d, foot)


@dataclass(frozen=True, eq=False)
class BusemannGap:
    """Value of lim d(p,x) + d(p,y) - d(x,y) as x, y run to the ends of geo."""

    p: Point3
    geo: Geodesic3
    value: float


def busemann_gap(p: Point3, geo: Geodesic3) -> BusemannGap:
    """Closed form of the defining limit: value = 2 log cosh dist(p, geo).

    Nonnegative, zero exactly on the geodesic.
    """
    n = normalizer_to_axis(geo)
    q = n.apply_point(p)
    s = math.hypot(abs(q.z), q.t)
    value = 2.0 * (math.log(s) - math.log(q.t))
    return BusemannGap(p=p, geo=geo, value=max(0.0, value))


def geodesic_point(geo: Geodesic3, s: float) -> Point3:
    """The point of geo at signed arclength s from its summit chart origin."""
    n = normalizer_to_axis(geo)
    return n.inverse().apply_point(Point3(0.0, math.exp(s)))


def point_near_geodesic(geo: Geodesic3, s: float, r: float, psi: float = 0.0) -> Point3:
    """A point at distance r from geo, above the axis parameter s.

    psi rotates the offset direction around the axis (radians).
    """
    n = normalizer_to_axis(geo)
    h = math.exp(s)
    z = h * math.tanh(r) * cmath.exp(1j * psi)
    t = h / math.cosh(r)
    return n.inverse().apply_point(Point3(z, t))
