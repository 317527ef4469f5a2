"""General geodesic geometry of H^3, kept as an independent reference.

No command needs these: the witness diagnostic works in a closed chart
formula (``certificates.diagnostic_delta``).  They stay here, tested
against closed forms in ``test_moebius.py``, as the general-geometry
oracle that diagnostic is checked against.

``translation_lengths`` is the batch ``np.arccosh`` length that the
limit-set sample and the class table once thresholded at 1e-9 to keep
translations; ``_wordarrays.translating`` is checked against it, and the
certificate-scan references still take their lengths from it.
"""

import math

import numpy as np

from qfcert.moebius import (
    ENDPOINT_TOL,
    BoundaryPoint,
    Geodesic3,
    MoebiusError,
    Point3,
    busemann_gap,
    dist_h3,
    normalizer_to_axis,
)


def geodesic_through_points(p: Point3, q: Point3) -> Geodesic3:
    """The geodesic of H^3 containing two distinct interior points."""
    scale = max(1.0, abs(p.z), abs(q.z))
    if abs(p.z - q.z) <= 1e-13 * scale:
        if abs(p.t - q.t) <= 1e-13 * max(p.t, q.t):
            raise MoebiusError("points coincide; geodesic is not unique")
        return Geodesic3(BoundaryPoint.from_complex(p.z), BoundaryPoint.infinity())
    e = (q.z - p.z) / abs(q.z - p.z)
    x2 = abs(q.z - p.z)
    # circle center on the boundary line through p.z with direction e
    xc = (x2 * x2 + q.t * q.t - p.t * p.t) / (2.0 * x2)
    rho = math.hypot(xc, p.t)
    return Geodesic3(
        BoundaryPoint.from_complex(p.z + (xc - rho) * e),
        BoundaryPoint.from_complex(p.z + (xc + rho) * e),
    )


def midpoint(p: Point3, q: Point3) -> Point3:
    """Midpoint of the geodesic segment [p, q]."""
    if dist_h3(p, q) < 1e-14:
        return p
    geo = geodesic_through_points(p, q)
    n = normalizer_to_axis(geo)
    tp = n.apply_point(p).t
    tq = n.apply_point(q).t
    return n.inverse().apply_point(Point3(0.0, math.sqrt(tp * tq)))


def geodesic_distance(geoA: Geodesic3, geoB: Geodesic3) -> tuple[float, Point3, Point3]:
    """Distance between two geodesics with the feet of the common perpendicular.

    Returns (d, foot_on_A, foot_on_B); d = 0 with equal feet when the
    geodesics cross.  Raises when the geodesics share an ideal endpoint
    (asymptotic: the infimum 0 is not attained).
    """
    for pa in (geoA.xi, geoA.eta):
        for pb in (geoB.xi, geoB.eta):
            if pa.chordal(pb) < ENDPOINT_TOL:
                raise MoebiusError("geodesics share an endpoint; no common perpendicular")
    n = normalizer_to_axis(geoA)
    u = n.apply_boundary(geoB.xi).to_complex()
    v = n.apply_boundary(geoB.eta).to_complex()
    m = (u + v) / 2.0
    r = abs(v - u) / 2.0
    e = (v - u) / abs(v - u)
    beta = (m * e.conjugate()).real
    a2 = abs(m) ** 2 + r * r
    if abs(beta) * r <= 1e-18 * a2:
        c = 0.0
    else:
        disc = a2 * a2 - 4.0 * beta * beta * r * r
        c = (math.sqrt(max(0.0, disc)) - a2) / (2.0 * beta * r)
    c = min(1.0, max(-1.0, c))
    foot_b_n = Point3(m + r * c * e, r * math.sqrt(max(1e-300, 1.0 - c * c)))
    s = math.hypot(abs(foot_b_n.z), foot_b_n.t)
    d = math.acosh(max(1.0, s / foot_b_n.t))
    n_inv = n.inverse()
    foot_a = n_inv.apply_point(Point3(0.0, s))
    foot_b = n_inv.apply_point(foot_b_n)
    return (d, foot_a, foot_b)


def axis_crossing_gap(geoA: Geodesic3, geoB: Geodesic3, diag: Geodesic3) -> float:
    """Busemann gap of diag at the midpoint of the common perpendicular of A, B.

    When A and B cross, the midpoint is their intersection point.
    """
    same = (
        geoA.xi.chordal(geoB.xi) < ENDPOINT_TOL and geoA.eta.chordal(geoB.eta) < ENDPOINT_TOL
    ) or (
        geoA.xi.chordal(geoB.eta) < ENDPOINT_TOL and geoA.eta.chordal(geoB.xi) < ENDPOINT_TOL
    )
    if same:
        raise MoebiusError("geodesics are identical")
    _, foot_a, foot_b = geodesic_distance(geoA, geoB)
    p = midpoint(foot_a, foot_b)
    return busemann_gap(p, diag).value


def translation_lengths(mats: np.ndarray) -> np.ndarray:
    """Vectorized trace-based translation length (0 for non-translation types)."""
    tr = mats[..., 0, 0] + mats[..., 1, 1]
    half = tr.astype(complex) / 2.0
    u = np.arccosh(half)
    ell = 2.0 * np.abs(u.real)
    # real trace with |tr| <= 2: elliptic/parabolic/identity -> 0
    real_tr = np.abs(tr.imag) <= 1e-9
    ell[real_tr & (np.abs(tr.real) <= 2.0 + 1e-9)] = 0.0
    return ell
