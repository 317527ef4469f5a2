"""Genus-2 surface-group representations into hyperbolic isometries.

The reference point of the construction is the surface obtained from the
regular hyperbolic octagon with vertex angle pi/4 (all eight vertices
identified; area 4 pi by Gauss-Bonnet).  The four translations pairing
opposite sides are R^k T R^-k, k = 0..3, where T translates by twice the
apothem along the axis through the side-k midpoints and R rotates by
pi/4 about the center.  Those translations generate the fundamental
group but do not themselves satisfy the product-of-commutators relator;
the presentation generators are short words in them,

    a1 = g1,  b1 = g2,  a2 = g2 g4^-1 g1^-1,  b2 = g1 g3 g2^-1,

the shortlex-least choice (exhaustive search over words of length <= 3)
whose commutator relator lands on +-identity and whose exponent-sum
matrix is unimodular.  Unimodularity certifies generation: a subgroup of
infinite index in a surface group is free and cannot have full homology
rank, and a proper finite-index subgroup has too much homology, so the
four words generate; since surface groups are Hopfian, the induced
endomorphism is an isomorphism and the representation is faithful.  All
four images are hyperbolic with the same translation length.

Bending: conjugate so the separating commutator [a1, b1] has axis
(0, infinity), then twist the second handle's generators by the elliptic
rotation E = diag(e^{i angle/2}, e^{-i angle/2}) about that axis.  E
commutes with the diagonalized commutator image, so the relator is
preserved exactly; the resulting representations leave the hyperbolic
plane and acquire complex traces.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass

import numpy as np

from . import _wordarrays as wa
from .moebius import (
    BASEPOINT,
    Geodesic3,
    InvariantError,
    IsometryKind,
    MoebiusError,
    MoebiusMap,
    Point3,
    classify,
    dist_to_geodesic,
    normalizer_to_axis,
    translation_length,
)
from .surface_group import (
    RELATOR_WORD,
    Word,
    _check_letters,
    free_reduce_letters,
)

RELATOR_TOL = 1e-9
FUCHSIAN_IMAG_TOL = 1e-12
COMPLEX_TRACE_TOL = 1e-6
# bending envelope with documented quasi-Fuchsian expectations
BEND_ANGLE_ENVELOPE = 1.0
# growth prunes orbit points beyond Rmax + GROWTH_MARGIN.  The prune drops
# an element only when a prefix of its normal form lies beyond the radius;
# on the octagon such a prefix is at most 3.06 farther out than its
# element, over every normal form of up to 8 letters
GROWTH_MARGIN = 4.0
# below this Rmax the upper half of the radius grid is too short to fit
GROWTH_MIN_RMAX = 6.0

# octagon constants: apothem arccosh(cot(pi/8)), side-pairing translation
# by twice the apothem
OCTAGON_TRANSLATION_LENGTH = 2.0 * math.acosh(1.0 + math.sqrt(2.0))

# presentation generators as words in the opposite-side pairing maps
_GENERATOR_ASSIGNMENT: dict[int, tuple[int, ...]] = {
    1: (1,),
    2: (2,),
    3: (2, -4, -1),
    4: (1, 3, -2),
}


class RepresentationError(InvariantError):
    """Raised for invalid representations or failed searches."""


@dataclass(frozen=True, eq=False)
class Representation:
    """Homomorphism of the genus-2 surface group into Moebius maps.

    images maps every letter (positive and negative) to a MoebiusMap.
    kind is "fuchsian" (real entries) or "bent" (angle records the twist).
    """

    images: dict[int, MoebiusMap]
    kind: str
    angle: float = 0.0
    basepoint: Point3 = BASEPOINT

    def __post_init__(self) -> None:
        if self.kind not in ("fuchsian", "bent"):
            raise RepresentationError("unknown representation kind %r" % (self.kind,))
        images = dict(self.images)
        gens = [x for x in wa.LETTERS if x > 0]
        for x in gens:
            if x not in images:
                raise RepresentationError("missing image for generator %d" % x)
            if -x not in images:
                images[-x] = images[x].inverse()
        object.__setattr__(self, "images", images)
        resid = self.relator_residual()
        if resid > RELATOR_TOL:
            raise RepresentationError(
                "relator image is %.3e away from +-identity (tolerance %.0e)"
                % (resid, RELATOR_TOL)
            )
        if self.kind == "fuchsian":
            worst = max(
                abs(e.imag)
                for x in gens
                for e in images[x].entries()
            )
            if worst > FUCHSIAN_IMAG_TOL:
                raise RepresentationError(
                    "fuchsian representation has imaginary entries up to %.3e" % worst
                )

    def relator_residual(self) -> float:
        m = self(RELATOR_WORD)
        return m.distance_to(MoebiusMap.identity())

    def __call__(self, w: Word) -> MoebiusMap:
        return evaluate(self, w)

    def generator_matrix_array(self) -> np.ndarray:
        """(8, 2, 2) complex array in rank (shortlex letter) order for
        batch evaluation."""
        out = np.empty((len(wa.LETTERS), 2, 2), dtype=complex)
        for r, x in enumerate(wa.LETTERS):
            m = self.images[x]
            out[r] = [[m.a, m.b], [m.c, m.d]]
        return out


def evaluate(rep: Representation, w: Word) -> MoebiusMap:
    _check_letters(w)
    m = MoebiusMap.identity()
    for x in w.letters:
        m = m @ rep.images[x]
    return m


def fuchsian_octagon() -> Representation:
    """The reference representation described in the module docstring."""
    ell = OCTAGON_TRANSLATION_LENGTH
    phi = math.pi / 8.0
    c, s = math.cos(phi), math.sin(phi)
    rot = np.array([[c, s], [-s, c]])
    trans = np.diag([math.exp(ell / 2.0), math.exp(-ell / 2.0)])
    pairing = {}
    for k in range(4):
        rk = np.linalg.matrix_power(rot, k)
        m = rk @ trans @ rk.T
        pairing[k + 1] = m
        pairing[-(k + 1)] = np.linalg.inv(m)

    images: dict[int, MoebiusMap] = {}
    for letter, word in _GENERATOR_ASSIGNMENT.items():
        m = np.eye(2)
        for x in word:
            m = m @ pairing[x]
        images[letter] = MoebiusMap(m[0, 0], m[0, 1], m[1, 0], m[1, 1])
    return Representation(images=images, kind="fuchsian")


def bending_curve_word() -> Word:
    """The separating curve the bending deformation twists along."""
    return Word((1, 2, -1, -2))


def bend(rep: Representation, angle: float) -> Representation:
    """Twist the second handle by an elliptic rotation about [a1, b1]'s axis.

    The returned representation is conjugated so that axis is (0, inf)
    with the attracting end at infinity.  angle = 0 gives a conjugate of
    rep (identical spectrum); nonzero angles give complex traces.
    """
    if rep.kind != "fuchsian":
        raise RepresentationError("bending starts from a fuchsian representation")
    if not abs(angle) < math.pi:
        raise RepresentationError("bend angle must satisfy |angle| < pi")
    core = evaluate(rep, bending_curve_word())
    cl = classify(core)
    if cl.kind not in (IsometryKind.HYPERBOLIC, IsometryKind.LOXODROMIC):
        raise RepresentationError("bending curve image is not a translation")
    # normalize: repelling -> 0, attracting -> inf; endpoints are real so
    # the conjugator keeps fuchsian data real
    n = normalizer_to_axis(Geodesic3(cl.data.fix_minus, cl.data.fix_plus))
    half = cmath.exp(0.5j * angle)
    twist = MoebiusMap(half, 0.0, 0.0, 1.0 / half)
    images: dict[int, MoebiusMap] = {}
    for letter in (1, 2):
        images[letter] = rep.images[letter].conjugate_by(n)
    for letter in (3, 4):
        moved = rep.images[letter].conjugate_by(n)
        images[letter] = moved.conjugate_by(twist)
    return Representation(
        images=images,
        kind="bent",
        angle=float(angle),
        basepoint=rep.basepoint,
    )


def stable_length(rep: Representation, w: Word) -> float:
    """Translation length of the image; the per-step orbit displacement limit."""
    if not free_reduce_letters(w.letters):
        raise RepresentationError("stable length needs a nontrivial word")
    return translation_length(evaluate(rep, w))


def stable_lengths(mats: np.ndarray) -> list[float]:
    """stable_length of each word from its batch product (wa._times),
    bit for bit, read from the trace a + d alone.

    wa.translating picks the words of nonzero length by
    translation_length's thresholds, which ignore the sign of the trace.
    A trace past them has modulus above 1e-12, so evaluate's canonical sign
    negates it by _needs_sign_flip's trace rule (np.hypot is the modulus
    abs() takes, and (-a) + (-d) is exactly -(a + d)).  Each length is
    then translation_length's cmath.acosh, never np.arccosh.
    """
    flat = mats.reshape(-1, 4)
    if not np.isfinite(np.abs(flat)).all():
        raise MoebiusError("non-finite matrix entries in a product")
    tr = flat[:, 0] + flat[:, 3]
    live = wa.translating(tr)
    tr = tr[live]
    flip = np.where(np.abs(tr.real) > 1e-14 * np.hypot(tr.real, tr.imag),
                    tr.real < 0.0, tr.imag < 0.0)
    lengths = np.zeros(flat.shape[0])
    lengths[live] = [2.0 * abs(cmath.acosh(t / 2.0).real)
                     for t in np.where(flip, -tr, tr).tolist()]
    return lengths.tolist()


def _rescaled(mat: np.ndarray, scale: float) -> tuple[np.ndarray, float]:
    peak = float(np.abs(mat).max())
    if not math.isfinite(peak) or peak == 0.0:
        raise RepresentationError("matrix power lost all precision")
    return mat / peak, scale + math.log(peak)


def power_displacement(m: MoebiusMap, n: int, y: Point3) -> float:
    """d(m^n . y, y), stable for powers whose entries overflow doubles.

    Squares with an explicit log-scale factor instead of renormalizing by
    the (catastrophically cancelled) determinant, then reads the distance
    from the Frobenius norm: for det-1 g, cosh d(g.j, j) = ||g||_F^2 / 2,
    and a point y is handled by conjugating with the map j -> y.
    """
    if n < 1:
        raise RepresentationError("power must be positive")
    acc, acc_s = np.eye(2, dtype=complex), 0.0
    base, base_s = _rescaled(np.array([[m.a, m.b], [m.c, m.d]], dtype=complex), 0.0)
    k = n
    while True:
        if k & 1:
            acc, acc_s = _rescaled(acc @ base, acc_s + base_s)
        k >>= 1
        if not k:
            break
        base, base_s = _rescaled(base @ base, 2.0 * base_s)
    rt = math.sqrt(y.t)
    to_y = np.array([[rt, y.z / rt], [0.0, 1.0 / rt]], dtype=complex)
    from_y = np.array([[1.0 / rt, -y.z / rt], [0.0, rt]], dtype=complex)
    conj = from_y @ acc @ to_y
    log_cosh = 2.0 * acc_s + math.log(float((np.abs(conj) ** 2).sum()) / 2.0)
    if log_cosh > 40.0:
        return log_cosh + math.log(2.0)
    return math.acosh(max(1.0, math.exp(log_cosh)))


def orbit_length_estimate(rep: Representation, w: Word, n: int = 64,
                          y: Point3 | None = None) -> float:
    """(1/n) d(pi(w^n) y, y) — the defining displacement average.

    The limit over n is independent of y; at finite n the estimate
    carries an O(dist(y, axis)/n) bias, so y defaults to the point of
    the axis nearest the representation basepoint.
    """
    m = evaluate(rep, w)
    if y is None:
        cl = classify(m)
        if cl.data is None:
            y = rep.basepoint
        else:
            geo = Geodesic3(cl.data.fix_minus, cl.data.fix_plus)
            _, y = dist_to_geodesic(rep.basepoint, geo)
    return power_displacement(m, n, y) / float(n)


@dataclass(frozen=True, eq=False)
class LengthSpectrum:
    """Translation lengths on the rows of the class table
    (``_wordarrays.conjugacy_classes``): one row per rotation class that
    no relator swap joins to an earlier row.  A few rows share a
    conjugacy class, such as b1 and b1 b2 a2 B2 A2."""

    rep_id: str
    entries: dict[Word, float]
    normalization: str = "raw"
    h: float | None = None

    def lengths(self) -> list[float]:
        return list(self.entries.values())


def spectrum_rows(rep: Representation,
                  maxlen: int) -> tuple[np.ndarray, list[float]]:
    """The class table's rank rows for 1 <= maxlen < 8 and their stable
    lengths under rep: the spectrum without Word objects."""
    if not 1 <= maxlen < len(wa.RELATOR):
        raise RepresentationError("maxlen must be at least 1 and below %d"
                                  % len(wa.RELATOR))
    rows, mats = wa.conjugacy_classes(maxlen, rep.generator_matrix_array())
    return rows, stable_lengths(mats)


def compute_spectrum(rep: Representation, maxlen: int) -> LengthSpectrum:
    """The length spectrum on the class table for 1 <= maxlen < 8."""
    rows, lengths = spectrum_rows(rep, maxlen)
    entries = {Word(wa.ranks_to_letters(row)): ell
               for row, ell in zip(rows, lengths)}
    return LengthSpectrum(rep_id=representation_hash(rep), entries=entries)


def normalize_spectrum(spec: LengthSpectrum, h: float) -> LengthSpectrum:
    if not (h > 0.0):
        raise RepresentationError("normalization rate must be positive")
    if spec.normalization != "raw":
        raise RepresentationError("spectrum is already normalized")
    return LengthSpectrum(
        rep_id=spec.rep_id,
        entries={w: h * v for w, v in spec.entries.items()},
        normalization="entropy_normalized",
        h=h,
    )


@dataclass(frozen=True, eq=False)
class GrowthEstimate:
    """Exponential orbit-growth rate from ball counts."""

    h: float
    radii: list[float]
    counts: list[int]
    residual: float


def _orbit_distances_of(mats: np.ndarray, y: Point3) -> np.ndarray:
    """Distances d(m.y, y) for a batch of matrices; m and -m give the
    same bits.

    Real matrices at a basepoint with real z take a float64 branch whose
    every operation is the real part of the complex one, so it gives the
    same bits: the imaginary parts there are zeros, and NumPy divides a
    complex by a real as a multiply by the reciprocal (Smith's method).
    """
    a = mats[:, 0, 0]
    b = mats[:, 0, 1]
    c = mats[:, 1, 0]
    d = mats[:, 1, 1]
    if not np.iscomplexobj(mats) and y.z.imag == 0.0:
        x0, t0 = y.z.real, y.t
        q = c * x0 + d
        den = q * q + (np.abs(c) * t0) ** 2
        zr = ((a * x0 + b) * q + a * c * t0 * t0) * (1.0 / den)
        t = t0 / den
        cosh_d = 1.0 + ((zr - x0) ** 2 + (t - t0) ** 2) / (2.0 * t * t0)
        return np.arccosh(np.maximum(1.0, cosh_d))
    czd = c * y.z + d
    den = np.abs(czd) ** 2 + (np.abs(c) * y.t) ** 2
    z = ((a * y.z + b) * np.conj(czd) + a * np.conj(c) * y.t * y.t) / den
    t = y.t / den
    cosh_d = 1.0 + (np.abs(z - y.z) ** 2 + (t - y.t) ** 2) / (2.0 * t * y.t)
    return np.arccosh(np.maximum(1.0, cosh_d))


def orbit_point_distances(rep: Representation, prune_radius: float | None = None,
                          max_word_length: int | None = None) -> np.ndarray:
    """Sorted orbit distances of distinct group elements from the basepoint.

    Each element is visited once, by its shortlex normal form
    (``_wordarrays.normal_forms``); with prune_radius set, only those
    within it are counted and extended.  Normal forms are prefix-closed,
    so an element is found exactly when every prefix of its normal form
    lies within the radius: elements near the radius may be missed, and
    ``GROWTH_MARGIN`` bounds how far inside it that can happen.  A
    representation whose generator entries all have zero imaginary part
    composes in float64, and at a basepoint with real z its distances
    take the float64 branch of ``_orbit_distances_of``: the distances
    are the same bit for bit.  Without a length cap, keeping a 64-letter
    element raises: it has a live child, which would need 65 letters.
    """
    if prune_radius is None and max_word_length is None:
        raise RepresentationError("unbounded enumeration: set a prune radius or length cap")
    gens = wa.exact_real(rep.generator_matrix_array())
    radius = math.inf if prune_radius is None else prune_radius
    cap = 65 if max_word_length is None else max_word_length
    dists: list[np.ndarray] = [np.zeros(1)]

    def near(products: tuple[np.ndarray, ...]) -> np.ndarray:
        dist = _orbit_distances_of(products[0], rep.basepoint)
        inside = dist <= radius
        dists.append(dist[inside])
        return inside

    for words, _ in wa.normal_forms((gens,), min(cap, 64), keep=near):
        # every accepted word has an accepted child, one letter longer
        if words.shape[1] == 64 < cap:
            raise RepresentationError("orbit enumeration failed to terminate")
    # sorted in place: np.sort would hold a second copy of every distance
    out = np.concatenate(dists)
    out.sort()
    return out


def estimate_growth(rep: Representation, Rmax: float) -> GrowthEstimate:
    """Exponential growth rate of orbit-ball counts N(R), R up to Rmax.

    Words are pruned once their orbit distance exceeds Rmax + GROWTH_MARGIN;
    the growth rate is the least-squares slope of log N(R) over the
    upper half of the radius grid.
    """
    if Rmax < GROWTH_MIN_RMAX:
        raise RepresentationError("Rmax below %g leaves too few usable grid "
                                  "points" % GROWTH_MIN_RMAX)
    dists = orbit_point_distances(rep, prune_radius=Rmax + GROWTH_MARGIN)
    radii = [1.0 + 0.5 * k for k in range(int(round((Rmax - 1.0) / 0.5)) + 1)]
    counts = [int(np.searchsorted(dists, r, side="left")) for r in radii]
    upper = [(r, n) for r, n in zip(radii, counts) if r >= radii[len(radii) // 2] and n > 0]
    if len(upper) < 3:
        raise RepresentationError("not enough grid points with nonzero counts")
    xs = np.array([r for r, _ in upper])
    ys = np.log(np.array([n for _, n in upper], dtype=float))
    coeffs = np.polyfit(xs, ys, 1)
    fit = np.polyval(coeffs, xs)
    residual = float(np.sqrt(np.mean((ys - fit) ** 2)))
    return GrowthEstimate(h=float(coeffs[0]), radii=radii, counts=counts, residual=residual)


def find_complex_trace_element(rep: Representation, maxlen: int) -> Word:
    """Shortlex-first word whose image has decisively non-real trace.

    Such an image is loxodromic: every other kind has a real trace.  The
    first normal form found is the first reduced word: a word's normal
    form has its image and comes no later in shortlex order.
    """
    for words, (mats,) in wa.normal_forms((rep.generator_matrix_array(),),
                                          maxlen):
        hits = np.flatnonzero(np.abs(wa.traces(mats).imag) > COMPLEX_TRACE_TOL)
        if hits.size:
            return Word(wa.ranks_to_letters(words[hits[0]]))
    raise RepresentationError(
        "no word of length <= %d has non-real trace; the representation "
        "looks conjugate into the real maps" % maxlen
    )


# -- serialization -----------------------------------------------------------

# the schema tag of every artifact
SCHEMA = "qfcert/1"


def envelope(kind: str) -> dict:
    """The keys that open every JSON artifact of this kind."""
    return {"schema": SCHEMA, "type": kind}


def json_number(value):
    """value, where JSON input gives a number: an int or a float.  A bool,
    which float() and int() read as 0 or 1, and a str, which they parse,
    raise TypeError; any other value is left to the conversion."""
    if isinstance(value, bool):
        raise TypeError("expected a number, not a boolean")
    if isinstance(value, str):
        raise TypeError("expected a number, got %r" % value)
    return value


def json_text(value) -> str:
    """value, where JSON input gives a string; anything else raises
    TypeError."""
    if not isinstance(value, str):
        raise TypeError("expected a string")
    return value


def _complex_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def representation_to_dict(rep: Representation) -> dict:
    images = {name: [_complex_pair(e) for e in rep.images[x].entries()]
              for x, name in zip(wa.LETTERS, wa.NAMES) if x > 0}
    return {
        **envelope("representation"),
        "genus": 2,
        "kind": rep.kind,
        "angle": float(rep.angle),
        "basepoint": [float(rep.basepoint.z.real), float(rep.basepoint.z.imag),
                      float(rep.basepoint.t)],
        "images": images,
    }


def representation_json(rep: Representation) -> str:
    return json.dumps(representation_to_dict(rep), sort_keys=True, indent=2) + "\n"


def representation_hash(rep: Representation) -> str:
    import hashlib

    blob = json.dumps(representation_to_dict(rep), sort_keys=True,
                      separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def conjugate_representation(rep: Representation, g: MoebiusMap) -> Representation:
    """The same marked group in the g-chart: every image becomes g m g^-1.

    Keeps the kind tag, so conjugating a fuchsian representation needs a
    real g (complex conjugators leave the real-entry class).
    """
    images = {k: v.conjugate_by(g) for k, v in rep.images.items() if k > 0}
    return Representation(
        images=images,
        kind=rep.kind,
        angle=rep.angle,
        basepoint=rep.basepoint,
    )
