"""Boundary-circle combinatorics and sampled limit sets.

The abstract boundary circle of the genus-2 group is coordinatized once
and for all by the reference plane representation: a group element's
boundary points are realized as the fixed points of its reference image,
placed on the unit circle of the disk model.  Pair configurations
(linked / unlinked-aligned / unlinked-misaligned) are decided by circular
order of those angles and are topological data of the group, independent
of the representation under study.

For a representation leaving the plane, the limit set is sampled on the
dense subset of attracting fixed points: the word w contributes the
attracting fixed point of its image, which is exactly the boundary-map
image of w's attracting boundary point by equivariance.

Spiraling is witnessed in the chart that puts a chosen complex-multiplier
element gamma at (0, infinity): there the gamma action is the linear map
z -> mu z with mu = Lambda e^{2 pi i Theta}, so radius and argument lift
of sample points obey exact per-translate arithmetic.  The witness is
four boundary points at alternating half-turn argument levels with
strictly growing radii: their position order along the group boundary
ray toward gamma's attracting point survives in the images as one
crossing pair and one disjoint pair of axes, which is the order reversal
that downstream certificates consume.
"""

from __future__ import annotations

import cmath
import enum
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import _wordarrays as wa
from .moebius import (
    BoundaryPoint,
    Geodesic3,
    IsometryKind,
    MoebiusMap,
    classify,
    normalizer_to_axis,
    wrap_turns,
)
from .representations import (
    Representation,
    RepresentationError,
    evaluate,
    fuchsian_octagon,
)
from .surface_group import Word

# angular separations below this (in turns) make pair classification
# meaningless
DEGENERATE_TOL = 1e-8
# two axes are considered crossing when their common perpendicular is
# shorter than this
AXIS_CROSS_TOL = 1e-8
# a net rotation smaller than this per step cannot be resolved by sampling
MIN_THETA = 1e-4

_REFERENCE: Representation | None = None


class BoundaryError(ValueError):
    """Raised for invalid boundary-combinatorics requests."""


def reference_representation() -> Representation:
    """The plane representation that coordinatizes the group boundary."""
    global _REFERENCE
    if _REFERENCE is None:
        _REFERENCE = fuchsian_octagon()
    return _REFERENCE


class PairConfig(enum.Enum):
    LINKED = "linked"
    UNLINKED_ALIGNED = "unlinked_aligned"
    UNLINKED_MISALIGNED = "unlinked_misaligned"
    DEGENERATE = "degenerate"


@dataclass(frozen=True)
class BoundaryPointRef:
    """A boundary point named by a word, placed by its reference angle."""

    word: Word
    angle: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.angle < 1.0:
            raise BoundaryError("angle must be in [0, 1) turns")


def disk_angle(p: BoundaryPoint) -> float:
    """Angle (turns in [0,1)) of a half-plane boundary point on the disk circle.

    The half-plane boundary maps to the unit circle by z -> (z - i)/(z + i);
    in projective coordinates the image is (w1 - i w2) / (w1 + i w2).
    """
    u = p.w1 - 1j * p.w2
    v = p.w1 + 1j * p.w2
    val = u * v.conjugate()
    if val == 0:
        raise BoundaryError("point maps to the disk center, not the circle")
    return math.atan2(val.imag, val.real) / (2.0 * math.pi) % 1.0


def fixed_angles(w: Word) -> tuple[float, float]:
    """(repelling angle, attracting angle) of w on the reference circle."""
    if not w.letters:
        raise BoundaryError("trivial word has no fixed points")
    m = evaluate(reference_representation(), w)
    cl = classify(m)
    if cl.kind not in (IsometryKind.HYPERBOLIC, IsometryKind.LOXODROMIC):
        raise BoundaryError(
            "reference image is %s; fixed angles need a translation-type element"
            % cl.kind.name.lower())
    return disk_angle(cl.data.fix_minus), disk_angle(cl.data.fix_plus)


def _circular_gap(a: float, b: float) -> float:
    return abs(wrap_turns(a - b))


def classify_angle_pairs(alpha: tuple[float, float], beta: tuple[float, float],
                         tol: float = DEGENERATE_TOL) -> PairConfig:
    """Configuration of two ordered point pairs on a circle (angles in turns).

    Linked when the beta points separate the alpha points.  When both
    beta points share one complementary arc, the configuration is aligned
    exactly if the four points read alpha1, beta1, beta2, alpha2 or
    alpha1, alpha2, beta2, beta1 around the circle; the other two
    patterns are misaligned.  Flipping a single pair toggles
    aligned/misaligned; flipping both, or swapping the roles of the
    pairs, preserves the configuration.
    """
    a1, a2 = alpha
    b1, b2 = beta
    pts = (a1, a2, b1, b2)
    for i in range(4):
        for j in range(i + 1, 4):
            if _circular_gap(pts[i], pts[j]) < tol:
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


PAIR_CONFIGS = tuple(PairConfig)


def pair_config_grid(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """classify_angle_pairs(alpha[i], beta[j]) for every i, j, bit for bit.

    alpha and beta are (n, 2) and (m, 2) arrays of angle pairs in turns;
    the result is an (n, m) int8 array of indices into PAIR_CONFIGS.
    """
    a1, a2 = alpha[:, 0, None], alpha[:, 1, None]
    b1, b2 = beta[None, :, 0], beta[None, :, 1]
    degenerate = np.zeros((alpha.shape[0], beta.shape[0]), dtype=bool)
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


def classify_pairs(a: Word, b: Word) -> PairConfig:
    """Configuration of the fixed-point pairs of two words on the group boundary."""
    return classify_angle_pairs(fixed_angles(a), fixed_angles(b))


def classify_real_pairs(alpha: tuple[float, float],
                        beta: tuple[float, float]) -> PairConfig:
    """Configuration of two ordered pairs of reals on the circle R u {inf}.

    Exact order combinatorics: no tolerance, so points whose magnitudes
    differ by hundreds of orders (which would collapse any angular chart)
    still classify correctly.  The four values must be distinct.
    """
    a1, a2 = alpha
    b1, b2 = beta
    if len({a1, a2, b1, b2}) < 4:
        return PairConfig.DEGENERATE
    # the cyclic order on R u {inf} restricted to four finite points is
    # their sorted order on R
    labels = "".join({a1: "A", a2: "a", b1: "B", b2: "b"}[x]
                     for x in sorted((a1, a2, b1, b2)))
    rotations = {labels[i:] + labels[:i] for i in range(4)}
    if rotations & {"ABba", "AabB"}:
        return PairConfig.UNLINKED_ALIGNED
    if rotations & {"AbBa", "AaBb"}:
        return PairConfig.UNLINKED_MISALIGNED
    return PairConfig.LINKED


@dataclass(frozen=True, eq=False)
class LimitSetSample:
    """Sampled limit set: boundary words with reference angles and images.

    Backed by arrays so that million-point samples stay compact; `entries`
    materializes the (word, reference angle, image point) triples.
    Images are stored as projective pairs; `image_complex` divides them
    out, yielding inf for points at infinity.
    """

    rep: Representation
    maxlen: int
    ranks: np.ndarray        # (n, maxlen) int8, -1 padded
    angles: np.ndarray       # (n,) float64 reference angles in turns
    image_pairs: np.ndarray  # (n, 2) complex, projective attracting points

    def __len__(self) -> int:
        return int(self.angles.shape[0])

    def word_at(self, i: int) -> Word:
        return Word(wa.ranks_to_letters(self.ranks[i]))

    def image_complex(self) -> np.ndarray:
        w1 = self.image_pairs[:, 0]
        w2 = self.image_pairs[:, 1]
        out = np.full(w1.shape, np.inf + 0j, dtype=complex)
        ok = np.abs(w2) > 1e-15
        out[ok] = w1[ok] / w2[ok]
        return out

    def take(self, indices) -> "LimitSetSample":
        """Sub-sample in the given order (for ordered lift input)."""
        idx = np.asarray(indices, dtype=int)
        return LimitSetSample(rep=self.rep, maxlen=self.maxlen,
                              ranks=self.ranks[idx], angles=self.angles[idx],
                              image_pairs=self.image_pairs[idx])

    @property
    def entries(self) -> list[tuple[Word, float, complex]]:
        zs = self.image_complex()
        return [(self.word_at(i), float(self.angles[i]), complex(zs[i]))
                for i in range(len(self))]


def _accumulate_level(words: np.ndarray, ref_gens: np.ndarray,
                      rep_gens: np.ndarray, chunk: int = 1 << 16):
    """Per-level (angles, attracting pairs, keep mask) without holding matrices."""
    n = words.shape[0]
    angles = np.empty(n, dtype=float)
    pairs = np.empty((n, 2), dtype=complex)
    keep = np.ones(n, dtype=bool)
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        part = words[lo:hi]
        ref_m = wa.compose_matrices(part, ref_gens)
        rep_m = wa.compose_matrices(part, rep_gens)
        ok = (wa.translation_lengths(ref_m) > 1e-9) \
            & (wa.translation_lengths(rep_m) > 1e-9)
        angles[lo:hi] = wa.disk_angles_turns(wa.attracting_fixed_pairs(ref_m))
        pairs[lo:hi] = wa.attracting_fixed_pairs(rep_m)
        keep[lo:hi] = ok
    return angles, pairs, keep


def limit_set_sample(rep: Representation, maxlen: int) -> LimitSetSample:
    """Attracting fixed points of all words up to maxlen, one per boundary point.

    Words sharing a boundary point (powers and roots) are merged, keeping
    the earliest word in length-then-shortlex order.
    """
    if maxlen < 1:
        raise BoundaryError("maxlen must be at least 1")
    if rep.presentation.genus != 2:
        raise BoundaryError("sampling is implemented for the genus-2 group")
    ref = reference_representation()
    ref_gens = ref.generator_matrix_array()
    rep_gens = rep.generator_matrix_array()
    levels = wa.reduced_word_levels(maxlen)

    all_ranks: list[np.ndarray] = []
    all_angles: list[np.ndarray] = []
    all_pairs: list[np.ndarray] = []
    for words in levels:
        if words.shape[0] == 0:
            continue
        angles, pairs, keep = _accumulate_level(words, ref_gens, rep_gens)
        padded = np.full((words.shape[0], maxlen), -1, dtype=np.int8)
        padded[:, :words.shape[1]] = words
        all_ranks.append(padded[keep])
        all_angles.append(angles[keep])
        all_pairs.append(pairs[keep])
    ranks = np.concatenate(all_ranks)
    angles = np.concatenate(all_angles)
    pairs = np.concatenate(all_pairs)

    # merge words sharing a boundary point; first occurrence (shortest,
    # then shortlex) wins because levels were appended in order
    quant = np.round(angles, 12)
    _, first = np.unique(quant, return_index=True)
    first.sort()
    return LimitSetSample(rep=rep, maxlen=maxlen, ranks=ranks[first],
                          angles=angles[first], image_pairs=pairs[first])


def normalize_at(rep: Representation, gamma: Word) -> tuple[Representation, MoebiusMap]:
    """Conjugate rep so gamma's image fixes (0, infinity); returns (rep', chart).

    The chart sends the repelling point to 0 and the attracting point to
    infinity, so the gamma action on the plane is z -> mu z with
    mu = Lambda e^{2 pi i theta}.  The residual scaling freedom is pinned
    by sending the attracting point of the first generator whose axis
    stays off gamma's axis to 1; the chart is then a function of
    (rep, gamma) alone, so conjugating rep moves every input and leaves
    the chart values unchanged.
    """
    m = evaluate(rep, gamma)
    cl = classify(m)
    if cl.kind != IsometryKind.LOXODROMIC:
        raise BoundaryError(
            "normalization chart needs a strictly loxodromic element, got %s"
            % cl.kind.name.lower())
    chart = normalizer_to_axis(Geodesic3(cl.data.fix_minus, cl.data.fix_plus))
    for letter in sorted(k for k in rep.images if k > 0):
        pin_cl = classify(rep.images[letter])
        if pin_cl.kind not in (IsometryKind.LOXODROMIC,
                               IsometryKind.HYPERBOLIC):
            continue
        pin = pin_cl.data.fix_plus
        if min(pin.chordal(cl.data.fix_minus),
               pin.chordal(cl.data.fix_plus)) < 1e-6:
            continue
        z = chart(pin).to_complex()
        chart = MoebiusMap(1.0 / z, 0.0, 0.0, 1.0) @ chart
        break
    else:
        raise BoundaryError("cannot pin the chart gauge: every generator "
                            "axis meets the normalization axis")
    inv = chart.inverse()
    images = {k: chart @ v @ inv for k, v in rep.images.items() if k > 0}
    conjugated = Representation(rep.presentation, images, kind=rep.kind,
                                angle=rep.angle, basepoint=rep.basepoint)
    return conjugated, chart


def _lift_path(zs) -> list[tuple[float, float]]:
    """(modulus, continuous argument lift in turns) along an ordered path."""
    out: list[tuple[float, float]] = []
    s = 0.0
    prev = None
    for z in zs:
        z = complex(z)
        if not (math.isfinite(z.real) and math.isfinite(z.imag)) or z == 0:
            raise BoundaryError("argument lift needs finite nonzero points")
        arg = math.atan2(z.imag, z.real) / (2.0 * math.pi)
        if prev is None:
            s = arg
        else:
            s += wrap_turns(arg - prev)
        prev = arg
        out.append((abs(z), s))
    return out


def argument_lift(sample: LimitSetSample,
                  chart: MoebiusMap) -> list[tuple[float, float]]:
    """(r, s) for each sample point, in sample order, in the given chart.

    s is the continuous lift of the argument in turns: the first value is
    the principal argument in (-1/2, 1/2]; each successive value adds the
    representative of the argument difference in (-1/2, 1/2].  The caller
    orders the sample (one boundary side, positions increasing); points
    at 0 or infinity in the chart are errors.
    """
    w1 = chart.a * sample.image_pairs[:, 0] + chart.b * sample.image_pairs[:, 1]
    w2 = chart.c * sample.image_pairs[:, 0] + chart.d * sample.image_pairs[:, 1]
    bad = (np.abs(w2) <= 1e-14 * np.abs(w1)) | (np.abs(w1) <= 1e-14 * np.abs(w2))
    if bad.any():
        raise BoundaryError("argument lift needs finite nonzero points")
    return _lift_path(w1 / w2)


@dataclass(frozen=True)
class SpiralWitness:
    """Four boundary points spiraling toward a complex-multiplier element.

    Their position order along the boundary ray toward the attracting
    point xi_star is 1, 2, 3, 4, while their chart images alternate sides
    of the origin at strictly growing radii: the axes joining images 1-4
    and 2-3 cross, while those joining 1-3 and 2-4 stay disjoint and
    aligned.
    """

    gamma: Word
    Lambda: float
    Theta: float
    indices_n: tuple[int, int, int, int]
    indices_m: tuple[int, int, int, int]
    xi: tuple[BoundaryPointRef, BoundaryPointRef, BoundaryPointRef, BoundaryPointRef]
    xi_star: BoundaryPointRef
    radii: tuple[float, float, float, float]
    arglift: tuple[float, float, float, float]
    R0: float
    r0: float


def _angle_to_boundary_point(angle: float) -> BoundaryPoint:
    """Inverse of `disk_angle`: the half-plane boundary point at a disk angle."""
    w = complex(math.cos(2.0 * math.pi * angle), math.sin(2.0 * math.pi * angle))
    if abs(w - 1.0) < 1e-15:
        return BoundaryPoint(1.0, 0.0)
    val = 1j * (1.0 + w) / (1.0 - w)
    # the half-plane boundary is real; the imaginary part is rounding noise
    return BoundaryPoint(complex(val.real), 1.0)


def _axis_gap(u: complex, v: complex) -> float:
    """Distance between the vertical axis (0, inf) and the geodesic (u, v).

    Multiplicative form of cosh(distance) = (v + u)/(v - u): the deviation
    from 1 is computed as 2u/(v - u) without cancellation, so crossings at
    extreme radius ratios are resolved far below the float noise floor of
    the generic two-geodesic formula.
    """
    if u == 0 or v == 0 or not all(map(math.isfinite,
                                       (u.real, u.imag, v.real, v.imag))):
        raise BoundaryError("axis gap needs finite nonzero endpoints")
    if abs(u) > abs(v):
        u, v = v, u
    if v == u:
        raise BoundaryError("geodesic endpoints coincide")
    eta = 2.0 * u / (v - u)
    if abs(eta) < 1e-6:
        # acosh(1 + eta) = sqrt(2 eta) (1 - eta/12 + O(eta^2))
        return abs((cmath.sqrt(2.0 * eta) * (1.0 - eta / 12.0)).real)
    return abs(cmath.acosh(1.0 + eta).real)


def _geodesic_gap(a1: complex, a2: complex, b1: complex, b2: complex) -> float:
    """Distance between the geodesics over (a1, a2) and over (b1, b2).

    Conjugates (a1, a2) to the vertical axis projectively, then measures
    the axis gap; stays accurate when the four endpoints span hundreds of
    orders of magnitude.
    """
    un = b1 - a1
    ud = b1 - a2
    vn = b2 - a1
    vd = b2 - a2
    if ud == 0 or vd == 0 or un == 0 or vn == 0:
        raise BoundaryError("geodesics share an endpoint")
    return _axis_gap(un / ud, vn / vd)


def _strip_conjugator(w: Word, gamma: Word) -> tuple[int, Word]:
    """Maximal n with w = gamma^n u gamma^-n (n >= 0); returns (n, u)."""
    inv = gamma.inverse()
    n = 0
    cur = w
    while len(cur) > 0:
        nxt = (inv * cur) * gamma
        if len(nxt) < len(cur):
            cur = nxt
            n += 1
        else:
            break
    return n, cur


def _arc_data(gamma: Word) -> tuple[MoebiusMap, float, float]:
    """Reference image of gamma with its boundary angles (repelling, attracting)."""
    ref_gamma = evaluate(reference_representation(), gamma)
    ref_cl = classify(ref_gamma)
    if ref_cl.kind != IsometryKind.HYPERBOLIC:
        raise BoundaryError("base element is not a translation on the group")
    return (ref_gamma, disk_angle(ref_cl.data.fix_minus),
            disk_angle(ref_cl.data.fix_plus))


def _interval_bounds(side: int, ref_gamma: MoebiusMap, a_minus: float,
                     a_plus: float) -> tuple[float, float]:
    """Canonical fundamental interval [c, g(c)) of gamma on one side arc.

    Positions are measured in the coordinate increasing from 0 at the
    repelling angle to 1 at the attracting angle along the chosen arc.
    """
    v = (a_plus - a_minus) % 1.0
    c = 0.5
    if side == 1:
        ang = (a_minus + c * v) % 1.0
    else:
        ang = (a_minus + 1.0 - c * (1.0 - v)) % 1.0
    img = disk_angle(ref_gamma(_angle_to_boundary_point(ang)))
    x = (img - a_minus) % 1.0
    gc = x / v if side == 1 else (1.0 - x) / (1.0 - v)
    if not c < gc < 1.0:
        raise BoundaryError("fundamental interval of the base element collapsed")
    return c, gc


def _canonical_ray_position(n: int, ang: float, ref_gamma: MoebiusMap,
                            a_minus: float, a_plus: float,
                            bounds: dict) -> tuple[int, float]:
    """(side, ray position) of gamma^n applied to the boundary point at ang.

    The position is an integer level plus a coordinate in [0, 1) inside
    one fixed fundamental interval of the gamma action, so positions of
    points presented with different conjugating powers are directly
    comparable: larger means closer to the attracting point along the arc.
    """
    v = (a_plus - a_minus) % 1.0
    x = (ang - a_minus) % 1.0
    if x == 0.0 or x == v:
        raise BoundaryError("point sits at an endpoint of the base axis")
    side = 1 if x < v else -1
    if side not in bounds:
        bounds[side] = _interval_bounds(side, ref_gamma, a_minus, a_plus)
    c, gc = bounds[side]
    inv = ref_gamma.inverse()
    pt = _angle_to_boundary_point(ang)

    def pos(p: BoundaryPoint) -> float:
        xx = (disk_angle(p) - a_minus) % 1.0
        return xx / v if side == 1 else (1.0 - xx) / (1.0 - v)

    q = pos(pt)
    for _ in range(256):
        if q < c:
            pt = ref_gamma(pt)
            n -= 1
        elif q >= gc:
            pt = inv(pt)
            n += 1
        else:
            return side, n + (q - c) / (gc - c)
        q = pos(pt)
    raise BoundaryError("ray position failed to normalize")


def find_spiral_witness(rep: Representation, gamma: Word,
                        maxlen: int) -> SpiralWitness:
    """Search the sampled limit set for a verified spiral witness.

    Works in the chart of `normalize_at`: sample points in one
    fundamental interval of the gamma action carry exact translate
    arithmetic (radius scales by Lambda and argument lift shifts by Theta
    per step), so candidates for the four half-turn levels are drawn from
    all translates landing in the prescribed index windows.  Among
    near-level candidates, the pair for levels 2 and 3 is chosen so the
    axes of the crossing claim meet within tolerance — their residual
    angular offsets must cancel against the radius ratio — while the
    disjoint axes keep their separation; the assembled witness must pass
    the independent verifier before it is returned.
    """
    m_gamma = evaluate(rep, gamma)
    cl = classify(m_gamma)
    if cl.kind != IsometryKind.LOXODROMIC:
        raise BoundaryError("witness base element must be strictly loxodromic")
    lam, theta = cl.data.lam, cl.data.theta
    theta_rad = 2.0 * math.pi * theta
    mu = lam * cmath.exp(1j * theta_rad)
    ref_gamma, a_minus, a_plus = _arc_data(gamma)
    _, chart = normalize_at(rep, gamma)

    sample = limit_set_sample(rep, maxlen)

    # positions along the two boundary arcs between gamma's fixed points:
    # q in (0, 1) increases toward the attracting point on each side
    v = (a_plus - a_minus) % 1.0
    x = (sample.angles - a_minus) % 1.0
    arc_gap = np.minimum(np.minimum(x, 1.0 - x), np.abs(x - v))
    w1 = chart.a * sample.image_pairs[:, 0] + chart.b * sample.image_pairs[:, 1]
    w2 = chart.c * sample.image_pairs[:, 0] + chart.d * sample.image_pairs[:, 1]
    finite = (np.abs(w2) > 1e-14 * np.abs(w1)) & (np.abs(w1) > 1e-14 * np.abs(w2))
    valid = (arc_gap > 1e-9) & finite
    z_all = np.divide(w1, w2, out=np.ones_like(w1), where=valid)
    side = np.where(x < v, 1, -1)
    q = np.where(x < v, x / v, (1.0 - x) / (1.0 - v))

    # deterministic seed: earliest sample point comfortably inside its arc;
    # its gamma translate closes a fundamental interval [q0, q1)
    seed_ok = valid & (arc_gap > 0.01)
    if not seed_ok.any():
        raise BoundaryError("sample too sparse: no seed point clear of the "
                            "axis endpoints")
    seed = int(np.argmax(seed_ok))
    seed_side = int(side[seed])
    q0 = float(q[seed])
    t_angle = disk_angle(ref_gamma(_angle_to_boundary_point(
        float(sample.angles[seed]))))
    x1 = (t_angle - a_minus) % 1.0
    q1 = float(x1 / v) if seed_side == 1 else float((1.0 - x1) / (1.0 - v))
    if not q0 < q1 < 1.0:
        raise BoundaryError("sample too sparse: fundamental interval collapsed")

    on_side = valid & (side == seed_side)
    fund = on_side & (q >= q0) & (q < q1)
    idx_f = np.flatnonzero(fund)
    if idx_f.size < 8:
        raise BoundaryError("sample too sparse: fundamental interval has only "
                            "%d points" % idx_f.size)
    order = idx_f[np.argsort(q[idx_f])]
    zs = z_all[order]
    lift = _lift_path(zs)
    r_f = np.array([r for r, _ in lift])
    s_f = np.array([s for _, s in lift])

    # net rotation across one interval, closed by the exact translate of
    # the first point
    last_arg = math.atan2(zs[-1].imag, zs[-1].real) / (2.0 * math.pi)
    t1 = mu * zs[0]
    t1_arg = math.atan2(t1.imag, t1.real) / (2.0 * math.pi)
    theta_net = float((s_f[-1] + wrap_turns(t1_arg - last_arg)) - s_f[0])
    if abs(theta_net) < MIN_THETA:
        raise BoundaryError(
            "net rotation %.2e turns per step is below the resolvable "
            "minimum for this sample" % theta_net)

    # index windows: each must sweep more than a full turn of argument,
    # and consecutive windows must clear the radius spread of the interval
    beyond = on_side & (q >= q1)
    if not beyond.any():
        raise BoundaryError("sample too sparse: nothing beyond the "
                            "fundamental interval")
    R0 = float(r_f.max())
    r0 = float(np.min(np.abs(z_all[beyond])))
    if not r0 > 0:
        raise BoundaryError("sample too sparse: zero radius beyond the interval")
    dm = math.floor(1.0 / abs(theta_net)) + 1
    dn = max(1, math.floor(math.log(max(R0 / r0, 1e-300)) / math.log(lam)) + 1)
    indices_n, indices_m = [], []
    nk = 0
    for _ in range(4):
        indices_n.append(nk)
        indices_m.append(nk + dm)
        nk += dm + dn
    if indices_m[3] * math.log10(lam) + math.log10(float(r_f.max())) > 300.0:
        raise BoundaryError("index windows push radii beyond double range")

    # per-window candidates: signed angular offsets from the parity target
    # (half turn for odd levels, full turn for even), over all translate
    # powers in the window
    base_args = np.angle(zs)
    keep = 256

    def window_candidates(k: int) -> list[tuple[float, float, int, int]]:
        tgt = math.pi if k % 2 == 1 else 0.0
        out: list[tuple[float, float, int, int]] = []
        for n in range(indices_n[k - 1], indices_m[k - 1]):
            off = np.angle(np.exp(1j * (base_args + n * theta_rad - tgt)))
            pick = np.argsort(np.abs(off))[:keep]
            out.extend((abs(float(off[j])), float(off[j]), n, int(j))
                       for j in pick)
        out.sort()
        return out[:keep]

    cands = {k: window_candidates(k) for k in (1, 2, 3, 4)}
    for k in (1, 2, 3, 4):
        if not cands[k] or cands[k][0][0] > 0.5:
            raise BoundaryError("sample too sparse: no candidate near the "
                                "argument level of window %d" % k)

    def chart_point(n: int, j: int) -> complex:
        return (lam ** n) * cmath.exp(1j * n * theta_rad) * complex(zs[j])

    def assemble(sel: dict[int, tuple[int, int]]) -> SpiralWitness:
        refs, radii, lifts = [], [], []
        for k in (1, 2, 3, 4):
            n, j = sel[k]
            row = int(order[j])
            word = (gamma ** n) * sample.word_at(row) * (gamma ** -n)
            pt = _angle_to_boundary_point(float(sample.angles[row]))
            for _ in range(n):
                pt = ref_gamma(pt)
            refs.append(BoundaryPointRef(word, disk_angle(pt)))
            radii.append(float(r_f[j]) * lam ** n)
            lifts.append(float(s_f[j]) + n * theta_net)
        return SpiralWitness(
            gamma=gamma, Lambda=lam, Theta=theta_net,
            indices_n=tuple(indices_n), indices_m=tuple(indices_m),
            xi=tuple(refs),
            xi_star=BoundaryPointRef(gamma, a_plus),
            radii=tuple(radii), arglift=tuple(lifts), R0=R0, r0=r0)

    # levels 1 and 4 take the nearest candidate; levels 2 and 3 are paired:
    # the crossing gap scales like sqrt(r2/r3) |off2 - off3| and the
    # disjoint gap like 2 sqrt(r2/r3), so feasible pairs have nearly equal
    # offsets at a radius ratio that keeps both tolerances comfortable
    _, off1, n1, j1 = cands[1][0]
    _, off4, n4, j4 = cands[4][0]

    scored: list[tuple[float, float, tuple[int, int], tuple[int, int]]] = []
    for a2, o2, n2, j2 in cands[2]:
        for a3, o3, n3, j3 in cands[3]:
            t_ratio = (lam ** (n2 - n3)) * float(r_f[j2] / r_f[j3])
            if not 0.0 < t_ratio < 1.0:
                continue
            gap_unlink = 2.0 * math.sqrt(t_ratio)
            gap_cross = math.sqrt(t_ratio) * abs(o2 - o3)
            if gap_unlink < AXIS_CROSS_TOL * 4.0 \
                    or gap_cross > AXIS_CROSS_TOL / 4.0:
                continue
            scored.append((a2 + a3, gap_cross, (n2, j2), (n3, j3)))
    scored.sort()
    last_error = "no candidate pair balances the crossing and disjoint axes"
    for _, _, (n2, j2), (n3, j3) in scored[:64]:
        p1 = chart_point(n1, j1)
        p2 = chart_point(n2, j2)
        p3 = chart_point(n3, j3)
        p4 = chart_point(n4, j4)
        if not abs(p1) < abs(p2) < abs(p3) < abs(p4):
            last_error = "candidate radii not strictly increasing"
            continue
        try:
            if not _geodesic_gap(p1, p4, p2, p3) < AXIS_CROSS_TOL:
                last_error = "crossing axes failed the tolerance"
                continue
            if not _geodesic_gap(p1, p3, p2, p4) >= AXIS_CROSS_TOL:
                last_error = "disjoint axes failed the tolerance"
                continue
        except BoundaryError:
            continue
        witness = assemble({1: (n1, j1), 2: (n2, j2),
                            3: (n3, j3), 4: (n4, j4)})
        if verify_witness_orders(witness, rep):
            return witness
        last_error = "candidate witness failed independent verification"
    raise BoundaryError("sample too sparse: " + last_error)


def _recomputed_images(w: SpiralWitness,
                       rep: Representation) -> list[complex] | None:
    """Chart images of the witness points, recomputed from their words.

    Each xi word factors as gamma^n u gamma^-n with u short; its image
    point is mu^n times the chart image of u's attracting point.  The
    gamma action in its own chart is exact multiplication by mu, so this
    stays accurate at radii far beyond where iterating the matrix would
    collapse the point onto the attracting direction.
    """
    m_gamma = evaluate(rep, w.gamma)
    cl = classify(m_gamma)
    if cl.kind != IsometryKind.LOXODROMIC:
        return None
    lam, theta = cl.data.lam, cl.data.theta
    _, chart = normalize_at(rep, w.gamma)
    out: list[complex] = []
    for ref in w.xi:
        n, core = _strip_conjugator(ref.word, w.gamma)
        if len(core) == 0:
            return None
        core_cl = classify(evaluate(rep, core))
        if core_cl.kind not in (IsometryKind.LOXODROMIC,
                                IsometryKind.HYPERBOLIC):
            return None
        pt = chart(core_cl.data.fix_plus)
        if pt.is_infinity:
            return None
        base = pt.to_complex()
        if base == 0 or not math.isfinite(abs(base)):
            return None
        out.append((lam ** n) * cmath.exp(2.0j * math.pi * theta * n) * base)
    return out


def witness_image_points(w: SpiralWitness,
                         rep: Representation) -> tuple[complex, complex,
                                                       complex, complex]:
    """The four chart images of the witness points, recomputed from words."""
    out = _recomputed_images(w, rep)
    if out is None:
        raise BoundaryError("cannot recompute the witness image points")
    return tuple(out)


def verify_witness_orders(w: SpiralWitness, rep: Representation) -> bool:
    """Independently re-check a spiral witness against the representation.

    Verifies the index inequalities, strictly increasing radii, the
    boundary-side position order and pair configurations (computed in the
    exact ray coordinate along gamma, where stored angles would saturate
    at the attracting point), and the image-side facts: the images
    alternate sides of the origin, the (1,4)/(2,3) image axes cross
    within tolerance, and the (1,3)/(2,4) image axes stay separated,
    unlinked and aligned on the near-real circle they accumulate on.
    """
    try:
        if len(w.xi) != 4:
            return False
        if not (w.Lambda > 1.0 and abs(w.Theta) > 0.0):
            return False
        for n_k, m_k in zip(w.indices_n, w.indices_m):
            if not (m_k - n_k) * abs(w.Theta) > 1.0:
                return False
        for k in range(3):
            if not w.Lambda ** (w.indices_n[k + 1] - w.indices_m[k]) \
                    > w.R0 / w.r0:
                return False
        if not (0.0 < w.radii[0] < w.radii[1] < w.radii[2] < w.radii[3]):
            return False

        # boundary side: strip the conjugating gamma powers, place each
        # short core on the arc, and compare positions in one fixed
        # fundamental interval — the exact ray order toward the attracting
        # point, computed where stored angles would saturate
        ref_gamma, a_minus, a_plus = _arc_data(w.gamma)
        positions: list[float] = []
        sides: list[int] = []
        bounds: dict = {}
        for ref in w.xi:
            n, core = _strip_conjugator(ref.word, w.gamma)
            if len(core) == 0:
                return False
            core_attracting = fixed_angles(core)[1]
            side, t = _canonical_ray_position(n, core_attracting, ref_gamma,
                                              a_minus, a_plus, bounds)
            sides.append(side)
            positions.append(t)
        if len(set(sides)) != 1:
            return False
        if not all(positions[i] < positions[i + 1] for i in range(3)):
            return False
        if _circular_gap(w.xi_star.angle, a_plus) > 1e-9:
            return False

        # boundary-side pair configurations in the ray coordinate
        t1, t2, t3, t4 = positions
        if classify_real_pairs((t1, t4), (t2, t3)) \
                != PairConfig.UNLINKED_ALIGNED:
            return False
        if classify_real_pairs((t1, t3), (t2, t4)) != PairConfig.LINKED:
            return False

        # image side, recomputed from the words
        images = _recomputed_images(w, rep)
        if images is None:
            return False
        for p, r_stored in zip(images, w.radii):
            if not math.isfinite(abs(p)) or abs(p) == 0.0:
                return False
            if abs(abs(p) - r_stored) > 1e-6 * r_stored:
                return False
        for p, sign in zip(images, (-1.0, 1.0, -1.0, 1.0)):
            if not (p.real * sign > 0.0 and abs(p.imag) < 0.5 * abs(p.real)):
                return False
        p1, p2, p3, p4 = images
        if not _geodesic_gap(p1, p4, p2, p3) < AXIS_CROSS_TOL:
            return False
        if not _geodesic_gap(p1, p3, p2, p4) >= AXIS_CROSS_TOL:
            return False
        if classify_real_pairs((p1.real, p3.real), (p2.real, p4.real)) \
                != PairConfig.UNLINKED_ALIGNED:
            return False
        return True
    except (BoundaryError, RepresentationError, ValueError, OverflowError):
        return False


def witness_to_dict(w: SpiralWitness) -> dict:
    pres = reference_representation().presentation
    return {
        "schema": "qfcert/1",
        "type": "spiral_witness",
        "gamma": pres.to_text(w.gamma),
        "Lambda": w.Lambda,
        "Theta": w.Theta,
        "indices_n": list(w.indices_n),
        "indices_m": list(w.indices_m),
        "xi": [{"word": pres.to_text(p.word), "angle": p.angle} for p in w.xi],
        "xi_star": {"word": pres.to_text(w.xi_star.word),
                    "angle": w.xi_star.angle},
        "radii": list(w.radii),
        "arglift": list(w.arglift),
        "R0": w.R0,
        "r0": w.r0,
    }


def witness_from_dict(payload: dict) -> SpiralWitness:
    if payload.get("schema") != "qfcert/1" \
            or payload.get("type") != "spiral_witness":
        raise BoundaryError("not a spiral witness payload")
    pres = reference_representation().presentation
    xi = tuple(BoundaryPointRef(pres.from_text(d["word"]), float(d["angle"]))
               for d in payload["xi"])
    if len(xi) != 4:
        raise BoundaryError("witness must carry exactly four points")
    star = payload["xi_star"]
    return SpiralWitness(
        gamma=pres.from_text(payload["gamma"]),
        Lambda=float(payload["Lambda"]),
        Theta=float(payload["Theta"]),
        indices_n=tuple(int(i) for i in payload["indices_n"]),
        indices_m=tuple(int(i) for i in payload["indices_m"]),
        xi=xi,
        xi_star=BoundaryPointRef(pres.from_text(star["word"]),
                                 float(star["angle"])),
        radii=tuple(float(r) for r in payload["radii"]),
        arglift=tuple(float(s) for s in payload["arglift"]),
        R0=float(payload["R0"]),
        r0=float(payload["r0"]),
    )


def sample_to_csv(sample: LimitSetSample) -> str:
    """CSV text: word, reference angle, real part, imaginary part."""
    pres = sample.rep.presentation
    zs = sample.image_complex()
    lines = ["word,angle_ref,re,im"]
    for i in range(len(sample)):
        zv = complex(zs[i])
        if not math.isfinite(abs(zv)):
            re_s, im_s = "inf", "inf"
        else:
            re_s, im_s = repr(zv.real), repr(zv.imag)
        lines.append("%s,%s,%s,%s" % (pres.to_text(sample.word_at(i)),
                                      repr(float(sample.angles[i])),
                                      re_s, im_s))
    return "\n".join(lines) + "\n"


def sample_to_svg(sample: LimitSetSample, size: int = 800) -> str:
    """SVG scatter of the sampled limit set (finite points only)."""
    zs = sample.image_complex()
    finite = np.isfinite(zs.real) & np.isfinite(zs.imag)
    pts = zs[finite]
    if pts.size == 0:
        raise BoundaryError("no finite points to draw")
    # robust window: the central percentile box, padded
    re_lo, re_hi = np.percentile(pts.real, [2, 98])
    im_lo, im_hi = np.percentile(pts.imag, [2, 98])
    span = max(re_hi - re_lo, im_hi - im_lo, 1e-9)
    cx = (re_lo + re_hi) / 2.0
    cy = (im_lo + im_hi) / 2.0
    half = 0.55 * span
    inside = (np.abs(pts.real - cx) <= half) & (np.abs(pts.imag - cy) <= half)
    pts = pts[inside]
    scale = size / (2.0 * half)
    rows = ['<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
            'viewBox="0 0 %d %d">' % (size, size, size, size),
            '<rect width="%d" height="%d" fill="white"/>' % (size, size)]
    for zv in pts:
        px = (zv.real - cx + half) * scale
        py = (cy + half - zv.imag) * scale
        rows.append('<circle cx="%.2f" cy="%.2f" r="1" fill="black"/>'
                    % (px, py))
    rows.append("</svg>")
    return "\n".join(rows) + "\n"
