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
    LoxodromicData,
    MoebiusMap,
    circular_distance_turns,
    classify,
    normalizer_to_axis,
    wrap_turns,
)
from .representations import (
    Representation,
    RepresentationError,
    conjugate_representation,
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
    in projective coordinates the image is (w1 - i w2) / (w1 + i w2).  An
    angle just below 0 rounds up to 1.0 under % and is returned as 0.0.
    """
    u = p.w1 - 1j * p.w2
    v = p.w1 + 1j * p.w2
    val = u * v.conjugate()
    if val == 0:
        raise BoundaryError("point maps to the disk center, not the circle")
    turns = math.atan2(val.imag, val.real) / (2.0 * math.pi) % 1.0
    return turns if turns < 1.0 else 0.0


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


PAIR_CONFIGS = tuple(PairConfig)
# endpoints closer than this (in turns) send their pairs to the float rule;
# every other pair is classified by endpoint rank
_NEAR_WINDOW = 2.0 * DEGENERATE_TOL


def _float_pair_codes(a1, a2, b1, b2) -> np.ndarray:
    """classify_angle_pairs' float rule, elementwise on broadcast arrays
    of endpoints; int8 indices into PAIR_CONFIGS."""
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


def _rank_pair_codes(ra1, ra2, rb1, rb2) -> np.ndarray:
    """The rank rule, elementwise on broadcast integer arrays: the
    configuration of pairs of four distinct points from their ranks along
    the circle cut open anywhere; int8 indices into PAIR_CONFIGS.

    With g_k = (b_k ranked above a1), h_k = (b_k ranked above a2) and
    s = (a1 ranked above a2), b_k lies on the arc from a1 to a2 (across
    the cut when s) exactly when g_k ^ h_k ^ s, so the pair is linked
    when g1 ^ g2 ^ h1 ^ h2.  Going from a1, b1 comes before b2 exactly
    when (b1 ranked below b2) ^ g1 ^ g2, and an unlinked pair is
    misaligned when that order disagrees with b1 lying on the arc:
    h1 ^ g2 ^ s ^ (b1 ranked below b2).
    """
    g2, h1 = rb2 > ra1, rb1 > ra2
    linked = (rb1 > ra1) ^ g2 ^ h1 ^ (rb2 > ra2)
    misaligned = g2 ^ h1 ^ (ra1 > ra2) ^ (rb1 < rb2)
    # LINKED 0, UNLINKED_ALIGNED 1, UNLINKED_MISALIGNED 2
    return np.where(linked, np.int8(0), misaligned.view(np.int8) + np.int8(1))


def classify_angle_pairs(alpha: tuple[float, float],
                         beta: tuple[float, float]) -> PairConfig:
    """Configuration of two ordered point pairs on a circle (angles in turns).

    Linked when the beta points separate the alpha points.  When both
    beta points share one complementary arc, the configuration is aligned
    exactly if the four points read alpha1, beta1, beta2, alpha2 or
    alpha1, alpha2, beta2, beta1 around the circle; the other two
    patterns are misaligned.  Flipping a single pair toggles
    aligned/misaligned; flipping both, or swapping the roles of the
    pairs, preserves the configuration.  Endpoints closer than
    DEGENERATE_TOL make the pair degenerate.
    """
    return PAIR_CONFIGS[int(_float_pair_codes(*alpha, *beta))]


def _near_pairs(order: np.ndarray, points: np.ndarray):
    """Index pairs (p, q) of points (turns in [0, 1], argsorted by order)
    at most _NEAR_WINDOW apart around the circle, each unordered pair once.

    Each sorted point is paired with every later point inside the window,
    the points past 1 continuing from 0, so clusters of any size and the
    wrap are covered."""
    s = points[order]
    n = s.size
    start = np.arange(n)
    end = np.searchsorted(np.concatenate([s, s + 1.0]), s + _NEAR_WINDOW,
                          side="right")
    count = np.minimum(end, start + n) - start - 1
    first = np.repeat(start, count)
    step = np.arange(first.size) - np.repeat(np.cumsum(count) - count, count)
    return order[first], np.tile(order, 2)[first + step + 1]


def rank_endpoints(angles: np.ndarray):
    """pair_config_grid's ranking of an (n, 2) table of angle pairs in
    turns in [0, 1], whose 2n endpoints it sorts once (endpoint k is row
    k % n): the (n, 2) int32 endpoint ranks; the near row pairs, a (2, k)
    array of the rows (i, j) with endpoints at most _NEAR_WINDOW apart,
    in both orders and with every (i, i), sorted; and the near rows, whose
    own two endpoints are that close."""
    n = angles.shape[0]
    points = angles.T.ravel()
    order = np.argsort(points, kind="stable")
    row = np.tile(np.arange(n), 2)
    p, q = (row[k] for k in _near_pairs(order, points))
    near = np.unique(np.hstack([[p, q], [q, p], [row[:n], row[:n]]]), axis=1)
    return (order.argsort().astype(np.int32).reshape(2, n).T, near,
            np.unique(p[p == q]))


def pair_config_grid(angles: np.ndarray, ranking, lo: int, hi: int,
                     start: int = 0) -> np.ndarray:
    """classify_angle_pairs(angles[i], angles[j]) for every row i of
    angles[lo:hi] and j of angles[start:], bit for bit, as an int8 array
    of indices into PAIR_CONFIGS; ranking is rank_endpoints(angles).

    A pair is classified from the integer ranks of its four endpoints by
    the rank rule (_rank_pair_codes).  This equals the float rule
    wherever it is applied.  The near row pairs name the pairs with an
    endpoint of one row near one of the other (across the wrap at 0/1
    too, and each row with itself), and the near rows those whose own two
    endpoints are near; the float rule is applied to exactly those pairs,
    rows and columns.  In every other pair all six endpoint gaps exceed
    _NEAR_WINDOW - 2^-52 > DEGENERATE_TOL, so the float rule finds it
    non-degenerate, and the four endpoints are distinct, so their ranks
    give their circular order (an angle of 1.0 sorts last, next to 0.0
    around the circle).  The float rule's offsets (x - a1) % 1.0 of angles
    in [0, 1] are within 2^-52 of the exact ones, while any two of them
    differ by more than DEGENERATE_TOL, so each comparison it makes
    agrees with the exact circular order, and with the ranks.
    """
    ranks, near, near_rows = ranking
    a, b = ranks[lo:hi], ranks[start:]
    codes = _rank_pair_codes(a[:, :1], a[:, 1:], b[:, 0], b[:, 1])
    rows = near_rows[(near_rows >= lo) & (near_rows < hi)]
    codes[rows - lo] = _float_pair_codes(*angles[rows].T[..., None],
                                         *angles[start:].T)
    cols = near_rows[near_rows >= start]
    codes[:, cols - start] = _float_pair_codes(*angles[lo:hi].T[..., None],
                                               *angles[cols].T)
    k = slice(*np.searchsorted(near[0], [lo, hi]))
    ii, jj = near[:, k][:, near[1, k] >= start]
    codes[ii - lo, jj - start] = _float_pair_codes(*angles[ii].T, *angles[jj].T)
    return codes


def classify_pairs(a: Word, b: Word) -> PairConfig:
    """Configuration of the fixed-point pairs of two words on the group boundary."""
    return classify_angle_pairs(fixed_angles(a), fixed_angles(b))


def classify_real_pairs(alpha: tuple[float, float],
                        beta: tuple[float, float]) -> PairConfig:
    """Configuration of two ordered pairs of reals on the circle R u {inf}.

    Exact order combinatorics: no tolerance, so points whose magnitudes
    differ by hundreds of orders (which would collapse any angular chart)
    still classify correctly.  Tied values are degenerate.
    """
    values = (*alpha, *beta)
    if len(set(values)) < 4:
        return PairConfig.DEGENERATE
    # the cyclic order on R u {inf} restricted to four finite points is
    # their sorted order on R
    order = sorted(values)
    ranks = np.array([order.index(x) for x in values])
    return PAIR_CONFIGS[int(_rank_pair_codes(*ranks))]


@dataclass(frozen=True, eq=False)
class LimitSetSample:
    """Sampled limit set: boundary words with reference angles and images.

    Backed by arrays so that million-point samples stay compact.
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
        """Sub-sample in the given order (for ordered lift input).

        indices are integers; a float or boolean array is refused, since
        casting it would truncate 1.7 to 1 or read a mask as rows 0 and 1.
        """
        idx = np.asarray(indices)
        if idx.size and idx.dtype.kind not in "iu":
            raise BoundaryError("sample indices must be integers, got %s"
                                % idx.dtype)
        idx = idx.astype(int, copy=False)
        return LimitSetSample(rep=self.rep, maxlen=self.maxlen,
                              ranks=self.ranks[idx], angles=self.angles[idx],
                              image_pairs=self.image_pairs[idx])


# words per chunk of a sampled level, rounded down to whole sibling groups
_CHUNK = 1 << 16


def _accumulate_level(words: np.ndarray, gens: tuple[np.ndarray, np.ndarray],
                      parents: tuple[np.ndarray, np.ndarray] | None,
                      store: bool, out: tuple[np.ndarray, ...],
                      start: int):
    """Write one level's kept rows into out; returns (end, products).

    out is the (ranks, angles, pairs) triple of `limit_set_sample`, filled
    from row start to row end in level order; a row is kept when both its
    products are translations.  Fixed points and angles are computed for
    kept rows only: both are elementwise, so a row gets the same bits as
    in a pass over the whole chunk.  gens are the (reference, rep)
    generator arrays and parents the previous level's products under
    each, or None for length-1 words.  Products are built one level from
    the last (wa.extend_products) and returned only when store is set,
    for the next level to extend.
    """
    ranks, angles, pairs = out
    n, width = words.shape
    fan = 1 if parents is None else gens[0].shape[0] - 1
    mats = tuple(np.empty((n, 2, 2), dtype=g.dtype) for g in gens) \
        if store else None
    step = _CHUNK // fan * fan
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        last = words[lo:hi, -1]
        if parents is None:
            ref_m, rep_m = (g[last] for g in gens)
        else:
            ref_m, rep_m = (wa.extend_products(p[lo // fan:hi // fan], last, g)
                            for p, g in zip(parents, gens))
        keep = wa.translating(wa.traces(ref_m)) \
            & wa.translating(wa.traces(rep_m))
        end = start + int(np.count_nonzero(keep))
        # a slice when every row is kept, so nothing is copied
        rows = slice(None) if end - start == hi - lo else keep
        ranks[start:end, :width] = words[lo:hi][rows]
        angles[start:end] = wa.disk_angles_turns(
            wa.attracting_fixed_pairs(ref_m[rows]))
        pairs[start:end] = wa.attracting_fixed_pairs(rep_m[rows])
        start = end
        if store:
            mats[0][lo:hi] = ref_m
            mats[1][lo:hi] = rep_m
    return start, mats


def limit_set_sample(rep: Representation, maxlen: int) -> LimitSetSample:
    """Attracting fixed points of all words up to maxlen, one per boundary point.

    Words sharing a boundary point (powers and roots) are merged, keeping
    the earliest word in length-then-shortlex order: the first of the
    words whose angles round alike at 12 digits.  Each word's matrix
    is its parent's times one generator; only the previous level's
    matrices are held.  The reference octagon is real and composes in
    float64.  The bent side stays complex even where it is real: a
    float64 product there can flip the sign of a zero imaginary part
    in an image point.

    Memory: the rank, angle and pair arrays are allocated once, sized by
    the word count, and filled level by level; the merge then moves the
    first occurrences to the front in place.  The sample holds views of
    that prefix, so the dropped rows (about 2% at maxlen 7) stay
    allocated.
    """
    if maxlen < 1:
        raise BoundaryError("maxlen must be at least 1")
    if rep.presentation.genus != 2:
        raise BoundaryError("sampling is implemented for the genus-2 group")
    gens = (wa.exact_real(reference_representation().generator_matrix_array()),
            rep.generator_matrix_array())
    levels = wa.reduced_word_levels(maxlen)
    total = sum(level.shape[0] for level in levels)
    out = (np.full((total, maxlen), -1, dtype=np.int8), np.empty(total),
           np.empty((total, 2), dtype=complex))
    count, products = 0, None
    for words in levels:
        count, products = _accumulate_level(
            words, gens, products, words.shape[1] < maxlen, out, count)
    del levels, words, products

    # merge words sharing a boundary point; first occurrence (shortest,
    # then shortlex) wins because levels were written in order
    _, first = np.unique(np.round(out[1][:count], 12), return_index=True)
    first.sort()
    # first[i] >= i, so each slice reads only rows that no earlier slice
    # has overwritten
    for lo in range(0, first.size, _CHUNK):
        rows = first[lo:lo + _CHUNK]
        for a in out:
            a[lo:lo + rows.size] = a[rows]
    ranks, angles, pairs = (a[:first.size] for a in out)
    return LimitSetSample(rep=rep, maxlen=maxlen, ranks=ranks,
                          angles=angles, image_pairs=pairs)


def _gamma_chart(rep: Representation,
                 gamma: Word) -> tuple[LoxodromicData, MoebiusMap]:
    """gamma's loxodromic data under rep, and the chart of `normalize_at`."""
    cl = classify(evaluate(rep, gamma))
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
    return cl.data, chart


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
    _, chart = _gamma_chart(rep, gamma)
    return conjugate_representation(rep, chart), chart


def _lift_path(zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(moduli, continuous argument lift in turns) along an ordered path.

    Bit for bit the scalar rule: math.atan2 per point (np.arctan2 can
    differ in the last bit), np.hypot for abs, wrap_turns of each
    difference, and a sequential running sum.
    """
    re, im = zs.real, zs.imag
    if not (np.isfinite(re).all() and np.isfinite(im).all()) \
            or ((re == 0) & (im == 0)).any():
        raise BoundaryError("argument lift needs finite nonzero points")
    # in _CHUNK slices, so the Python float lists stay small
    arg = np.empty(re.size)
    for lo in range(0, re.size, _CHUNK):
        arg[lo:lo + _CHUNK] = list(map(math.atan2, im[lo:lo + _CHUNK].tolist(),
                                       re[lo:lo + _CHUNK].tolist()))
    arg /= 2.0 * math.pi
    step = np.diff(arg)
    step -= np.floor(step)
    step[step > 0.5] -= 1.0
    return np.hypot(re, im), np.cumsum(np.concatenate([arg[:1], step]))


def _chart_points(pairs: np.ndarray,
                  chart: MoebiusMap) -> tuple[np.ndarray, np.ndarray]:
    """(z, finite): chart values of projective pairs, and which are neither
    0 nor infinity (one coordinate within 1e-14 of the other's size).

    z is w1 / w2 where finite holds and 1 elsewhere.
    """
    w1 = chart.a * pairs[:, 0] + chart.b * pairs[:, 1]
    w2 = chart.c * pairs[:, 0] + chart.d * pairs[:, 1]
    finite = (np.abs(w2) > 1e-14 * np.abs(w1)) \
        & (np.abs(w1) > 1e-14 * np.abs(w2))
    return np.divide(w1, w2, out=np.ones_like(w1), where=finite), finite


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


def _arc_position(x, v: float, side):
    """Position along a side arc of the base axis, from 0 at the repelling
    to 1 at the attracting angle; scalars or arrays.

    x and v are the turns of the point and of the attracting angle past
    the repelling angle; side is 1 on the arc x < v and -1 on the other,
    kept from the caller even where rounding moves x across.
    """
    return np.where(side == 1, x / v, (1.0 - x) / (1.0 - v))


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
    gc = float(_arc_position((img - a_minus) % 1.0, v, side))
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
        return float(_arc_position((disk_angle(p) - a_minus) % 1.0, v, side))

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


# candidates kept per index window, and level-2/3 pairs tried in order
_WINDOW_KEEP = 256
_PAIRS_TRIED = 64


def _window_candidates(base_args: np.ndarray, by_arg: np.ndarray,
                       theta_rad: float, powers: range,
                       target: float) -> tuple[np.ndarray, ...]:
    """(|off|, off, n, j) arrays for the _WINDOW_KEEP best translates.

    off is the signed angular offset
    np.angle(np.exp(1j * (base_args[j] + n * theta_rad - target))) of
    translate n of fundamental point j from the target argument, over the
    powers n of one index window; the order is (|off|, off, n, j).  Each
    power contributes its _WINDOW_KEEP smallest |off| and every index tied
    with the last of them, so the cut never depends on how a sort breaks
    ties.

    by_arg sorts base_args.  Power n evaluates off only on a circular run
    of that order around target - n theta_rad, widened until the nearest
    point outside it on each side lies farther from the centre than the
    run's cut by more than the rounding slack.  Circular distance grows
    away from the centre on both sides, so every point outside then has a
    larger |off| than the cut, and the run keeps what a scan of all
    points keeps, ties at the cut included.
    """
    circle = base_args[by_arg]
    size = circle.size
    keep = min(_WINDOW_KEEP, size)
    turn = 2.0 * math.pi
    cols = []
    for n in powers:
        shift = n * theta_rad
        centre = (target - shift + math.pi) % turn - math.pi
        # off and the distances below are short float sums whose terms
        # are at most `scale`: each errs by a few ulps of scale, far
        # below 2 ** -46 scale, and the cut must clear both errors
        scale = abs(shift) + abs(target) + math.pi
        slack = 2.0 ** -45 * scale
        mid = int(np.searchsorted(circle, centre))
        lo, hi = mid - keep, mid + keep
        while True:
            if hi - lo >= size:
                lo, hi = 0, size
            j = by_arg[np.arange(lo, hi) % size]
            off = np.angle(np.exp(1j * (base_args[j] + shift - target)))
            mag = np.abs(off)
            cut = np.partition(mag, keep - 1)[keep - 1]
            # the nearest points outside the run, below it and above it
            ends = circle[[(lo - 1) % size, hi % size]]
            near = np.abs((ends - centre + math.pi) % turn - math.pi) \
                <= cut + slack
            if hi - lo == size or not near.any():
                break
            width = hi - lo
            lo -= width * int(near[0])
            hi += width * int(near[1])
        sel = np.flatnonzero(mag <= cut)
        cols.append((mag[sel], off[sel], np.full(sel.size, n), j[sel]))
    mag, off, n, j = (np.concatenate(c) for c in zip(*cols))
    best = np.lexsort((j, n, off, mag))[:_WINDOW_KEEP]
    return mag[best], off[best], n[best], j[best]


def _middle_pairs(c2: tuple[np.ndarray, ...], c3: tuple[np.ndarray, ...],
                  lam: float, radii: np.ndarray) -> list[tuple[int, ...]]:
    """(n2, j2, n3, j3) of the level-2/3 candidate pairs worth verifying.

    The crossing gap scales like sqrt(r2/r3) |off2 - off3| and the
    disjoint gap like 2 sqrt(r2/r3), so feasible pairs have nearly equal
    offsets at a radius ratio that keeps both tolerances comfortable.
    The best _PAIRS_TRIED come first by (|off2| + |off3|, crossing gap,
    n2, j2, n3, j3).  lam ** k is Python's pow, once per distinct k.
    """
    a2, o2, n2, j2 = (x[:, None] for x in c2)
    a3, o3, n3, j3 = (x[None, :] for x in c3)
    ks, which = np.unique(n2 - n3, return_inverse=True)
    scale = np.array([lam ** k for k in ks.tolist()])[
        which.reshape(n2.size, n3.size)]
    t_ratio = scale * (radii[j2] / radii[j3])
    root = np.sqrt(t_ratio)
    gap_cross = root * np.abs(o2 - o3)
    ok = (0.0 < t_ratio) & (t_ratio < 1.0) \
        & ~(2.0 * root < AXIS_CROSS_TOL * 4.0) \
        & ~(gap_cross > AXIS_CROSS_TOL / 4.0)
    n2, j2, n3, j3, gap, score = (
        np.broadcast_to(x, ok.shape)[ok]
        for x in (n2, j2, n3, j3, gap_cross, a2 + a3))
    best = np.lexsort((j3, n3, j2, n2, gap, score))[:_PAIRS_TRIED]
    return list(zip(*(x[best].tolist() for x in (n2, j2, n3, j3))))


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
    data, chart = _gamma_chart(rep, gamma)
    lam, theta_rad = data.lam, 2.0 * math.pi * data.theta
    mu = lam * cmath.exp(1j * theta_rad)
    ref_gamma, a_minus, a_plus = _arc_data(gamma)

    sample = limit_set_sample(rep, maxlen)

    # positions along the two boundary arcs between gamma's fixed points:
    # q in (0, 1) increases toward the attracting point on each side.
    # Each per-point array is freed once read, so that this stage peaks
    # below the sample's own construction.
    v = (a_plus - a_minus) % 1.0
    x = (sample.angles - a_minus) % 1.0
    arc_gap = np.minimum(np.minimum(x, 1.0 - x), np.abs(x - v))
    valid = arc_gap > 1e-9
    clear = arc_gap > 0.01
    del arc_gap
    side = np.where(x < v, np.int8(1), np.int8(-1))
    q = _arc_position(x, v, side)
    del x
    z_all = np.empty(len(sample), dtype=complex)
    for lo in range(0, len(sample), _CHUNK):
        z_all[lo:lo + _CHUNK], finite = _chart_points(
            sample.image_pairs[lo:lo + _CHUNK], chart)
        valid[lo:lo + _CHUNK] &= finite

    # deterministic seed: earliest sample point comfortably inside its arc;
    # its gamma translate closes a fundamental interval [q0, q1)
    seed_ok = valid & clear
    if not seed_ok.any():
        raise BoundaryError("sample too sparse: no seed point clear of the "
                            "axis endpoints")
    seed = int(np.argmax(seed_ok))
    seed_side = int(side[seed])
    q0 = float(q[seed])
    t_angle = disk_angle(ref_gamma(_angle_to_boundary_point(
        float(sample.angles[seed]))))
    q1 = float(_arc_position((t_angle - a_minus) % 1.0, v, seed_side))
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
    # the nearest radius beyond the interval, checked once the net
    # rotation is known; the per-point arrays are done with after it
    beyond = on_side & (q >= q1)
    r0 = float(np.min(np.abs(z_all[beyond]))) if beyond.any() else None
    del valid, clear, side, q, z_all, seed_ok, on_side, fund, beyond
    r_f, s_f = _lift_path(zs)

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
    if r0 is None:
        raise BoundaryError("sample too sparse: nothing beyond the "
                            "fundamental interval")
    R0 = float(r_f.max())
    if not r0 > 0:
        raise BoundaryError("sample too sparse: zero radius beyond the interval")
    dm = math.floor(1.0 / abs(theta_net)) + 1
    dn = max(1, math.floor(math.log(max(R0 / r0, 1e-300)) / math.log(lam)) + 1)
    indices_n = tuple(k * (dm + dn) for k in range(4))
    indices_m = tuple(n + dm for n in indices_n)
    if indices_m[3] * math.log10(lam) + math.log10(R0) > 300.0:
        raise BoundaryError("index windows push radii beyond double range")

    # per-window candidates: signed angular offsets from the parity target
    # (half turn for odd levels, full turn for even)
    base_args = np.angle(zs)
    by_arg = np.argsort(base_args, kind="stable")
    cands = [_window_candidates(base_args, by_arg, theta_rad, range(n, m),
                                math.pi if k % 2 == 1 else 0.0)
             for k, (n, m) in enumerate(zip(indices_n, indices_m), start=1)]
    for k, (mag, *_) in enumerate(cands, start=1):
        if mag[0] > 0.5:
            raise BoundaryError("sample too sparse: no candidate near the "
                                "argument level of window %d" % k)

    def assemble(sel: list[tuple[int, int]]) -> SpiralWitness:
        refs = []
        for n, j in sel:
            row = int(order[j])
            pt = _angle_to_boundary_point(float(sample.angles[row]))
            for _ in range(n):
                pt = ref_gamma(pt)
            refs.append(BoundaryPointRef(
                (gamma ** n) * sample.word_at(row) * (gamma ** -n),
                disk_angle(pt)))
        return SpiralWitness(
            gamma=gamma, Lambda=lam, Theta=theta_net,
            indices_n=indices_n, indices_m=indices_m, xi=tuple(refs),
            xi_star=BoundaryPointRef(gamma, a_plus),
            radii=tuple(float(r_f[j]) * lam ** n for n, j in sel),
            arglift=tuple(float(s_f[j]) + n * theta_net for n, j in sel),
            R0=R0, r0=r0)

    # levels 1 and 4 take the nearest candidate; levels 2 and 3 are paired
    first, fourth = ((int(c[2][0]), int(c[3][0])) for c in (cands[0], cands[3]))
    last_error = "no candidate pair balances the crossing and disjoint axes"
    for n2, j2, n3, j3 in _middle_pairs(cands[1], cands[2], lam, r_f):
        sel = [first, (n2, j2), (n3, j3), fourth]
        p1, p2, p3, p4 = ((lam ** n) * cmath.exp(1j * n * theta_rad)
                          * complex(zs[j]) for n, j in sel)
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
        witness = assemble(sel)
        if verify_witness_orders(witness, rep):
            return witness
        last_error = "candidate witness failed independent verification"
    raise BoundaryError("sample too sparse: " + last_error)


def witness_image_points(w: SpiralWitness,
                         rep: Representation) -> tuple[complex, complex,
                                                       complex, complex]:
    """The four chart images of the witness points, recomputed from words.

    Each xi word factors as gamma^n u gamma^-n with u short; its image
    point is mu^n times the chart image of u's attracting point.  The
    gamma action in its own chart is exact multiplication by mu, so this
    stays accurate at radii far beyond where iterating the matrix would
    collapse the point onto the attracting direction.
    """
    data, chart = _gamma_chart(rep, w.gamma)
    out = []
    for ref in w.xi:
        n, core = _strip_conjugator(ref.word, w.gamma)
        core_cl = classify(evaluate(rep, core)) if len(core) else None
        if core_cl is None or core_cl.kind not in (IsometryKind.LOXODROMIC,
                                                   IsometryKind.HYPERBOLIC):
            raise BoundaryError("witness point word has no translating core")
        pt = chart(core_cl.data.fix_plus)
        base = math.inf if pt.is_infinity else pt.to_complex()
        if base == 0 or not math.isfinite(abs(base)):
            raise BoundaryError("witness point core sits at 0 or infinity "
                                "in the chart")
        out.append((data.lam ** n) * cmath.exp(2.0j * math.pi * data.theta * n)
                   * base)
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
    The stored numbers are checked against gamma's multiplier, the
    recomputed images and the boundary points they name: Lambda to 1e-12
    relative, Theta, each arglift and each xi angle to 1e-9 turns.

    The windows must hold their points: some fundamental interval F of
    gamma on the arc has xi[k] in gamma^n F for an n in window k,
    [indices_n[k], indices_m[k]).  This reads the points' ray positions,
    not the split of their words into gamma^n u gamma^-n, which moves
    with u's spelling.

    The stored data cannot prove the integer parts of Theta and of the
    arglifts, nor R0 and r0 beyond their sign: those two come from the
    sample the search drew its points from.
    """
    try:
        if len(w.xi) != 4:
            return False
        # checked before the division R0 / r0 below
        if not all(0.0 < x < math.inf for x in (w.R0, w.r0, *w.radii)):
            return False
        data, _ = _gamma_chart(rep, w.gamma)
        if not abs(w.Lambda - data.lam) <= 1e-12 * data.lam:
            return False
        # Theta and each arglift are reduced before the difference: in
        # Theta - theta a huge Theta would absorb theta, as all floats
        # past 2^52 are integers
        if not circular_distance_turns(wrap_turns(w.Theta),
                                       data.theta) <= 1e-9:
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
            # the search's angle: gamma^n of the core's attracting point
            pt = _angle_to_boundary_point(core_attracting)
            for _ in range(n):
                pt = ref_gamma(pt)
            if not circular_distance_turns(disk_angle(pt), ref.angle) <= 1e-9:
                return False
            side, t = _canonical_ray_position(n, core_attracting, ref_gamma,
                                              a_minus, a_plus, bounds)
            sides.append(side)
            positions.append(t)
        if len(set(sides)) != 1:
            return False
        # F = [s, s + 1) in the ray coordinate: t_k - m_k < s <= t_k - n_k
        if not max(t - m for t, m in zip(positions, w.indices_m)) \
                < min(t - n for t, n in zip(positions, w.indices_n)):
            return False
        if not all(positions[i] < positions[i + 1] for i in range(3)):
            return False
        if circular_distance_turns(w.xi_star.angle, a_plus) > 1e-9:
            return False

        # boundary-side pair configurations in the ray coordinate
        t1, t2, t3, t4 = positions
        if classify_real_pairs((t1, t4), (t2, t3)) \
                != PairConfig.UNLINKED_ALIGNED:
            return False
        if classify_real_pairs((t1, t3), (t2, t4)) != PairConfig.LINKED:
            return False

        # image side, recomputed from the words
        images = witness_image_points(w, rep)
        for p, r_stored, lift in zip(images, w.radii, w.arglift):
            if not math.isfinite(abs(p)) or abs(p) == 0.0:
                return False
            if abs(abs(p) - r_stored) > 1e-6 * r_stored:
                return False
            arg = math.atan2(p.imag, p.real) / (2.0 * math.pi)
            if not circular_distance_turns(wrap_turns(lift), arg) <= 1e-9:
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


def witness_from_dict(payload: object) -> SpiralWitness:
    """The witness a JSON payload describes; BoundaryError names what is
    missing or malformed."""
    if not isinstance(payload, dict) or payload.get("schema") != "qfcert/1" \
            or payload.get("type") != "spiral_witness":
        raise BoundaryError("not a spiral witness payload")
    pres = reference_representation().presentation

    def point(d) -> BoundaryPointRef:
        return BoundaryPointRef(pres.from_text(str(d["word"])),
                                float(d["angle"]))

    def indices(key: str) -> tuple[int, ...]:
        # a JSON integer only: int() would truncate 12.7 and accept true
        bad = [i for i in payload[key] if type(i) is not int]
        if bad:
            raise TypeError("%s must be integers, got %r" % (key, bad[0]))
        return tuple(payload[key])

    try:
        w = SpiralWitness(
            gamma=pres.from_text(str(payload["gamma"])),
            Lambda=float(payload["Lambda"]),
            Theta=float(payload["Theta"]),
            indices_n=indices("indices_n"),
            indices_m=indices("indices_m"),
            xi=tuple(point(d) for d in payload["xi"]),
            xi_star=point(payload["xi_star"]),
            radii=tuple(float(r) for r in payload["radii"]),
            arglift=tuple(float(s) for s in payload["arglift"]),
            R0=float(payload["R0"]),
            r0=float(payload["r0"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise BoundaryError("malformed witness payload: %r" % exc) from exc
    short = [key for key in ("xi", "indices_n", "indices_m", "radii", "arglift")
             if len(getattr(w, key)) != 4]
    if short:
        raise BoundaryError("witness must carry exactly four %s"
                            % ", ".join(short))
    return w


def sample_to_csv(sample: LimitSetSample) -> str:
    """CSV text: word, reference angle, real part, imaginary part."""
    pres = sample.rep.presentation
    names = [pres.letter_name(x) for x in pres.letters()]  # in rank order
    lines = ["word,angle_ref,re,im"]
    for row, angle, zv in zip(sample.ranks.tolist(), sample.angles.tolist(),
                              sample.image_complex().tolist()):
        if not math.isfinite(abs(zv)):
            re_s, im_s = "inf", "inf"
        else:
            re_s, im_s = repr(zv.real), repr(zv.imag)
        lines.append("%s,%r,%s,%s" % (" ".join(names[r] for r in row if r >= 0),
                                      angle, re_s, im_s))
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
    px = (pts.real - cx + half) * scale
    py = (cy + half - pts.imag) * scale
    rows.extend('<circle cx="%.2f" cy="%.2f" r="1" fill="black"/>' % xy
                for xy in zip(px.tolist(), py.tolist()))
    rows.append("</svg>")
    return "\n".join(rows) + "\n"
