"""Acceptance of the artifacts: what a valid spiral witness or separation
certificate is, and how each is read from and written to JSON.

This is the trusted base of the certificates.  Every number it accepts
is recomputed here from the words, through the scalar path of
`representations` (`evaluate`, `stable_length`) and the reference
octagon, never through the batch word arrays or the searches that
produced the artifact: `boundary` and `certificates` import from this
module, and it imports neither of them.

It also holds the one pair rule: the configuration (linked,
unlinked-aligned, unlinked-misaligned or degenerate) of two point pairs
from the ranks of their four points along the circle.  The batch pair
grid of `boundary` applies the same rank rule to whole class tables.
"""

from __future__ import annotations

import cmath
import enum
import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .moebius import (
    BoundaryPoint,
    Geodesic3,
    InvariantError,
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
    envelope,
    evaluate,
    fuchsian_octagon,
    json_number,
    json_text,
    stable_length,
)
from .surface_group import Word, word_from_text, word_to_text

# angular separations below this (in turns) make pair classification
# meaningless
DEGENERATE_TOL = 1e-8
# two axes are considered crossing when their common perpendicular is
# shorter than this
AXIS_CROSS_TOL = 1e-8


class BoundaryError(InvariantError):
    """Raised for invalid boundary-combinatorics requests."""


@functools.cache
def reference_representation() -> Representation:
    """The plane representation that coordinatizes the group boundary."""
    return fuchsian_octagon()


class PairConfig(enum.Enum):
    LINKED = "linked"
    UNLINKED_ALIGNED = "unlinked_aligned"
    UNLINKED_MISALIGNED = "unlinked_misaligned"
    DEGENERATE = "degenerate"


PAIR_CONFIGS = tuple(PairConfig)


def _rank_pair_parts(ra1, ra2, rb1, rb2) -> tuple[np.ndarray, np.ndarray]:
    """The rank rule, elementwise on broadcast integer arrays: for pairs
    of four distinct points, from their ranks along the circle cut open
    anywhere, the boolean arrays (linked, misaligned); misaligned is
    False wherever linked is True, so the two never hold together.

    With g_k = (b_k ranked above a1), h_k = (b_k ranked above a2) and
    s = (a1 ranked above a2), b_k lies on the arc from a1 to a2 (across
    the cut when s) exactly when g_k ^ h_k ^ s, so the pair is linked
    when g1 ^ g2 ^ h1 ^ h2.  Going from a1, b1 comes before b2 exactly
    when (b1 ranked below b2) ^ g1 ^ g2, and an unlinked pair is
    misaligned when that order disagrees with b1 lying on the arc:
    h1 ^ g2 ^ s ^ (b1 ranked below b2), cleared where the pair is linked.
    """
    # g2 ^ h1 reads all four ranks, so it has the broadcast shape
    linked = np.not_equal(rb2 > ra1, rb1 > ra2)
    misaligned = np.not_equal(linked, ra1 > ra2)
    misaligned ^= rb1 < rb2
    linked ^= rb1 > ra1
    linked ^= rb2 > ra2
    # misaligned and not linked, in place (a 0-d array for scalar ranks)
    misaligned = np.greater(misaligned, linked, out=np.asarray(misaligned))
    return linked, misaligned


def _rank_pair_codes(ra1, ra2, rb1, rb2) -> np.ndarray:
    """The rank rule (_rank_pair_parts) as int8 indices into PAIR_CONFIGS."""
    linked, misaligned = _rank_pair_parts(ra1, ra2, rb1, rb2)
    # LINKED 0, UNLINKED_ALIGNED 1, UNLINKED_MISALIGNED 2
    return np.int8(1) + misaligned - linked


def _four_point_config(values) -> PairConfig:
    """The rank rule on four distinct values (alpha then beta), ranked by
    sorting them: their sorted order is their circular order cut open."""
    ranks = np.argsort(np.argsort(values))
    return PAIR_CONFIGS[int(_rank_pair_codes(*ranks))]


def classify_angle_pairs(alpha: tuple[float, float],
                         beta: tuple[float, float]) -> PairConfig:
    """Configuration of two ordered point pairs on a circle (angles in turns).

    Linked when the beta points separate the alpha points.  When both
    beta points share one complementary arc, the configuration is aligned
    exactly if the four points read alpha1, beta1, beta2, alpha2 or
    alpha1, alpha2, beta2, beta1 around the circle; the other two
    patterns are misaligned.  Two endpoints closer than DEGENERATE_TOL by
    circular_distance_turns make the pair degenerate; otherwise the four
    angles, reduced mod 1, are distinct and classified by their ranks.
    The gap is symmetric to the bit and the ranks encode only the
    circular order, so at every input flipping a single pair toggles
    aligned/misaligned, and flipping both, or swapping the roles of the
    pairs, preserves the configuration.
    """
    values = (*alpha, *beta)
    if any(circular_distance_turns(p, q) < DEGENERATE_TOL
           for p, q in itertools.combinations(values, 2)):
        return PairConfig.DEGENERATE
    return _four_point_config([x % 1.0 for x in values])


def classify_pairs(a: Word, b: Word) -> PairConfig:
    """Configuration of the fixed-point pairs of two words on the group boundary."""
    return classify_angle_pairs(fixed_angles(a), fixed_angles(b))


def classify_real_pairs(alpha: tuple[float, float],
                        beta: tuple[float, float]) -> PairConfig:
    """Configuration of two ordered pairs of reals on the circle R u {inf}.

    Exact order combinatorics: no tolerance, so points whose magnitudes
    differ by hundreds of orders (which would collapse any angular chart)
    still classify correctly.  Tied values are degenerate; four distinct
    values are ranked by sorting, as classify_angle_pairs ranks its
    angles, since the cyclic order on R u {inf} restricted to four finite
    points is their sorted order on R.
    """
    values = (*alpha, *beta)
    if len(set(values)) < 4:
        return PairConfig.DEGENERATE
    return _four_point_config(values)


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
    a_minus, a_plus = fixed_angles(gamma)
    return evaluate(reference_representation(), gamma), a_minus, a_plus


def _gamma_power_angle(ref_gamma: MoebiusMap, angle: float, n: int) -> float:
    """Disk angle of gamma^n (n >= 0) applied to the boundary point at angle.

    gamma acts through its reference image ref_gamma, one application at
    a time, so the angle carries the rounding of n steps of that map.
    """
    pt = _angle_to_boundary_point(angle)
    for _ in range(n):
        pt = ref_gamma(pt)
    return disk_angle(pt)


def _arc_position(x, v: float, side):
    """Position along a side arc of the base axis, from 0 at the repelling
    to 1 at the attracting angle; scalars or arrays.

    x and v are the turns of the point and of the attracting angle past
    the repelling angle; side is 1 on the arc x < v and -1 on the other,
    kept from the caller even where rounding moves x across.
    """
    return np.where(side == 1, x / v, (1.0 - x) / (1.0 - v))


def _canonical_ray_position(n: int, ang: float, ref_gamma: MoebiusMap,
                            a_minus: float, a_plus: float) -> tuple[int, float]:
    """(side, ray position) of gamma^n applied to the boundary point at ang.

    Positions along a side arc of the base axis run from 0 at the
    repelling to 1 at the attracting angle.  On the point's own side the
    canonical fundamental interval of gamma is [c, gamma(c)) with c = 1/2;
    the ray position is an integer level plus the coordinate in [0, 1)
    inside that interval, so positions of points presented with different
    conjugating powers are directly comparable: larger means closer to
    the attracting point along the arc.
    """
    v = (a_plus - a_minus) % 1.0
    x = (ang - a_minus) % 1.0
    if x == 0.0 or x == v:
        raise BoundaryError("point sits at an endpoint of the base axis")
    side = 1 if x < v else -1

    def pos(angle: float) -> float:
        return float(_arc_position((angle - a_minus) % 1.0, v, side))

    c = 0.5
    c_angle = (a_minus + c * v) % 1.0 if side == 1 \
        else (a_minus + 1.0 - c * (1.0 - v)) % 1.0
    gc = pos(_gamma_power_angle(ref_gamma, c_angle, 1))
    if not c < gc < 1.0:
        raise BoundaryError("fundamental interval of the base element collapsed")
    inv = ref_gamma.inverse()
    pt = _angle_to_boundary_point(ang)
    for _ in range(256):
        q = pos(disk_angle(pt))
        if q < c:
            pt = ref_gamma(pt)
            n -= 1
        elif q >= gc:
            pt = inv(pt)
            n += 1
        else:
            return side, n + (q - c) / (gc - c)
    raise BoundaryError("ray position failed to normalize")


def _image_points(splits: list[tuple[int, Word]], rep: Representation,
                  data: LoxodromicData,
                  chart: MoebiusMap) -> tuple[complex, ...]:
    """mu^n times the chart image of u's attracting point, per split (n, u)."""
    out = []
    for n, core in splits:
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


def witness_image_points(w: SpiralWitness,
                         rep: Representation) -> tuple[complex, complex,
                                                       complex, complex]:
    """The four chart images of the witness points, recomputed from words.

    Each xi word is split once into gamma^n u gamma^-n with u short, and
    gamma's chart is built once; the image point is mu^n times the chart
    image of u's attracting point.  The gamma action in its own chart is
    exact multiplication by mu, so this stays accurate at radii far
    beyond where iterating the matrix would collapse the point onto the
    attracting direction.
    """
    data, chart = _gamma_chart(rep, w.gamma)
    return _image_points([_strip_conjugator(ref.word, w.gamma)
                          for ref in w.xi], rep, data, chart)


def verify_witness_orders(w: SpiralWitness, rep: Representation) -> bool:
    """Independently re-check a spiral witness against the representation.

    Each xi word is split once into gamma^n u gamma^-n and gamma's chart
    is built once; the boundary side and the image side both read those
    splits, and every number is recomputed from the words.  Verifies the
    index inequalities, strictly increasing radii, the boundary-side
    position order (computed in the exact ray coordinate along gamma,
    where stored angles would saturate at the attracting point), and the
    image-side facts: the images
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

    The position order t1 < t2 < t3 < t4 fixes the boundary-side pair
    configurations: by the rank rule (t1, t4)/(t2, t3) is then unlinked
    and aligned and (t1, t3)/(t2, t4) linked, so neither is classified
    again.  The image-side configuration is classified, since the radii
    do not fix the order of the real parts.

    The stored data cannot prove the integer parts of Theta and of the
    arglifts, nor R0 and r0 beyond their sign: those two come from the
    sample the search drew its points from.
    """
    try:
        if any(len(x) != 4 for x in (w.xi, w.indices_n, w.indices_m,
                                     w.radii, w.arglift)):
            return False
        # checked before the division R0 / r0 below
        if not all(0.0 < x < math.inf for x in (w.R0, w.r0, *w.radii)):
            return False
        data, chart = _gamma_chart(rep, w.gamma)
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
        splits = [_strip_conjugator(ref.word, w.gamma) for ref in w.xi]
        ref_gamma, a_minus, a_plus = _arc_data(w.gamma)
        positions: list[float] = []
        sides: list[int] = []
        for ref, (n, core) in zip(w.xi, splits):
            if len(core) == 0:
                return False
            core_attracting = fixed_angles(core)[1]
            # the search's angle: gamma^n of the core's attracting point
            if not circular_distance_turns(
                    _gamma_power_angle(ref_gamma, core_attracting, n),
                    ref.angle) <= 1e-9:
                return False
            side, t = _canonical_ray_position(n, core_attracting, ref_gamma,
                                              a_minus, a_plus)
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

        # image side, recomputed from the same splits
        images = _image_points(splits, rep, data, chart)
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
    except (ValueError, OverflowError):
        return False


@dataclass(frozen=True)
class PairScanCounts:
    """What a certificate search touched, in unordered class pairs: those
    classified on the boundary, those found unlinked-aligned, and those
    whose ratio was evaluated exactly, each once.  No check reads it."""

    classified: int
    aligned: int
    exact: int


class CertificateError(InvariantError):
    """Raised for violated inequalities or failed certificate searches."""

    # scan is the search's counts, when a search raised
    def __init__(self, message: str, best_ratio: float | None = None,
                 scan: PairScanCounts | None = None):
        super().__init__(message)
        self.best_ratio = best_ratio
        self.scan = scan


@dataclass(frozen=True)
class SeparationCertificate:
    """An unlinked-aligned pair whose combined length contracts.

    ratio = (l(a) + l(b)) / l(ab) > 1 under the space representation,
    while every plane-like negatively curved metric keeps this ratio
    below 1 for an unlinked-aligned pair; alpha = log(ratio) therefore
    lower-bounds the Lipschitz distance to all of them at once.
    """

    rep_id: str
    a: Word
    b: Word
    config: PairConfig
    ell_q_a: float
    ell_q_b: float
    ell_q_ab: float
    ratio: float
    alpha: float
    # the search's counts; not part of the certificate or its equality
    scan: PairScanCounts | None = field(default=None, compare=False,
                                        repr=False)


def certificate_problems(cert: SeparationCertificate,
                         rep_q: Representation) -> list[str]:
    """Every discrepancy found when re-deriving the certificate from rep_q.

    Empty list means the certificate is valid.  Each entry names the
    failed check with the stored and recomputed values.
    """
    problems: list[str] = []
    try:
        if cert.config != PairConfig.UNLINKED_ALIGNED:
            problems.append("stored config is %s, not unlinked-aligned"
                            % cert.config.value)
        for name, value in (("ell_q_a", cert.ell_q_a),
                            ("ell_q_b", cert.ell_q_b),
                            ("ell_q_ab", cert.ell_q_ab)):
            if not value > 0.0:
                problems.append("stored %s = %r is not positive"
                                % (name, value))
        if not cert.ratio > 1.0:
            problems.append("stored ratio %r does not exceed 1" % cert.ratio)
        if problems:
            return problems
        recomputed = (("ell_q_a", cert.ell_q_a,
                       stable_length(rep_q, cert.a)),
                      ("ell_q_b", cert.ell_q_b,
                       stable_length(rep_q, cert.b)),
                      ("ell_q_ab", cert.ell_q_ab,
                       stable_length(rep_q, cert.a * cert.b)))
        # written "not <=" so that a NaN stored value fails too
        for name, stored, fresh in recomputed:
            if not abs(fresh - stored) <= 1e-9:
                problems.append("%s stored %.17g but recomputes to %.17g"
                                % (name, stored, fresh))
        ell_a, ell_b, ell_ab = (fresh for _, _, fresh in recomputed)
        if not ell_ab > 0.0:
            # a trivial or non-translating product: there is no ratio
            problems.append("l(ab) recomputes to %.17g, not positive"
                            % ell_ab)
        else:
            ratio = (ell_a + ell_b) / ell_ab
            if not abs(ratio - cert.ratio) <= 1e-9:
                problems.append("ratio stored %.17g but recomputes to %.17g"
                                % (cert.ratio, ratio))
            if not ratio > 1.0:
                problems.append("recomputed ratio %.17g does not exceed 1"
                                % ratio)
            if not abs(cert.alpha - math.log(ratio)) <= 1e-9:
                problems.append("alpha stored %.17g but log(ratio) is %.17g"
                                % (cert.alpha, math.log(ratio)))
        config = classify_pairs(cert.a, cert.b)
        if config != PairConfig.UNLINKED_ALIGNED:
            problems.append("pair reclassifies to %s, not unlinked-aligned"
                            % config.value)
    except (ValueError, OverflowError) as exc:
        problems.append("recomputation failed: %s" % exc)
    return problems


def certify(cert: SeparationCertificate, rep_q: Representation) -> bool:
    """Independently re-derive every certificate field against rep_q."""
    return not certificate_problems(cert, rep_q)


def _opened(payload: object, kind: str, error: type) -> dict:
    """payload, when it opens with the envelope of this kind; error
    otherwise."""
    if not (isinstance(payload, dict)
            and envelope(kind).items() <= payload.items()):
        raise error("not a %s payload" % kind.replace("_", " "))
    return payload


def witness_to_dict(w: SpiralWitness) -> dict:
    return {
        **envelope("spiral_witness"),
        "gamma": word_to_text(w.gamma),
        "Lambda": w.Lambda,
        "Theta": w.Theta,
        "indices_n": list(w.indices_n),
        "indices_m": list(w.indices_m),
        "xi": [{"word": word_to_text(p.word), "angle": p.angle}
               for p in w.xi],
        "xi_star": {"word": word_to_text(w.xi_star.word),
                    "angle": w.xi_star.angle},
        "radii": list(w.radii),
        "arglift": list(w.arglift),
        "R0": w.R0,
        "r0": w.r0,
    }


def witness_from_dict(payload: object) -> SpiralWitness:
    """The witness a JSON payload describes; BoundaryError names what is
    missing or malformed."""
    payload = _opened(payload, "spiral_witness", BoundaryError)

    def point(d) -> BoundaryPointRef:
        return BoundaryPointRef(word_from_text(json_text(d["word"])),
                                float(json_number(d["angle"])))

    def indices(key: str) -> tuple[int, ...]:
        # a JSON integer only: int() would truncate 12.7 and accept true
        bad = [i for i in payload[key] if type(i) is not int]
        if bad:
            raise TypeError("%s must be integers, got %r" % (key, bad[0]))
        return tuple(payload[key])

    try:
        w = SpiralWitness(
            gamma=word_from_text(json_text(payload["gamma"])),
            Lambda=float(json_number(payload["Lambda"])),
            Theta=float(json_number(payload["Theta"])),
            indices_n=indices("indices_n"),
            indices_m=indices("indices_m"),
            xi=tuple(point(d) for d in payload["xi"]),
            xi_star=point(payload["xi_star"]),
            radii=tuple(float(json_number(x)) for x in payload["radii"]),
            arglift=tuple(float(json_number(x)) for x in payload["arglift"]),
            R0=float(json_number(payload["R0"])),
            r0=float(json_number(payload["r0"])),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise BoundaryError("malformed witness payload: %r" % exc) from exc
    short = [key for key in ("xi", "indices_n", "indices_m", "radii", "arglift")
             if len(getattr(w, key)) != 4]
    if short:
        raise BoundaryError("witness must carry exactly four %s"
                            % ", ".join(short))
    return w


def certificate_to_dict(cert: SeparationCertificate) -> dict:
    return {
        **envelope("separation_certificate"),
        "rep_id": cert.rep_id,
        "a": word_to_text(cert.a),
        "b": word_to_text(cert.b),
        "config": cert.config.value,
        "ell_q_a": cert.ell_q_a,
        "ell_q_b": cert.ell_q_b,
        "ell_q_ab": cert.ell_q_ab,
        "ratio": cert.ratio,
        "alpha": cert.alpha,
    }


def certificate_from_dict(payload: object) -> SeparationCertificate:
    """The certificate a JSON payload describes; CertificateError names
    what is missing or malformed."""
    payload = _opened(payload, "separation_certificate", CertificateError)
    try:
        return SeparationCertificate(
            rep_id=json_text(payload["rep_id"]),
            a=word_from_text(json_text(payload["a"])),
            b=word_from_text(json_text(payload["b"])),
            config=PairConfig(payload["config"]),
            ell_q_a=float(json_number(payload["ell_q_a"])),
            ell_q_b=float(json_number(payload["ell_q_b"])),
            ell_q_ab=float(json_number(payload["ell_q_ab"])),
            ratio=float(json_number(payload["ratio"])),
            alpha=float(json_number(payload["alpha"])),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CertificateError("malformed certificate payload: %r" % exc) from exc
