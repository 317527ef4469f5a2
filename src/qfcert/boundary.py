"""Boundary-circle searches: sampled limit sets, the pair walk and the
spiral-witness search.

The abstract boundary circle of the genus-2 group is coordinatized once
and for all by the reference plane representation: a group element's
boundary points are realized as the fixed points of its reference image,
placed on the unit circle of the disk model.  Pair configurations
(linked / unlinked-aligned / unlinked-misaligned) are decided by circular
order of those angles and are topological data of the group, independent
of the representation under study.  The rule, the reference octagon and
the witness verifier live in `check`; `pair_blocks` applies that rule
to a whole table of angle pairs, block by block, as the rule's two
boolean grids.  It is the one pair walk: the triangle harness reads
every ordered pair from it and the certificate search every pair i < j.

For a representation leaving the plane, the limit set is sampled on the
dense subset of attracting fixed points: the word w contributes the
attracting fixed point of its image, which is exactly the boundary-map
image of w's attracting boundary point by equivariance.  The walk forms
both images' products on float64 planes (``_wordarrays``); the reference
side is real and takes the float64 branch of the fixed-point solver, the
bent side the complex one.

Spiraling is witnessed in the chart that puts a chosen complex-multiplier
element gamma at (0, infinity): there the gamma action is the linear map
z -> mu z with mu = Lambda e^{2 pi i Theta}, so radius and argument lift
of sample points obey exact per-translate arithmetic.  The witness is
four boundary points at alternating half-turn argument levels with
strictly growing radii: their position order along the group boundary
ray toward gamma's attracting point survives in the images as one
crossing pair and one disjoint pair of axes, which is the order reversal
that downstream certificates consume.  The search proposes witnesses and
`check.verify_witness_orders` accepts them.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import _wordarrays as wa
from .check import (
    AXIS_CROSS_TOL,
    DEGENERATE_TOL,
    BoundaryError,
    BoundaryPointRef,
    SpiralWitness,
    _arc_data,
    _arc_position,
    _gamma_chart,
    _gamma_power_angle,
    _rank_pair_parts,
    reference_representation,
    verify_witness_orders,
)
# perfbench imports the witness (de)serializers from here
from .check import witness_from_dict, witness_to_dict
from .moebius import MoebiusMap, circular_distance_turns, wrap_turns
from .representations import Representation, conjugate_representation
from .surface_group import Word

# a net rotation smaller than this per step cannot be resolved by sampling
MIN_THETA = 1e-4
# endpoints this close in sorted order are the candidates for the
# DEGENERATE_TOL gap test; farther ones are more than DEGENERATE_TOL apart
_NEAR_WINDOW = 2.0 * DEGENERATE_TOL


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
    """pair_blocks' ranking of an (n, 2) table of angle pairs in
    turns in [0, 1], whose 2n endpoints it sorts once (endpoint k is row
    k % n): the (n, 2) int32 endpoint ranks; the degenerate row pairs, a
    (2, k) array of the rows (i, j) with an endpoint of i closer than
    DEGENERATE_TOL to one of j, in both orders and with every (i, i),
    sorted; and the degenerate rows, whose own two endpoints are that
    close.  The gap is classify_angle_pairs' circular_distance_turns,
    taken on the _near_pairs candidates."""
    n = angles.shape[0]
    points = angles.T.ravel()
    order = np.argsort(points, kind="stable")
    row = np.tile(np.arange(n), 2)
    p, q = _near_pairs(order, points)
    close = circular_distance_turns(points[p], points[q]) < DEGENERATE_TOL
    p, q = row[p[close]], row[q[close]]
    pairs = np.hstack([[p, q], [q, p], [row[:n], row[:n]]])
    return (order.argsort().astype(np.int32).reshape(2, n).T,
            _distinct_columns(pairs[:, np.lexsort(pairs[::-1])]),
            _distinct_columns(np.sort(p[p == q])[None])[0])


def _distinct_columns(a: np.ndarray) -> np.ndarray:
    """The distinct columns of a 2-D array whose columns are sorted."""
    keep = np.ones(a.shape[1], dtype=bool)
    keep[1:] = (a[:, 1:] != a[:, :-1]).any(axis=0)
    return a[:, keep]


# class pairs per block of the pair walk: bounds each block's grids and
# what its consumer gathers from them (64 rows of 4 100 classes at maxlen 5)
_PAIR_BLOCK = 1 << 18


def pair_blocks(angles: np.ndarray, upper: bool):
    """Walk the pairs of an (n, 2) table of angle pairs in blocks of rows,
    about _PAIR_BLOCK pairs each, ranking the table once
    (rank_endpoints).  Yields (lo, hi, linked, misaligned) for rows i in
    [lo, hi) against columns j in [lo, n) when upper, and [0, n)
    otherwise: the rank rule's boolean grids (_rank_pair_parts), so that
    classify_angle_pairs(angles[i], angles[j]) is LINKED, UNLINKED_ALIGNED
    or UNLINKED_MISALIGNED where exactly linked, neither or misaligned
    holds, bit for bit.

    Both grids are True on the cells classify_angle_pairs calls
    DEGENERATE (the degenerate rows, columns and row pairs, each row
    against itself among them) and, when upper, on every j <= i; the
    rule never sets both elsewhere.  The other pairs have four distinct
    endpoints, so their ranks give their circular order (an angle of 1.0
    sorts last, next to 0.0 around the circle).  Upper blocks end at row
    n - 1, which has no pair j > i; an empty table yields no block.
    The walk drops its hold on a block's grids before it forms the next.
    """
    ranks, pairs, rows = rank_endpoints(angles)
    n, lo = len(ranks), 0
    while lo < (n - 1 if upper else n):
        start = lo if upper else 0
        hi = min(n, lo + max(1, _PAIR_BLOCK // (n - start)))
        a, b = ranks[lo:hi], ranks[start:]
        grids = _rank_pair_parts(a[:, :1], a[:, 1:], b[:, 0], b[:, 1])
        k = slice(*np.searchsorted(pairs[0], [lo, hi]))
        ii, jj = pairs[:, k][:, pairs[1, k] >= start] - [[lo], [start]]
        own = rows[(rows >= lo) & (rows < hi)] - lo
        other = rows[rows >= start] - start
        for grid in grids:
            grid[own] = True
            grid[:, other] = True
            grid[ii, jj] = True
            if upper:
                grid[:, :hi - lo] |= np.tri(hi - lo, dtype=bool)
        yield lo, hi, *grids
        del grids
        lo = hi


@dataclass(frozen=True, eq=False)
class LimitSetSample:
    """Sampled limit set: boundary words with reference angles and images.

    Backed by arrays so that million-point samples stay compact.
    Images are stored as projective pairs; `image_complex` divides them
    out, yielding inf for points at infinity.
    """

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
        return LimitSetSample(*(np.take(a, idx, axis=0) for a in (
            self.ranks, self.angles, self.image_pairs)))


# rows per slice of the sample's merge and of passes over a sample
_CHUNK = 1 << 16


def _first_rows(angles: np.ndarray) -> np.ndarray:
    """The first row of each key, the angles rounded to 12 digits, in
    ascending order: the least index in each run of equal keys of the
    default (SIMD) sort.  -0.0 equals 0.0, and each nan is a key of its
    own.  Each array is freed once read, so that the merge peaks no
    higher than a stable sort's."""
    key = np.round(angles, 12)
    order = np.argsort(key)
    key = np.take(key, order)
    head = np.ones(key.size, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=head[1:])
    del key
    if not head.size:
        return order
    starts = np.flatnonzero(head)
    del head
    least = np.minimum.reduceat(order, starts)
    del starts
    # each run's least index, marked, reads in ascending order
    first = np.zeros(order.size, dtype=bool)
    del order
    first[least] = True
    del least
    return np.flatnonzero(first)


def stable_argsort(keys: np.ndarray) -> np.ndarray:
    """np.argsort(keys, kind="stable") of a 1-D float array, from the
    default (SIMD) sort: only the runs of tied keys are sorted again, by
    index.  -0.0 ties with 0.0, and the nans sort last and tie with each
    other, as in the stable sort."""
    order = np.argsort(keys)
    s = np.take(keys, order)
    nan = np.isnan(s)
    tie = (s[1:] == s[:-1]) | (nan[1:] & nan[:-1])
    if tie.any():
        # the positions in runs of ties, each keyed by its run, then by
        # its index
        edge = np.zeros(order.size, dtype=bool)
        edge[:-1] |= tie
        edge[1:] |= tie
        pos = np.flatnonzero(edge)
        run = np.concatenate([[0], np.cumsum(~tie)])[pos]
        key = run * order.size + order[pos]
        key.sort()
        order[pos] = key - run * order.size
    return order


def limit_set_sample(rep: Representation, maxlen: int) -> LimitSetSample:
    """Attracting fixed points of the group elements up to maxlen letters,
    one per boundary point.

    Elements come once each, by their shortlex normal forms
    (``_wordarrays.normal_forms``), and are kept when their images under
    the reference octagon and rep are both translations.  Elements
    sharing a boundary point (powers and roots) are merged, keeping the
    earliest in length-then-shortlex order: the first of those whose
    angles round alike at 12 digits.  That key is numeric: it splits a
    point whose angles straddle a rounding boundary, and it merges
    distinct points that agree to 12 digits (128 of the 1 368 merges at
    maxlen 6, such as a1 a1 a1 a1 b1 at 6.09352337e-07 turns and
    a1 a1 a1 a1 b1 a1 at 6.09352157e-07).  The reference octagon is
    real: it composes on float64 planes, and its fixed points take the
    float64 branch of ``attracting_fixed_pairs``.  The bent side stays
    complex even where it is real: a float64 product there can flip the
    sign of a zero imaginary part in an image point.

    Memory: the rank, angle and pair arrays are allocated once, sized by
    the reduced words (a bound on the normal forms); the merge moves the
    first occurrences to the front in place, and the sample holds views
    of that prefix.
    """
    if maxlen < 1:
        raise BoundaryError("maxlen must be at least 1")
    gens = (wa.exact_real(reference_representation().generator_matrix_array()),
            rep.generator_matrix_array())
    total = sum(8 * 7 ** k for k in range(maxlen))
    ranks, angles, pairs = out = (
        np.full((total, maxlen), -1, dtype=np.int8), np.empty(total),
        np.empty((total, 2), dtype=complex))
    count = 0
    for words, (ref_m, rep_m) in wa.normal_forms(gens, maxlen):
        keep = wa.translating(wa.traces(ref_m)) \
            & wa.translating(wa.traces(rep_m))
        end = count + int(np.count_nonzero(keep))
        # copied only when some row is dropped
        if end - count < len(words):
            words, ref_m, rep_m = (np.compress(keep, x, axis=0)
                                   for x in (words, ref_m, rep_m))
        ranks[count:end, :words.shape[1]] = words
        angles[count:end] = wa.disk_angles_turns(
            wa.attracting_fixed_pairs(ref_m))
        pairs[count:end] = wa.attracting_fixed_pairs(rep_m)
        count = end

    # the first row of each key: the shortest, then shortlex-least word
    first = _first_rows(angles[:count])
    # first[i] >= i, so each slice reads only rows that no earlier slice
    # has overwritten
    for lo in range(0, first.size, _CHUNK):
        rows = first[lo:lo + _CHUNK]
        for a in out:
            a[lo:lo + rows.size] = np.take(a, rows, axis=0)
    return LimitSetSample(ranks=ranks[:first.size], angles=angles[:first.size],
                          image_pairs=pairs[:first.size])


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
    all translates landing in the prescribed index windows.  Levels 1
    and 4 take their nearest candidate; `_middle_pairs` proposes the
    level-2/3 pairs, ranked so the residual angular offsets cancel
    against the radius ratio, and is the only pre-filter.  Each proposal
    is assembled and the first one `verify_witness_orders` accepts is
    returned: the verifier alone applies the radii order and the two
    axis tolerances.
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

    # deterministic seed: earliest sample point comfortably inside its arc
    # whose chart value is finite; its gamma translate closes a
    # fundamental interval [q0, q1).  The candidates are charted in
    # slices that double, so at most twice those up to the seed.
    cands, seed, lo, step = np.flatnonzero(valid & clear), None, 0, 1
    while seed is None and lo < cands.size:
        rows = cands[lo:lo + step]
        finite = _chart_points(np.take(sample.image_pairs, rows, axis=0),
                               chart)[1]
        if finite.any():
            seed = int(rows[np.argmax(finite)])
        lo, step = lo + step, 2 * step
    if seed is None:
        raise BoundaryError("sample too sparse: no seed point clear of the "
                            "axis endpoints")
    seed_side = int(side[seed])
    q0 = float(q[seed])
    t_angle = _gamma_power_angle(ref_gamma, float(sample.angles[seed]), 1)
    q1 = float(_arc_position((t_angle - a_minus) % 1.0, v, seed_side))
    if not q0 < q1 < 1.0:
        raise BoundaryError("sample too sparse: fundamental interval collapsed")

    # the rest reads only the points on the seed's side from q0 on: their
    # chart values, and which of them are finite
    rows = np.flatnonzero(valid & (side == seed_side) & (q >= q0))
    q = np.take(q, rows)
    del valid, clear, side, cands
    z = np.empty(rows.size, dtype=complex)
    finite = np.empty(rows.size, dtype=bool)
    for lo in range(0, rows.size, _CHUNK):
        z[lo:lo + _CHUNK], finite[lo:lo + _CHUNK] = _chart_points(
            np.take(sample.image_pairs, rows[lo:lo + _CHUNK], axis=0), chart)
    fund = finite & (q < q1)
    idx_f = np.flatnonzero(fund)
    if idx_f.size < 8:
        raise BoundaryError("sample too sparse: fundamental interval has only "
                            "%d points" % idx_f.size)
    local = idx_f[np.argsort(q[idx_f])]
    zs = z[local]
    order = rows[local]
    # the nearest radius beyond the interval, checked once the net
    # rotation is known; the per-point arrays are done with after it
    beyond = finite & (q >= q1)
    r0 = float(np.min(np.abs(z[beyond]))) if beyond.any() else None
    del rows, q, z, finite, fund, beyond
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
    by_arg = stable_argsort(base_args)
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
            refs.append(BoundaryPointRef(
                (gamma ** n) * sample.word_at(row) * (gamma ** -n),
                _gamma_power_angle(ref_gamma, float(sample.angles[row]), n)))
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
        witness = assemble([first, (n2, j2), (n3, j3), fourth])
        if verify_witness_orders(witness, rep):
            return witness
        last_error = "candidate witness failed independent verification"
    raise BoundaryError("sample too sparse: " + last_error)


def sample_to_csv(sample: LimitSetSample) -> str:
    """CSV text: word, reference angle, real part, imaginary part; a point
    whose modulus is not finite prints inf,inf."""
    words = wa.word_texts(sample.ranks)
    zs = sample.image_complex()
    re_s, im_s = ([*map(repr, part.tolist())] for part in (zs.real, zs.imag))
    for i in np.flatnonzero(~np.isfinite(np.abs(zs))).tolist():
        re_s[i] = im_s[i] = "inf"
    lines = map(",".join, zip(words, map(repr, sample.angles.tolist()),
                              re_s, im_s))
    return "\n".join(["word,angle_ref,re,im", *lines]) + "\n"


def _percentiles(x: np.ndarray, qs: tuple[int, ...]) -> list[float]:
    """np.percentile(x, qs) bit for bit, from a sort: np.percentile
    imports numpy.ma.

    Its linear method reads the q-th percentile at the virtual index
    v = (n - 1) q / 100, between x[floor(v)] and the next element, and
    interpolates from the nearer one, as NumPy's ``_lerp`` does; from
    the last element on, it reads x[-1] at index -1, with weight v + 1."""
    x = np.sort(x)
    out = []
    for q in qs:
        v = (len(x) - 1) * (q / 100)
        i, j = (math.floor(v), math.floor(v) + 1) if v < len(x) - 1 \
            else (-1, -1)
        a, b, t = float(x[i]), float(x[j]), v - i
        out.append(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)
    return out


def sample_to_svg(sample: LimitSetSample, size: int = 800) -> str:
    """SVG scatter of the sampled limit set (finite points only)."""
    zs = sample.image_complex()
    finite = np.isfinite(zs.real) & np.isfinite(zs.imag)
    pts = zs[finite]
    if pts.size == 0:
        raise BoundaryError("no finite points to draw")
    # robust window: the central percentile box, padded
    re_lo, re_hi = _percentiles(pts.real, (2, 98))
    im_lo, im_hi = _percentiles(pts.imag, (2, 98))
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
