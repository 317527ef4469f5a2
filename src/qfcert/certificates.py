"""Checkable artifacts: inequality records, Lipschitz-ratio bounds, and
separation certificates.

Three layers of verifiable content:

* the triangle harness checks, over all sampled conjugacy-class pairs of
  a plane representation, that combined translation lengths obey the
  strict inequality dictated by the pair's boundary configuration —
  linked pairs contract (l(ab) < l(a) + l(b)), unlinked-aligned pairs
  stretch (l(ab) > l(a) + l(b)), and unlinked-misaligned pairs stretch
  after inverting one factor (l(a^-1 b) > l(a) + l(b));

* the ratio lower bound extracts, from two length spectra, the pair of
  classes whose length ratios differ the most — the log of that double
  ratio lower-bounds the Lipschitz distance between the metric classes,
  with scale factors cancelling exactly;

* a separation certificate is an unlinked-aligned pair whose combined
  length under a space representation contracts (ratio > 1): since every
  plane-like negatively curved metric stretches such pairs, the log-ratio
  separates the space representation from all of them simultaneously.
  The search evaluates each pair's ratio exactly unless a float32 screen
  with a rounding-error argument (_Screen) shows, a block of pairs at a
  time, that it is below the best ratio so far.

Certificates are serialized as JSON with full-precision lengths and the
representation fingerprint.  Their format and their acceptance check
(`certificate_problems`, which re-derives every field) live in `check`;
the search here only proposes a winner.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import _wordarrays as wa
from .boundary import pair_blocks
from .check import (
    PAIR_CONFIGS,
    CertificateError,
    PairConfig,
    PairScanCounts,
    SeparationCertificate,
    SpiralWitness,
    certificate_problems,
    reference_representation,
    verify_witness_orders,
    witness_image_points,
)
# perfbench imports the certificate reader from here
from .check import certificate_from_dict
from .representations import (
    LengthSpectrum,
    Representation,
    representation_hash,
    stable_length,
    stable_lengths,
)
from .surface_group import Word

# a certificate must clear 1 by at least this much to be emitted
MIN_CERTIFICATE_MARGIN = 1e-6


@dataclass(frozen=True, eq=False)
class TriangleRecords:
    """Combined-length inequality checks as columns: record k checks the
    class of row ranks[a[k]] with that of ranks[b[k]] in configuration
    PAIR_CONFIGS[config[k]].
    ell_combined is l(ab) for linked and unlinked-aligned pairs and
    l(a^-1 b) for unlinked-misaligned pairs; slack is the signed margin
    of the strict inequality the configuration dictates, positive iff
    the inequality holds."""

    ranks: np.ndarray          # (n, maxlen) int8 class rows, -1 padded
    lengths: list[float]       # stable length of each class
    a: np.ndarray              # (k,) int class indices
    b: np.ndarray
    config: np.ndarray         # (k,) int8 indices into PAIR_CONFIGS
    ell_combined: np.ndarray   # (k,) float64
    slack: np.ndarray

    def __len__(self) -> int:
        return int(self.a.size)


@dataclass(frozen=True)
class DlipRatioBound:
    """Max log double ratio |log((l1(a)/l1(b)) / (l2(a)/l2(b)))| over pairs.

    Lower-bounds the Lipschitz distance between the two spectra's metric
    classes; any global rescaling of either spectrum cancels exactly.
    """

    spec1_id: str
    spec2_id: str
    a: Word
    b: Word
    value: float


def _class_table(rep: Representation, maxlen: int):
    """Class rows, their products under rep, and (repelling, attracting)
    reference angles; classes not translating under both are dropped."""
    if not 1 <= maxlen < len(wa.RELATOR):
        raise CertificateError("maxlen must be at least 1 and below %d"
                               % len(wa.RELATOR))
    rows, mats, ref_m = wa.conjugacy_classes(
        maxlen, rep.generator_matrix_array(),
        wa.exact_real(reference_representation().generator_matrix_array()))
    keep = wa.translating(wa.traces(ref_m)) & wa.translating(wa.traces(mats))
    rows, mats, ref_m = (np.compress(keep, x, axis=0)
                         for x in (rows, mats, ref_m))
    angles = np.stack(
        [wa.disk_angles_turns(wa.repelling_fixed_pairs(ref_m)),
         wa.disk_angles_turns(wa.attracting_fixed_pairs(ref_m))], axis=-1)
    return rows, mats, angles


def triangle_harness(rep: Representation, maxlen: int) -> TriangleRecords:
    """Check every configured conjugacy-class pair's strict inequality.

    Pairs with coincident boundary points are skipped as degenerate.  A
    single violated record raises: the inequalities admit no exceptions,
    so a violation falsifies either the representation or the harness.
    Records are in row-major order of the class table; each combined
    word is composed in batch, bit for bit as stable_length would.
    """
    rows, mats, angles = _class_table(rep, maxlen)
    lengths = stable_lengths(mats)
    ells = np.array(lengths)
    gens = rep.generator_matrix_array()
    # typed empty columns, so that a table without pairs gives no records
    columns = [(np.empty(0, np.intp), np.empty(0, np.intp),
                np.empty(0, np.int8), np.empty(0), np.empty(0))]
    for lo, _, linked, misaligned in pair_blocks(angles, False):
        # both grids hold only on degenerate pairs, each class with itself
        # among them: its endpoint gaps are 0
        ii, jj = np.nonzero(~(linked & misaligned))
        link, mis = linked[ii, jj], misaligned[ii, jj]
        codes = np.int8(1) + mis - link
        ii += lo
        combined = np.array(stable_lengths(wa.compose_matrices(
            wa.join_rows(rows[ii], rows[jj], mis), gens)))
        total = ells[ii] + ells[jj]
        slack = np.where(link, total - combined, combined - total)
        bad = np.flatnonzero(~(slack > 0.0))
        if bad.size:
            k = bad[0]
            raise CertificateError(
                "combined-length inequality violated for %s, %s "
                "(%s, slack %.3e)" % (*wa.word_texts(rows[[ii[k], jj[k]]]),
                                      PAIR_CONFIGS[codes[k]].value, slack[k]))
        columns.append((ii, jj, codes, combined, slack))
    return TriangleRecords(rows, lengths,
                           *(np.concatenate(c) for c in zip(*columns)))


def ratio_lower_bound(spec1: LengthSpectrum, spec2: LengthSpectrum,
                      maxlen: int) -> DlipRatioBound:
    """Maximize the log double ratio of two spectra over class pairs.

    The maximizing pair is (argmax, argmin) of the per-class log-length
    deviation between the spectra, so the search is linear and the
    result is exactly symmetric in the two spectra and in the pair.
    """
    common = [w for w in spec1.entries
              if len(w) <= maxlen and w in spec2.entries
              and spec1.entries[w] > 1e-12 and spec2.entries[w] > 1e-12]
    if not common:
        raise CertificateError("the spectra share no usable classes "
                               "up to the requested length")
    dev = {w: math.log(spec1.entries[w]) - math.log(spec2.entries[w])
           for w in common}
    a = max(common, key=lambda w: dev[w])
    b = min(common, key=lambda w: dev[w])
    return DlipRatioBound(spec1_id=spec1.rep_id, spec2_id=spec2.rep_id,
                          a=a, b=b, value=dev[a] - dev[b])


def _pair_ratios(table: np.ndarray, ell: np.ndarray, first: np.ndarray,
                 second: np.ndarray) -> np.ndarray:
    """(l(a) + l(b)) / l(ab) for the class pairs (first[k], second[k]),
    -inf where l(ab) is not above 1e-9; table holds the class products
    with the class axis last, (2, 2, n), and ell their lengths.

    The trace is summed in one fixed order, from 0.0: A00 B00, A01 B10,
    A10 B01, A11 B11, each complex term formed on the real and imaginary
    planes as _wordarrays._plane_products does.
    """
    tr = np.zeros(first.size, dtype=complex)
    for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
        x, y = table[i, j].take(first), table[j, i].take(second)
        tr.real += x.real * y.real - x.imag * y.imag
        tr.imag += x.real * y.imag + x.imag * y.real
    ell_ab = 2.0 * np.abs(np.arccosh(tr / 2.0).real)
    ok = ell_ab > 1e-9
    return np.where(ok, (ell[first] + ell[second]) / np.where(ok, ell_ab, 1.0),
                    -np.inf)


# the relative error the screen allows each arccosh of _pair_ratios
_BOUND_SLACK = 2.0 ** -40
# the screen drops no pair whose l(ab) is at most this
_MIN_BOUNDED_LENGTH = 0.125


# the screen's relative margin and absolute allowance, 32 float32 units
# (_Screen shows that 9.1 and 24.1 units suffice)
_SCREEN_SLACK = 2.0 ** -19
# class pairs per chunk of the screen, so that its work arrays stay in cache
_SCREEN_CHUNK = 1 << 15


class _Screen:
    """The float32 screen of the certificate scan: the pairs of a block
    whose exact ratio (_pair_ratios) may reach the best ratio B.

    With s(z) = (|z + 1| + |z - 1|) / 2 = cosh(Re arccosh z), z half the
    trace that _pair_ratios computes, the ratio is below B roughly when
    s > cosh(X), X = c (l(a) + l(b)) = x_a + x_b, c = (1 + _BOUND_SLACK) /
    (2B).  As cosh(X) = C_a C_b + S_a S_b with C = cosh(x) and S = sinh(x),
    the threshold of a block is an outer product of per-class vectors; and
    s >= |z|.  So the screen computes, with t = tr(AB), n_A = max(1,
    |A|_F), m = n_A n_B, e = _SCREEN_SLACK, u32 = 2^-24 and u = 2^-53,

        q = |t / m| in complex64, from A / n_A and B / n_B,
        r = 2 (1 + e) cosh(X) / m + e in float32, from C / n and S / n,

    with x raised to at least _MIN_BOUNDED_LENGTH / 4, and drops a pair
    only where q > r.  The computed values put the dropped pair's exact
    ratio below B:

    * (float32 trace) The scaled entries, rounded to complex64, err by
      u + u32 relative; the four complex products err by sqrt(2) gamma_2
      and their sum by gamma_3 (Higham, Accuracy and Stability of
      Numerical Algorithms, 3.1 and 3.6).  The scaled products have
      |A|_F <= 1, so the trace errs by at most 8 u32, and NumPy's complex
      abs, a scaled hypot of five roundings, by 4 u32 relative: |t| / m
      >= q (1 - 4 u32) - 8 u32.  No entry exceeds 1, so nothing
      overflows; underflow adds under 2^-140 in all.
    * (float64 trace) _pair_ratios forms the same four products in
      float64 and sums them in a fixed order, so by the same two bounds
      its trace is within 6u sum |A_ij||B_ji| <= 6u |A|_F |B|_F of t, and
      the computed norms are within 4u relative of the exact ones.  As s
      >= |z|, 2 s / m >= |t| / m - 6.01 u >= q (1 - 4 u32) - 8.01 u32.
    * (threshold) Each vector entry has float64 errors under 2^-40 and
      one float32 rounding; two products and two sums of nonnegative
      terms round once each, so the computed r is at least (1 - 5.01 u32)
      times its exact value, less 2^-20 for underflow (a factor under
      2^-126 errs by 2^-150, and the other is under 2^128).
    * (drop) So q > r gives 2 s / m > 2 cosh(X)(1 + e)(1 - 9.02 u32) / m
      + e (1 - 9.02 u32) - 2^-20 - 8.01 u32 >= 2 cosh(X)(1 + 2^-28) / m,
      as e = 32 u32.  Then acosh(s) > X (1 + 2^-40 + 4u) for X < 1 421 (a
      larger x overflows cosh(x) in float64 and keeps the pair).  With
      arccosh within 2^-40 relative, as _BOUND_SLACK assumes, and the
      halving and doubling exact, the l(ab) of _pair_ratios exceeds 2 X (1
      + u)^3, which is above _MIN_BOUNDED_LENGTH and its 1e-9 cutoff.  The
      numerator l(a) + l(b) and the division round once each, and x_a >=
      c l(a) (1 - u)^2, so the ratio is below (l(a) + l(b)) / (2X (1 + u))
      <= B / ((1 + _BOUND_SLACK)(1 - u)^2 (1 + u)) < B.  Raising x only
      raises r.

    So every pair whose exact ratio reaches B is kept.  An infinite norm
    makes q 0 or NaN, and any other NaN or infinity in the table, the
    norms or the lengths makes q NaN or r infinite or NaN: the pair is
    kept, and no warning is raised.
    """

    def __init__(self, table: np.ndarray, ell: np.ndarray, norm: np.ndarray):
        self.scale = np.maximum(norm, 1.0)
        with np.errstate(invalid="ignore"):
            self.rows = (table / self.scale).astype(np.complex64)
        self.cols = np.ascontiguousarray(self.rows.transpose(1, 0, 2))
        self.ell = ell
        self.best = None
        size = max(_SCREEN_CHUNK, len(ell))
        self._trace, self._term = np.empty((2, size), np.complex64)
        self._bound, self._work = np.empty((2, size), np.float32)

    def _set_best(self, best: float) -> None:
        x = np.maximum(self.ell * ((1.0 + _BOUND_SLACK) / (2.0 * best)),
                       _MIN_BOUNDED_LENGTH / 4.0)
        with np.errstate(over="ignore", invalid="ignore"):
            cols = np.stack([np.cosh(x), np.sinh(x)]) / self.scale
            self.row_cs = (cols * (2.0 * (1.0 + _SCREEN_SLACK))).astype(
                np.float32)
            self.col_cs = cols.astype(np.float32)
        self.best = best

    def keep(self, lo: int, hi: int, best: float) -> np.ndarray:
        """The pairs of rows i in [lo, hi) and j >= lo as a (hi - lo, n -
        lo) grid, False only where the pair's ratio is below best > 0."""
        if best != self.best:
            self._set_best(best)
        width = len(self.ell) - lo
        drop = np.empty((hi - lo, width), dtype=bool)
        step = max(1, _SCREEN_CHUNK // width)
        with np.errstate(over="ignore", invalid="ignore"):
            for a in range(lo, hi, step):
                b = min(hi, a + step)
                t, term, r, q = (w[:(b - a) * width].reshape(b - a, width)
                                 for w in (self._trace, self._term,
                                           self._bound, self._work))
                np.multiply(self.rows[0, 0, a:b, None], self.cols[0, 0, lo:],
                            out=t)
                for i, j in ((0, 1), (1, 0), (1, 1)):
                    np.multiply(self.rows[i, j, a:b, None],
                                self.cols[i, j, lo:], out=term)
                    t += term
                np.multiply(self.row_cs[0, a:b, None], self.col_cs[0, lo:],
                            out=r)
                np.multiply(self.row_cs[1, a:b, None], self.col_cs[1, lo:],
                            out=q)
                r += q
                r += np.float32(_SCREEN_SLACK)
                np.abs(t, out=q)
                np.greater(q, r, out=drop[a - lo:b - lo])
        return np.logical_not(drop, out=drop)


def find_separation_certificate(
        rep_q: Representation, maxlen: int,
        min_ratio: float = 1.0 + MIN_CERTIFICATE_MARGIN) -> SeparationCertificate:
    """Search class pairs for an unlinked-aligned pair with contracting ratio.

    All unordered pairs of conjugacy representatives up to maxlen are
    candidates, each once, with a the shortlex-earlier class: l(ab) =
    l(ba), so the ratio belongs to the pair.  Among pairs classified
    unlinked-aligned on the group boundary with ratio at or above the
    threshold, the maximal-ratio pair wins, with exact ties broken by
    total word length then shortlex order of a, then of b.  Exact ties
    occur: at maxlen 6 and bend 0.6 at least three pairs share the ratio
    1.0000821716516761 to the bit, so the tie-break alone picks the
    winner, and lengths one ulp apart pick another.  When nothing
    reaches the threshold, the raised error reports the best ratio found
    so the caller can increase maxlen or the deformation.  The
    certificate and the error carry the scan's PairScanCounts.

    The scan only proposes a winner; only certificate_problems accepts
    it.  Its fields are recomputed scalar, and the certificate is
    returned when certificate_problems finds nothing and the recomputed
    ratio still reaches the threshold.  Otherwise CertificateError names
    the recomputed ratio and every problem; a zero l(ab) is one of them,
    not a division by zero.

    The scan reads the pairs i < j of class rows from the upper pair
    walk (boundary.pair_blocks): the boundary configuration is classified
    once per pair, which relies on the unlinked-aligned relation being
    symmetric (a pair is aligned with b exactly when b is aligned with a,
    and no class with itself).  That holds by construction: degeneracy
    comes from a gap that is symmetric to the bit, and the rank rule
    reads only circular order.  A block's aligned pairs are those where
    neither of the walk's grids (linked, misaligned) holds, formed in
    place with no configuration codes.

    Two tiers evaluate them.  Once an exact ratio is positive, a float32
    screen (_Screen) runs on each whole block and drops the aligned
    pairs whose ratio its rounding-error argument shows to be below the
    best ratio of the blocks before.  Every other aligned pair gets its
    ratio from _pair_ratios at (i, j), bit for bit as a full scan of the
    pairs computes it.  A pair left out has its ratio below the best
    one, so the maximum, all pairs tied with it and the reported best
    ratio are the full scan's.  The aligned count is taken before the
    screen; the exact count is every aligned pair up to the block of the
    first positive ratio and the screen's survivors after it.
    """
    threshold = max(min_ratio, 1.0 + MIN_CERTIFICATE_MARGIN)
    rows, rep_m, angles = _class_table(rep_q, maxlen)
    # every kept row translates, so no length needs zeroing
    ell = 2.0 * np.abs(np.arccosh(wa.traces(rep_m) / 2.0).real)
    lengths = (rows >= 0).sum(axis=1)
    n = rows.shape[0]
    if n < 2:
        raise CertificateError("not enough classes to form a pair")
    table = np.ascontiguousarray(rep_m.transpose(1, 2, 0))
    norm = np.sqrt((np.abs(rep_m) ** 2).sum(axis=(1, 2)))
    screen = _Screen(table, ell, norm)
    best_any = -math.inf
    # (-ratio, total length, row of a, row of b): the least tuple wins
    best: tuple[float, int, int, int] | None = None
    n_aligned = n_exact = 0
    # the aligned relation is symmetric with an empty diagonal, so each
    # unordered pair is classified once, at j > i
    for lo, hi, linked, misaligned in pair_blocks(angles, True):
        # aligned: neither linked nor misaligned, nor degenerate or j <= i
        aligned = np.logical_or(linked, misaligned, out=linked)
        np.logical_not(aligned, out=aligned)
        n_aligned += int(np.count_nonzero(aligned))
        if best_any > 0.0:
            aligned &= screen.keep(lo, hi, best_any)
        # row-major order, as np.nonzero gives it, but on the flat grid
        ii, jj = np.divmod(np.flatnonzero(aligned), aligned.shape[1])
        ii += lo
        jj += lo
        if not ii.size:
            continue
        ratio = _pair_ratios(table, ell, ii, jj)
        n_exact += ratio.size
        block_best = float(ratio.max())
        best_any = max(best_any, block_best)
        if block_best < threshold:
            continue
        # rows are shortlex-sorted, so row order is the shortlex tie-break
        for k in np.flatnonzero(ratio >= max(threshold, block_best)).tolist():
            i, j = int(ii[k]), int(jj[k])
            cand = (-float(ratio[k]), int(lengths[i] + lengths[j]), i, j)
            if best is None or cand < best:
                best = cand
    scan = PairScanCounts(classified=n * (n - 1) // 2, aligned=n_aligned,
                          exact=n_exact)
    if best is None:
        raise CertificateError(
            "no unlinked-aligned pair reached ratio %.7f "
            "(best found %.7f); increase maxlen or the deformation"
            % (threshold, best_any), best_ratio=best_any, scan=scan)
    _, _, i, j = best
    a = Word(wa.ranks_to_letters(rows[i]))
    b = Word(wa.ranks_to_letters(rows[j]))
    # final certificate fields are recomputed scalar, not taken from the
    # vectorized scan; a zero l(ab) leaves a NaN ratio for the check
    ell_a, ell_b, ell_ab = (stable_length(rep_q, w) for w in (a, b, a * b))
    ratio = (ell_a + ell_b) / ell_ab if ell_ab > 0.0 else math.nan
    cert = SeparationCertificate(
        rep_id=representation_hash(rep_q), a=a, b=b,
        config=PairConfig.UNLINKED_ALIGNED, ell_q_a=ell_a, ell_q_b=ell_b,
        ell_q_ab=ell_ab, ratio=ratio, alpha=math.log(ratio), scan=scan)
    problems = certificate_problems(cert, rep_q)
    if problems or not ratio >= threshold:
        raise CertificateError("; ".join(
            ["winning pair failed scalar recomputation: ratio %.17g, "
             "threshold %.17g" % (ratio, threshold)] + problems),
            best_ratio=ratio, scan=scan)
    return cert


def diagnostic_delta(rep_q: Representation, witness: SpiralWitness) -> float:
    """Busemann gap of the witness diagonal where the image axes cross.

    The gap of the diagonal geodesic through image points (2,4), taken
    where the axis through (1,4) crosses the axis through (2,3), is zero
    exactly when the four points are concircular: it measures how far
    the configuration is from flat.

    The chart sending images 2, 3, 4 to 0, 1, infinity puts image 1 at
    u = (d12/d14) / (d32/d34), dij = pi - pj; each ratio is
    well-conditioned, so points whose radii span hundreds of orders of
    magnitude never meet a common scale.  Translated by -u, the crossing
    axis is (0, inf) and the crossed one (-u, 1-u).  The involution
    z -> -u(1-u)/z preserves both, so it fixes the foot of their common
    perpendicular on the crossing axis, at height sqrt(|u| |1-u|).  The
    gap is evaluated at that foot:

        delta = log1p(|u| / |1 - u|),

    which is -log(1 - u) when the axes meet.

    The witness is verified first, and one that fails raises
    CertificateError: the witness command computes delta before it
    writes anything, so this is its gate before the write.
    """
    if not verify_witness_orders(witness, rep_q):
        raise CertificateError("witness does not verify against this "
                               "representation")
    p1, p2, p3, p4 = witness_image_points(witness, rep_q)
    d12, d14 = p1 - p2, p1 - p4
    d32, d34 = p3 - p2, p3 - p4
    if 0.0 in (abs(d12), abs(d14), abs(d32), abs(d34)):
        raise CertificateError("witness image points coincide")
    q1 = d12 / d14  # axis through points (1,4) becomes (q1, inf)
    q3 = d32 / d34  # axis through points (2,3) becomes (0, q3)
    if not (cmath.isfinite(q1) and cmath.isfinite(q3)) or q1 == 0 or q3 == 0:
        raise CertificateError("witness image points coincide")
    u = q1 / q3
    if not cmath.isfinite(u) or u in (0, 1):
        raise CertificateError("witness image points coincide")
    return math.log1p(abs(u) / abs(1.0 - u))
