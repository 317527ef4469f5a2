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

Certificates are serialized as JSON with full-precision lengths and the
representation fingerprint; `certify` independently re-derives every
field before accepting one.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from . import _wordarrays as wa
from .boundary import (
    PAIR_CONFIGS,
    BoundaryError,
    PairConfig,
    SpiralWitness,
    classify_pairs,
    pair_config_grid,
    rank_endpoints,
    reference_representation,
    verify_witness_orders,
    witness_image_points,
)
from .moebius import MoebiusError
from .representations import (
    LengthSpectrum,
    Representation,
    RepresentationError,
    representation_hash,
    stable_length,
    stable_lengths,
)
from .surface_group import Word

# a certificate must clear 1 by at least this much to be emitted
MIN_CERTIFICATE_MARGIN = 1e-6
# class pairs per block of the certificate scan: bounds the pair grid and
# the matrices gathered from it (64 rows of 4 100 classes at maxlen 5)
_PAIR_BLOCK = 1 << 18


class CertificateError(ValueError):
    """Raised for violated inequalities or failed certificate searches."""

    def __init__(self, message: str, best_ratio: float | None = None,
                 scan: PairScanCounts | None = None):
        super().__init__(message)
        self.best_ratio = best_ratio
        self.scan = scan


@dataclass(frozen=True)
class PairScanCounts:
    """What a certificate search touched: unordered class pairs
    classified on the boundary, those found unlinked-aligned, and ordered
    pairs whose ratio was evaluated exactly."""

    classified: int
    aligned: int
    exact: int


@dataclass(frozen=True, eq=False)
class TriangleRecords:
    """Combined-length inequality checks as columns: record k checks
    words[a[k]] with words[b[k]] in configuration PAIR_CONFIGS[config[k]].
    ell_combined is l(ab) for linked and unlinked-aligned pairs and
    l(a^-1 b) for unlinked-misaligned pairs; slack is the signed margin
    of the strict inequality the configuration dictates, positive iff
    the inequality holds."""

    words: list[Word]          # one per class, in class-table order
    lengths: list[float]       # stable length of each class
    a: np.ndarray              # (k,) int class indices
    b: np.ndarray
    config: np.ndarray         # (k,) int8 indices into PAIR_CONFIGS
    ell_combined: np.ndarray   # (k,) float64
    slack: np.ndarray

    def __len__(self) -> int:
        return int(self.a.size)


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
    rows, mats = wa.conjugacy_classes(maxlen, rep.generator_matrix_array())
    ref_m = wa.compose_matrices(
        rows, reference_representation().generator_matrix_array())
    keep = wa.translating(wa.traces(ref_m)) & wa.translating(wa.traces(mats))
    ref_m = ref_m[keep]
    angles = np.stack(
        [wa.disk_angles_turns(wa.repelling_fixed_pairs(ref_m)),
         wa.disk_angles_turns(wa.attracting_fixed_pairs(ref_m))], axis=-1)
    return rows[keep], mats[keep], angles


def triangle_harness(rep: Representation, maxlen: int) -> TriangleRecords:
    """Check every configured conjugacy-class pair's strict inequality.

    Pairs with coincident boundary points are skipped as degenerate.  A
    single violated record raises: the inequalities admit no exceptions,
    so a violation falsifies either the representation or the harness.
    Records are in row-major order of the class table; each combined
    word is composed in batch, bit for bit as stable_length would.
    """
    if maxlen < 1:
        raise CertificateError("maxlen must be at least 1")
    pres = rep.presentation
    rows, mats, angles = _class_table(rep, maxlen)
    ranking = rank_endpoints(angles)
    words = [Word(wa.ranks_to_letters(row)) for row in rows]
    lengths = stable_lengths(mats)
    ells = np.array(lengths)
    gens = rep.generator_matrix_array()
    degenerate, linked, misaligned = (PAIR_CONFIGS.index(c) for c in (
        PairConfig.DEGENERATE, PairConfig.LINKED,
        PairConfig.UNLINKED_MISALIGNED))
    columns = []
    # about 2^16 pairs per block bound the joined rows and their products;
    # an empty table still makes one (empty) block of columns
    block = max(1, (1 << 16) // max(len(words), 1))
    for lo in range(0, max(len(words), 1), block):
        # each class is degenerate with itself: its endpoint gaps are 0
        grid = pair_config_grid(angles, ranking, lo, lo + block)
        ii, jj = np.nonzero(grid != degenerate)
        codes = grid[ii, jj]
        ii += lo
        combined = np.array(stable_lengths(wa.compose_matrices(
            wa.join_rows(rows[ii], rows[jj], codes == misaligned, pres.genus),
            gens)))
        total = ells[ii] + ells[jj]
        slack = np.where(codes == linked, total - combined, combined - total)
        bad = np.flatnonzero(~(slack > 0.0))
        if bad.size:
            k = bad[0]
            raise CertificateError(
                "combined-length inequality violated for %s, %s "
                "(%s, slack %.3e)" % (pres.to_text(words[ii[k]]),
                                      pres.to_text(words[jj[k]]),
                                      PAIR_CONFIGS[codes[k]].value, slack[k]))
        columns.append((ii, jj, codes, combined, slack))
    return TriangleRecords(words, lengths,
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
    planes as _wordarrays._times does.
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


# the double rounding unit
_U = 2.0 ** -53
# relative error allowed between the bounded and the exact arccosh lengths
_BOUND_SLACK = 2.0 ** -40
# below this lower bound on l(ab) a pair is not bounded, only evaluated
_MIN_BOUNDED_LENGTH = 0.125


def _ratio_bounds(table: np.ndarray, ell: np.ndarray, norm: np.ndarray,
                  first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Upper bounds on _pair_ratios at both (first[k], second[k]) and
    (second[k], first[k]); +inf where the lower bound on l(ab) is under
    _MIN_BOUNDED_LENGTH.  norm holds the Frobenius norms of the class
    products.

    The trace t = sum_ij A_ij B_ji is summed here as four elementwise
    products.  A complex product errs by at most sqrt(2) gamma_2 |x||y|
    and a sum of four terms in any order by gamma_3 times their sum of
    moduli, so this trace and the fixed-order one of _pair_ratios, in
    either orientation, each lie within 6u sum |A_ij||B_ji|
    <= 6u |A|_F |B|_F of the exact trace.  With z = t / 2,

        s(z) = (|z + 1| + |z - 1|) / 2 = cosh(Re arccosh z),

    and s is 1-Lipschitz, so s at the trace of _pair_ratios is at least
    this s minus 6u |A|_F |B|_F and its own rounding (5u s); s_lo subtracts
    8u (s + |A|_F |B|_F), which also covers the rounding of the norms.
    l(ab) >= 2 arccosh(s_lo) then bounds the exact l(ab) from below.
    Both sides share the numerator l(a) + l(b), rounded once; the bound
    adds _BOUND_SLACK for the arccosh evaluations and the divisions.  A
    length computed through s with relative error u errs by about
    2u / l^2 relative, at most 2^7 u for l >= _MIN_BOUNDED_LENGTH, so
    the slack of 2^13 u leaves room for library arccosh errors of
    thousands of ulps.
    """
    a00, a01, a10, a11 = (table[i, j].take(first) for i in (0, 1)
                          for j in (0, 1))
    b00, b01, b10, b11 = (table[i, j].take(second) for i in (0, 1)
                          for j in (0, 1))
    z = (a00 * b00 + a01 * b10 + a10 * b01 + a11 * b11) / 2.0
    s = (np.abs(z + 1.0) + np.abs(z - 1.0)) / 2.0
    s_lo = s - 8.0 * _U * (s + norm[first] * norm[second])
    ell_lo = 2.0 * np.arccosh(np.maximum(s_lo, 1.0))
    ok = ell_lo >= _MIN_BOUNDED_LENGTH
    return np.where(ok, (ell[first] + ell[second]) * (1.0 + _BOUND_SLACK)
                    / np.where(ok, ell_lo, 1.0), np.inf)


def find_separation_certificate(
        rep_q: Representation, maxlen: int,
        min_ratio: float = 1.0 + MIN_CERTIFICATE_MARGIN) -> SeparationCertificate:
    """Search class pairs for an unlinked-aligned pair with contracting ratio.

    All ordered pairs of conjugacy representatives up to maxlen are
    candidates; among pairs classified unlinked-aligned on the group
    boundary with ratio at or above the threshold, the maximal-ratio pair
    wins, with exact ties broken by total word length then shortlex order
    of a, then of b.  When nothing reaches the threshold, the raised
    error reports the best ratio found so the caller can increase maxlen
    or the deformation.  The certificate and the error carry the scan's
    PairScanCounts.

    The scan runs in blocks of unordered pairs: the boundary
    configuration is classified once per pair i < j, which relies on the
    unlinked-aligned relation being symmetric (a pair is aligned with b
    exactly when b is aligned with a, and no class with itself).  Each
    aligned pair gets an upper bound on its ratio in both orientations
    (_ratio_bounds).  In each block the pair with the largest bound is
    evaluated exactly first, in both orientations, and then every pair
    whose bound reaches the best exact ratio so far; those ratios come
    from _pair_ratios, bit for bit as a full ordered-pair scan computes
    them.  A pair left out has every ratio below the best one, so the
    maximum, all pairs tied with it and the reported best ratio are the
    full scan's.
    """
    if maxlen < 1:
        raise CertificateError("maxlen must be at least 1")
    threshold = max(min_ratio, 1.0 + MIN_CERTIFICATE_MARGIN)
    rows, rep_m, angles = _class_table(rep_q, maxlen)
    ranking = rank_endpoints(angles)
    # every kept row translates, so no length needs zeroing
    ell = 2.0 * np.abs(np.arccosh(wa.traces(rep_m) / 2.0).real)
    lengths = (rows >= 0).sum(axis=1)
    n = rows.shape[0]
    if n < 2:
        raise CertificateError("not enough classes to form a pair")
    aligned_code = PAIR_CONFIGS.index(PairConfig.UNLINKED_ALIGNED)
    table = np.ascontiguousarray(rep_m.transpose(1, 2, 0))
    norm = np.sqrt((np.abs(rep_m) ** 2).sum(axis=(1, 2)))
    best_any = -math.inf
    # (-ratio, total length, row of a, row of b): the least tuple wins
    best: tuple[float, int, int, int] | None = None
    n_aligned = n_exact = 0
    lo = 0
    while lo < n - 1:
        hi = min(n, lo + max(1, _PAIR_BLOCK // (n - lo)))
        aligned = pair_config_grid(angles, ranking, lo, hi, lo) == aligned_code
        # the aligned grid is symmetric with an empty diagonal, so each
        # unordered pair is classified once, at j > i
        ii, jj = np.nonzero(np.triu(aligned, 1))
        ii += lo
        jj += lo
        lo = hi
        if not ii.size:
            continue
        n_aligned += ii.size
        bound = _ratio_bounds(table, ell, norm, ii, jj)
        keep = ~(bound < best_any)
        if not keep.any():
            continue
        # the pair with the largest finite bound goes first: its exact
        # ratio usually leaves no other pair of the block to evaluate
        seed = int(np.argmax(np.where(keep & (bound < np.inf), bound,
                                      -np.inf)))
        first = np.array([ii[seed], jj[seed]])
        second = first[::-1].copy()
        ratio = _pair_ratios(table, ell, first, second)
        best_any = max(best_any, float(ratio.max()))
        keep &= ~(bound < best_any)
        keep[seed] = False
        # traces of (i, j) and (j, i) differ in the last bit, so each
        # orientation gets its own ratio
        first = np.concatenate([first, ii[keep], jj[keep]])
        second = np.concatenate([second, jj[keep], ii[keep]])
        ratio = np.concatenate(
            [ratio, _pair_ratios(table, ell, first[2:], second[2:])])
        n_exact += ratio.size
        block_best = float(ratio.max())
        best_any = max(best_any, block_best)
        if block_best < threshold:
            continue
        # rows are shortlex-sorted, so row order is the shortlex tie-break
        for k in np.flatnonzero(ratio >= max(threshold, block_best)).tolist():
            i, j = int(first[k]), int(second[k])
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
    # vectorized scan
    ell_a = stable_length(rep_q, a)
    ell_b = stable_length(rep_q, b)
    ell_ab = stable_length(rep_q, a * b)
    ratio = (ell_a + ell_b) / ell_ab
    config = classify_pairs(a, b)
    if config != PairConfig.UNLINKED_ALIGNED or not ratio >= threshold:
        raise CertificateError("winning pair failed scalar recomputation",
                               best_ratio=ratio, scan=scan)
    return SeparationCertificate(
        rep_id=representation_hash(rep_q), a=a, b=b, config=config,
        ell_q_a=ell_a, ell_q_b=ell_b, ell_q_ab=ell_ab, ratio=ratio,
        alpha=math.log(ratio), scan=scan)


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
    except (BoundaryError, RepresentationError, MoebiusError, ValueError,
            OverflowError) as exc:
        problems.append("recomputation failed: %s" % exc)
    return problems


def certify(cert: SeparationCertificate, rep_q: Representation) -> bool:
    """Independently re-derive every certificate field against rep_q."""
    return not certificate_problems(cert, rep_q)


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


def certificate_to_dict(cert: SeparationCertificate) -> dict:
    pres = reference_representation().presentation
    return {
        "schema": "qfcert/1",
        "type": "separation_certificate",
        "rep_id": cert.rep_id,
        "a": pres.to_text(cert.a),
        "b": pres.to_text(cert.b),
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
    if not isinstance(payload, dict) or payload.get("schema") != "qfcert/1" \
            or payload.get("type") != "separation_certificate":
        raise CertificateError("not a separation certificate payload")
    pres = reference_representation().presentation
    try:
        return SeparationCertificate(
            rep_id=str(payload["rep_id"]),
            a=pres.from_text(str(payload["a"])),
            b=pres.from_text(str(payload["b"])),
            config=PairConfig(payload["config"]),
            ell_q_a=float(payload["ell_q_a"]),
            ell_q_b=float(payload["ell_q_b"]),
            ell_q_ab=float(payload["ell_q_ab"]),
            ratio=float(payload["ratio"]),
            alpha=float(payload["alpha"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CertificateError("malformed certificate payload: %r" % exc) from exc
