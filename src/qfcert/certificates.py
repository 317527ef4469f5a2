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
from dataclasses import dataclass

import numpy as np

from . import _wordarrays as wa
from .boundary import (
    PAIR_CONFIGS,
    BoundaryError,
    PairConfig,
    SpiralWitness,
    classify_pairs,
    pair_config_grid,
    reference_representation,
    verify_witness_orders,
    witness_image_points,
)
from .moebius import (
    INF,
    BoundaryPoint,
    Geodesic3,
    MoebiusError,
    axis_crossing_gap,
)
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


class CertificateError(ValueError):
    """Raised for violated inequalities or failed certificate searches."""

    def __init__(self, message: str, best_ratio: float | None = None):
        super().__init__(message)
        self.best_ratio = best_ratio


@dataclass(frozen=True)
class TriangleTestRecord:
    """One combined-length inequality check for a configured pair.

    ell_combined is l(ab) for linked and unlinked-aligned pairs and
    l(a^-1 b) for unlinked-misaligned pairs; slack is the signed margin
    of the strict inequality the configuration dictates, positive iff
    the inequality holds.
    """

    a: Word
    b: Word
    config: PairConfig
    ell_a: float
    ell_b: float
    ell_combined: float
    slack: float


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
    keep = (wa.translation_lengths(ref_m) > 1e-9) \
        & (wa.translation_lengths(mats) > 1e-9)
    ref_m = ref_m[keep]
    angles = np.stack(
        [wa.disk_angles_turns(wa.repelling_fixed_pairs(ref_m)),
         wa.disk_angles_turns(wa.attracting_fixed_pairs(ref_m))], axis=-1)
    return rows[keep], mats[keep], angles


def triangle_harness(rep: Representation,
                     maxlen: int) -> list[TriangleTestRecord]:
    """Check every configured conjugacy-class pair's strict inequality.

    Pairs with coincident boundary points are skipped as degenerate.  A
    single violated record raises: the inequalities admit no exceptions,
    so a violation falsifies either the representation or the harness.
    """
    if maxlen < 1:
        raise CertificateError("maxlen must be at least 1")
    pres = rep.presentation
    rows, mats, angles = _class_table(rep, maxlen)
    words = [Word(wa.ranks_to_letters(row)) for row in rows]
    lengths = stable_lengths(mats)
    degenerate = PAIR_CONFIGS.index(PairConfig.DEGENERATE)
    records: list[TriangleTestRecord] = []
    for i, (a, ell_a) in enumerate(zip(words, lengths)):
        configs = pair_config_grid(angles[i:i + 1], angles)[0]
        for j in np.flatnonzero(configs != degenerate).tolist():
            if i == j:
                continue
            b, ell_b = words[j], lengths[j]
            config = PAIR_CONFIGS[configs[j]]
            first = a.inverse() if config == PairConfig.UNLINKED_MISALIGNED else a
            combined = stable_length(rep, first * b)
            slack = combined - (ell_a + ell_b)
            if config == PairConfig.LINKED:
                slack = (ell_a + ell_b) - combined
            if not slack > 0.0:
                raise CertificateError(
                    "combined-length inequality violated for %s, %s "
                    "(%s, slack %.3e)" % (pres.to_text(a), pres.to_text(b),
                                          config.value, slack))
            records.append(TriangleTestRecord(
                a=a, b=b, config=config, ell_a=ell_a, ell_b=ell_b,
                ell_combined=combined, slack=slack))
    return records


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


def find_separation_certificate(
        rep_q: Representation, maxlen: int,
        min_ratio: float = 1.0 + MIN_CERTIFICATE_MARGIN) -> SeparationCertificate:
    """Search class pairs for an unlinked-aligned pair with contracting ratio.

    All ordered pairs of conjugacy representatives up to maxlen are
    scanned (vectorized, in blocks); among pairs classified
    unlinked-aligned on the group boundary with ratio at or above the
    threshold, the maximal-ratio pair wins, with exact ties broken by
    total word length then shortlex order of a, then of b.  When nothing
    reaches the threshold, the raised error reports the best ratio found
    so the caller can increase maxlen or the deformation.
    """
    if maxlen < 1:
        raise CertificateError("maxlen must be at least 1")
    threshold = max(min_ratio, 1.0 + MIN_CERTIFICATE_MARGIN)
    rows, rep_m, angles = _class_table(rep_q, maxlen)
    ell = wa.translation_lengths(rep_m)
    lengths = (rows >= 0).sum(axis=1)
    n = rows.shape[0]
    if n < 2:
        raise CertificateError("not enough classes to form a pair")
    aligned_code = PAIR_CONFIGS.index(PairConfig.UNLINKED_ALIGNED)
    best_any = -math.inf
    # (-ratio, total length, row of a, row of b): the least tuple wins
    best: tuple[float, int, int, int] | None = None
    # cap the per-block grid footprint; the scan is quadratic in the
    # number of classes, so large maxlen is supported but slow
    block = max(1, min(256, (1 << 24) // n))
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        aligned = pair_config_grid(angles[lo:hi], angles) == aligned_code
        tr = np.einsum("aij,bji->ab", rep_m[lo:hi], rep_m)
        ell_ab = 2.0 * np.abs(np.arccosh(tr.astype(complex) / 2.0).real)
        ok = aligned & (ell_ab > 1e-9)
        denom = np.where(ok, ell_ab, 1.0)
        ratio = np.where(ok, (ell[lo:hi, None] + ell[None, :]) / denom,
                         -np.inf)
        block_best = float(ratio.max()) if ratio.size else -math.inf
        if block_best > best_any:
            best_any = block_best
        if block_best < threshold:
            continue
        ii, jj = np.nonzero(ratio >= max(threshold, block_best))
        # rows are shortlex-sorted, so row order is the shortlex tie-break
        for i, j in zip(ii.tolist(), jj.tolist()):
            cand = (-float(ratio[i, j]), int(lengths[lo + i] + lengths[j]),
                    lo + i, j)
            if best is None or cand < best:
                best = cand
    if best is None:
        raise CertificateError(
            "no unlinked-aligned pair reached ratio %.7f "
            "(best found %.7f); increase maxlen or the deformation"
            % (threshold, best_any), best_ratio=best_any)
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
                               best_ratio=ratio)
    return SeparationCertificate(
        rep_id=representation_hash(rep_q), a=a, b=b, config=config,
        ell_q_a=ell_a, ell_q_b=ell_b, ell_q_ab=ell_ab, ratio=ratio,
        alpha=math.log(ratio))


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
        for name, stored, fresh in recomputed:
            if abs(fresh - stored) > 1e-9:
                problems.append("%s stored %.17g but recomputes to %.17g"
                                % (name, stored, fresh))
        ell_a, ell_b, ell_ab = (fresh for _, _, fresh in recomputed)
        ratio = (ell_a + ell_b) / ell_ab
        if abs(ratio - cert.ratio) > 1e-9:
            problems.append("ratio stored %.17g but recomputes to %.17g"
                            % (cert.ratio, ratio))
        if not ratio > 1.0:
            problems.append("recomputed ratio %.17g does not exceed 1"
                            % ratio)
        if abs(cert.alpha - math.log(ratio)) > 1e-9:
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
    """Busemann gap of the witness diagonal at the image-axis crossing.

    The crossing point of the image axes through points (1,4) and (2,3)
    sits off the diagonal geodesic through points (2,4) exactly when the
    four image points are not concircular; the gap quantifies how far the
    configuration is from flat.  The chart sending point 2 to 0, point 4
    to infinity, and point 3 to 1 is computed as direct ratios of point
    differences: the image radii span dozens of orders of magnitude, so
    the points must never meet a common scale (sphere-chordal tests would
    collapse them), while each ratio individually is well-conditioned.
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
    try:
        crossing = Geodesic3(BoundaryPoint.from_complex(u), INF)
        crossed = Geodesic3(BoundaryPoint.from_complex(0.0),
                            BoundaryPoint.from_complex(1.0))
        diagonal = Geodesic3(BoundaryPoint.from_complex(0.0), INF)
        return float(axis_crossing_gap(crossing, crossed, diagonal))
    except MoebiusError as exc:
        raise CertificateError("degenerate witness image: %s" % exc) from exc


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
