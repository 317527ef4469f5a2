"""Command-line surface: reproducible runs that build representations,
compute spectra and witnesses, and emit checkable artifacts.

Configuration comes from an optional JSON file (``--config``) whose keys
are the RunConfig fields; command-line flags override file values, and
the output directory resolves flag > QFCERT_OUTDIR environment variable
> config > ``./qfcert-out``.  Unknown config keys are rejected.

Config schema (all keys optional)::

    {
      "bend_angle": 0.6,       # radians; wrapped into (-pi, pi)
      "maxlen": 4,             # word-length bound (per-command default)
      "Rmax": 12.0,            # orbit-count radius for growth runs
      "min_ratio": 1.000001,   # certificate acceptance threshold
      "outdir": "qfcert-out"   # artifact directory
    }

Every run is deterministic: rerunning a command with the same
configuration produces byte-identical artifacts.  Every artifact carries
the schema tag qfcert/1.  Exit status: 0 all checks passed, 1 a
mathematical invariant was falsified (or a search found nothing), 2
usage or configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

# check, boundary and certificates are imported by the handlers that use
# them, so growth, spectrum, ref-rep and bend load none of them, and the
# --input checks load check alone
from ._wordarrays import word_texts
from .moebius import InvariantError
from .representations import (
    BEND_ANGLE_ENVELOPE,
    GROWTH_MARGIN,
    GROWTH_MIN_RMAX,
    SCHEMA,
    RepresentationError,
    bend,
    estimate_growth,
    find_complex_trace_element,
    fuchsian_octagon,
    json_number,
    json_text,
    representation_hash,
    representation_json,
    spectrum_rows,
)
from .surface_group import word_to_text

# growth refuses an Rmax whose estimated ball holds more elements than
# this: Rmax 14 (about 1.6e7) runs, Rmax 16 (about 1.2e8) is refused
GROWTH_BALL_BUDGET = 2e7
# per maxlen command: (default maxlen, unit, budget).  A run is refused
# when its size estimate exceeds the budget: reduced words up to maxlen,
# or class pairs (at most words squared) for the pair scans.  spectrum
# runs to maxlen 7, witness and limitset to 8, certify to 6 and
# triangle-check to 4; one more is refused
MAXLEN_COMMANDS = {
    "spectrum": (4, "words", 2e6),
    "triangle-check": (3, "pairs", 1e8),
    "witness": (8, "words", 1e7),
    "certify": (4, "pairs", 1e11),
    "limitset": (8, "words", 1e7),
}
# bend and witness look for a complex-trace word up to this length
COMPLEX_TRACE_MAXLEN = 4


class ConfigError(ValueError):
    """Raised for invalid or unknown configuration."""


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Validated run parameters shared by all subcommands."""

    bend_angle: float = 0.6
    maxlen: int | None = None
    Rmax: float = 12.0
    min_ratio: float = 1.0 + 1e-6
    outdir: str | None = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.bend_angle):
            raise ConfigError("bend_angle must be a finite real")
        if self.maxlen is not None and self.maxlen < 1:
            raise ConfigError("maxlen must be at least 1")
        if not (0.0 < self.Rmax < math.inf):
            raise ConfigError("Rmax must be positive and finite")
        if not (1.0 <= self.min_ratio < math.inf):
            raise ConfigError("min_ratio must be at least 1 and finite")


_FIELD_TYPES = {
    "bend_angle": float,
    "maxlen": int,
    "Rmax": float,
    "min_ratio": float,
    "outdir": str,
}


def _read_json(what: str, path: str, parse=lambda payload: payload):
    """The JSON payload at path, passed through parse.  A file that cannot
    be read, decoded or parsed (a ValueError) is a config error."""
    try:
        return parse(json.loads(Path(path).read_text()))
    except (OSError, ValueError) as exc:
        raise ConfigError("cannot read %s %s: %s" % (what, path, exc)) from exc


def load_config(path: str | None, overrides: dict) -> RunConfig:
    """Config file merged with flag overrides, every key validated."""
    values: dict = {}
    if path is not None:
        payload = _read_json("config", path)
        if not isinstance(payload, dict):
            raise ConfigError("config must be a JSON object")
        for key, raw in payload.items():
            if key not in _FIELD_TYPES:
                raise ConfigError("unknown config key %r" % (key,))
            values[key] = raw
    for key, raw in overrides.items():
        if raw is not None:
            values[key] = raw
    for key, raw in values.items():
        want = _FIELD_TYPES[key]
        try:
            raw = json_text(raw) if want is str else json_number(raw)
            if want is int and isinstance(raw, float) and raw != int(raw):
                raise ValueError("not an integer")
            values[key] = want(raw)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError("config key %r: %s" % (key, exc)) from exc
    try:
        return RunConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def _resolve_outdir(cfg: RunConfig, flag_value: str | None) -> Path:
    chosen = flag_value or os.environ.get("QFCERT_OUTDIR") or cfg.outdir \
        or "qfcert-out"
    out = Path(chosen)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError("cannot create output directory %s: %s"
                          % (out, exc)) from exc
    return out


def _write(path: Path, head: str, lines=()) -> None:
    """Write head, then the lines, to path; an OSError is a config error."""
    try:
        with path.open("w") as f:
            f.write(head)
            f.writelines(lines)
    except OSError as exc:
        raise ConfigError("cannot write %s: %s" % (path, exc)) from exc


def _write_json(path: Path, payload: dict) -> None:
    _write(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _wrapped_angle(angle: float) -> float:
    """The bend parameter reduced into (-pi, pi); the twist is 2pi-periodic."""
    wrapped = math.remainder(angle, 2.0 * math.pi)
    if abs(wrapped) >= math.pi:
        raise ConfigError("bend angle %.6g reduces to a half turn, which is "
                          "outside the open (-pi, pi) domain" % angle)
    return wrapped


def _bent_rep(cfg: RunConfig):
    angle = _wrapped_angle(cfg.bend_angle)
    return bend(fuchsian_octagon(), angle)


def _word_estimate(maxlen: int) -> float:
    """Reduced genus-2 words of lengths 1..maxlen, 8 * 7^(L-1) at length L:
    a bound on the normal forms that limit-set sampling walks."""
    try:
        return 8.0 * (7.0 ** maxlen - 1.0) / 6.0
    except OverflowError:
        return math.inf


def _preflight(cfg: RunConfig, command: str) -> int:
    """The command's maxlen (configured or default), once its size
    estimate is within budget."""
    default, unit, budget = MAXLEN_COMMANDS[command]
    maxlen = cfg.maxlen if cfg.maxlen is not None else default
    estimate = _word_estimate(maxlen)
    if unit == "pairs":
        estimate *= estimate
    if estimate > budget:
        raise ConfigError("%s at maxlen %d would take about %.3g %s, over "
                          "the budget of %.3g" % (command, maxlen, estimate,
                                                  unit, budget))
    return maxlen


def cmd_ref_rep(cfg: RunConfig, out: Path, args) -> int:
    rep = fuchsian_octagon()
    _write(out / "representation.json", representation_json(rep))
    print("reference representation written to %s" % (out / "representation.json"))
    print("relator residual: %.3e" % rep.relator_residual())
    return 0


def cmd_bend(cfg: RunConfig, out: Path, args) -> int:
    rep = _bent_rep(cfg)
    if rep.angle != cfg.bend_angle:
        print("note: bend angle %.6g wrapped to %.6g (the twist is "
              "2pi-periodic)" % (cfg.bend_angle, rep.angle))
    if abs(rep.angle) > BEND_ANGLE_ENVELOPE:
        print("flagged: |angle| = %.6g exceeds the documented operating "
              "envelope (%.1f rad); results are not certified quasi-Fuchsian"
              % (abs(rep.angle), BEND_ANGLE_ENVELOPE))
    _write(out / "bent_representation.json", representation_json(rep))
    print("bent representation written to %s" % (out / "bent_representation.json"))
    print("relator residual: %.3e" % rep.relator_residual())
    try:
        w = find_complex_trace_element(rep, COMPLEX_TRACE_MAXLEN)
        print("first complex-trace word up to length %d: %s"
              % (COMPLEX_TRACE_MAXLEN, word_to_text(w)))
    except RepresentationError:
        print("no complex-trace word up to length %d (representation is "
              "conjugate into the real maps)" % COMPLEX_TRACE_MAXLEN)
    return 0


def cmd_spectrum(cfg: RunConfig, out: Path, args) -> int:
    maxlen = _preflight(cfg, "spectrum")
    rep = _bent_rep(cfg)
    ranks, lengths = spectrum_rows(rep, maxlen)
    rows = ("%s,%.17g\n" % row for row in zip(word_texts(ranks), lengths))
    _write(out / "spectrum.csv", "# schema: %s\nword,length\n" % SCHEMA, rows)
    print("spectrum for %d conjugacy classes written to %s"
          % (len(lengths), out / "spectrum.csv"))
    return 0


def _growth_ball_estimate(Rmax: float) -> float:
    """Elements within the pruning radius Rmax + GROWTH_MARGIN, by area:
    a hyperbolic disk of radius r has area 2 pi (cosh r - 1), and the
    genus-2 fundamental domain has area 4 pi."""
    try:
        return (math.cosh(Rmax + GROWTH_MARGIN) - 1.0) / 2.0
    except OverflowError:
        return math.inf


def cmd_growth(cfg: RunConfig, out: Path, args) -> int:
    if cfg.Rmax < GROWTH_MIN_RMAX:
        raise ConfigError("growth needs Rmax of at least %g, got %g"
                          % (GROWTH_MIN_RMAX, cfg.Rmax))
    ball = _growth_ball_estimate(cfg.Rmax)
    if ball > GROWTH_BALL_BUDGET:
        raise ConfigError("growth at Rmax %g would enumerate about %.3g "
                          "elements, over the budget of %.3g"
                          % (cfg.Rmax, ball, GROWTH_BALL_BUDGET))
    rep = fuchsian_octagon()
    est = estimate_growth(rep, cfg.Rmax)
    _write_json(out / "growth.json", {
        "schema": SCHEMA,
        "type": "growth_estimate",
        "Rmax": cfg.Rmax,
        "h": est.h,
        "radii": list(est.radii),
        "counts": [int(c) for c in est.counts],
        "residual": est.residual,
    })
    print("growth rate estimate h = %.6f (residual %.3e) written to %s"
          % (est.h, est.residual, out / "growth.json"))
    return 0


def cmd_triangle_check(cfg: RunConfig, out: Path, args) -> int:
    from .certificates import triangle_harness
    from .check import PAIR_CONFIGS

    maxlen = _preflight(cfg, "triangle-check")
    rep = fuchsian_octagon()
    records = triangle_harness(rep, maxlen)
    # every class recurs in hundreds of records: format each one once
    texts = word_texts(records.ranks)
    ells = ["%.17g" % ell for ell in records.lengths]
    configs = [c.value for c in PAIR_CONFIGS]
    rows = ("%s,%s,%s,%s,%s,%.17g,%.17g\n"
            % (texts[i], texts[j], configs[c], ells[i], ells[j], ell, gap)
            for i, j, c, ell, gap in zip(*(column.tolist() for column in (
                records.a, records.b, records.config, records.ell_combined,
                records.slack))))
    head = "# schema: %s\na,b,config,ell_a,ell_b,ell_combined,slack\n"
    _write(out / "triangle.csv", head % SCHEMA, rows)
    print("%d combined-length inequalities checked, zero violations"
          % len(records))
    print("minimum slack: %.6e" % records.slack.min())
    print("records written to %s" % (out / "triangle.csv"))
    return 0


def cmd_witness(cfg: RunConfig, out: Path, args) -> int:
    from .check import (CertificateError, verify_witness_orders,
                        witness_from_dict, witness_to_dict)

    rep = _bent_rep(cfg)
    if args.input is not None:
        # a malformed payload raises BoundaryError, a ValueError
        witness = _read_json("witness", args.input, witness_from_dict)
        if not verify_witness_orders(witness, rep):
            print("witness INVALID: fails independent verification",
                  file=sys.stderr)
            return 1
        print("witness valid: spiraling element %s"
              % word_to_text(witness.gamma))
        return 0
    from .boundary import find_spiral_witness
    from .certificates import diagnostic_delta, find_separation_certificate

    maxlen = _preflight(cfg, "witness")
    gamma = find_complex_trace_element(rep, COMPLEX_TRACE_MAXLEN)
    print("spiraling element: %s" % word_to_text(gamma))
    witness = find_spiral_witness(rep, gamma, maxlen)
    # diagnostic_delta verifies the witness again and raises before the write
    delta = diagnostic_delta(rep, witness)
    try:
        cert = find_separation_certificate(rep, 4, cfg.min_ratio)
        gap = cert.ell_q_a + cert.ell_q_b - cert.ell_q_ab
        gap_line = ("achieved certificate gap %.9e alongside delta/2 = %.9e "
                    "(reported, not asserted)" % (gap, delta / 2.0))
    except CertificateError:
        gap_line = "no certificate at search length 4 to report a gap for"
    _write_json(out / "witness.json", witness_to_dict(witness))
    print("witness verified; written to %s" % (out / "witness.json"))
    print("diagnostic delta = %.9e (> 0)" % delta)
    print(gap_line)
    return 0


def _report_scan(scan) -> None:
    if scan is not None:
        print("pair scan: %d class pairs classified, %d unlinked-aligned, "
              "%d pairs evaluated exactly"
              % (scan.classified, scan.aligned, scan.exact), file=sys.stderr)


def cmd_certify(cfg: RunConfig, out: Path, args) -> int:
    from .check import (CertificateError, certificate_from_dict,
                        certificate_problems, certificate_to_dict)

    rep = _bent_rep(cfg)
    if args.input is not None:
        # a malformed payload raises CertificateError, a ValueError
        cert = _read_json("certificate", args.input, certificate_from_dict)
        problems = certificate_problems(cert, rep)
        rep_id = representation_hash(rep)
        if cert.rep_id != rep_id:
            # the lengths are conjugation-invariant, so certificate_problems
            # accepts any conjugate; this configuration names one
            # representation, and the certificate must be for it
            problems.insert(0, "rep_id stored %s but this configuration's "
                               "representation hashes to %s"
                            % (cert.rep_id, rep_id))
        if problems:
            print("certificate INVALID:", file=sys.stderr)
            for line in problems:
                print("  - %s" % line, file=sys.stderr)
            return 1
        print("certificate valid: ratio %.12f, alpha %.6e"
              % (cert.ratio, cert.alpha))
        return 0
    from .certificates import find_separation_certificate

    maxlen = _preflight(cfg, "certify")
    try:
        cert = find_separation_certificate(rep, maxlen, cfg.min_ratio)
    except CertificateError as exc:
        _report_scan(exc.scan)
        print("no certificate found: %s" % exc, file=sys.stderr)
        return 1
    _report_scan(cert.scan)
    _write_json(out / "separation_certificate.json",
                certificate_to_dict(cert))
    print("certificate: a = %s, b = %s" % (word_to_text(cert.a),
                                           word_to_text(cert.b)))
    print("ratio %.12f, alpha %.6e (lower bound on the Lipschitz distance "
          "to every plane representation)" % (cert.ratio, cert.alpha))
    print("written to %s" % (out / "separation_certificate.json"))
    return 0


LIMITSET_EMIT_CAP = 50_000


def cmd_limitset(cfg: RunConfig, out: Path, args) -> int:
    import numpy as np

    from .boundary import (limit_set_sample, sample_to_csv, sample_to_svg,
                           stable_argsort)

    maxlen = _preflight(cfg, "limitset")
    rep = _bent_rep(cfg)
    sample = limit_set_sample(rep, maxlen)
    total = len(sample)
    if total > LIMITSET_EMIT_CAP:
        # deterministic even-stride thinning over the angle-sorted circle,
        # so artifacts stay viewable at large word lengths
        order = stable_argsort(sample.angles)
        sel = np.linspace(0, total - 1, LIMITSET_EMIT_CAP).round().astype(int)
        sample = sample.take(order[sel])
        print("sampled %d boundary points; emitting an even thinning of %d"
              % (total, len(sample)))
    csv = "# schema: %s\n%s" % (SCHEMA, sample_to_csv(sample))
    svg = "<!-- schema: %s -->\n%s" % (SCHEMA, sample_to_svg(sample))
    _write(out / "limitset.csv", csv)
    _write(out / "limitset.svg", svg)
    print("%d limit-set points written to %s and %s"
          % (len(sample), out / "limitset.csv", out / "limitset.svg"))
    return 0


_COMMANDS = {
    "ref-rep": cmd_ref_rep,
    "bend": cmd_bend,
    "spectrum": cmd_spectrum,
    "growth": cmd_growth,
    "triangle-check": cmd_triangle_check,
    "witness": cmd_witness,
    "certify": cmd_certify,
    "limitset": cmd_limitset,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfcert",
        description="surface-group representations: spectra, spiral "
                    "witnesses, and separation certificates")
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--outdir", help="artifact directory "
                        "(overrides QFCERT_OUTDIR and the config)")
    parser.add_argument("--bend-angle", type=float, dest="bend_angle")
    parser.add_argument("--maxlen", type=int)
    parser.add_argument("--rmax", type=float, dest="Rmax")
    parser.add_argument("--min-ratio", type=float, dest="min_ratio")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        if name in ("certify", "witness"):
            p.add_argument("--input", help="%s file to validate instead of "
                           "searching" % name)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    overrides = {key: getattr(args, key) for key in _FIELD_TYPES
                 if key != "outdir" and hasattr(args, key)}
    try:
        cfg = load_config(args.config, overrides)
        out = _resolve_outdir(cfg, args.outdir)
        return _COMMANDS[args.command](cfg, out, args)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except InvariantError as exc:
        print("invariant falsified or computation failed: %s" % exc,
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
