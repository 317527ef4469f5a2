"""Command-line surface: reproducible runs that build representations,
compute spectra and witnesses, and emit checkable artifacts.

Configuration comes from an optional JSON file (``--config``) whose keys
are the RunConfig fields; command-line flags override file values, and
the output directory resolves flag > QFCERT_OUTDIR environment variable
> config > ``./qfcert-out``.  Unknown config keys are rejected.

Config schema (all keys optional)::

    {
      "genus": 2,              # only genus 2 is supported
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

from .boundary import (
    BoundaryError,
    find_spiral_witness,
    limit_set_sample,
    sample_to_csv,
    sample_to_svg,
    verify_witness_orders,
    witness_to_dict,
)
from .certificates import (
    CertificateError,
    certificate_from_dict,
    certificate_problems,
    certificate_to_dict,
    diagnostic_delta,
    find_separation_certificate,
    triangle_harness,
)
from .moebius import MoebiusError
from .representations import (
    BEND_ANGLE_ENVELOPE,
    RepresentationError,
    bend,
    compute_spectrum,
    estimate_growth,
    find_complex_trace_element,
    fuchsian_octagon,
    representation_json,
)

SCHEMA = "qfcert/1"

_MAXLEN_DEFAULTS = {
    "spectrum": 4,
    "triangle-check": 3,
    "witness": 8,
    "certify": 4,
    "limitset": 8,
}


class ConfigError(ValueError):
    """Raised for invalid or unknown configuration."""


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Validated run parameters shared by all subcommands."""

    genus: int = 2
    bend_angle: float = 0.6
    maxlen: int | None = None
    Rmax: float = 12.0
    min_ratio: float = 1.0 + 1e-6
    outdir: str | None = None

    def __post_init__(self) -> None:
        if self.genus != 2:
            raise ConfigError("only genus 2 is supported, got %r" % (self.genus,))
        if not math.isfinite(self.bend_angle):
            raise ConfigError("bend_angle must be a finite real")
        if self.maxlen is not None and self.maxlen < 1:
            raise ConfigError("maxlen must be at least 1")
        if not (self.Rmax > 0.0):
            raise ConfigError("Rmax must be positive")
        if not (self.min_ratio >= 1.0):
            raise ConfigError("min_ratio must be at least 1")


_FIELD_TYPES = {
    "genus": int,
    "bend_angle": float,
    "maxlen": int,
    "Rmax": float,
    "min_ratio": float,
    "outdir": str,
}


def load_config(path: str | None, overrides: dict) -> RunConfig:
    """Config file merged with flag overrides, every key validated."""
    values: dict = {}
    if path is not None:
        try:
            payload = json.loads(Path(path).read_text())
        except (OSError, ValueError) as exc:
            raise ConfigError("cannot read config %s: %s" % (path, exc)) from exc
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
            if want is int and isinstance(raw, float) and raw != int(raw):
                raise ValueError("not an integer")
            if want is str and not isinstance(raw, str):
                raise ValueError("expected a string")
            values[key] = want(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError("config key %r: %s" % (key, exc)) from exc
    try:
        return RunConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def _resolve_outdir(cfg: RunConfig, flag_value: str | None) -> Path:
    chosen = flag_value or os.environ.get("QFCERT_OUTDIR") or cfg.outdir \
        or "qfcert-out"
    out = Path(chosen)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _maxlen(cfg: RunConfig, command: str) -> int:
    return cfg.maxlen if cfg.maxlen is not None else _MAXLEN_DEFAULTS[command]


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_csv(path: Path, header: str, rows: list[str]) -> None:
    lines = ["# schema: %s" % SCHEMA, header]
    lines.extend(rows)
    path.write_text("\n".join(lines) + "\n")


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


def cmd_ref_rep(cfg: RunConfig, out: Path, args) -> int:
    rep = fuchsian_octagon()
    (out / "representation.json").write_text(representation_json(rep))
    print("reference representation written to %s" % (out / "representation.json"))
    print("relator residual: %.3e" % rep.relator_residual())
    return 0


def cmd_bend(cfg: RunConfig, out: Path, args) -> int:
    angle = _wrapped_angle(cfg.bend_angle)
    if angle != cfg.bend_angle:
        print("note: bend angle %.6g wrapped to %.6g (the twist is "
              "2pi-periodic)" % (cfg.bend_angle, angle))
    if abs(angle) > BEND_ANGLE_ENVELOPE:
        print("flagged: |angle| = %.6g exceeds the documented operating "
              "envelope (%.1f rad); results are not certified quasi-Fuchsian"
              % (abs(angle), BEND_ANGLE_ENVELOPE))
    rep = bend(fuchsian_octagon(), angle)
    (out / "bent_representation.json").write_text(representation_json(rep))
    print("bent representation written to %s" % (out / "bent_representation.json"))
    print("relator residual: %.3e" % rep.relator_residual())
    try:
        w = find_complex_trace_element(rep, 4)
        print("first complex-trace word up to length 4: %s"
              % rep.presentation.to_text(w))
    except RepresentationError:
        print("no complex-trace word up to length 4 (representation is "
              "conjugate into the real maps)")
    return 0


def cmd_spectrum(cfg: RunConfig, out: Path, args) -> int:
    rep = _bent_rep(cfg)
    spec = compute_spectrum(rep, _maxlen(cfg, "spectrum"))
    pres = rep.presentation
    rows = ["%s,%.17g" % (pres.to_text(w), v) for w, v in spec.entries.items()]
    _write_csv(out / "spectrum.csv", "word,length", rows)
    print("spectrum for %d conjugacy classes written to %s"
          % (len(spec.entries), out / "spectrum.csv"))
    return 0


def cmd_growth(cfg: RunConfig, out: Path, args) -> int:
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
    rep = fuchsian_octagon()
    records = triangle_harness(rep, _maxlen(cfg, "triangle-check"))
    pres = rep.presentation
    rows = ["%s,%s,%s,%.17g,%.17g,%.17g,%.17g"
            % (pres.to_text(r.a), pres.to_text(r.b), r.config.value,
               r.ell_a, r.ell_b, r.ell_combined, r.slack)
            for r in records]
    _write_csv(out / "triangle.csv",
               "a,b,config,ell_a,ell_b,ell_combined,slack", rows)
    print("%d combined-length inequalities checked, zero violations"
          % len(records))
    print("minimum slack: %.6e" % min(r.slack for r in records))
    print("records written to %s" % (out / "triangle.csv"))
    return 0


def cmd_witness(cfg: RunConfig, out: Path, args) -> int:
    rep = _bent_rep(cfg)
    gamma = find_complex_trace_element(rep, 4)
    print("spiraling element: %s" % rep.presentation.to_text(gamma))
    witness = find_spiral_witness(rep, gamma, _maxlen(cfg, "witness"))
    if not verify_witness_orders(witness, rep):
        print("witness FAILED independent verification", file=sys.stderr)
        return 1
    _write_json(out / "witness.json", witness_to_dict(witness))
    print("witness verified; written to %s" % (out / "witness.json"))
    delta = diagnostic_delta(rep, witness)
    print("diagnostic delta = %.9e (> 0)" % delta)
    try:
        cert = find_separation_certificate(rep, 4, cfg.min_ratio)
        gap = cert.ell_q_a + cert.ell_q_b - cert.ell_q_ab
        print("achieved certificate gap %.9e alongside delta/2 = %.9e "
              "(reported, not asserted)" % (gap, delta / 2.0))
    except CertificateError:
        print("no certificate at search length 4 to report a gap for")
    return 0


def cmd_certify(cfg: RunConfig, out: Path, args) -> int:
    rep = _bent_rep(cfg)
    if args.input is not None:
        try:
            # a malformed payload raises CertificateError, a ValueError
            cert = certificate_from_dict(
                json.loads(Path(args.input).read_text()))
        except (OSError, ValueError) as exc:
            raise ConfigError("cannot read certificate %s: %s"
                              % (args.input, exc)) from exc
        problems = certificate_problems(cert, rep)
        if problems:
            print("certificate INVALID:", file=sys.stderr)
            for line in problems:
                print("  - %s" % line, file=sys.stderr)
            return 1
        print("certificate valid: ratio %.12f, alpha %.6e"
              % (cert.ratio, cert.alpha))
        return 0
    try:
        cert = find_separation_certificate(rep, _maxlen(cfg, "certify"),
                                           cfg.min_ratio)
    except CertificateError as exc:
        print("no certificate found: %s" % exc, file=sys.stderr)
        return 1
    _write_json(out / "separation_certificate.json",
                certificate_to_dict(cert))
    problems = certificate_problems(cert, rep)
    if problems:
        print("emitted certificate failed re-validation", file=sys.stderr)
        for line in problems:
            print("  - %s" % line, file=sys.stderr)
        return 1
    pres = rep.presentation
    print("certificate: a = %s, b = %s" % (pres.to_text(cert.a),
                                           pres.to_text(cert.b)))
    print("ratio %.12f, alpha %.6e (lower bound on the Lipschitz distance "
          "to every plane representation)" % (cert.ratio, cert.alpha))
    print("written to %s" % (out / "separation_certificate.json"))
    return 0


LIMITSET_EMIT_CAP = 50_000


def cmd_limitset(cfg: RunConfig, out: Path, args) -> int:
    import numpy as np

    rep = _bent_rep(cfg)
    sample = limit_set_sample(rep, _maxlen(cfg, "limitset"))
    total = len(sample)
    if total > LIMITSET_EMIT_CAP:
        # deterministic even-stride thinning over the angle-sorted circle,
        # so artifacts stay viewable at large word lengths
        order = np.argsort(sample.angles, kind="stable")
        sel = np.linspace(0, total - 1, LIMITSET_EMIT_CAP).round().astype(int)
        sample = sample.take(order[sel])
        print("sampled %d boundary points; emitting an even thinning of %d"
              % (total, len(sample)))
    csv_text = sample_to_csv(sample)
    header, _, body = csv_text.partition("\n")
    _write_csv(out / "limitset.csv", header,
               body.splitlines() if body else [])
    svg = sample_to_svg(sample)
    (out / "limitset.svg").write_text(
        "<!-- schema: %s -->\n%s" % (SCHEMA, svg))
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
    parser.add_argument("--genus", type=int)
    parser.add_argument("--bend-angle", type=float, dest="bend_angle")
    parser.add_argument("--maxlen", type=int)
    parser.add_argument("--rmax", type=float, dest="Rmax")
    parser.add_argument("--min-ratio", type=float, dest="min_ratio")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        if name == "certify":
            p.add_argument("--input", help="certificate file to validate "
                           "instead of searching")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    overrides = {key: getattr(args, key) for key in _FIELD_TYPES
                 if key != "outdir" and hasattr(args, key)}
    try:
        cfg = load_config(args.config, overrides)
        out = _resolve_outdir(cfg, args.outdir)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](cfg, out, args)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except (CertificateError, BoundaryError, RepresentationError,
            MoebiusError) as exc:
        print("invariant falsified or computation failed: %s" % exc,
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
