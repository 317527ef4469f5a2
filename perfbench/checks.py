"""Independent checks of the artifacts each qfcert command writes.

Every check takes the command's output directory (and the bend angle it
ran at, where the artifact depends on one) and returns a list of
problems; an empty list means the artifact is correct.  Checks re-derive
what they can without the code path that wrote the artifact: spectrum
lengths are recomputed from the words with plain 2x2 products, witnesses
and certificates are reloaded from JSON and re-verified.
"""

from __future__ import annotations

import cmath
import json
import math
import re
import xml.etree.ElementTree as ElementTree
from pathlib import Path

from qfcert.boundary import verify_witness_orders, witness_from_dict
from qfcert.certificates import certificate_from_dict, certificate_problems
from qfcert.representations import bend, fuchsian_octagon

SCHEMA_LINE = "# schema: qfcert/1"
LIMITSET_ROWS = 50_000          # the CLI's emit cap, reached from maxlen 6
SPECTRUM_CLASSES = 4_100        # conjugacy classes up to length 5
TRIANGLE_RECORDS = 25_260       # configured class pairs up to length 3
MIN_RATIO = 1.0 + 1e-6          # the certificate acceptance threshold
LENGTH_TOL = 1e-9               # spectrum length agreement, absolute
# growth at Rmax 10: counts pinned from the seed state (a prefix of the
# Rmax 12 list, which ends in 40905); h is a least-squares slope of their
# logs and may differ only by floating-point reassociation
GROWTH_RMAX = 10.0
GROWTH_COUNTS = [1, 1, 1, 1, 1, 9, 9, 25, 49, 65, 97, 137, 265, 473, 793,
                 1225, 2057, 3361, 5433]
GROWTH_H = 1.0097509912448477
GROWTH_H_TOL = 1e-9


def bent(theta: float):
    return bend(fuchsian_octagon(), theta)


def _csv_rows(path: Path, header: str, problems: list[str]) -> list[list[str]]:
    lines = path.read_text().splitlines()
    if not lines or lines[0] != SCHEMA_LINE:
        problems.append("%s: first line is not %r" % (path.name, SCHEMA_LINE))
    if len(lines) < 2 or lines[1] != header:
        problems.append("%s: header is not %r" % (path.name, header))
    width = header.count(",") + 1
    rows = [line.split(",") for line in lines[2:]]
    bad = sum(1 for r in rows if len(r) != width)
    if bad:
        problems.append("%s: %d rows without %d fields" % (path.name, bad, width))
    return rows


def _letters(text: str) -> list[int]:
    """Letters of a word written as tokens a1 b1 A2 ... (upper = inverse)."""
    out = []
    for tok in text.split():
        m = re.fullmatch(r"([abAB])([12])", tok)
        if m is None:
            raise ValueError("bad letter token %r" % tok)
        x = 2 * int(m.group(2)) - (1 if m.group(1) in "aA" else 0)
        out.append(-x if m.group(1).isupper() else x)
    return out


def _length(rep, letters: list[int]) -> float:
    """Translation length 2|Re arccosh(tr/2)| of the word's image."""
    a, b, c, d = 1 + 0j, 0j, 0j, 1 + 0j
    for x in letters:
        g = rep.images[x]
        a, b, c, d = (a * g.a + b * g.c, a * g.b + b * g.d,
                      c * g.a + d * g.c, c * g.b + d * g.d)
    return 2.0 * abs(cmath.acosh((a + d) / 2.0).real)


def witness(out: Path, theta: float) -> list[str]:
    w = witness_from_dict(json.loads((out / "witness.json").read_text()))
    if not verify_witness_orders(w, bent(theta)):
        return ["witness.json fails verify_witness_orders at theta %r" % theta]
    return []


def limitset(out: Path, theta: float) -> list[str]:
    problems: list[str] = []
    rows = _csv_rows(out / "limitset.csv", "word,angle_ref,re,im", problems)
    if len(rows) != LIMITSET_ROWS:
        problems.append("limitset.csv has %d rows, expected %d"
                        % (len(rows), LIMITSET_ROWS))
    for row in rows:
        try:
            _letters(row[0])
            angle, _, _ = (float(v) for v in row[1:4])
        except ValueError as exc:
            problems.append("limitset.csv: bad row %r (%s)" % (row, exc))
            break
        if not 0.0 <= angle < 1.0:
            problems.append("limitset.csv: angle %r outside [0, 1)" % angle)
            break
    svg_text = (out / "limitset.svg").read_text()
    if not svg_text.startswith("<!-- schema: qfcert/1 -->\n"):
        problems.append("limitset.svg lacks the schema comment")
    try:
        root = ElementTree.fromstring(svg_text)
    except ElementTree.ParseError as exc:
        problems.append("limitset.svg is not well-formed: %s" % exc)
    else:
        if root.tag != "{http://www.w3.org/2000/svg}svg":
            problems.append("limitset.svg root element is %s" % root.tag)
    return problems


def growth(out: Path, theta: float | None = None) -> list[str]:
    payload = json.loads((out / "growth.json").read_text())
    problems = []
    if payload.get("schema") != "qfcert/1" \
            or payload.get("type") != "growth_estimate":
        problems.append("growth.json has the wrong schema or type")
    if payload.get("Rmax") != GROWTH_RMAX:
        problems.append("growth.json Rmax %r, expected %r"
                        % (payload.get("Rmax"), GROWTH_RMAX))
    if payload.get("counts") != GROWTH_COUNTS:
        problems.append("growth.json counts differ from the pinned list")
    h = payload.get("h")
    if not isinstance(h, float) or not abs(h - GROWTH_H) <= GROWTH_H_TOL:
        problems.append("growth.json h = %r, expected %r within %g"
                        % (h, GROWTH_H, GROWTH_H_TOL))
    return problems


def spectrum(out: Path, theta: float) -> list[str]:
    problems: list[str] = []
    rows = _csv_rows(out / "spectrum.csv", "word,length", problems)
    if len(rows) != SPECTRUM_CLASSES:
        problems.append("spectrum.csv has %d classes, expected %d"
                        % (len(rows), SPECTRUM_CLASSES))
    if len({r[0] for r in rows}) != len(rows):
        problems.append("spectrum.csv repeats a word")
    rep = bent(theta)
    worst, where = 0.0, None
    for row in rows:
        try:
            diff = abs(_length(rep, _letters(row[0])) - float(row[1]))
        except (ValueError, IndexError, KeyError) as exc:
            problems.append("spectrum.csv: bad row %r (%s)" % (row, exc))
            break
        if not diff <= worst:
            worst, where = diff, row[0]
    if not worst <= LENGTH_TOL:
        problems.append("spectrum.csv length of %r is off by %.3e from its "
                        "recomputation" % (where, worst))
    return problems


def certificate(out: Path, theta: float) -> list[str]:
    cert = certificate_from_dict(
        json.loads((out / "separation_certificate.json").read_text()))
    problems = list(certificate_problems(cert, bent(theta)))
    if not cert.ratio >= MIN_RATIO:
        problems.append("certificate ratio %.12f is below %.12f"
                        % (cert.ratio, MIN_RATIO))
    return problems


def triangle(out: Path, theta: float | None = None) -> list[str]:
    problems: list[str] = []
    rows = _csv_rows(out / "triangle.csv",
                     "a,b,config,ell_a,ell_b,ell_combined,slack", problems)
    if len(rows) != TRIANGLE_RECORDS:
        problems.append("triangle.csv has %d records, expected %d"
                        % (len(rows), TRIANGLE_RECORDS))
    min_slack = math.inf
    for row in rows:
        config = row[2]
        ell_a, ell_b, combined, slack = (float(v) for v in row[3:7])
        if config == "linked":
            expected = ell_a + ell_b - combined
        elif config in ("unlinked_aligned", "unlinked_misaligned"):
            expected = combined - (ell_a + ell_b)
        else:
            problems.append("triangle.csv: unknown config %r" % config)
            break
        if abs(expected - slack) > 1e-12 * max(1.0, ell_a + ell_b):
            problems.append("triangle.csv: slack %r of %s,%s does not match "
                            "its lengths" % (slack, row[0], row[1]))
            break
        min_slack = min(min_slack, slack)
    if not min_slack > 0.0:
        problems.append("triangle.csv minimum slack %r is not positive"
                        % min_slack)
    return problems


def run_check(check, out: Path, theta) -> list[str]:
    """A check's problems; a check that cannot read the artifact is one."""
    try:
        return check(out, theta)
    except Exception as exc:  # a malformed artifact must not stop the run
        return ["%s check failed: %s: %s" % (check.__name__,
                                             type(exc).__name__, exc)]
