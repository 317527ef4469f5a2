"""Check that two source trees give the same CLI results, run by run.

Usage::

    python tools/same_artifacts.py PARENT_SRC CHANGE_SRC

Each SRC is a directory that holds the ``qfcert`` package, such as the
``src`` of a checkout.  Every run in ``RUNS`` is made once against each
tree: its commands run in order as ``python -m qfcert.cli`` with that
tree first on ``PYTHONPATH``, in a fresh temporary working directory,
with ``--outdir`` pointing to a fresh temporary output directory.  The
run's exit codes, stdout and stderr (with the output directory replaced
by ``OUT``) and the sha256 of every file it wrote are compared between
the two trees.  One line is printed per run, then a total; under a run
whose stdout or stderr differs, two indented lines give the first
differing line of that output in each tree.  The exit status is 1 when
any run differs.  Nothing is written into the trees.
Standard library only.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# placeholders in a command: the run's output directory, and a path that
# does not exist
OUT, MISSING = "{OUT}", "{MISSING}"


def _witness_runs():
    for k in range(26):
        theta = "%.2f" % (0.5 + 0.02 * k)
        steps = [["--bend-angle", theta, "--maxlen", "7", "witness"]]
        if theta == "0.60":
            steps.append(["--bend-angle", theta, "witness", "--input",
                          OUT + "/witness.json"])
        yield "witness-7-" + theta, steps


# (label, commands): a command is its argument list after --outdir OUT
RUNS = (
    *_witness_runs(),
    *(("limitset-6-" + theta,
       [["--bend-angle", theta, "--maxlen", "6", "limitset"]])
      for theta in ("0", "0.55", "0.7", "0.95")),
    ("limitset-8", [["--maxlen", "8", "limitset"]]),
    ("certify-5", [["--maxlen", "5", "certify"],
                   ["certify", "--input",
                    OUT + "/separation_certificate.json"]]),
    ("certify-6", [["--maxlen", "6", "certify"]]),
    # θ 0 finds nothing and reports its best ratio, below 1; at θ 2.0, 20
    # classes stop translating, so the scan's table is filtered and its
    # pair blocks fall elsewhere; θ 3.1 at maxlen 3 scans a single block
    *(("certify-5-" + theta,
       [["--bend-angle", theta, "--maxlen", "5", "certify"]])
      for theta in ("0", "0.45", "1.0", "2.0")),
    ("certify-3-3.1", [["--bend-angle", "3.1", "--maxlen", "3", "certify"]]),
    ("certify-min-ratio", [["--min-ratio", "1.1", "certify"]]),
    *(("spectrum-%d" % n, [["--maxlen", str(n), "spectrum"]]) for n in (5, 6)),
    *(("triangle-check-%d" % n, [["--maxlen", str(n), "triangle-check"]])
      for n in (3, 4)),
    # Rmax 14, the largest the CLI runs, is the orbit search's largest store
    *(("growth-%d" % r, [["--rmax", str(r), "growth"]])
      for r in (10, 12, 14)),
    ("config-errors", [
        ["--maxlen", "0", "witness"],
        ["--maxlen", "9", "limitset"],
        ["--bend-angle", "nan", "spectrum"],
        ["--min-ratio", "0.5", "certify"],
        ["--config", MISSING, "spectrum"],
        ["witness", "--input", MISSING],
        ["certify", "--input", MISSING],
    ]),
)


def _digests(out: Path) -> dict[str, str]:
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


def run_once(src: Path, commands: list[list[str]]) -> dict:
    """The normalised results of one run's commands against one tree."""
    env = {k: v for k, v in os.environ.items() if k != "QFCERT_OUTDIR"}
    env["PYTHONPATH"] = str(src)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    with tempfile.TemporaryDirectory() as tmp:
        cwd, out = Path(tmp) / "cwd", Path(tmp) / "out"
        cwd.mkdir()
        out.mkdir()
        steps = []
        for args in commands:
            args = [a.replace(OUT, str(out))
                    .replace(MISSING, str(Path(tmp) / "missing.json"))
                    for a in args]
            proc = subprocess.run(
                [sys.executable, "-m", "qfcert.cli", "--outdir", str(out),
                 *args], cwd=cwd, env=env, capture_output=True, text=True)
            steps.append((proc.returncode,
                          *(s.replace(tmp, "OUT") for s in (proc.stdout,
                                                            proc.stderr))))
        return {"steps": steps, "artifacts": _digests(out)}


def _first_difference(x: str, y: str) -> list[str]:
    """The first line at which two outputs differ, one indented line per
    tree; "(end)" where that output has no such line."""
    a, b = x.splitlines(keepends=True), y.splitlines(keepends=True)
    k = next((k for k, (p, q) in enumerate(zip(a, b)) if p != q),
             min(len(a), len(b)))
    return ["    %s: %s" % (tree, lines[k].rstrip("\n") if k < len(lines)
                            else "(end)")
            for tree, lines in (("parent", a), ("change", b))]


def _differences(a: dict, b: dict) -> tuple[list[str], list[str]]:
    """What differs between two runs' results, and the first differing
    line of each differing stdout and stderr."""
    what, lines = [], []
    for k, (sa, sb) in enumerate(zip(a["steps"], b["steps"])):
        for name, x, y in zip(("exit code", "stdout", "stderr"), sa, sb):
            if x != y:
                what.append("command %d %s" % (k + 1, name))
                if name != "exit code":
                    lines += _first_difference(x, y)
    what += ["artifact " + name for name in sorted(
        set(a["artifacts"]) | set(b["artifacts"]))
        if a["artifacts"].get(name) != b["artifacts"].get(name)]
    return what, lines


def main(argv: list[str], runs=RUNS) -> int:
    if len(argv) != 2:
        print("usage: python tools/same_artifacts.py PARENT_SRC CHANGE_SRC",
              file=sys.stderr)
        return 2
    parent, change = (Path(a).resolve() for a in argv)
    differing = 0
    for label, commands in runs:
        a, b = run_once(parent, commands), run_once(change, commands)
        what, lines = _differences(a, b)
        codes = "/".join(str(step[0]) for step in a["steps"])
        detail = ": " + ", ".join(what) if what else ""
        print("%-6s %s (exit %s)%s" % ("DIFF" if what else "same", label,
                                       codes, detail), *lines, sep="\n",
              flush=True)
        differing += bool(what)
    print("%d runs, %d differ" % (len(runs), differing))
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
