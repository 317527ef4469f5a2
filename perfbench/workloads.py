"""The benchmark's workloads: inputs drawn from a seed, and one cycle each.

A cycle is one workload run as a user would make it: a fixed sequence of
``qfcert`` commands, each a fresh process started after the previous one
ended, each followed by the check of what it wrote.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import checks

THETA_RANGE = (0.5, 1.0)   # 1.0 is BEND_ANGLE_ENVELOPE
# cycle k of a run draws its angle uniformly from third k mod 3 of the
# range: each angle is still uniform over the range, and every run of three
# or more cycles covers it evenly, so runs with different seeds compare
STRATA = 3
# word lengths and radius below the CLI defaults: a cycle takes about ten
# seconds, so a run holds several and its median rejects a slow one (see
# BASELINE.md for the defaults and why)
WITNESS_MAXLEN = 7          # 1.08 M boundary points
LIMITSET_MAXLEN = 6         # 154 k points, thinned to 50 000 rows
CLASSES_MAXLEN = 5          # 4 100 classes for spectrum and certify
GROWTH_RMAX = checks.GROWTH_RMAX


def _angle(rng: random.Random, cycle: int) -> float:
    lo, hi = THETA_RANGE
    width = (hi - lo) / STRATA
    lo += (cycle % STRATA) * width
    return round(rng.uniform(lo, lo + width), 6)


def spiral_cycle(run, inputs: dict) -> None:
    theta = inputs["theta"]
    run.invoke("witness", ["--bend-angle", repr(theta), "--maxlen",
                           str(WITNESS_MAXLEN), "witness"],
               checks.witness, theta, artifacts=("witness.json",))
    run.invoke("limitset", ["--bend-angle", repr(theta), "--maxlen",
                            str(LIMITSET_MAXLEN), "limitset"],
               checks.limitset, theta)


def orbit_cycle(run, inputs: dict) -> None:
    run.invoke("growth", ["--rmax", repr(GROWTH_RMAX), "growth"],
               checks.growth)


def classes_cycle(run, inputs: dict) -> None:
    theta = inputs["theta"]
    run.invoke("spectrum", ["--bend-angle", repr(theta), "--maxlen",
                            str(CLASSES_MAXLEN), "spectrum"],
               checks.spectrum, theta)
    found = run.invoke("certify", ["--bend-angle", repr(theta), "--maxlen",
                                   str(CLASSES_MAXLEN), "certify"],
                       checks.certificate, theta)
    cert = found.out / "separation_certificate.json" if found.out else None
    if cert is not None and cert.is_file():
        run.invoke("certify_input", ["--bend-angle", repr(theta),
                                     "certify", "--input", str(cert)])
    else:
        run.skipped("certify_input", "no certificate was written")
    run.invoke("triangle", ["triangle-check"], checks.triangle)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    draw: Callable[[random.Random, int], dict]   # (rng, cycle) -> inputs
    cycle: Callable
    # wall time of one cycle on the machine of BASELINE.md; a run makes
    # --seconds / cycle_s cycles, so its work depends on the seed alone
    cycle_s: float


WORKLOADS = {w.name: w for w in (
    Workload(
        "spiral",
        "witness then limitset at one drawn bend angle: batch composition "
        "and boundary sampling at two working-set sizes",
        lambda rng, cycle: {"theta": _angle(rng, cycle)},
        spiral_cycle, 12.0),
    Workload(
        "orbit",
        "growth on the reference representation: breadth-first orbit "
        "search and key sort/dedup; bypasses word arrays and boundary",
        lambda rng, cycle: {},
        orbit_cycle, 6.0),
    Workload(
        "classes",
        "spectrum, certify and certify --input at one drawn angle, then "
        "triangle-check: the Python word, conjugacy and pair-scan path",
        lambda rng, cycle: {"theta": _angle(rng, cycle)},
        classes_cycle, 13.0),
)}
