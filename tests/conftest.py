"""Shared fixtures: the expensive end-to-end objects are built once per session."""

import time
from dataclasses import dataclass

import pytest

from qfcert import check
from qfcert.boundary import find_spiral_witness, limit_set_sample
from qfcert.check import SpiralWitness
from qfcert.representations import (
    Representation,
    bend,
    find_complex_trace_element,
    fuchsian_octagon,
)
from qfcert.surface_group import Word


@dataclass(frozen=True)
class WitnessRun:
    rep: Representation
    gamma: Word
    witness: SpiralWitness
    elapsed: float


@pytest.fixture
def octagon_refused(monkeypatch):
    """Building the reference octagon fails for the rest of the test."""
    def refuse():
        raise AssertionError("fuchsian_octagon called")

    monkeypatch.setattr(check, "fuchsian_octagon", refuse)
    check.reference_representation.cache_clear()


@pytest.fixture(scope="session")
def bent_rep() -> Representation:
    return bend(fuchsian_octagon(), 0.6)


@pytest.fixture(scope="session")
def witness_run(bent_rep) -> WitnessRun:
    start = time.monotonic()
    gamma = find_complex_trace_element(bent_rep, 4)
    witness = find_spiral_witness(bent_rep, gamma, 8)
    elapsed = time.monotonic() - start
    return WitnessRun(rep=bent_rep, gamma=gamma, witness=witness,
                      elapsed=elapsed)


@pytest.fixture(scope="session")
def bent_sample8(bent_rep):
    return limit_set_sample(bent_rep, 8)
