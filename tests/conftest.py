"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.aig.aig import Aig
from repro.aig.traversal import fanout_counts
from repro.cec.equivalence import CecStatus, check_equivalence


def build_random_aig(
    seed: int,
    num_pis: int = 8,
    num_ands: int = 120,
    locality: int = 30,
) -> Aig:
    """Small random AIG with every node observable through some PO."""
    rng = random.Random(seed)
    aig = Aig(f"rand{seed}")
    literals = [aig.add_pi() for _ in range(num_pis)]
    for _ in range(num_ands):
        a = rng.choice(literals[-locality:]) ^ rng.randint(0, 1)
        b = rng.choice(literals) ^ rng.randint(0, 1)
        literals.append(aig.add_and(a, b))
    counts = fanout_counts(aig)
    for var in aig.and_vars():
        if counts[var] == 0:
            aig.add_po((var << 1) | rng.randint(0, 1))
    if aig.num_pos == 0:
        aig.add_po(literals[-1])
    return aig


def assert_equivalent(left: Aig, right: Aig, width: int = 256) -> None:
    """Fail the test unless the two AIGs are functionally equivalent."""
    result = check_equivalence(left, right, sim_width=width)
    assert result.status is CecStatus.EQUIVALENT, (
        f"{left.name} vs {right.name}: {result.status.value}, "
        f"cex={result.counterexample}, po={result.failing_output}"
    )


def capture_cleanup_input(monkeypatch, module) -> dict:
    """Record what ``module``'s pass hands to its dedup cleanup.

    After the pass runs, the returned dict holds a clone of the
    pre-cleanup graph (``"aig"``) and the alias map (``"alias"``) of
    the pass's one ``dedup_and_dangling`` call.
    """
    captured: dict = {}
    cleanup = module.dedup_and_dangling

    def capture(aig, alias, *args, **kwargs):
        captured["aig"] = aig.clone()
        captured["alias"] = dict(alias)
        return cleanup(aig, alias, *args, **kwargs)

    monkeypatch.setattr(module, "dedup_and_dangling", capture)
    return captured


@pytest.fixture
def rand_aig() -> Aig:
    return build_random_aig(7)


@pytest.fixture(params=[0, 1, 2, 3])
def seeded_aig(request) -> Aig:
    return build_random_aig(request.param)
