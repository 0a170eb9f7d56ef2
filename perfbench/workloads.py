"""Workload definitions of the repository benchmark.

Every workload is one seeded input graph plus the script that
``repro-aig opt in.aig -c <script>`` would run on it.  The rationale
beside each definition records which layers the workload loads, which
it bypasses, and the shares measured in a traced run, so that the author
of a change can predict "moves X on W, no change on V" before touching
code.

Shares are self wall time of the observe spans (``python3
perfbench/run.py --workload W --trace 1``) as a fraction of the traced
``run_script`` wall, as ranges over 30 traced invocations (ten seeds,
three times each), measured on a 2-vCPU x86-64 VM (Python 3.11, NumPy
backend).

Generators are imported lazily so that the parent process, which only
schedules child processes, never imports :mod:`repro`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Workload:
    """One benchmark input family and the script run on it."""

    name: str
    script: str
    #: One-line reason, mirrored in ``BENCHMARK.json``.
    why: str
    #: False when the generator takes no seed (the input is fixed).
    uses_seed: bool
    #: Run exact ``check_equivalence`` once per invocation (it finishes
    #: well within a minute on this input).
    exact_cec: bool
    #: ``build(seed, tiny)`` returns the graph written as the input;
    #: ``tiny`` selects the smoke-test size on the same code path.
    build: Callable[[int, bool], object]


def _mtm_enlarged(seed: int, tiny: bool, nodes: int, times: int):
    from repro.benchgen.enlarge import enlarge
    from repro.benchgen.random_aig import mtm_random

    if tiny:
        return enlarge(mtm_random(12, 160, 4, seed, locality=16), 1)
    return enlarge(mtm_random(36, nodes, 10, seed, locality=48), times)


def _build_b_xl(seed: int, tiny: bool):
    return _mtm_enlarged(seed, tiny, 2300, 4)


def _build_rf_resyn(seed: int, tiny: bool):
    return _mtm_enlarged(seed, tiny, 600, 3)


def _build_resyn2_wide(seed: int, tiny: bool):
    from repro.benchgen.control import random_control
    from repro.benchgen.enlarge import enlarge

    if tiny:
        return random_control(8, 2, 16, seed)
    return enlarge(random_control(40, 4, 100, seed), 3)


def _build_rfc_deep(seed: int, tiny: bool):
    from repro.benchgen.arith import isqrt

    return isqrt(8 if tiny else 14)


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        # mtm_random(36, 2300, 10, seed, locality=48) doubled 4 times:
        # about 58k ANDs and 118-133 levels.
        # Loads io (read_aiger at ~300k ANDs/s, peak RSS ~73 MiB),
        # balance (b.reconstruct 71-76% and b.collapse 4-6% of the traced
        # optimize wall, pass.b self 19-24%) and commit (42-60% of
        # committed nodes go through bulk commit).
        # Bypasses cut enumeration, NPN, rewrite, refactor, rfc and
        # dedup.  No exact CEC: too slow at this size.
        Workload(
            name="b-xl",
            script="b",
            why=(
                "the only large graph (~58k ANDs): AIGER read, "
                "construction and memory dominate setup; b runs on the "
                "column kernels with bulk commit; no cuts, no resynthesis"
            ),
            uses_seed=True,
            exact_cec=False,
            build=_build_b_xl,
        ),
        # mtm_random(36, 600, 10, seed, locality=48) doubled 3 times:
        # about 7.4k-7.8k ANDs, above KERNEL_CUTOFF (4096).  A 450-node
        # base made runs shorter, but its run time varied by 12%
        # between seeds on a steady host.
        # Loads refactor (rf.resynthesize 57-64%, rf.collapse 5-6%,
        # rf.replace 5-7%), dedup 15-18%, balance 8-11% and commit
        # (25-30% of committed nodes bulk).
        # Bypasses rewrite (no rw/rwz), cut enumeration, NPN and rfc.
        # No exact CEC: it took 27-54 s per seed.  Every run is still
        # checked by simulation.
        Workload(
            name="rf_resyn-large",
            script="rf_resyn",
            why=(
                "the paper's rf_resyn script above KERNEL_CUTOFF: "
                "rf.resynthesize (~62%) and dedup (~15%) dominate; "
                "rewrite is absent"
            ),
            uses_seed=True,
            exact_cec=False,
            build=_build_rf_resyn,
        ),
        # random_control(40, 4, 100, seed) doubled 3 times: 4.1k-4.7k
        # ANDs and 8 levels, just above KERNEL_CUTOFF (4096).
        # Loads rewrite (rw.match 56-63%, of which cut enumeration is
        # 53-70%, NPN cache hit ratio 0.96; rw.replace 13-19%), dedup
        # 12-16% and the engine (ten commands share one GraphContext).
        # Bypasses rfc; rf/rfz are 9-13% and b 2-6%.
        Workload(
            name="resyn2-wide",
            script="resyn2",
            why=(
                "resyn2 on shallow, wide control logic just above "
                "KERNEL_CUTOFF: rw.match (cuts + NPN, ~59%) and "
                "rw.replace (~18%) dominate; ten commands share a context"
            ),
            uses_seed=True,
            exact_cec=True,
            build=_build_resyn2_wide,
        ),
        # isqrt(14): 757 ANDs and 132 levels after read_aiger re-strashes
        # (830 generated).  The generator takes no seed.
        # Loads rfc (rfc.replace 84-87%, rfc.collect 6-8%,
        # rfc.resynthesize 4-6%) and commit the serial way: 0 bulk
        # nodes, every node replayed; rfc.retry_yield 59/1157.  b is
        # about 2%.
        # Bypasses the column kernels, bulk commit, rewrite and rf.
        Workload(
            name="rfc-deep",
            script="rfc_resyn",
            why=(
                "deep isqrt below KERNEL_CUTOFF: every pass takes the "
                "scalar path and rfc.replace, the serial retry lane "
                "(~87%), replays every commit serially"
            ),
            uses_seed=False,
            exact_cec=True,
            build=_build_rfc_deep,
        ),
    )
}
