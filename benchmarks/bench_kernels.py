"""Micro-benchmarks of the core kernels (real wall-clock).

Unlike the exhibit benches, these measure the actual Python runtime of
the performance-critical substrate operations, for tracking regressions
with pytest-benchmark's statistics.
"""

import random
import sys

import pytest

from repro.aig.aig import Aig
from repro.aig.cuts import enumerate_cuts_with_tables, reconv_cut
from repro.aig.io_aiger import read_aig_binary, write_aig_binary
from repro.aig.traversal import aig_levels_array
from repro.algorithms import kernels
from repro.benchgen import double, enlarge
from repro.benchgen.arith import isqrt, multiplier
from repro.benchgen.control import random_control
from repro.benchgen.random_aig import mtm_random
from repro.cec.simulate import random_patterns, simulate
from repro.commit.engine import InsertionSession
from repro.engine import pass_fn, run_script
from repro.engine.context import clone_with_context
from repro.logic.isop import isop_cover
from repro.logic.npn import npn_canon
from repro.logic.resyn import plan_resynthesis
from repro.logic.truth import full_mask, var_table
from repro.parallel import hashtable
from repro.parallel.hashtable import HashTable
from repro.parallel.machine import ParallelMachine


def build_mult():
    return multiplier(12)


def test_bench_strash_construction(benchmark):
    benchmark(build_mult)


def test_bench_simulation_1024_patterns(benchmark):
    aig = build_mult()
    patterns = random_patterns(aig.num_pis, 1024)
    benchmark(simulate, aig, patterns, 1024)


def test_bench_reconv_cut(benchmark):
    aig = build_mult()
    roots = list(aig.and_vars())[-64:]

    def run():
        for root in roots:
            reconv_cut(aig, root, 12)

    benchmark(run)


def test_bench_isop_8var(benchmark):
    rng = random.Random(1)
    tables = [rng.getrandbits(256) for _ in range(16)]

    def run():
        for table in tables:
            isop_cover(table, table, 8, {})

    benchmark(run)


def test_bench_npn_canon(benchmark):
    rng = random.Random(3)
    tables = [rng.getrandbits(16) for _ in range(64)]

    def run():
        # Uncached: a repeat round would time cache hits.
        for table in tables:
            npn_canon.__wrapped__(table, 4)

    benchmark(run)


def test_bench_resynthesis_plan(benchmark):
    rng = random.Random(2)
    tables = [rng.getrandbits(64) for _ in range(16)]

    def run():
        # Uncached: a repeat round would time plan-cache hits.
        for table in tables:
            plan_resynthesis.__wrapped__(table, 6)

    benchmark(run)


def _sparse_table(rng: random.Random, num_vars: int) -> int:
    """OR of 1-10 random cubes: a cone-like function with a small SOP."""
    mask = full_mask(num_vars)
    table = 0
    for _ in range(rng.randint(1, 10)):
        cube = mask
        for var in range(num_vars):
            if rng.random() < 0.5:
                continue
            literal = var_table(var, num_vars)
            cube &= literal if rng.random() < 0.5 else mask ^ literal
        table |= cube
    return table


def test_bench_resynthesis_plan_12var(benchmark):
    """12-input cones: most plan-cache misses of ``rfc_resyn`` on isqrt."""
    rng = random.Random(12)
    tables = [_sparse_table(rng, 12) for _ in range(32)]

    def run():
        for table in tables:
            plan_resynthesis.__wrapped__(table, 12)

    benchmark(run)


def test_bench_hashtable_insert_lookup(benchmark):
    """2,000 raw-key inserts, then the same keys again as hits."""
    key0 = [i * 3 % 1021 for i in range(2000)]
    key1 = [i * 7 % 2039 for i in range(2000)]
    values = list(range(2000))

    def run():
        table = HashTable(expected=4096)
        table.insert_batch(key0, key1, values)
        table.insert_batch(key0, key1, values)

    benchmark(run)


def test_bench_compact(benchmark):
    aig = build_mult()
    benchmark(lambda: aig.compact())


def test_bench_compact_small(benchmark):
    # multiplier(6): a few hundred ANDs, the size range that once took
    # the scalar rebuild; a small-graph regression of the bulk path
    # shows here first.
    aig = multiplier(6)
    benchmark(lambda: aig.compact())


def test_bench_double_small(benchmark):
    aig = multiplier(6)
    benchmark(double, aig)


@pytest.mark.parametrize(
    "shape",
    [
        # Wide and shallow (the resyn2-wide input, seed 1): few levels
        # of many nodes, where the level-synchronous DP batches best.
        "wide",
        # Deep and narrow: ~40 levels of a handful of nodes each, where
        # the per-level NumPy overhead shows.
        "deep",
    ],
)
def test_bench_enumerate_cuts_with_tables(benchmark, shape):
    if shape == "wide":
        aig = enlarge(random_control(40, 4, 100, 1), 3)
    else:
        aig = isqrt(8)
    benchmark(enumerate_cuts_with_tables, aig)


def _rewritten_graph():
    """The graph and alias map one ``rw`` pass hands to its cleanup.

    Runs ``par_rewrite`` on the resyn2-wide input (seed 1) and keeps a
    copy of what its ``dedup_and_dangling`` call receives.
    """
    aig = enlarge(random_control(40, 4, 100, 1), 3)
    rewrite = sys.modules[pass_fn("par_rewrite").__module__]
    cleanup = rewrite.dedup_and_dangling
    captured = {}

    def capture(working, alias, *args, **kwargs):
        captured["aig"] = working.clone()
        captured["alias"] = dict(alias)
        return cleanup(working, alias, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rewrite, "dedup_and_dangling", capture)
        pass_fn("par_rewrite")(aig)
    return captured["aig"], captured["alias"]


def test_bench_rw_replace(benchmark):
    """rw's serial replay on the resyn2-wide input (seed 1), zero gain.

    The match stage runs once; every round replays its candidates on a
    fresh clone, as one ``rwz`` pass would.
    """
    # The pass's module, resolved through the engine's command table.
    rewrite = sys.modules[pass_fn("par_rewrite").__module__]
    aig = enlarge(random_control(40, 4, 100, 1), 3)
    candidates = rewrite._match_stage(aig, ParallelMachine(), 0)
    benchmark.pedantic(
        rewrite._replace_stage,
        setup=lambda: (
            (clone_with_context(aig), candidates, ParallelMachine(), 0),
            {},
        ),
        rounds=10,
    )


def test_bench_dedup(benchmark):
    """Dedup, dangling removal and the resolve-map compact of one pass."""
    aig, alias = _rewritten_graph()
    dedup = pass_fn("dedup")
    benchmark.pedantic(
        dedup,
        setup=lambda: ((aig.clone(), dict(alias)), {}),
        rounds=20,
    )


@pytest.fixture(scope="module")
def b_xl_file(tmp_path_factory):
    """The b-xl benchmark input (seed 1, ~58k ANDs) as binary AIGER."""
    path = tmp_path_factory.mktemp("b-xl") / "input.aig"
    write_aig_binary(
        enlarge(mtm_random(36, 2300, 10, 1, locality=48), 4), path
    )
    return path


def test_bench_read_aiger(benchmark, b_xl_file):
    benchmark(read_aig_binary, b_xl_file)


def test_bench_balance_levelize(benchmark, b_xl_file):
    """Levels of the collapsed network ``b`` builds on the b-xl input."""
    aig = read_aig_binary(b_xl_file)
    plan = kernels.balance_collapse(aig, ParallelMachine())
    benchmark(kernels._levelize_collapsed, aig, plan)


@pytest.fixture(scope="module")
def b_xl_small_rounds(b_xl_file):
    """The get-or-create rounds of ``b`` on the b-xl input that fall
    below the table's gate, as recorded from one run: per-level rounds
    (literal arrays) and deep-subtree rounds (literal lists).  Returns
    the rounds and the largest variable they reference."""
    rounds = []
    insert_round = InsertionSession.insert_round

    def record(self, lits0, lits1):
        if len(lits0) < hashtable._SCALAR_CUTOFF:
            rounds.append((lits0.copy(), lits1.copy()))
        return insert_round(self, lits0, lits1)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(InsertionSession, "insert_round", record)
        run_script(read_aig_binary(b_xl_file), "b", engine="gpu")
    top = max(max(max(lits0), max(lits1)) for lits0, lits1 in rounds)
    return rounds, int(top) >> 1


def test_bench_goc_small_batches(benchmark, b_xl_small_rounds):
    """``b``'s below-gate insertion rounds on b-xl (seed 1), replayed in
    order through one fresh insertion session.  The graph starts with
    enough PIs for every recorded literal, so hits and misses follow
    the replayed keys alone."""
    rounds, top = b_xl_small_rounds

    def setup():
        aig = Aig("replay")
        aig.add_pi_batch(top)
        return (InsertionSession(aig, expected=2 * top),), {}

    def run(session):
        for lits0, lits1 in rounds:
            session.insert_round(lits0, lits1)

    benchmark.pedantic(run, setup=setup, rounds=10)


def test_bench_aig_levels_deep(benchmark, b_xl_file):
    """Levels of the b-xl input (133 levels deep): one wave, then the
    id-order scan."""
    benchmark(aig_levels_array, read_aig_binary(b_xl_file))
