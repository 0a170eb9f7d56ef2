"""Unit tests for the cone resynthesis pipeline (tt -> ISOP -> factor)."""

import hashlib
import random

import pytest

from repro import observe
from repro.aig.aig import Aig
from repro.aig.io_aiger import dump_aag
from repro.algorithms.rewrite_lib import _TEMPLATES, library_template
from repro.benchgen import isqrt
from repro.benchgen.suite import load_benchmark
from repro.engine import run_script
from repro.logic.isop import isop_cover
from repro.logic.resyn import (
    MAX_RESYN_CUBES,
    PLAN_CACHE_ENTRIES,
    ResynPlan,
    build_plan,
    plan_resynthesis,
)
from repro.logic.sop import mask_literals
from repro.logic.truth import full_mask, simulate_cone, var_table
from repro.verify import forced_gates

#: sha256 of :func:`resynthesis_digest` over :func:`digest_tables`,
#: captured before ISOP, factoring and planning were memoised.  Any
#: change to a cover, its cube order or a plan field moves it.
RESYN_DIGEST = (
    "a64ba799ae25b8a28dfd5988953549457726804deb5d5175d7db9888702b681e"
)


def realize_plan(plan, num_vars: int) -> int:
    aig = Aig()
    leaves = [aig.add_pi() for _ in range(num_vars)]
    literal = build_plan(plan, leaves, aig.add_and)
    if literal <= 1:
        return 0 if literal == 0 else full_mask(num_vars)
    return simulate_cone(aig, literal, [leaf >> 1 for leaf in leaves])


def test_plan_realizes_random_functions():
    rng = random.Random(5)
    for num_vars in (2, 3, 4, 5):
        for _ in range(30):
            table = rng.getrandbits(1 << num_vars)
            plan = plan_resynthesis(table, num_vars)
            assert plan is not None
            assert realize_plan(plan, num_vars) == table


def test_plan_constants():
    plan0 = plan_resynthesis(0, 3)
    assert realize_plan(plan0, 3) == 0
    plan1 = plan_resynthesis(full_mask(3), 3)
    assert realize_plan(plan1, 3) == full_mask(3)


def test_plan_picks_cheaper_polarity():
    # f = a + b + c + d: SOP of f has 4 cubes but !f is one cube, so
    # the complemented polarity gives the smaller factored form.
    table = full_mask(4) ^ 1  # everything except minterm 0000
    plan = plan_resynthesis(table, 4)
    assert plan is not None
    assert plan.est_ands <= 3
    assert realize_plan(plan, 4) == table


def test_plan_support_excludes_dead_inputs():
    from repro.logic.truth import var_table

    table = var_table(1, 3)  # depends only on x1
    plan = plan_resynthesis(table, 3)
    assert plan.support == [1]


def xor8_table() -> int:
    """8-input XOR: both polarities need 128 cubes."""
    table = 0
    for minterm in range(1 << 8):
        if bin(minterm).count("1") % 2:
            table |= 1 << minterm
    return table


def test_plan_cube_cap_returns_none():
    assert plan_resynthesis(xor8_table(), 8, max_cubes=64) is None


def test_plan_cube_cap_one_polarity_ok():
    # f with tiny complement cover: cap hits only the positive cover.
    table = full_mask(6) ^ 1
    plan = plan_resynthesis(table, 6, max_cubes=4)
    assert plan is not None
    assert plan.output_neg
    assert realize_plan(plan, 6) == table


def test_plan_work_is_positive():
    plan = plan_resynthesis(0xCA, 3)
    assert plan.work > 0


def test_est_ands_upper_bounds_build():
    rng = random.Random(9)
    for _ in range(40):
        table = rng.getrandbits(16)
        plan = plan_resynthesis(table, 4)
        aig = Aig()
        leaves = [aig.add_pi() for _ in range(4)]
        build_plan(plan, leaves, aig.add_and)
        assert aig.num_ands <= plan.est_ands


def sparse_table(rng: random.Random, num_vars: int) -> int:
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


def digest_tables() -> list[tuple[int, int]]:
    """2,048 seeded 4-input tables plus 150 sparse 5-12-input ones."""
    rng = random.Random(16)
    tables = [(rng.getrandbits(16), 4) for _ in range(2048)]
    for _ in range(150):
        num_vars = rng.randint(5, 12)
        tables.append((sparse_table(rng, num_vars), num_vars))
    return tables


def resynthesis_digest(tables: list[tuple[int, int]]) -> str:
    """sha256 over both ISOP covers and the plans of every table."""
    digest = hashlib.sha256()
    for table, num_vars in tables:
        for function in (table, table ^ full_mask(num_vars)):
            cover = isop_cover(function, function, num_vars, {})
            digest.update(repr([mask_literals(c) for c in cover]).encode())
        # A 4-cube cap also reaches the one-polarity and blow-up plans.
        for max_cubes in (MAX_RESYN_CUBES, 4):
            plan = plan_resynthesis(table, num_vars, max_cubes)
            fields = None
            if plan is not None:
                fields = (
                    plan.tree.to_string(),
                    plan.output_neg,
                    plan.est_ands,
                    plan.support,
                    plan.work,
                )
            digest.update(repr(fields).encode())
    return digest.hexdigest()


def test_resynthesis_digest_is_pinned():
    """Covers and plans are bit-identical to the unmemoised pipeline."""
    assert resynthesis_digest(digest_tables()) == RESYN_DIGEST


def test_plan_cache_is_bounded_lru():
    plan_resynthesis.cache_clear()
    rng = random.Random(3)
    tables = rng.sample(range(1 << 16), 300)
    first = plan_resynthesis(tables[0], 4)
    for table in tables[1:]:
        plan_resynthesis(table, 4)
        # Touching the first plan keeps it the most recently used.
        assert plan_resynthesis(tables[0], 4) is first
        assert plan_resynthesis.cache_info().currsize <= PLAN_CACHE_ENTRIES
    assert plan_resynthesis.cache_info().currsize == PLAN_CACHE_ENTRIES
    # The second table was the least recently used: evicted, replanned.
    misses = plan_resynthesis.cache_info().misses
    plan_resynthesis(tables[1], 4)
    assert plan_resynthesis.cache_info().misses == misses + 1
    plan_resynthesis.cache_clear()
    assert plan_resynthesis.cache_info().currsize == 0


def test_plan_cache_keys_on_max_cubes():
    assert plan_resynthesis(xor8_table(), 8) is not None
    test_plan_cube_cap_returns_none()


def test_cached_plan_equals_fresh_plan():
    table = 0xE8F1
    plan_resynthesis.cache_clear()
    cached = plan_resynthesis(table, 4)
    assert plan_resynthesis(table, 4) is cached
    fresh = plan_resynthesis.__wrapped__(table, 4)
    assert fresh is not cached
    for name in ("output_neg", "est_ands", "support", "work", "num_vars"):
        assert getattr(fresh, name) == getattr(cached, name)
    assert fresh.tree.to_string() == cached.tree.to_string()
    assert dump_aag(fresh.template) == dump_aag(cached.template)
    assert cached.template is cached.template


def _plan_counters(run) -> dict[str, int]:
    observe.enable()
    try:
        run()
    finally:
        _, registry = observe.disable()
    counters = registry.snapshot()["counters"]
    return {
        key: counters.get(key, 0)
        for key in (
            "resyn.plan_hits", "resyn.plan_misses", "resyn.plan_evictions"
        )
    }


def test_plan_counters_repeat_across_runs():
    """Every run starts and ends with an empty cache."""
    aig = isqrt(8)
    plan_resynthesis(0xE8F1, 4)  # a plan left by a caller outside a run
    counters = []
    for _ in range(2):
        counters.append(
            _plan_counters(
                lambda: run_script(aig.clone(), "rfc_resyn", engine="gpu")
            )
        )
        assert plan_resynthesis.cache_info().currsize == 0
    assert counters[0] == counters[1]
    assert counters[0]["resyn.plan_hits"] > 0
    assert counters[0]["resyn.plan_misses"] > 0
    # Every plan of this run fits in the cache: nothing was evicted.
    assert counters[0]["resyn.plan_evictions"] == 0


def test_plan_evictions_count_plans_the_lru_dropped():
    counters = _plan_counters(
        lambda: run_script(isqrt(10), "rfc_resyn", engine="gpu")
    )
    assert counters["resyn.plan_misses"] > PLAN_CACHE_ENTRIES
    assert counters["resyn.plan_evictions"] == (
        counters["resyn.plan_misses"] - PLAN_CACHE_ENTRIES
    )


def test_library_template_bypasses_plan_cache():
    canon = 0x1668  # any 4-input function, dropped so it is rebuilt
    _TEMPLATES.pop((canon, 4), None)
    plan_resynthesis.cache_clear()
    library_template(canon, 4)
    assert plan_resynthesis.cache_info() == (0, 0, PLAN_CACHE_ENTRIES, 0)
    assert (canon, 4) in _TEMPLATES


@pytest.mark.parametrize("gates", [None, 0], ids=["default", "gates0"])
def test_cached_templates_are_never_mutated(monkeypatch, gates):
    """Every template keeps the dump it had when it was built."""
    built: list[tuple[Aig, str]] = []
    build = ResynPlan.template.fget

    def recording_build(plan: ResynPlan) -> Aig:
        fresh = plan._template is None
        template = build(plan)
        if fresh:
            built.append((template, dump_aag(template)))
        return template

    monkeypatch.setattr(ResynPlan, "template", property(recording_build))
    aig = load_benchmark("vga_lcd")
    with forced_gates(gates):
        for script in ("resyn2", "rfc_resyn"):
            run_script(aig.clone(), script, engine="gpu")
    assert built
    for template, dump in built:
        assert dump_aag(template) == dump
