"""Tests for the unified pass engine (:mod:`repro.engine`).

Three groups:

* **Golden parity** — replays every run pinned in
  ``tests/goldens/engine_parity.json`` through the registry-backed
  scheduler, once with the fast-path size gates at their defaults and
  once with every gate forced to ``0``, and asserts bit-identical AIGER
  dumps, modeled times (full float precision) and headline counters.
  The goldens were captured from the pre-engine script runner, so
  these tests prove the refactor changed no observable behavior.
* **GraphContext** — unit tests of the version-keyed derived-state
  cache: hit/miss accounting, invalidation on every mutating operation
  (appends included), fork isolation, the passes leaving shared fork
  entries intact, and the grow-in-place ``arrays()`` path.
* **Registry/plugin** — script parsing errors, pass lookup, and an
  end-to-end plugin test registering a custom pass + command and
  driving it through ``repro-aig opt``.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from repro import observe
from repro.aig import traversal
from repro.aig.io_aiger import dump_aag, write_aag
from repro.algorithms.common import PassResult
from repro.benchgen.control import random_control
from repro.benchgen.random_aig import mtm_random
from repro.cli import main as cli_main
from repro.engine import (
    VALID_COMMANDS,
    GraphContext,
    clone_with_context,
    context_for,
    parse_script,
    pass_fn,
    register_command,
    register_pass,
    run_script,
    unregister_command,
    unregister_pass,
)
from repro.verify import forced_gates
from tests.conftest import build_random_aig

GOLDENS = Path(__file__).parent / "goldens" / "engine_parity.json"


# ----------------------------------------------------------------------
# Golden parity: the engine reproduces pre-refactor behavior bit for bit
# ----------------------------------------------------------------------


def _golden_case(name: str):
    """Rebuild one golden case AIG (same recipe as the capture script)."""
    if name == "mtm":
        return mtm_random(
            num_pis=10, num_nodes=180, num_pos=4, locality=48,
            rng=random.Random(11), name="mtm",
        )
    if name == "control":
        return random_control(
            num_pis=10, num_layers=3, layer_width=28,
            rng=random.Random(22), name="control",
        )
    assert name == "deep"
    return mtm_random(
        num_pis=8, num_nodes=120, num_pos=3, locality=6,
        rng=random.Random(33), name="deep",
    )


_CASE_CACHE: dict[str, object] = {}


def _case_aig(name: str):
    if name not in _CASE_CACHE:
        _CASE_CACHE[name] = _golden_case(name)
    return _CASE_CACHE[name]


with open(GOLDENS, encoding="ascii") as _handle:
    _GOLDEN_RUNS = json.load(_handle)["runs"]


#: Gate settings every pinned run is replayed under (id suffix, value).
_GATE_MODES = (("default", None), ("gates0", 0))


def _run_id(case: tuple) -> str:
    run, (label, _) = case
    return "-".join((run["case"], run["script"], run["engine"], label))


@pytest.mark.parametrize(
    "case",
    [(run, mode) for run in _GOLDEN_RUNS for mode in _GATE_MODES],
    ids=_run_id,
)
def test_golden_parity(case):
    run, (_, gates) = case
    aig = _case_aig(run["case"])
    with forced_gates(gates):
        observe.enable()
        try:
            result = run_script(
                aig.clone(), run["script"], engine=run["engine"]
            )
        finally:
            _, registry = observe.disable()
    assert dump_aag(result.aig) == run["dump"]
    assert repr(result.modeled_time()) == run["modeled_time"]
    counters = registry.snapshot()["counters"]
    for key, value in run["counters"].items():
        assert counters.get(key, 0) == value, key


def test_goldens_cover_both_engines():
    seen = {run["engine"] for run in _GOLDEN_RUNS}
    assert seen == {"seq", "gpu"}
    assert all("backend" not in run for run in _GOLDEN_RUNS)


def test_goldens_check_reports_missing_and_unpinned_runs():
    import importlib.util

    path = Path(__file__).parent.parent / "scripts/capture_engine_goldens.py"
    spec = importlib.util.spec_from_file_location(path.stem, path)
    capture = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(capture)
    assert capture.diff_runs(_GOLDEN_RUNS, _GOLDEN_RUNS) == []
    first = "-".join(capture._run_key(_GOLDEN_RUNS[0]))
    assert capture.diff_runs(_GOLDEN_RUNS, _GOLDEN_RUNS[1:]) == [
        f"{first}: pinned but not captured"
    ]
    assert capture.diff_runs(_GOLDEN_RUNS[1:], _GOLDEN_RUNS) == [
        f"{first}: not pinned in goldens"
    ]
    drifted = dict(_GOLDEN_RUNS[0], modeled_time="0.0")
    assert capture.diff_runs(
        _GOLDEN_RUNS, [drifted] + _GOLDEN_RUNS[1:]
    ) == [f"{first}: modeled_time drifted"]


# ----------------------------------------------------------------------
# GraphContext: version-keyed memoization
# ----------------------------------------------------------------------


@pytest.fixture
def small_aig():
    return build_random_aig(7, num_ands=60)


def _add_fresh_and(aig) -> int:
    """Append an AND guaranteed to miss the strash table."""
    before = aig.num_vars
    for a in aig.pis:
        for b in aig.pis:
            lit = aig.add_and(a << 1, (b << 1) ^ 1)
            if aig.num_vars > before:
                return lit
    raise AssertionError("no fresh AND pair found")


def test_context_hit_miss_accounting(small_aig):
    context = context_for(small_aig)
    assert context is context_for(small_aig)  # attached, not rebuilt
    levels = context.levels()
    assert context.counters == {"hits": 0, "misses": 1}
    assert context.levels() is levels
    assert context.counters == {"hits": 1, "misses": 1}
    assert list(levels) == traversal.aig_levels(small_aig)


def test_context_append_is_a_miss():
    from repro.aig.aig import Aig

    aig = Aig("ctx")
    x = [aig.add_pi() for _ in range(4)]
    n1 = aig.add_and(x[0], x[1])
    n2 = aig.add_and(x[2], x[3])
    aig.add_po(aig.add_and(n1, n2))
    context = context_for(aig)
    context.levels()
    context.fanout_counts()
    context.fanout_degrees()
    before = aig.num_vars
    aig.add_and(n1, x[2] ^ 1)  # guaranteed fresh: pair not strashed yet
    assert aig.num_vars == before + 1
    levels = context.levels()
    counts = context.fanout_counts()
    degrees = context.fanout_degrees()
    assert context.counters == {"hits": 0, "misses": 6}
    assert list(levels) == traversal.aig_levels(aig)
    assert list(counts) == traversal.fanout_counts(aig)
    assert degrees.tolist() == [
        len(readers) for readers in traversal.fanout_lists(aig)
    ]


def test_context_invalidation_on_structural_mutations(small_aig):
    context = context_for(small_aig)
    context.levels()
    victim = list(small_aig.and_vars())[-1]
    small_aig.mark_dead(victim)
    context.levels()
    assert context.counters["misses"] == 2  # not a hit
    assert list(context.levels()) == traversal.aig_levels(small_aig)
    small_aig.revive(victim)
    context.levels()
    assert context.counters["misses"] == 3
    num_vars = small_aig.num_vars
    small_aig.truncate(num_vars)  # no-op truncate still bumps versions
    context.levels()
    assert context.counters["misses"] == 4


def test_context_po_version_dependence(small_aig):
    context = context_for(small_aig)
    context.depth()
    counts = list(context.fanout_counts())
    mask = list(context.po_fanout_mask())
    target = next(
        var for var in small_aig.and_vars() if not mask[var]
    )
    small_aig.add_po(target << 1)
    # PO-dependent state recomputes; PO-independent levels still hit.
    assert context.depth() == traversal.aig_depth(small_aig)
    assert list(context.fanout_counts()) == traversal.fanout_counts(
        small_aig
    )
    assert context.po_fanout_mask() == traversal.po_fanout_mask(small_aig)
    assert list(context.fanout_counts()) != counts  # the new PO reference
    assert context.po_fanout_mask() != mask


def test_context_fork_isolation(small_aig):
    context = context_for(small_aig)
    context.levels()
    context.fanout_degrees()
    clone = clone_with_context(small_aig)
    forked = clone._graph_context
    assert isinstance(forked, GraphContext)
    assert forked.counters == {"hits": 0, "misses": 0}
    assert forked.levels() is context.levels()  # shared, not copied
    assert forked.counters["hits"] == 1  # carried entry is a hit
    # Mutating the clone misses on its fork; the source still hits.
    _add_fresh_and(clone)
    assert clone.num_vars == small_aig.num_vars + 1
    assert list(forked.levels()) == traversal.aig_levels(clone)
    assert forked.counters == {"hits": 1, "misses": 1}
    assert len(context.levels()) == small_aig.num_vars
    assert context.counters["misses"] == 2  # its two warm-up misses


def test_context_arrays_grow_in_place(small_aig):
    import numpy as np

    fan0, fan1, dead = small_aig.arrays()
    _add_fresh_and(small_aig)
    grown0, grown1, grown_dead = small_aig.arrays()
    assert len(grown0) == small_aig.num_vars
    assert np.array_equal(
        grown0, np.asarray(small_aig._fanin0, dtype=np.int64)
    )
    assert np.array_equal(
        grown1, np.asarray(small_aig._fanin1, dtype=np.int64)
    )
    assert np.array_equal(
        grown_dead, np.asarray(small_aig._dead, dtype=bool)
    )
    assert len(fan0) == len(fan1)  # original views untouched in length


def _warm_entries(context) -> dict:
    """Every cached entry of a warmed context, by accessor name."""
    return {
        "levels": context.levels(),
        "fanout_counts": context.fanout_counts(),
        "fanout_degrees": context.fanout_degrees(),
        "po_fanout_mask": context.po_fanout_mask(),
    }


@pytest.mark.parametrize("gates", [None, 0])
@pytest.mark.parametrize("source", ["random", "vga_lcd"])
def test_passes_leave_shared_fork_entries_intact(source, gates):
    """Forks share the source's cache entries; no pass may leave one
    mutated (the MFFC walks must restore the counts they dereference).

    Besides the two scripts, every command runs once directly on the
    source, so each in-place pass forks the warmed context itself.
    """
    from repro.benchgen.suite import load_benchmark

    if source == "random":
        aig = build_random_aig(11, num_ands=150)
    else:
        aig = load_benchmark("vga_lcd")
    context = context_for(aig)
    entries = _warm_entries(context)
    with forced_gates(gates):
        for script in ("resyn2", "rfc_resyn"):
            run_script(aig, script, engine="gpu")
        for engine in ("gpu", "seq"):
            for command in VALID_COMMANDS:
                run_script(aig, command, engine=engine)
    misses = context.counters["misses"]
    after = _warm_entries(context)
    assert context.counters["misses"] == misses  # the same entries
    for name, value in after.items():
        assert value is entries[name], name
    assert list(after["levels"]) == traversal.aig_levels(aig)
    assert list(after["fanout_counts"]) == traversal.fanout_counts(aig)
    fanouts = traversal.fanout_lists(aig)
    assert after["fanout_degrees"].tolist() == [len(f) for f in fanouts]
    assert after["po_fanout_mask"] == traversal.po_fanout_mask(aig)


def test_resolved_helpers_match_pass_usage(small_aig):
    from repro.aig.aig import resolve_aliases
    from repro.algorithms.common import AliasView
    from repro.engine import resolved_fanout_counts, resolved_levels

    view = AliasView(small_aig)
    levels, order = resolved_levels(
        small_aig, resolve_aliases(view.alias, small_aig.num_vars)
    )
    raw = traversal.aig_levels(small_aig)
    for var in order:
        assert levels[var] == raw[var]
    counts = resolved_fanout_counts(view)
    assert counts == traversal.fanout_counts(small_aig)


@pytest.mark.parametrize("seed", range(5))
def test_resolved_helpers_match_scalar_references(seed):
    """Random forward and backward aliases plus view-only kills (the
    ``rfc`` serial lane's ``dead`` set) against the per-node loops."""
    from repro.aig.aig import resolve_aliases
    from repro.algorithms.common import AliasView
    from repro.engine import resolved_fanout_counts, resolved_levels
    from tests.dedup_reference import (
        alias_resolver,
        reference_resolved_levels,
    )

    rng = random.Random(seed)
    aig = build_random_aig(seed, num_pis=6, num_ands=70)
    view = AliasView(aig)
    ands = list(aig.and_vars())
    for var in rng.sample(ands, 10):
        if rng.random() < 0.5:
            view.alias[var] = rng.randrange(0, 2 * var)
        else:
            lits = [2 * pi ^ rng.randint(0, 1) for pi in aig.pis]
            view.alias[var] = aig.add_raw_and(*rng.sample(lits, 2))
    view.dead.update(rng.sample(ands, 6))
    for var in rng.sample(ands, 3):
        aig.mark_dead(var)

    resolve = alias_resolver(view.alias)
    levels, order = resolved_levels(
        aig, resolve_aliases(view.alias, aig.num_vars)
    )
    want_levels, want_order = reference_resolved_levels(
        aig, view.alias, resolve
    )
    assert order == want_order
    assert {
        var: level for var, level in enumerate(levels.tolist())
        if level >= 0
    } == want_levels

    want_counts = [0] * aig.num_vars
    for var in aig.and_vars():
        if var in view.dead or var in view.alias:
            continue
        for fanin in aig.fanins(var):
            want_counts[resolve(fanin) >> 1] += 1
    for lit in aig.pos:
        want_counts[resolve(lit) >> 1] += 1
    assert resolved_fanout_counts(view) == want_counts


# ----------------------------------------------------------------------
# Registry: lookup, parsing, CLI plugin path
# ----------------------------------------------------------------------


def test_pass_fn_known_and_unknown():
    assert callable(pass_fn("par_balance"))
    with pytest.raises(KeyError, match="unknown pass 'bogus'"):
        pass_fn("bogus")


def test_parse_script_rejects_unknown_command():
    with pytest.raises(ValueError, match="unknown command 'frobnicate'"):
        parse_script("b; frobnicate; rw")


def test_parse_script_resolves_named_sequences():
    assert parse_script("resyn2") == [
        "b", "rw", "rf", "b", "rw", "rwz", "b", "rfz", "rwz", "b"
    ]


def test_cli_list_passes(capsys):
    assert cli_main(["opt", "--list-passes"]) == 0
    out = capsys.readouterr().out
    assert "par_balance" in out
    assert "seq_rewrite" in out
    assert "rwz" in out


def test_cli_opt_requires_input(capsys):
    assert cli_main(["opt"]) == 2
    assert "input file required" in capsys.readouterr().err


def test_cli_opt_reports_unknown_command(tmp_path, capsys):
    path = tmp_path / "in.aag"
    write_aag(build_random_aig(5, num_ands=40), path)
    assert cli_main(["opt", str(path), "-c", "b; nope"]) == 2
    err = capsys.readouterr().err
    assert "unknown command 'nope'" in err
    assert "'rwz'" in err  # the valid set is listed


def test_plugin_pass_end_to_end(tmp_path, capsys):
    """A pass registered by a plugin is runnable via ``repro-aig opt``."""

    @register_pass("plugin_noop", engine="gpu", description="no-op")
    def plugin_noop(aig, machine=None):
        depth = context_for(aig).depth()
        nodes = aig.num_ands
        return PassResult(
            aig=clone_with_context(aig),
            nodes_before=nodes,
            nodes_after=nodes,
            levels_before=depth,
            levels_after=depth,
        )

    @register_command("noop", "gpu", description="plugin no-op")
    def _bind_noop(invocation):
        return [pass_fn("plugin_noop")(
            invocation.aig, machine=invocation.machine
        )]

    try:
        assert "noop" in parse_script("b; noop")
        aig = build_random_aig(9, num_ands=50)
        path = tmp_path / "plugin.aag"
        write_aag(aig, path)
        code = cli_main(
            ["opt", str(path), "-c", "noop", "--engine", "gpu"]
        )
        assert code == 0
        assert "noop" in capsys.readouterr().out
        result = run_script(aig.clone(), "noop", engine="gpu")
        assert dump_aag(result.aig) == dump_aag(aig)
        assert [command for command, _ in result.steps] == ["noop"]
    finally:
        unregister_command("noop", "gpu")
        unregister_pass("plugin_noop")
    with pytest.raises(ValueError, match="unknown command 'noop'"):
        parse_script("noop")
