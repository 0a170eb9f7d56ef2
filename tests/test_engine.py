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
* **Command table** — every (command, engine) row runs the pass its
  semantics name with the right gain mode, step count and timing sink;
  script parsing errors, pass lookup, and the ``--list-passes``
  listing.
"""

from __future__ import annotations

import gc
import importlib
import json
import os
import random
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from repro import observe
from repro.aig import traversal
from repro.aig.io_aiger import dump_aag, write_aag
from repro.benchgen.control import random_control
from repro.benchgen.random_aig import mtm_random
from repro.cli import main as cli_main
from repro.engine import (
    COMMANDS,
    VALID_COMMANDS,
    GraphContext,
    clone_with_context,
    context_for,
    parse_script,
    pass_fn,
    run_command,
    run_script,
)
from repro.verify import forced_gates
from tests.conftest import build_random_aig
from tests.graph_reference import fanout_lists

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
        len(readers) for readers in fanout_lists(aig)
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


def test_dropped_graph_with_context_is_freed_without_cycle_collector(
    small_aig,
):
    """AIG and context form no reference cycle: dropping the last
    reference frees the clone at once, not at the next ``gc`` run."""
    clone = clone_with_context(small_aig)
    clone._graph_context.levels()
    gone = weakref.ref(clone)
    gc.disable()
    try:
        del clone
        assert gone() is None
    finally:
        gc.enable()


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
        grown_dead,
        np.asarray(
            small_aig._deadc.view[: small_aig.num_vars], dtype=bool
        ),
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
    fanouts = fanout_lists(aig)
    assert after["fanout_degrees"].tolist() == [len(f) for f in fanouts]
    assert after["po_fanout_mask"] == traversal.po_fanout_mask(aig)


def test_resolved_helpers_match_pass_usage(small_aig):
    from repro.aig.aig import resolve_aliases
    from repro.algorithms.common import AliasView
    from repro.engine import resolved_fanout_counts, resolved_levels

    view = AliasView(small_aig)
    final = resolve_aliases(view.alias, small_aig.num_vars)
    levels, order = resolved_levels(small_aig, final)
    raw = traversal.aig_levels(small_aig)
    for var in order:
        assert levels[var] == raw[var]
    counts = resolved_fanout_counts(small_aig, final)
    assert counts.tolist() == traversal.fanout_counts(small_aig)


@pytest.mark.parametrize("seed", range(5))
def test_resolved_helpers_match_scalar_references(seed):
    """Random forward and backward aliases plus graph kills (the
    ``rfc`` serial lane's retired cones) against the per-node loops."""
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
    for var in rng.sample(ands, 9):
        aig.mark_dead(var)

    resolve = alias_resolver(view.alias)
    final = resolve_aliases(view.alias, aig.num_vars)
    levels, order = resolved_levels(aig, final)
    want_levels, want_order = reference_resolved_levels(
        aig, view.alias, resolve
    )
    assert order.tolist() == want_order
    assert {
        var: level for var, level in enumerate(levels.tolist())
        if level >= 0
    } == want_levels

    want_counts = [0] * aig.num_vars
    for var in aig.and_vars():
        if var in view.alias:
            continue
        for fanin in aig.fanins(var):
            want_counts[resolve(fanin) >> 1] += 1
    for lit in aig.pos:
        want_counts[resolve(lit) >> 1] += 1
    assert resolved_fanout_counts(aig, final).tolist() == want_counts


# ----------------------------------------------------------------------
# Command table: the twelve rows, lookup, parsing, listing
# ----------------------------------------------------------------------

#: Every pass the command table lists: its module and entry point.
_PASSES = {
    "dedup": ("repro.algorithms.dedup", "dedup_and_dangling"),
    "par_balance": ("repro.algorithms.par_balance", "par_balance"),
    "par_refactor": ("repro.algorithms.par_refactor", "par_refactor"),
    "par_refactor_cb": (
        "repro.algorithms.par_refactor_cb", "par_refactor_cb"
    ),
    "par_rewrite": ("repro.algorithms.par_rewrite", "par_rewrite"),
    "seq_balance": ("repro.algorithms.seq_balance", "seq_balance"),
    "seq_refactor": ("repro.algorithms.seq_refactor", "seq_refactor"),
    "seq_rewrite": ("repro.algorithms.seq_rewrite", "seq_rewrite"),
}

#: Each (command, engine) row: the passes it runs, in order, with the
#: gain mode each is called with (None: the pass has no such switch).
_ROWS = {
    ("b", "gpu"): [("par_balance", None)],
    ("rw", "gpu"): [("par_rewrite", False)],
    ("rwz", "gpu"): [("par_rewrite", True), ("par_rewrite", True)],
    ("rf", "gpu"): [("par_refactor", None)],
    ("rfz", "gpu"): [("par_refactor", None)],
    ("rfc", "gpu"): [("par_refactor_cb", None)],
    ("b", "seq"): [("seq_balance", None)],
    ("rw", "seq"): [("seq_rewrite", False)],
    ("rwz", "seq"): [("seq_rewrite", True)],
    ("rf", "seq"): [("seq_refactor", False)],
    ("rfz", "seq"): [("seq_refactor", True)],
    ("rfc", "seq"): [("seq_refactor", True)],
}


def test_command_listing_matches_the_table():
    rows = [(row.command, row.engine) for row in COMMANDS]
    assert sorted(rows) == rows
    assert set(rows) == set(_ROWS)
    assert {command for command, _ in rows} == set(VALID_COMMANDS)


@pytest.mark.parametrize(
    "command,engine", sorted(_ROWS), ids="-".join
)
def test_command_table_row(command, engine, monkeypatch):
    """One script command runs the passes its row names, nothing else."""
    calls = []
    for name, (module_name, attribute) in _PASSES.items():
        module = importlib.import_module(module_name)
        original = getattr(module, attribute)

        def recording(aig, *args, _name=name, _original=original, **kw):
            calls.append((_name, kw))
            return _original(aig, *args, **kw)

        monkeypatch.setattr(module, attribute, recording)
    aig = build_random_aig(13, num_ands=80)
    result = run_script(aig, command, engine=engine, max_cut_size=7)
    expected = _ROWS[(command, engine)]
    assert [name for name, _ in calls] == [name for name, _ in expected]
    assert result.steps and all(
        step_command == command for step_command, _ in result.steps
    )
    assert len(result.steps) == len(expected)
    assert result.aig is result.steps[-1][1].aig
    for (_, kw), (name, zero_gain) in zip(calls, expected):
        assert kw.get("zero_gain") == zero_gain
        if engine == "gpu":
            assert kw["machine"] is result.machine
            assert "meter" not in kw
        else:
            assert kw["meter"] is result.meter
            assert "machine" not in kw
        if "refactor" in name:
            assert kw["max_cut_size"] == 7
    # Each step of a multi-pass command feeds the next.
    for (_, first), (_, second) in zip(result.steps, result.steps[1:]):
        assert second.nodes_before == first.nodes_after


def test_the_paper_cut_size_has_one_definition():
    """Every public cut-size name is the one value in repro.aig.cuts,
    and so is every refactoring entry point's default."""
    import inspect

    from repro.aig import cuts

    assert cuts.DEFAULT_CUT_SIZE == 12
    names = (
        ("repro.engine", "DEFAULT_MAX_CUT_SIZE"),
        ("repro.engine.registry", "DEFAULT_MAX_CUT_SIZE"),
        ("repro.experiments", "CUT_SIZE"),
        ("repro.experiments.tables", "CUT_SIZE"),
        ("repro.algorithms", "DEFAULT_CUT_SIZE"),
        ("repro.algorithms.par_refactor", "DEFAULT_CUT_SIZE"),
        ("repro.algorithms.par_refactor_cb", "DEFAULT_CUT_SIZE"),
        ("repro.algorithms.seq_refactor", "DEFAULT_CUT_SIZE"),
    )
    for module_name, name in names:
        module = importlib.import_module(module_name)
        assert getattr(module, name) == cuts.DEFAULT_CUT_SIZE, module_name
    for name in ("par_refactor", "par_refactor_cb", "seq_refactor"):
        default = inspect.signature(pass_fn(name)).parameters[
            "max_cut_size"
        ].default
        assert default == cuts.DEFAULT_CUT_SIZE, name
    tables = importlib.import_module("repro.experiments.tables")
    assert tables.CUT_SIZE_OVERRIDES == {"log2": 11}
    assert tables.cut_size_for("log2") == 11
    assert tables.cut_size_for("div") == cuts.DEFAULT_CUT_SIZE


def test_unknown_engine_is_rejected():
    aig = build_random_aig(5, num_ands=20)
    with pytest.raises(ValueError, match="unknown engine 'cpu'"):
        run_script(aig, "b", engine="cpu")
    with pytest.raises(ValueError, match="not defined on engine 'cpu'"):
        run_command("b", "cpu", aig)


def test_seq_rfc_is_zero_gain_seq_refactoring():
    aig = build_random_aig(17, num_ands=120)
    rfc = run_script(aig.clone(), "rfc", engine="seq")
    rfz = run_script(aig.clone(), "rfz", engine="seq")
    assert dump_aag(rfc.aig) == dump_aag(rfz.aig)
    assert rfc.modeled_time() == rfz.modeled_time()


def test_list_passes_imports_every_pass_module():
    """``list_passes()`` loads all eight pass modules (perfbench calls it
    so that no timed region pays for an import)."""
    program = (
        "import sys\n"
        "from repro.engine import list_passes\n"
        f"modules = {sorted(module for module, _ in _PASSES.values())!r}\n"
        "before = [m for m in modules if m in sys.modules]\n"
        "list_passes()\n"
        "after = [m for m in modules if m in sys.modules]\n"
        "print(len(before), len(after))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", program],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert out.stdout.split() == ["0", str(len(_PASSES))]


def test_pass_fn_known_and_unknown():
    for name, (module, attribute) in _PASSES.items():
        assert pass_fn(name) is getattr(
            importlib.import_module(module), attribute
        )
    with pytest.raises(KeyError, match="unknown pass 'bogus'"):
        pass_fn("bogus")


def test_parse_script_rejects_unknown_command():
    with pytest.raises(ValueError, match="unknown command 'frobnicate'"):
        parse_script("b; frobnicate; rw")


def test_parse_script_rejects_removed_rs_command():
    with pytest.raises(ValueError) as error:
        parse_script("b; rs")
    named, valid = str(error.value).split("; valid: ")
    assert named == "unknown command 'rs'"
    assert "'rs'" not in valid
    assert all(repr(command) in valid for command in VALID_COMMANDS)


def test_parse_script_resolves_named_sequences():
    assert parse_script("resyn2") == [
        "b", "rw", "rf", "b", "rw", "rwz", "b", "rfz", "rwz", "b"
    ]


def test_cli_list_passes(capsys):
    assert cli_main(["opt", "--list-passes"]) == 0
    out = capsys.readouterr().out
    passes, commands = out.split("script commands:")
    for name in _PASSES:
        assert f"  {name} " in passes
    for command, engine in _ROWS:
        assert f"  {command:<4}[{engine}]" in commands


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
