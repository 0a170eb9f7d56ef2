"""Unit tests for sequential and parallel rewriting and the NPN library."""

import importlib
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.aig.aig import Aig
from repro.aig.io_aiger import dump_aag
from repro.aig.traversal import fanout_counts
from repro.aig.validate import check_aig
from repro.algorithms import common
from repro.algorithms.par_rewrite import par_rewrite
from repro.algorithms.rewrite_lib import (
    _TEMPLATES,
    compile_template,
    instantiate_template,
    library_template,
    match_function,
)
from repro.algorithms.seq_rewrite import seq_rewrite
from repro.benchgen.control import random_control
from repro.benchgen.enlarge import enlarge
from repro.commit import walk_cone
from repro.logic.npn import npn_canon
from repro.logic.truth import simulate_cone
from repro.parallel.machine import ParallelMachine, SeqMeter
from tests.conftest import (
    assert_equivalent,
    build_random_aig,
    capture_cleanup_input,
)
from tests.pass_reference import (
    reference_cone_nodes,
    reference_instantiate_template,
    reference_replace_stage,
)

# The package re-exports ``par_rewrite`` under its module's name.
_par_rewrite = importlib.import_module("repro.algorithms.par_rewrite")


# ----------------------------------------------------------------------
# Library
# ----------------------------------------------------------------------


def test_library_template_realizes_canon():
    import random

    rng = random.Random(3)
    for _ in range(25):
        table = rng.getrandbits(16)
        canon = npn_canon(table, 4).canon
        template = library_template(canon, 4)
        if template.pos[0] <= 1:
            assert canon in (0, 0xFFFF)
            continue
        realized = simulate_cone(
            template, template.pos[0], template.pis
        )
        assert realized == canon


def test_library_template_is_cached():
    first = library_template(0x8, 4)
    second = library_template(0x8, 4)
    assert first is second


def test_instantiate_template_realizes_original():
    import random

    rng = random.Random(8)
    for _ in range(25):
        table = rng.getrandbits(16)
        transform, template = match_function(table, [0, 1, 2, 3])
        aig = Aig()
        leaves = [aig.add_pi() for _ in range(4)]
        literal = instantiate_template(
            template, transform, leaves, aig.add_and
        )
        if literal <= 1:
            from repro.logic.truth import full_mask

            assert table in (0, full_mask(4))
            continue
        realized = simulate_cone(
            aig, literal, [leaf >> 1 for leaf in leaves]
        )
        assert realized == table


def test_compiled_templates_build_like_the_literal_map():
    """Same ``add_and`` calls, same root, library or foreign template."""
    rng = random.Random(12)
    for _ in range(60):
        num_vars = rng.randint(2, 4)
        table = rng.getrandbits(1 << num_vars)
        transform, template = match_function(table, list(range(num_vars)))
        foreign = template.clone()  # not the library's object
        order = rng.sample(range(num_vars), num_vars)
        calls = []
        for build, shape in (
            (instantiate_template, template),
            (instantiate_template, foreign),
            (reference_instantiate_template, template),
        ):
            aig = Aig()
            pis = [aig.add_pi() for _ in range(num_vars)]
            leaves = [pis[index] ^ (index & 1) for index in order]
            log = []

            def add_and(lit0, lit1, aig=aig, log=log):
                log.append((lit0, lit1))
                return aig.add_and(lit0, lit1)

            root = build(shape, transform, leaves, add_and)
            calls.append((root, log, dump_aag(aig)))
        assert calls[0] == calls[1] == calls[2]


def test_library_keeps_the_compiled_program_with_its_template():
    template = library_template(0x6996, 4)
    stored, program = _TEMPLATES[(0x6996, 4)]
    assert stored is template
    assert program == compile_template(template)
    assert len(program[1]) == template.num_ands


def test_instantiate_template_rejects_a_width_mismatch():
    transform, _ = match_function(0x8, [0, 1])
    aig = Aig()
    leaves = [aig.add_pi() for _ in range(2)]
    with pytest.raises(ValueError, match="inputs"):
        instantiate_template(
            library_template(npn_canon(0x80, 3).canon, 3),
            transform,
            leaves,
            aig.add_and,
        )


# ----------------------------------------------------------------------
# The replay walk
# ----------------------------------------------------------------------


def _chain(aig: Aig, a: int, b: int, length: int) -> int:
    """``length`` ANDs in a row over the two leaves; its top literal."""
    top = aig.add_and(a, b)
    for step in range(length - 1):
        top = aig.add_and(top ^ 1, (a, b)[step % 2] ^ (step % 3 == 0))
    return top


def test_walk_cone_rejects_constants_and_blow_ups():
    aig = Aig()
    a, b = aig.add_pi(), aig.add_pi()
    raw = aig.add_raw_and(a, 1)  # a constant fanin the strash would fold
    top = aig.add_and(raw, b)
    view = common.AliasView(aig)
    # simulate_cone knows var 0 as constant false; the walk refuses it.
    assert simulate_cone(view, top, [a >> 1, b >> 1]) == 0b1000
    with pytest.raises(ValueError, match="var 0"):
        walk_cone(view, top >> 1, [a >> 1, b >> 1])
    with pytest.raises(ValueError, match="var 0"):
        reference_cone_nodes(view, top >> 1, {a >> 1, b >> 1})
    # A constant leaf is an ordinary input.
    cone, table = walk_cone(view, raw >> 1, [0, a >> 1])
    assert set(cone) == {raw >> 1} and table == 0b0100
    long = _chain(aig, a, b, 65)
    with pytest.raises(ValueError, match="blow-up"):
        walk_cone(view, long >> 1, [a >> 1, b >> 1])
    cone, _ = walk_cone(view, _chain(aig, b, a, 64) >> 1, [a >> 1, b >> 1])
    assert len(cone) == 64


def _craft(aig: Aig, a: int, b: int, c: int, extra: dict) -> None:
    """Replay corner cases, with the hand-made cuts that reach them.

    Needs a graph where none of the pairs below is strashed yet.
    """
    # A 70-AND chain over two leaves: its cone passes 64 members.
    top = _chain(aig, a, b, 70)
    extra[top >> 1] = (a >> 1, b >> 1)
    # A complemented alias chain on a leaf.  ``low`` is b | c over two
    # raw copies of !b & !c, and ``high`` the strashed copy after it:
    # replaying ``low`` hits ``high`` (low -> !high), replaying
    # ``high`` rebuilds it under a fresh id (high -> high'), and
    # ``reader``'s cut names ``low``.
    copy0 = aig.add_raw_and(b ^ 1, c ^ 1)
    copy1 = aig.add_raw_and(b ^ 1, c ^ 1)
    low = aig.add_and(copy0 ^ 1, copy1 ^ 1)
    high = aig.add_and(b ^ 1, c ^ 1)
    reader = aig.add_and(low, a)
    extra[low >> 1] = (b >> 1, c >> 1)
    extra[high >> 1] = (b >> 1, c >> 1)
    extra[reader >> 1] = (low >> 1, a >> 1)
    # A root among its own resolved leaves: ``twin`` is a & c over two
    # raw copies, ``root`` the strashed copy after it, and the cut of
    # ``root`` names ``twin``, which replays onto ``root``.
    twin = aig.add_and(aig.add_raw_and(a, c), aig.add_raw_and(a, c))
    root = aig.add_and(a, c)
    extra[twin >> 1] = (a >> 1, c >> 1)
    extra[root >> 1] = (twin >> 1, b >> 1)


def _raw_and_graph(seed: int, size: int, raw: int, crafted: bool):
    """A random graph with raw duplicate and constant-fanin ANDs.

    Returns ``(aig, extra, pinned)``.  With ``crafted``, the graph
    starts with :func:`_craft`'s structures: ``extra`` holds their
    hand-made candidates and ``pinned`` their variables, whose
    match-stage candidates would rewrite them first.
    """
    rng = random.Random(seed)
    aig = Aig(f"raw{seed}")
    lits = [aig.add_pi() for _ in range(6)]
    extra: dict[int, tuple] = {}
    pinned: set[int] = set()
    if crafted:
        first = aig.num_vars
        _craft(aig, *lits[:3], extra)
        pinned = set(range(first, aig.num_vars))
        lits += [2 * var for var in sorted(pinned)]
    for _ in range(size):
        lit0 = rng.choice(lits[-12:]) ^ rng.randint(0, 1)
        lits.append(aig.add_and(lit0, rng.choice(lits) ^ rng.randint(0, 1)))
    for _ in range(raw):
        if rng.random() < 0.5:
            var = rng.choice(list(aig.and_vars()))
            new = aig.add_raw_and(*aig.fanins(var))  # raw duplicate
        else:
            new = aig.add_raw_and(rng.choice(lits) ^ rng.randint(0, 1),
                                  rng.randint(0, 1))  # constant fanin
        reader = aig.add_and(new ^ rng.randint(0, 1),
                             rng.choice(lits) ^ rng.randint(0, 1))
        lits += [new, reader]
    counts = fanout_counts(aig)
    for var in aig.and_vars():
        if counts[var] == 0:
            aig.add_po(2 * var ^ rng.randint(0, 1))
    extra = {root: (leaves, None, None, 0) for root, leaves in extra.items()}
    return aig, extra, pinned


def _replay(aig: Aig, candidates: dict, min_gain: int, stage) -> tuple:
    """Everything one replay leaves behind, on a clone of ``aig``."""
    working = aig.clone()
    counts = []
    original = common.resolved_fanout_counts

    def capture(aig, final):
        counts.append(original(aig, final).tolist())
        return original(aig, final)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_par_rewrite, "resolved_fanout_counts", capture)
        patch.setattr(common, "resolved_fanout_counts", capture)
        alias, insert_works, host_work = stage(
            working, candidates, ParallelMachine(), min_gain
        )
    table = working._strash
    return (
        list(alias.items()),
        counts,
        working._deadc.tolist(),
        (table._key0.tobytes(), table._key1.tobytes(),
         table._value.tobytes(), table._size, table._used),
        (working.num_vars, working._version, working._live_ands),
        insert_works,
        host_work,
    )


def _whole_pass(aig: Aig, zero_gain: bool, stage) -> tuple:
    machine = ParallelMachine()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_par_rewrite, "_replace_stage", stage)
        result = par_rewrite(aig, zero_gain=zero_gain, machine=machine)
    records = [
        (type(record).__name__, vars(record)) for record in machine.records
    ]
    return dump_aag(result.aig), records, result.details


def _replay_cases(seed, size, raw, crafted, zero_gain) -> set[str]:
    aig, extra, pinned = _raw_and_graph(seed, size, raw, crafted)
    min_gain = 0 if zero_gain else 1
    candidates = _par_rewrite._match_stage(
        aig.clone(), ParallelMachine(), min_gain
    )
    for var in pinned:
        candidates.pop(var, None)
    candidates.update(extra)
    cases: set[str] = set()
    production = _replay(aig, candidates, min_gain,
                         _par_rewrite._replace_stage)

    def traced(*args):
        return reference_replace_stage(*args, cases=cases)

    assert production == _replay(aig, candidates, min_gain, traced)
    assert _whole_pass(aig, zero_gain, _par_rewrite._replace_stage) == (
        _whole_pass(aig, zero_gain, reference_replace_stage)
    )
    return cases


#: Pinned replay situations: ``(case, the arguments that reach it)``.
REPLAY_EXAMPLES = (
    # A cone through a raw AND with a constant fanin: the walk must
    # refuse it as the membership walk did, not read var 0 as false.
    ("constant-in-cone", dict(seed=0, size=40, raw=6, crafted=False,
                              zero_gain=True)),
    ("dead-leaf", dict(seed=4, size=40, raw=6, crafted=False,
                       zero_gain=True)),
    # Two leaves that resolve to one variable.
    ("merged-leaves", dict(seed=4, size=40, raw=6, crafted=False,
                           zero_gain=True)),
    ("cone-blow-up", dict(seed=0, size=20, raw=0, crafted=True,
                          zero_gain=True)),
    ("root-among-leaves", dict(seed=0, size=20, raw=0, crafted=True,
                               zero_gain=True)),
    ("complemented-alias-chain", dict(seed=0, size=20, raw=0,
                                      crafted=True, zero_gain=True)),
)


def _pinned_examples(test):
    """Each :data:`REPLAY_EXAMPLES` entry as an ``@example`` of ``test``."""
    for _, arguments in REPLAY_EXAMPLES:
        test = example(**arguments)(test)
    return test


@_pinned_examples
@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=50_000),
    size=st.integers(min_value=10, max_value=120),
    raw=st.integers(min_value=0, max_value=12),
    crafted=st.booleans(),
    zero_gain=st.booleans(),
)
def test_replace_stage_matches_reference(
    seed, size, raw, crafted, zero_gain
):
    """One resolved walk per candidate commits what three walks did."""
    _replay_cases(seed, size, raw, crafted, zero_gain)


@pytest.mark.parametrize("case, arguments", REPLAY_EXAMPLES)
def test_replay_examples_reach_their_case(case, arguments):
    assert case in _replay_cases(**arguments)


def test_replace_stage_matches_reference_at_benchmark_scale():
    """The fused replay against the oracle on the resyn2-wide input.

    ``enlarge(random_control(40, 4, 100, 1), 3)`` is the benchmark's
    ``resyn2-wide`` graph at seed 1 (4,600 ANDs): one ``rw`` pass,
    then the two rounds of an ``rwz``, each on the last one's result.
    """
    aig = enlarge(random_control(40, 4, 100, 1), 3)
    for zero_gain in (False, True, True):
        min_gain = 0 if zero_gain else 1
        candidates = _par_rewrite._match_stage(
            aig.clone(), ParallelMachine(), min_gain
        )
        assert candidates
        production = _replay(aig, candidates, min_gain,
                             _par_rewrite._replace_stage)
        assert production[0]  # some candidate committed
        assert production == _replay(
            aig, candidates, min_gain, reference_replace_stage
        )
        assert _whole_pass(aig, zero_gain, _par_rewrite._replace_stage) == (
            _whole_pass(aig, zero_gain, reference_replace_stage)
        )
        aig = par_rewrite(aig, zero_gain=zero_gain).aig


# ----------------------------------------------------------------------
# Sequential rewriting
# ----------------------------------------------------------------------


def test_seq_rewrite_preserves_function(seeded_aig):
    result = seq_rewrite(seeded_aig)
    check_aig(result.aig)
    assert_equivalent(seeded_aig, result.aig)


def test_seq_rewrite_never_increases_nodes(seeded_aig):
    result = seq_rewrite(seeded_aig)
    assert result.nodes_after <= result.nodes_before


def test_seq_rewrite_finds_gains():
    aig = build_random_aig(31, num_ands=200)
    result = seq_rewrite(aig)
    assert result.nodes_after < result.nodes_before


def test_seq_rewrite_zero_gain_mode(seeded_aig):
    strict = seq_rewrite(seeded_aig)
    zero = seq_rewrite(seeded_aig, zero_gain=True)
    assert zero.nodes_after <= strict.nodes_after
    assert_equivalent(seeded_aig, zero.aig)


def test_seq_rewrite_collapses_redundant_mux():
    # mux(s, a, a) == a: rewriting should see through the cut function.
    aig = Aig()
    s, a = aig.add_pi(), aig.add_pi()
    t = aig.add_and(s, a)
    f = aig.add_and(s ^ 1, a)
    aig.add_po(aig.add_and(t ^ 1, f ^ 1) ^ 1)
    result = seq_rewrite(aig, zero_gain=True)
    assert result.nodes_after <= 1
    assert_equivalent(aig, result.aig)


def test_seq_rewrite_meters_work():
    meter = SeqMeter()
    seq_rewrite(build_random_aig(5), meter=meter)
    assert meter.work > 0
    assert "rw.cut_enum" in meter.sections


# ----------------------------------------------------------------------
# Parallel rewriting
# ----------------------------------------------------------------------


def test_par_rewrite_preserves_function(seeded_aig):
    result = par_rewrite(seeded_aig)
    check_aig(result.aig)
    assert_equivalent(seeded_aig, result.aig)


def test_par_rewrite_never_increases_nodes(seeded_aig):
    result = par_rewrite(seeded_aig)
    assert result.nodes_after <= result.nodes_before


def test_par_rewrite_zero_gain(seeded_aig):
    result = par_rewrite(seeded_aig, zero_gain=True)
    assert result.nodes_after <= result.nodes_before
    assert_equivalent(seeded_aig, result.aig)


def test_par_rewrite_trace_has_match_insert_and_host_parts():
    machine = ParallelMachine()
    par_rewrite(build_random_aig(9, num_ands=200), machine=machine)
    names = {record.name for record in machine.records}
    assert "rw.match" in names
    assert "rw.insert" in names
    assert machine.host_time() > 0  # the sequential replacement loop


def test_par_rewrite_without_cleanup(seeded_aig, monkeypatch):
    """The replace stage's graph and alias map are sound before dedup."""
    captured = capture_cleanup_input(monkeypatch, _par_rewrite)
    par_rewrite(seeded_aig)
    compacted = captured["aig"].compact(resolve=captured["alias"])
    assert_equivalent(seeded_aig, compacted)


def test_par_rewrite_quality_tracks_seq():
    """The committed result cannot be wildly worse than sequential."""
    aig = build_random_aig(14, num_ands=250)
    seq = seq_rewrite(aig)
    par = par_rewrite(aig)
    assert par.nodes_after <= aig.num_ands
    # Within 15% of the sequential pass on this class of graphs.
    assert par.nodes_after <= int(seq.nodes_after * 1.15) + 2
