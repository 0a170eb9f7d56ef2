"""Memory/scale regression tests for the array-backed AIG core.

Four groups:

* **Column / FlatStrash** — unit tests of the storage primitives in
  :mod:`repro.aig.store`.
* **Facade exactness** — the node/object API is a thin facade over
  array indices: every scalar accessor must agree with the zero-copy
  ``arrays()`` view bit for bit and return plain Python ints.
* **Per-entry cache keys** — computing the fanout counts never
  invalidates the cached levels.
* **Million-node budget** — an enlarged ≥1M-AND AIG builds inside a
  documented peak-RSS budget.  Runs in a subprocess because ``VmHWM``
  is a process-wide high-water mark that earlier in-process tests
  would pollute.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.aig.aig import CONST_FANIN, PI_FANIN, Aig
from repro.aig.io_aiger import dump_aag
from repro.aig.store import Column, FlatStrash
from repro.benchgen.enlarge import enlarge
from repro.engine import context_for
from repro.experiments.scale import peak_rss_mb
from repro.verify import forced_gates
from tests.conftest import build_random_aig

#: Documented peak-RSS budget for building a ~1.1M-AND enlarged AIG
#: (docs/ARCHITECTURE.md, "Memory budget").  Measured ~418 MiB on
#: CPython 3.12 / NumPy int64 columns; the budget allows <2x headroom
#: so regressions toward the old object core (~10x) fail immediately.
SCALE_BUDGET_MB = 768
SCALE_MIN_ANDS = 1_000_000


# ----------------------------------------------------------------------
# FlatStrash
# ----------------------------------------------------------------------


def test_flat_strash_basic_protocol():
    table = FlatStrash()
    assert len(table) == 0
    assert table.get((2, 4)) is None
    assert table.get((2, 4), -7) == -7
    table[(2, 4)] = 3
    assert (2, 4) in table
    assert (4, 2) not in table  # keys are ordered pairs, not sets
    assert table.get((2, 4)) == 3
    assert len(table) == 1
    table[(2, 4)] = 9  # overwrite in place
    assert table.get((2, 4)) == 9
    assert len(table) == 1
    assert table.setdefault((2, 4), 5) == 9
    assert table.setdefault((6, 8), 5) == 5
    assert len(table) == 2


def test_flat_strash_delete_and_tombstone_reuse():
    table = FlatStrash()
    table[(2, 4)] = 3
    del table[(2, 4)]
    assert (2, 4) not in table
    assert len(table) == 0
    del table[(2, 4)]  # deleting a missing key is a no-op
    assert len(table) == 0
    # Reinsertion through the tombstone finds the same key again.
    table[(2, 4)] = 8
    assert table.get((2, 4)) == 8
    assert len(table) == 1


def test_flat_strash_rebuild_keeps_every_entry():
    table = FlatStrash()
    keys = [(2 * k, 2 * k + 100) for k in range(1, 2001)]
    for value, key in enumerate(keys, start=1):
        table[key] = value
    assert len(table) == len(keys)
    for value, key in enumerate(keys, start=1):
        assert table.get(key) == value
    # Churn: delete half, reinsert — tombstones must not leak slots.
    for key in keys[::2]:
        del table[key]
    assert len(table) == len(keys) // 2
    for key in keys[::2]:
        table[key] = 1
    assert len(table) == len(keys)


def test_flat_strash_reserve_and_copy():
    table = FlatStrash()
    table.reserve(1000)
    capacity = table._mask + 1
    assert capacity >= 4 * 1000  # load factor <= 25% after reserve
    table[(10, 12)] = 6
    twin = table.copy()
    twin[(10, 12)] = 7
    twin[(14, 16)] = 8
    assert table.get((10, 12)) == 6  # the copy is independent
    assert (14, 16) not in table
    assert twin.get((10, 12)) == 7


# ----------------------------------------------------------------------
# Column
# ----------------------------------------------------------------------


def test_column_append_grow_truncate():
    col = Column("int")
    for value in range(100):
        col.append(value)
    assert len(col) == 100
    assert list(col.slice()) == list(range(100))
    assert type(col.view[7]) is int  # scalar reads are plain ints
    col.extend_zeros(3)
    assert list(col.slice())[-3:] == [0, 0, 0]
    col.truncate(5)
    assert list(col.slice()) == [0, 1, 2, 3, 4]
    col.append(99)  # append after truncate lands at the new end
    assert list(col.slice()) == [0, 1, 2, 3, 4, 99]


def test_column_duplicate_is_independent():
    col = Column("int")
    for value in (5, 6, 7):
        col.append(value)
    twin = col.duplicate()
    twin.view[0] = 50
    twin.append(8)
    assert list(col.slice()) == [5, 6, 7]
    assert list(twin.slice()) == [50, 6, 7, 8]


def test_column_adopt_copies_and_reserve():
    import numpy as np

    col = Column("int")
    values = [3, 1, 2]
    col.adopt(values)
    values.append(99)
    assert list(col.slice()) == [3, 1, 2]
    col.reserve(64)
    assert len(col.data) >= 64
    assert list(col.slice()) == [3, 1, 2]  # reserve keeps contents
    assert isinstance(col.nparray(), np.ndarray)
    assert np.shares_memory(col.nparray(), col.data)


def test_column_adopt_takes_only_owning_arrays_without_copy():
    import numpy as np

    owned = np.arange(6, dtype=np.int64)
    col = Column("int")
    col.adopt(owned)
    assert col.data is owned  # handed over, no copy
    other = Column("int")
    other.adopt(np.arange(6, dtype=np.int64))
    view = other.nparray()
    assert not view.flags.owndata
    col.adopt(view)
    col.view[0] = 77
    assert list(other.slice()) == [0, 1, 2, 3, 4, 5]  # not shared
    assert not np.shares_memory(col.data, other.data)
    wide = np.arange(4, dtype=np.int32)
    col.adopt(wide)
    assert col.data.dtype == np.int64 and col.data is not wide
    col.adopt(np.arange(8, dtype=np.int64)[::2])
    assert list(col.slice()) == [0, 2, 4, 6]


# ----------------------------------------------------------------------
# Facade exactness: object API <-> array indices
# ----------------------------------------------------------------------


def _assert_facade_matches_arrays(aig: Aig) -> None:
    fan0, fan1, dead = aig.arrays()
    assert len(fan0) == len(fan1) == len(dead) == aig.num_vars
    assert int(fan0[0]) == CONST_FANIN
    for var in range(aig.num_vars):
        assert aig.is_dead(var) == bool(dead[var])
        if aig.is_pi(var):
            assert int(fan0[var]) == PI_FANIN
            continue
        if not aig.is_and(var):
            continue
        f0, f1 = aig.fanins(var)
        assert type(f0) is int and type(f1) is int
        assert f0 == int(fan0[var]) and f0 == aig.fanin0(var)
        assert f1 == int(fan1[var]) and f1 == aig.fanin1(var)


def test_facade_round_trips_exactly():
    aig = build_random_aig(19, num_ands=150)
    _assert_facade_matches_arrays(aig)
    victims = list(aig.and_vars())[-3:]
    for var in victims:
        aig.mark_dead(var)
    _assert_facade_matches_arrays(aig)
    aig.revive(victims[0])
    _assert_facade_matches_arrays(aig)
    compacted = aig.compact()
    _assert_facade_matches_arrays(compacted)
    _assert_facade_matches_arrays(aig.clone())


def test_arrays_are_zero_copy_views():
    import numpy as np

    aig = build_random_aig(21, num_ands=100)
    fan0, fan1, dead = aig.arrays()
    assert np.shares_memory(fan0, aig._f0c.data)
    assert np.shares_memory(fan1, aig._f1c.data)
    assert np.shares_memory(dead, aig._deadc.data)
    victim = list(aig.and_vars())[-1]
    aig.mark_dead(victim)
    assert bool(dead[victim])  # the kill patches through the held view
    aig.revive(victim)
    assert not dead[victim]


def test_scalar_gates_core_builds_identical_graphs():
    """The scalar construction paths produce bit-identical AIGs."""

    def build() -> Aig:
        doubled = enlarge(build_random_aig(23, num_ands=90), 2)
        compacted = doubled.compact()
        return compacted

    with forced_gates(0):
        vector = build()
    with forced_gates(math.inf):
        scalar = build()
    assert dump_aag(scalar) == dump_aag(vector)
    assert scalar._version == vector._version
    _assert_facade_matches_arrays(scalar)


# ----------------------------------------------------------------------
# Per-entry cache keys: a refcount miss never invalidates levels
# ----------------------------------------------------------------------


def test_fanout_counts_miss_keeps_levels_hit():
    aig = build_random_aig(25, num_ands=80)
    context = context_for(aig)
    versions = (aig._version, aig._po_version)
    levels = context.levels()
    counts = context.fanout_counts()  # miss: computes the counts
    assert (aig._version, aig._po_version) == versions
    # The refcount miss did not invalidate the levels entry.
    assert context.levels() is levels
    assert context.fanout_counts() is counts
    assert context.counters == {"hits": 2, "misses": 2}


# ----------------------------------------------------------------------
# Million-node enlarged build under the documented RSS budget
# ----------------------------------------------------------------------

_SCALE_PROBE = """
import json, sys
from repro.benchgen.control import random_control
from repro.benchgen.enlarge import enlarge
from repro.experiments.scale import peak_rss_mb

aig = enlarge(random_control(32, 4, 96, seed=7, name="scalecase"), 11)
fan0, fan1, dead = aig.arrays()
facade_exact = True
step = max(1, aig.num_vars // 997)
for var in range(1, aig.num_vars, step):
    if aig.is_and(var):
        f0, f1 = aig.fanins(var)
        if (
            type(f0) is not int
            or f0 != int(fan0[var])
            or f1 != int(fan1[var])
        ):
            facade_exact = False
            break
print(json.dumps({
    "ands": aig.num_ands,
    "vars": aig.num_vars,
    "levels_checked": facade_exact,
    "peak_rss_mb": peak_rss_mb(),
}))
"""


def test_million_node_enlarge_within_rss_budget():
    if peak_rss_mb() <= 0.0:
        pytest.skip("peak-RSS accounting unavailable on this platform")
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", _SCALE_PROBE],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert result.returncode == 0, result.stderr
    probe = json.loads(result.stdout)
    assert probe["ands"] >= SCALE_MIN_ANDS
    assert probe["levels_checked"], "facade drifted from arrays at scale"
    assert probe["peak_rss_mb"] <= SCALE_BUDGET_MB, (
        f"peak RSS {probe['peak_rss_mb']:.0f} MiB exceeds the "
        f"documented {SCALE_BUDGET_MB} MiB budget for "
        f"{probe['ands']} ANDs (docs/ARCHITECTURE.md)"
    )


# ----------------------------------------------------------------------
# Scale-lane bench point: throughput and per-pass wall accounting
# ----------------------------------------------------------------------


def test_run_scale_point_reports_run_throughput(tmp_path):
    from repro.experiments.scale import FORMAT, scale_main

    output = tmp_path / "point.json"
    status = scale_main([
        "--base", "vga_lcd", "--scale", "2", "--script", "b; rw",
        "--min-nodes", "1", "--output", str(output),
    ])
    assert status == 0
    document = json.loads(output.read_text())
    assert document["format"] == FORMAT
    (point,) = document["points"]
    assert point["run_ands_per_sec"] > 0
    assert point["run_ands_per_sec"] == pytest.approx(
        point["nodes"] / point["run_wall_s"]
    )
    # The commit layer landed every node the passes created, so the
    # reported commit throughput must be live on any non-trivial run.
    assert point["commit_ands_per_sec"] > 0
    # One wall entry per executed command, shares summing to the
    # commands' fraction of the run wall.
    assert set(point["pass_wall_s"]) == {"b", "rw"}
    assert set(point["pass_wall_shares"]) == {"b", "rw"}
    for command, wall in point["pass_wall_s"].items():
        assert wall >= 0.0
        assert point["pass_wall_shares"][command] == pytest.approx(
            wall / point["run_wall_s"]
        )


def test_scheduler_records_command_walls():
    from repro.engine import run_script
    from tests.conftest import build_random_aig

    for engine in ("gpu", "seq"):
        result = run_script(build_random_aig(9), "b; rf; b", engine=engine)
        assert [command for command, _ in result.walls] == ["b", "rf", "b"]
        assert all(wall >= 0.0 for _, wall in result.walls)
