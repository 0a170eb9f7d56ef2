"""Unit tests for the parallel machine and its cost model."""

import numpy as np
import pytest

from repro.parallel.machine import (
    HostRecord,
    KernelRecord,
    MachineConfig,
    ParallelMachine,
    SeqMeter,
)


def test_kernel_records_batch_and_work():
    machine = ParallelMachine()
    results = machine.kernel("k", [1, 2, 3], lambda x: (x * 10, x))
    assert results == [10, 20, 30]
    record = machine.records[-1]
    assert isinstance(record, KernelRecord)
    assert record.batch == 3
    assert record.total_work == 6
    assert record.max_work == 3


def test_launch_records_profile():
    machine = ParallelMachine()
    machine.launch("k", [5, 1, 2])
    record = machine.records[-1]
    assert record.total_work == 8
    assert record.max_work == 5


@pytest.mark.parametrize("work, count", [(3, 17), (5, 1), (0, 4), (2, 0)])
def test_launch_uniform_matches_launch_batch(work, count):
    """A uniform launch records what the array and list profiles do."""
    machines = [ParallelMachine() for _ in range(3)]
    for machine in machines:
        machine.set_tag("t")
    machines[0].launch_uniform("k", work, count)
    machines[1].launch_batch("k", np.full(count, work, dtype=np.int64))
    machines[2].launch_batch("k", [work] * count)
    first, *others = (machine.records for machine in machines)
    assert all(records == first for records in others)
    assert first == [KernelRecord("k", "t", count, work * count,
                                  work if count else 0)]
    assert len({machine.total_time() for machine in machines}) == 1


def test_empty_kernel_costs_nothing():
    config = MachineConfig()
    record = KernelRecord("k", "", 0, 0, 0)
    assert record.time(config) == 0.0


def test_kernel_time_regimes():
    config = MachineConfig(
        gpu_throughput=100.0, t_gpu_thread_op=1.0, t_launch=10.0
    )
    # Throughput-bound: total 1000 units / 100 per sec = 10 > max 2.
    wide = KernelRecord("k", "", 500, 1000, 2)
    assert wide.time(config) == pytest.approx(10 + 10)
    # Latency-bound: max 50 * 1s = 50 > 1000/100.
    deep = KernelRecord("k", "", 500, 1000, 50)
    assert deep.time(config) == pytest.approx(10 + 50)


def test_host_time():
    config = MachineConfig(t_cpu_op=2.0)
    record = HostRecord("h", "", 7)
    assert record.time(config) == pytest.approx(14.0)


def test_gpu_host_total_split():
    machine = ParallelMachine()
    machine.launch("k", [1])
    machine.host("h", 1)
    assert machine.gpu_time() > 0
    assert machine.host_time() > 0
    assert machine.total_time() == pytest.approx(
        machine.gpu_time() + machine.host_time()
    )


def test_tags_group_breakdown():
    machine = ParallelMachine()
    machine.set_tag("b")
    machine.launch("k", [1])
    machine.set_tag("rf")
    machine.launch("k", [1])
    machine.host("h", 5)
    breakdown = machine.breakdown_by_tag()
    assert set(breakdown) == {"b", "rf"}
    assert breakdown["rf"]["host"] > 0
    assert machine.tag == "rf"


def test_launch_count_and_reset():
    machine = ParallelMachine()
    machine.launch("a", [1])
    machine.launch("b", [1])
    machine.host("c", 1)
    assert machine.num_launches() == 2
    summary = machine.summary()
    assert summary["launches"] == 2.0
    machine.reset()
    assert machine.records == []
    assert machine.total_time() == 0.0


def test_deeper_batches_cost_more_launches():
    """Level-wise execution of the same work costs more than one batch —
    the effect that throttles balancing on deep AIGs."""
    config = MachineConfig()
    one_shot = ParallelMachine(config=config)
    one_shot.launch("k", [1] * 1000)
    level_wise = ParallelMachine(config=config)
    for _ in range(100):
        level_wise.launch("k", [1] * 10)
    assert level_wise.gpu_time() > one_shot.gpu_time()


def test_empty_trace_summary_is_all_zero():
    machine = ParallelMachine()
    assert machine.summary() == {
        "gpu_time": 0.0,
        "host_time": 0.0,
        "total_time": 0.0,
        "launches": 0.0,
    }
    assert machine.breakdown_by_tag() == {}


def test_zero_batch_launch_costs_nothing():
    machine = ParallelMachine()
    machine.launch("k", [])
    record = machine.records[-1]
    assert (record.batch, record.total_work, record.max_work) == (0, 0, 0)
    # An empty launch is elided by the model (no work was dispatched)
    # but still counted as a launch in the trace.
    assert machine.total_time() == 0.0
    assert machine.num_launches() == 1
    assert machine.summary()["launches"] == 1.0


def test_zero_batch_kernel_runs_nothing():
    machine = ParallelMachine()
    assert machine.kernel("k", [], lambda x: (x, 1)) == []
    assert machine.total_time() == 0.0


def test_breakdown_with_untagged_records():
    machine = ParallelMachine()
    machine.launch("early", [1])  # before any set_tag: tag ""
    machine.set_tag("b")
    machine.host("h", 3)
    breakdown = machine.breakdown_by_tag()
    assert set(breakdown) == {"", "b"}
    assert breakdown[""]["gpu"] > 0
    assert breakdown[""]["host"] == 0.0
    assert breakdown["b"]["host"] > 0
    total = sum(
        entry["gpu"] + entry["host"] for entry in breakdown.values()
    )
    assert total == pytest.approx(machine.total_time())


def test_seq_meter_accumulates_sections():
    meter = SeqMeter()
    meter.add(10, "a")
    meter.add(5, "b")
    meter.add(1, "a")
    assert meter.work == 16
    assert meter.sections == {"a": 11, "b": 5}
    assert meter.time() == pytest.approx(16 * meter.config.t_cpu_op)
    meter.reset()
    assert meter.work == 0


def test_meter_and_machine_share_cpu_units():
    config = MachineConfig()
    meter = SeqMeter(config=config)
    meter.add(100)
    machine = ParallelMachine(config=config)
    machine.host("h", 100)
    assert meter.time() == pytest.approx(machine.host_time())
