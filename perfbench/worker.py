"""Child process of the repository benchmark.

``run.py`` starts one fresh interpreter per step, so that every timed
run starts cold and ``VmHWM`` covers exactly what it measures:

* ``generate`` builds a workload's input, writes it as binary AIGER and
  records its size, content digest and the expected PO simulation
  words of the graph ``read_aiger`` returns;
* ``run`` does what ``repro-aig opt in.aig -c <script>`` does
  (``read_aiger``, then ``run_script(engine="gpu")``), times both, and
  checks the output (outside the timed regions): invariants, a binary
  AIGER write and read-back, and seeded random simulation against the
  expected words.  ``--mode traced`` turns observe tracing on around
  ``run_script``; ``--mode wrapped`` also times the wrapped layer entry
  points of :mod:`layers`;
* ``cec`` runs exact ``check_equivalence`` of an output against the
  input.

Each step prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import sys
import time

SIM_WIDTH = 1024
#: Host-speed sampling: every SAMPLE_INTERVAL_S of wall time a timer
#: signal runs one fixed pure-Python chunk of PROBE_STEPS steps.
SAMPLE_INTERVAL_S = 0.02
PROBE_STEPS = 2000
#: Seconds of one probe chunk on the reference host (see HostSampler).
PROBE_REFERENCE_S = 0.000285


def vm_hwm_mib() -> float:
    """Peak resident set size of this process, in MiB."""
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def probe_chunk() -> float:
    """Seconds of PROBE_STEPS steps of integer arithmetic on locals.

    The chunk reads no table and keeps its whole state in a few local
    integers, so its time follows the speed of the CPU it runs on and
    not what the program left in the caches.
    """
    start = time.perf_counter()
    state = acc = 12345
    for _ in range(PROBE_STEPS):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        acc ^= state >> 3
    return time.perf_counter() - start


class HostSampler:
    """Samples the host's speed while a run is being timed.

    On the shared 2-vCPU VM the benchmark was tuned on, a vCPU runs at
    one of two speeds about 1.9x apart, and which one changes from
    second to second and from minute to minute with the load of other
    tenants, so the raw wall medians of one workload moved by up to 2x
    between sets of runs of the same code.

    A timer signal runs :func:`probe_chunk` every ``SAMPLE_INTERVAL_S``;
    the mean of ``PROBE_REFERENCE_S`` / chunk time over the run is the
    run's average speed against the reference host (this VM's fast
    speed, so a reference second is about a wall second there).
    :meth:`factor` turns a measured wall time into seconds at the
    reference speed, and also removes the sampler's own share of the
    wall.  The program is paused while a chunk runs, so the chunk
    competes with it for nothing.
    """

    def __init__(self) -> None:
        self._ratios: list[float] = []
        self._inside = 0.0
        self._started = 0.0
        self._wall = 0.0

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self._ratios.append(PROBE_REFERENCE_S / probe_chunk())
        self._inside += time.perf_counter() - start

    def __enter__(self) -> "HostSampler":
        signal.signal(signal.SIGALRM, self._sample)
        self._started = time.perf_counter()
        signal.setitimer(
            signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S
        )
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._wall = time.perf_counter() - self._started

    def factor(self) -> float:
        """Reference seconds per measured wall second of the run."""
        if not self._ratios:
            return 1.0
        speed = sum(self._ratios) / len(self._ratios)
        return speed * (1.0 - self._inside / self._wall)


def file_digest(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def po_words(aig, seed: int) -> list[int]:
    """PO simulation words on ``SIM_WIDTH`` seeded random patterns."""
    from repro.cec import random_patterns, simulate

    patterns = random_patterns(aig.num_pis, SIM_WIDTH, seed)
    return simulate(aig, patterns, SIM_WIDTH)


def generate(args: argparse.Namespace) -> dict:
    from repro.aig.io_aiger import read_aiger, write_aig_binary
    from repro.algorithms.kernels import KERNEL_CUTOFF
    from repro.parallel import backend
    from repro.verify import sanitizer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    graph = workload.build(args.seed, args.tiny)
    path = os.path.join(args.dir, "input.aig")
    write_aig_binary(graph, path)
    read = read_aiger(path)
    stats = read.stats()
    record = {
        "workload": workload.name,
        "seed": args.seed if workload.uses_seed else None,
        "generated_ands": graph.num_ands,
        "ands": stats["ands"],
        "levels": stats["levels"],
        "pis": stats["pis"],
        "pos": stats["pos"],
        "sha256": file_digest(path),
    }
    with open(os.path.join(args.dir, "expected.json"), "w") as handle:
        json.dump(
            {"words": [hex(word) for word in po_words(read, args.seed)]},
            handle,
        )
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    record["environment"] = {
        "numpy": numpy_version,
        "backend": backend.current_backend(),
        "kernel_cutoff": KERNEL_CUTOFF,
        "sanitizer": sanitizer.enabled,
    }
    return record


def check_output(aig, args: argparse.Namespace) -> str:
    """Audit, round-trip and simulate ``aig``; returns the file digest.

    Raises on any violation.
    """
    from repro.aig.io_aiger import read_aiger, write_aig_binary
    from repro.verify import check_invariants

    check_invariants(aig, require_reachable=True)
    path = os.path.join(args.dir, "output.aig")
    write_aig_binary(aig, path)
    back = read_aiger(path)
    with open(os.path.join(args.dir, "expected.json")) as handle:
        expected = [int(word, 16) for word in json.load(handle)["words"]]
    observed = po_words(back, args.seed)
    if len(observed) != len(expected):
        raise AssertionError(
            f"output has {len(observed)} POs, input has {len(expected)}"
        )
    for index, (got, want) in enumerate(zip(observed, expected)):
        if got != want:
            raise AssertionError(f"PO {index} differs from the input")
    return file_digest(path)


def run(args: argparse.Namespace) -> dict:
    from layers import LayerTimers, counter_values, self_times
    from repro import observe
    from repro.aig.io_aiger import read_aiger
    from repro.engine import list_passes, run_script

    traced = args.mode in ("traced", "wrapped")
    timers = LayerTimers() if args.mode == "wrapped" else None
    # The engine imports its pass modules on first use; do that before
    # any timer starts, so that every mode times the same work.
    list_passes()
    with HostSampler() as sampler:
        start = time.perf_counter()
        aig = read_aiger(os.path.join(args.dir, "input.aig"))
        setup_s = time.perf_counter() - start
        read_rss = vm_hwm_mib()
        ands_in = aig.num_ands
        if timers is not None:
            timers.install()
        if traced:
            observe.enable()
        try:
            start = time.perf_counter()
            result = run_script(aig, args.script, engine="gpu")
            opt_s = time.perf_counter() - start
        finally:
            tracer, registry = observe.disable() if traced else (None, None)
            if timers is not None:
                timers.remove()
    peak_rss = vm_hwm_mib()
    out = result.aig
    stats = out.stats()
    record = {
        "mode": args.mode,
        "setup_s": setup_s,
        "opt_s": opt_s,
        "peak_rss_mb": peak_rss,
        "read_rss_mb": read_rss,
        "ands_in": ands_in,
        "ands_after": stats["ands"],
        "levels_after": stats["levels"],
        "modeled_s": result.modeled_time(),
        "host_factor": sampler.factor(),
    }
    if traced:
        from repro.logic.npn import npn_canon

        info = npn_canon.cache_info()
        lookups = info.hits + info.misses
        record["times"] = self_times(tracer)
        record["counters"] = counter_values(registry.counters)
        record["counters"]["npn.cache_hit_ratio"] = (
            info.hits / lookups if lookups else 0.0
        )
    if timers is not None:
        record["wrapped"] = dict(timers.seconds)
    if args.corrupt_po:
        out.set_po(0, out.pos[0] ^ 1)
    record["output_sha256"] = check_output(out, args)
    return record


def cec(args: argparse.Namespace) -> dict:
    from repro.aig.io_aiger import read_aiger
    from repro.cec import check_equivalence

    left = read_aiger(os.path.join(args.dir, "input.aig"))
    right = read_aiger(os.path.join(args.dir, "output.aig"))
    start = time.perf_counter()
    verdict = check_equivalence(left, right)
    return {
        "status": verdict.status.name,
        "seconds": time.perf_counter() - start,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("step", choices=("generate", "run", "cec"))
    parser.add_argument("--dir", required=True)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--script")
    parser.add_argument(
        "--mode", choices=("plain", "traced", "wrapped"), default="plain"
    )
    parser.add_argument("--corrupt-po", action="store_true")
    args = parser.parse_args(argv)
    step = {"generate": generate, "run": run, "cec": cec}[args.step]
    print(json.dumps(step(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
