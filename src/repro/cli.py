"""Command-line interface.

Subcommands::

    repro-aig stats  circuit.aag
    repro-aig gen    multiplier --scale 2 -o mult_2xd.aag
    repro-aig opt    -c "b; rw; rf" --engine gpu circuit.aag -o out.aag
    repro-aig opt    -c resyn2 --trace trace.json --metrics circuit.aag
    repro-aig opt    --list-passes
    repro-aig cec    left.aag right.aag
    repro-aig export circuit.aag --format verilog -o circuit.v
    repro-aig table1 | table2 | table3 | fig7 | fig8   [--quick] [...]

``opt`` accepts the named sequences (``resyn2``, ``rf_resyn``,
``rfc_resyn``, ``resyn``) or any semicolon script of
b/rw/rwz/rf/rfz/rfc (``rfc`` is conflict-breaking parallel
refactoring); the table/figure subcommands regenerate the paper's
exhibits (see EXPERIMENTS.md).
"""

from __future__ import annotations

import argparse
import sys

from repro import observe
from repro.aig.io_aiger import read_aiger, write_aag
from repro.benchgen.suite import SUITE_ORDER, load_benchmark
from repro.engine import COMMANDS, list_passes, parse_script, run_script
from repro.cec.equivalence import CecStatus, check_equivalence
from repro.experiments import tables
from repro.observe import export


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = getattr(args, "handler", None)
    if handler is None:
        parser.print_help()
        return 2
    return handler(args)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-aig",
        description=(
            "Parallel AIG resynthesis (DAC 2023 reproduction): "
            "optimization passes, benchmark generators, paper exhibits."
        ),
    )
    sub = parser.add_subparsers()

    p_stats = sub.add_parser("stats", help="print AIG statistics")
    p_stats.add_argument("input")
    p_stats.set_defaults(handler=_cmd_stats)

    p_gen = sub.add_parser("gen", help="generate a suite benchmark")
    p_gen.add_argument("name", choices=SUITE_ORDER)
    p_gen.add_argument("--scale", type=int, default=0)
    p_gen.add_argument("-o", "--output", required=True)
    p_gen.set_defaults(handler=_cmd_gen)

    p_opt = sub.add_parser("opt", help="optimize an AIGER file")
    p_opt.add_argument("input", nargs="?")
    p_opt.add_argument(
        "--list-passes", action="store_true",
        help="list the passes and script commands, then exit",
    )
    p_opt.add_argument("-c", "--script", default="resyn2")
    p_opt.add_argument("--engine", choices=["seq", "gpu"], default="gpu")
    p_opt.add_argument("--cut-size", type=int, default=12)
    p_opt.add_argument("-o", "--output")
    p_opt.add_argument(
        "--verify", action="store_true",
        help="equivalence-check the result against the input",
    )
    p_opt.add_argument(
        "--trace", metavar="PATH",
        help="write a structured JSON trace of the run (the file also "
        "loads directly in chrome://tracing)",
    )
    p_opt.add_argument(
        "--metrics", action="store_true",
        help="print the metrics registry (probes, resizes, cones, ...)",
    )
    p_opt.set_defaults(handler=_cmd_opt)

    p_cec = sub.add_parser("cec", help="combinational equivalence check")
    p_cec.add_argument("left")
    p_cec.add_argument("right")
    p_cec.set_defaults(handler=_cmd_cec)

    p_verify = sub.add_parser(
        "verify",
        help="optimize under the race sanitizer + invariant checks "
        "and CEC-gate the result",
    )
    p_verify.add_argument("input")
    p_verify.add_argument("-c", "--script", default="resyn2")
    p_verify.add_argument("--cut-size", type=int, default=12)
    p_verify.set_defaults(handler=_cmd_verify)

    p_fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzzing: random AIGs through random pass "
        "scripts with default and forced size gates, sanitizer off and "
        "on, CEC-gated",
    )
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument(
        "--budget", type=int, default=30, help="number of fuzz cases"
    )
    p_fuzz.add_argument(
        "-v", "--verbose", action="store_true",
        help="print one progress line per case",
    )
    p_fuzz.set_defaults(handler=_cmd_fuzz)

    p_export = sub.add_parser(
        "export", help="export an AIGER file to Verilog or DOT"
    )
    p_export.add_argument("input")
    p_export.add_argument(
        "--format", choices=["verilog", "dot"], default="verilog"
    )
    p_export.add_argument("-o", "--output", required=True)
    p_export.set_defaults(handler=_cmd_export)

    for name, help_text in (
        ("table1", "normalized sequential-part runtimes (Table I)"),
        ("table2", "single-pass results (Table II)"),
        ("table3", "sequence results (Table III)"),
        ("fig7", "acceleration vs problem size (Figure 7)"),
        ("fig8", "GPU runtime breakdown (Figure 8)"),
    ):
        p_exp = sub.add_parser(name, help=help_text)
        p_exp.add_argument("--names", help="comma-separated benchmark subset")
        p_exp.add_argument("--scale", type=int, default=0)
        p_exp.add_argument(
            "--quick", action="store_true",
            help="use the small quick-regression subset",
        )
        if name == "table2":
            p_exp.add_argument("--zero-gain", action="store_true")
        p_exp.set_defaults(handler=_cmd_experiment, exhibit=name)
    return parser


def _cmd_stats(args: argparse.Namespace) -> int:
    aig = read_aiger(args.input)
    stats = aig.stats()
    print(
        f"{aig.name}: pis={stats['pis']} pos={stats['pos']} "
        f"ands={stats['ands']} levels={stats['levels']}"
    )
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    aig = load_benchmark(args.name, args.scale)
    write_aag(aig, args.output)
    stats = aig.stats()
    print(
        f"wrote {args.output}: ands={stats['ands']} levels={stats['levels']}"
    )
    return 0


def _cmd_opt(args: argparse.Namespace) -> int:
    if args.list_passes:
        _print_pass_table()
        return 0
    if args.input is None:
        print("error: input file required (or use --list-passes)",
              file=sys.stderr)
        return 2
    try:
        parse_script(args.script)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    aig = read_aiger(args.input)
    before = aig.stats()
    observing = bool(args.trace or args.metrics)
    if observing:
        observe.enable()
    try:
        result = run_script(
            aig, args.script, engine=args.engine,
            max_cut_size=args.cut_size,
        )
    finally:
        tracer, registry = observe.disable() if observing else (None, None)
    after = result.aig.stats()
    print(
        f"{args.script} [{args.engine}]: "
        f"{before['ands']}/{before['levels']} -> "
        f"{after['ands']}/{after['levels']} "
        f"(modeled {result.modeled_time():.6f}s)"
    )
    if tracer is not None:
        print()
        print(export.format_pass_table(tracer))
        if args.metrics and registry is not None:
            print()
            print(registry.format())
        if args.trace:
            export.export_trace(
                args.trace, tracer, registry,
                meta={
                    "input": args.input,
                    "script": args.script,
                    "engine": args.engine,
                    "cut_size": args.cut_size,
                    "nodes_before": before["ands"],
                    "nodes_after": after["ands"],
                    "levels_before": before["levels"],
                    "levels_after": after["levels"],
                },
            )
            print(f"\nwrote trace {args.trace}")
    if args.verify:
        verdict = check_equivalence(aig, result.aig)
        print(f"equivalence: {verdict.status.value}")
        if verdict.status is CecStatus.NOT_EQUIVALENT:
            return 1
    if args.output:
        write_aag(result.aig, args.output)
        print(f"wrote {args.output}")
    return 0


def _print_pass_table() -> None:
    """Print the pass entry points and the script-command table."""
    print("passes:")
    for row in list_passes():
        print(f"  {row.name:<18}[{row.engine:<3}]  {row.description}")
    print("script commands:")
    for row in COMMANDS:
        print(f"  {row.command:<4}[{row.engine}]  {row.description}")


def _cmd_cec(args: argparse.Namespace) -> int:
    left = read_aiger(args.left)
    right = read_aiger(args.right)
    verdict = check_equivalence(left, right)
    print(f"equivalence: {verdict.status.value}")
    if verdict.counterexample is not None:
        print(f"counterexample (PO {verdict.failing_output}): "
              f"{['01'[bit] for bit in verdict.counterexample]}")
    return 0 if verdict.status is CecStatus.EQUIVALENT else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.verify.fuzz import run_case

    aig = read_aiger(args.input)
    outcome = run_case(
        aig,
        args.script,
        name=args.input,
        max_cut_size=args.cut_size,
    )
    print(f"verify {args.input} [{args.script}]")
    print(f"  sanitizer conflicts: {outcome.conflicts}")
    for key in sorted(outcome.counters):
        if key == "conflicts":
            continue
        print(f"    {key:<22}{outcome.counters[key]}")
    if outcome.error is not None:
        print(f"  {outcome.error_kind} failure: {outcome.error}")
    else:
        print("  invariants: ok")
    print(f"  equivalence: {outcome.cec}")
    print("verdict: " + ("CLEAN" if outcome.ok else "FAILED"))
    return 0 if outcome.ok else 1


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.verify.fuzz import run_fuzz

    report = run_fuzz(
        seed=args.seed,
        budget=args.budget,
        progress=print if args.verbose else None,
    )
    print(report.format())
    return 0 if report.ok else 1


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.aig.export import to_dot, to_verilog

    aig = read_aiger(args.input)
    text = to_verilog(aig) if args.format == "verilog" else to_dot(aig)
    with open(args.output, "w", encoding="ascii") as handle:
        handle.write(text)
    print(f"wrote {args.output} ({args.format})")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    names = None
    if args.quick:
        names = tables.QUICK_NAMES
    if args.names:
        names = [token.strip() for token in args.names.split(",")]
    exhibit = args.exhibit
    if exhibit == "table1":
        result = tables.run_table1(names=names, scale=args.scale)
    elif exhibit == "table2":
        result = tables.run_table2(
            names=names, scale=args.scale,
            zero_gain=getattr(args, "zero_gain", False),
        )
    elif exhibit == "table3":
        result = tables.run_table3(names=names, scale=args.scale)
    elif exhibit == "fig7":
        result = tables.run_fig7(base_names=names)
    else:
        result = tables.run_fig8(names=names, scale=args.scale)
    print(result["text"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
