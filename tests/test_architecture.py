"""Architecture conformance: pass dispatch goes through the engine.

The unified pass engine (:mod:`repro.engine`) is the single
registration and dispatch point for the optimization passes.  Direct
imports of the pass modules (``repro.algorithms.par_*`` / ``seq_*`` /
``sop_*`` / ``resub`` / ``dedup``) are only allowed

* inside ``src/repro/algorithms/`` itself (the passes share helpers
  and the package ``__init__`` re-exports them),
* inside ``src/repro/engine/`` (the registry's lazy builtin loader),
* and under ``tests/`` (white-box unit tests of individual passes).

Everything else — the CLI, experiments, benchmarks, verification,
scripts — must resolve passes by name via ``repro.engine.pass_fn`` or
run scripts through ``repro.engine.run_script``.

A second rule guards the transactional commit layer
(:mod:`repro.commit`): pass modules describe graph changes as plans
and let the engine / replay helpers mutate — they must not call the
mutation primitives (``kill`` / ``revive`` / ``set_alias`` /
``mark_dead`` / ``truncate`` / raw strash allocation) themselves.
Documented exceptions are the modules that *are* the primitives or the
sequential references (see :data:`MUTATION_ALLOWED`).

Two rules guard the single-backend design: the module-level size
gates under ``src/`` (integer constants named ``*_CUTOFF`` or
``*_MIN*`` that code under ``src/`` reads) must be exactly the entries
of :data:`repro.verify.gates.GATES` — none missing, so the
forced-gates differential covers each, and none stale; and no
reference to the deleted backend switch or no-NumPy mode may come
back.

A last rule keeps the counter table of ``docs/OBSERVABILITY.md``
complete: every counter name ``src/`` passes to ``observe.count`` as a
literal (f-string placeholders kept as ``{expr}``) must appear in it.

Two tooling guards keep the repository benchmark's reads of the
package honest.  Its ``cuts.enumerate_s`` wrapper wraps every
module-level binding that *is*
:func:`repro.aig.cuts.enumerate_cuts_with_tables`, so the rewriting
pass must bind that very object (a rebinding would read 0 silently);
and its run manifest imports ``repro.algorithms.kernels.KERNEL_CUTOFF``.

Apart from those guards' deferred imports, this file is pure text
scanning (no ``repro`` import), so the CI lint job runs it without
installing the package: ``python tests/test_architecture.py``.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Pass-module references that must not appear outside the allowed
#: directories (covers ``from repro.algorithms.X import`` and
#: ``import repro.algorithms.X`` alike, plus importlib strings).
FORBIDDEN = re.compile(
    r"repro\.algorithms\.(par_|seq_|sop_|resub\b|dedup\b)"
)

#: Directories whose files may reference pass modules directly.
ALLOWED = (
    "src/repro/algorithms/",
    "src/repro/engine/",
    "tests/",
)

#: Graph-mutation primitives pass modules must route through
#: ``repro.commit`` (receiver-qualified, so plain locals named e.g.
#: ``add_and`` handed out *by* the commit layer still match nothing).
FORBIDDEN_MUTATION = re.compile(
    r"\.(kill|revive|set_alias|mark_dead|truncate"
    r"|add_and|add_raw_and|add_raw_and_batch|add_and_batch)\("
)

#: Pass-module files that may keep direct mutation calls:
#: ``common.py`` hosts :class:`AliasView` (the primitive itself),
#: ``dedup.py`` is structural maintenance rather than a rewrite pass,
#: and the sequential balance references predate (and validate) the
#: commit layer.
MUTATION_ALLOWED = (
    "src/repro/algorithms/common.py",
    "src/repro/algorithms/dedup.py",
    "src/repro/algorithms/seq_balance.py",
    "src/repro/algorithms/sop_balance.py",
)


#: Names of the deleted backend switch and no-NumPy column mode,
#: spelled in pieces so a plain grep of the tree for them stays empty.
FORBIDDEN_BACKEND = re.compile(
    r"\b(use_" r"numpy|HAVE_" r"NUMPY|HAS_" r"NUMPY|REPRO_" r"BACKEND)\b"
)

#: The forced-gates helper, the one place that lists the size gates.
GATES_FILE = REPO_ROOT / "src" / "repro" / "verify" / "gates.py"

#: The document whose metrics table lists every counter.
COUNTER_TABLE = REPO_ROOT / "docs" / "OBSERVABILITY.md"


def _is_gate_name(name: str) -> bool:
    return name.endswith("_CUTOFF") or "_MIN" in name


def find_size_gates() -> set[tuple[str, str]]:
    """``(module, name)`` of every module-level size gate in ``src/``.

    A gate is a module-level int constant with a gate-like name that
    code under ``src/`` reads: by bare name in its own module, as an
    attribute (``vec._SCALAR_CUTOFF``), or through a ``from`` import.
    A constant nothing in ``src/`` reads switches no path (a value kept
    for run manifests, say), so it is not a gate.
    """
    candidates: set[tuple[str, str]] = set()
    own_reads: set[tuple[str, str]] = set()
    foreign_reads: set[str] = set()
    src = REPO_ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        module = ".".join(path.relative_to(src).with_suffix("").parts)
        module = module.removesuffix(".__init__")
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign):
                targets, value = [node.target], node.value
            else:
                continue
            if not (
                isinstance(value, ast.Constant)
                and type(value.value) is int
            ):
                continue
            for target in targets:
                if isinstance(target, ast.Name) and _is_gate_name(
                    target.id
                ):
                    candidates.add((module, target.id))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                own_reads.add((module, node.id))
            elif isinstance(node, ast.Attribute) and isinstance(
                node.ctx, ast.Load
            ):
                foreign_reads.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                foreign_reads.update(alias.name for alias in node.names)
    return {
        (module, name)
        for module, name in candidates
        if (module, name) in own_reads or name in foreign_reads
    }


def listed_gates() -> set[tuple[str, str]]:
    """The ``GATES`` tuple of the forced-gates helper, read as text."""
    tree = ast.parse(GATES_FILE.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "GATES"
            for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def find_gate_mismatches() -> list[str]:
    """Gates missing from ``GATES``, and ``GATES`` entries gone stale."""
    found = find_size_gates()
    listed = listed_gates()
    return [
        f"{module}.{name} (not in GATES)"
        for module, name in sorted(found - listed)
    ] + [
        f"{module}.{name} (in GATES, no such gate)"
        for module, name in sorted(listed - found)
    ]


def find_backend_references() -> list[str]:
    """Leftover references to the deleted backend switch in ``src/``."""
    violations: list[str] = []
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        relative = path.relative_to(REPO_ROOT).as_posix()
        for number, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            if FORBIDDEN_BACKEND.search(line):
                violations.append(f"{relative}:{number}: {line.strip()}")
    return violations


def _counter_name(node: ast.expr) -> str | None:
    """A literal counter name, f-string placeholders as ``{expr}``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(
            part.value
            if isinstance(part, ast.Constant)
            else "{" + ast.unparse(part.value) + "}"
            for part in node.values
        )
    return None


def find_counter_names() -> dict[str, str]:
    """Literal ``observe.count`` names in ``src/`` -> first call site."""
    names: dict[str, str] = {}
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        relative = path.relative_to(REPO_ROOT).as_posix()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "count"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "observe"
                and node.args
            ):
                continue
            name = _counter_name(node.args[0])
            if name is not None:
                names.setdefault(name, f"{relative}:{node.lineno}")
    return names


def find_undocumented_counters() -> list[str]:
    """Counters ``src/`` emits that the metrics table does not list."""
    documented: set[str] = set()
    for line in COUNTER_TABLE.read_text(encoding="utf-8").splitlines():
        if line.startswith("|"):
            documented.update(re.findall(r"`([^`]+)`", line))
    return [
        f"{site}: {name}"
        for name, site in sorted(find_counter_names().items())
        if name not in documented
    ]


def find_violations() -> list[str]:
    """All (file:line: text) conformance violations in the repo."""
    violations: list[str] = []
    for path in sorted(REPO_ROOT.rglob("*.py")):
        relative = path.relative_to(REPO_ROOT).as_posix()
        if relative.startswith(ALLOWED) or "/." in f"/{relative}":
            continue
        for number, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            if FORBIDDEN.search(line):
                violations.append(f"{relative}:{number}: {line.strip()}")
    return violations


def find_mutation_violations() -> list[str]:
    """Direct mutation calls in pass modules outside the allowlist."""
    violations: list[str] = []
    algorithms = REPO_ROOT / "src" / "repro" / "algorithms"
    for path in sorted(algorithms.glob("*.py")):
        relative = path.relative_to(REPO_ROOT).as_posix()
        if relative in MUTATION_ALLOWED:
            continue
        for number, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            if FORBIDDEN_MUTATION.search(line):
                violations.append(f"{relative}:{number}: {line.strip()}")
    return violations


def test_no_direct_pass_imports_outside_engine() -> None:
    violations = find_violations()
    assert not violations, (
        "direct pass-module imports outside the engine/tests "
        "(use repro.engine.pass_fn or run_script):\n"
        + "\n".join(violations)
    )


def test_pass_mutations_route_through_commit_layer() -> None:
    violations = find_mutation_violations()
    assert not violations, (
        "direct graph-mutation calls in pass modules (route them "
        "through repro.commit plans / replay helpers):\n"
        + "\n".join(violations)
    )


def test_every_size_gate_is_forced_by_the_helper() -> None:
    assert find_size_gates() == listed_gates(), (
        "repro.verify.gates.GATES must list exactly the size gates "
        "(a missing one is never covered by the forced-gates "
        "differential):\n" + "\n".join(find_gate_mismatches())
    )


def test_no_backend_switch_references() -> None:
    violations = find_backend_references()
    assert not violations, (
        "references to the deleted backend switch / no-NumPy mode:\n"
        + "\n".join(violations)
    )


def test_every_counter_is_documented() -> None:
    assert find_counter_names()
    undocumented = find_undocumented_counters()
    assert not undocumented, (
        "counters missing from the docs/OBSERVABILITY.md table:\n"
        + "\n".join(undocumented)
    )


def test_rewrite_binds_the_exported_cut_enumerator() -> None:
    import importlib

    name = "enumerate_cuts_with_tables"
    cuts = importlib.import_module("repro.aig.cuts")
    rewrite = importlib.import_module("repro.algorithms.par_rewrite")
    assert vars(rewrite).get(name) is getattr(cuts, name), (
        "repro.algorithms.par_rewrite must bind "
        "repro.aig.cuts.enumerate_cuts_with_tables itself: perfbench "
        "times cut enumeration by wrapping that object"
    )


def test_perfbench_manifest_constant_still_imports() -> None:
    import importlib

    kernels = importlib.import_module("repro.algorithms.kernels")
    assert isinstance(getattr(kernels, "KERNEL_CUTOFF", None), int), (
        "repro.algorithms.kernels.KERNEL_CUTOFF must stay importable: "
        "perfbench reads it to fill its run manifest"
    )


def main() -> int:
    failed = False
    violations = find_violations()
    if violations:
        failed = True
        print("architecture conformance FAILED:", file=sys.stderr)
        for violation in violations:
            print(f"  {violation}", file=sys.stderr)
        print(
            "resolve passes via repro.engine (pass_fn / run_script)",
            file=sys.stderr,
        )
    mutation_violations = find_mutation_violations()
    if mutation_violations:
        failed = True
        print("commit-layer conformance FAILED:", file=sys.stderr)
        for violation in mutation_violations:
            print(f"  {violation}", file=sys.stderr)
        print(
            "route graph mutation through repro.commit",
            file=sys.stderr,
        )
    mismatches = find_gate_mismatches()
    if mismatches:
        failed = True
        print("size-gate conformance FAILED:", file=sys.stderr)
        for gate in mismatches:
            print(f"  {gate}", file=sys.stderr)
        print(
            "list exactly the size gates in repro.verify.gates.GATES",
            file=sys.stderr,
        )
    backend_references = find_backend_references()
    if backend_references:
        failed = True
        print("backend-switch conformance FAILED:", file=sys.stderr)
        for violation in backend_references:
            print(f"  {violation}", file=sys.stderr)
    undocumented = find_undocumented_counters()
    if undocumented:
        failed = True
        print("counter-table conformance FAILED:", file=sys.stderr)
        for counter in undocumented:
            print(f"  {counter}", file=sys.stderr)
        print(
            "list every counter in the docs/OBSERVABILITY.md table",
            file=sys.stderr,
        )
    if failed:
        return 1
    print("architecture conformance OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
