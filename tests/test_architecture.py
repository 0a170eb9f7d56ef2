"""Architecture conformance: pass dispatch goes through the engine.

The unified pass engine (:mod:`repro.engine`) is the single dispatch
point for the optimization passes: one fixed command table
(``repro.engine.registry.run_command``) and one scheduler loop.
Direct imports of the pass modules (``repro.algorithms.par_*`` /
``seq_*`` / ``dedup``) are only allowed

* inside ``src/repro/algorithms/`` itself (the passes share helpers
  and the package ``__init__`` re-exports them),
* inside ``src/repro/engine/`` (the command table's deferred imports),
* and under ``tests/`` (white-box unit tests of individual passes).

Everything else — the CLI, experiments, benchmarks, verification,
scripts — must resolve passes by name via ``repro.engine.pass_fn`` or
run scripts through ``repro.engine.run_script``.

The dependency runs one way: the command table imports the passes,
and a module under ``src/repro/algorithms/`` imports nothing of the
engine but :mod:`repro.engine.context`.  The retired runtime plugin
registry (its decorators, teardown helpers and invocation record) may
not come back to the code, test, benchmark, script or example trees.

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
back.  Likewise no reference to the retired extensions (the LUT mapper
package, resubstitution, SOP balancing and their unconditional replay
commit) may come back to the code, test, benchmark, script or example
trees.

The batched hash table owns its slot state: no module under ``src/``
other than ``repro/parallel/hashtable.py`` may touch the table's slot
arrays (``._table``, ``._akey0``, ``._akey1``, ``._avalue``), and none
may import the per-item oracle ``tests/hashtable_reference.py``.

The alias-resolved graph has one reading.  One post-order walk
(``Aig.post_order`` in ``repro/aig/aig.py``) serves compaction and
dedup's levelization, so no other function under ``src/`` may run a
post-order stack walk over a ``resolve_aliases`` array or raise the
walk's resolve-map cycle error.  Killed nodes live only in the graph's
dead column: the commit engine's retired kill record
(``deleted_all``) and a ``dead`` attribute of ``AliasView`` may not
come back.

Parallel rewriting has one replay path: ``par_rewrite`` runs its
keep/delete replay through the commit layer's fused loop
(``repro.commit.replay_rewrites``), so it may not import or reach the
per-candidate helpers (:data:`PER_CANDIDATE_REPLAY`).

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
    r"repro\.algorithms\.(par_|seq_|dedup\b)"
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
    r"\.(kill|revive|set_alias|mark_dead|mark_dead_batch|truncate"
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
)


#: Names of the deleted backend switch and no-NumPy column mode,
#: spelled in pieces so a plain grep of the tree for them stays empty.
FORBIDDEN_BACKEND = re.compile(
    r"\b(use_" r"numpy|HAVE_" r"NUMPY|HAS_" r"NUMPY|REPRO_" r"BACKEND)\b"
)

#: Names of the retired extension modules and their replay helper,
#: spelled in pieces so this file does not match itself.
FORBIDDEN_EXTENSION = re.compile(
    r"\brepro\.map" r"ping\b|\balgorithms\.re" r"sub\b"
    r"|\balgorithms\.sop" r"_balance\b|\bcommit_re" r"placement\b"
)

#: Trees the retired-extension and retired-registry guards scan.
EXTENSION_SCAN = ("src", "tests", "benchmarks", "scripts", "examples")

#: Names of the retired plugin registry, spelled in pieces so this
#: file does not match itself.
FORBIDDEN_REGISTRY = re.compile(
    r"\bregister_" r"pass\b|\bregister_" r"command\b|\bunregister_"
    r"|\bPass" r"Invocation\b"
)

#: The one engine module the pass modules may import.
ENGINE_CONTEXT = "repro.engine.context"

#: The hash table's slot state, which only its own module may touch.
TABLE_STATE = re.compile(r"\._(table|akey0|akey1|avalue)\b")

#: The one module allowed to touch :data:`TABLE_STATE`.
TABLE_MODULE = "src/repro/parallel/hashtable.py"

#: An import of the hash table's per-item test oracle, which ``src/``
#: must not use.
TABLE_ORACLE = re.compile(r"^\s*(from|import)\s.*\bhashtable_reference\b")

#: The one module that may walk the alias-resolved graph.
RESOLVED_WALK_MODULE = "src/repro/aig/aig.py"

#: The walk's resolve-map cycle error, which only that module raises.
RESOLVED_WALK_ERROR = "in resolve map"

#: The retired kill records: the commit engine's union of retired
#: cones and the alias view's copy of the dead column.
FORBIDDEN_KILL_RECORD = re.compile(r"\bdeleted_all\b|\bview\.dead\b")

#: The parallel rewriting pass, which replays through the fused loop.
REWRITE_MODULE = "src/repro/algorithms/par_rewrite.py"

#: The per-candidate replay helpers that pass may not use.
PER_CANDIDATE_REPLAY = frozenset(
    ("AliasView", "apply_replacement", "walk_cone", "deref_walked")
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
    attribute (``hashtable._SCALAR_CUTOFF``), or through a ``from``
    import.
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


def _grep(pattern: re.Pattern, trees: tuple[str, ...]) -> list[str]:
    """``file:line: text`` of every line under ``trees`` that matches."""
    violations: list[str] = []
    for tree in trees:
        for path in sorted((REPO_ROOT / tree).rglob("*.py")):
            relative = path.relative_to(REPO_ROOT).as_posix()
            for number, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), start=1
            ):
                if pattern.search(line):
                    violations.append(
                        f"{relative}:{number}: {line.strip()}"
                    )
    return violations


def find_backend_references() -> list[str]:
    """Leftover references to the deleted backend switch in ``src/``."""
    return _grep(FORBIDDEN_BACKEND, ("src",))


def find_extension_references() -> list[str]:
    """References to the retired extensions in the scanned trees."""
    return _grep(FORBIDDEN_EXTENSION, EXTENSION_SCAN)


def find_registry_references() -> list[str]:
    """References to the retired plugin registry in the scanned trees."""
    return _grep(FORBIDDEN_REGISTRY, EXTENSION_SCAN)


def _engine_imports(tree: ast.AST) -> list[tuple[int, str]]:
    """``(line, module)`` of every engine module ``tree`` imports."""
    found: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module == "repro.engine":
                # ``from repro.engine import x``: x is a submodule or a
                # name the package re-exports from the table/scheduler.
                modules = [
                    f"repro.engine.{alias.name}" for alias in node.names
                ]
            else:
                modules = [node.module]
        else:
            continue
        found.extend(
            (node.lineno, module)
            for module in modules
            if module == "repro.engine"
            or module.startswith("repro.engine.")
        )
    return found


def find_pass_engine_imports() -> list[str]:
    """Pass-module imports of any engine module but the context."""
    violations: list[str] = []
    algorithms = REPO_ROOT / "src" / "repro" / "algorithms"
    for path in sorted(algorithms.glob("*.py")):
        relative = path.relative_to(REPO_ROOT).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"))
        violations.extend(
            f"{relative}:{line}: imports {module}"
            for line, module in _engine_imports(tree)
            if module != ENGINE_CONTEXT
        )
    return violations


def find_table_reach_ins() -> list[str]:
    """Slot-state access outside the table module, and imports of the
    table's test oracle, in ``src/``."""
    return [
        violation
        for violation in _grep(TABLE_STATE, ("src",))
        if not violation.startswith(f"{TABLE_MODULE}:")
    ] + _grep(TABLE_ORACLE, ("src",))


def _reads_resolved_graph(function: ast.AST) -> bool:
    """Whether ``function`` takes a ``final`` array or builds one."""
    args = function.args
    names = {
        arg.arg for arg in args.posonlyargs + args.args + args.kwonlyargs
    }
    return "final" in names or any(
        isinstance(node, ast.Call)
        and ast.unparse(node.func).endswith("resolve_aliases")
        for node in ast.walk(function)
    )


def _peeks_a_stack(function: ast.AST) -> bool:
    """Whether a ``while`` loop in ``function`` reads ``x[-1]`` (the
    top of a post-order DFS stack)."""
    return any(
        isinstance(loop, ast.While)
        and any(
            isinstance(node, ast.Subscript)
            and ast.unparse(node.slice) == "-1"
            for node in ast.walk(loop)
        )
        for loop in ast.walk(function)
    )


def find_resolved_walk_copies() -> list[str]:
    """Resolved-graph DFS helpers in ``src/`` outside the one walk."""
    violations: list[str] = []
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        relative = path.relative_to(REPO_ROOT).as_posix()
        if relative == RESOLVED_WALK_MODULE:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            raises_cycle = any(
                isinstance(const, ast.Constant)
                and isinstance(const.value, str)
                and RESOLVED_WALK_ERROR in const.value
                for const in ast.walk(node)
            )
            if raises_cycle or (
                _reads_resolved_graph(node) and _peeks_a_stack(node)
            ):
                violations.append(
                    f"{relative}:{node.lineno}: def {node.name}"
                )
    return violations


def find_kill_record_copies() -> list[str]:
    """Kill records in ``src/`` beside the graph's dead column."""
    violations = _grep(FORBIDDEN_KILL_RECORD, ("src",))
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        relative = path.relative_to(REPO_ROOT).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == "AliasView":
                # A ``__slots__`` entry, a ``self.dead`` or a method.
                violations.extend(
                    f"{relative}:{inner.lineno}: AliasView.dead"
                    for inner in ast.walk(node)
                    if "dead"
                    in (
                        getattr(inner, "value", None),
                        getattr(inner, "attr", None),
                        getattr(inner, "name", None),
                    )
                )
    return violations


def find_rewrite_replay_helpers() -> list[str]:
    """Per-candidate replay helpers that ``par_rewrite`` imports or
    reaches as an attribute."""
    path = REPO_ROOT / REWRITE_MODULE
    violations: list[str] = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [
                alias.name.rpartition(".")[2] for alias in node.names
            ]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        violations.extend(
            f"{REWRITE_MODULE}:{node.lineno}: {name}"
            for name in names
            if name in PER_CANDIDATE_REPLAY
        )
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


def test_no_retired_extension_references() -> None:
    violations = find_extension_references()
    assert not violations, (
        "references to the retired mapping / resubstitution / SOP "
        "balancing extensions:\n" + "\n".join(violations)
    )


def test_no_retired_registry_references() -> None:
    violations = find_registry_references()
    assert not violations, (
        "references to the retired plugin registry (the command table "
        "in repro.engine.registry is fixed):\n" + "\n".join(violations)
    )


def test_pass_modules_import_only_the_engine_context() -> None:
    violations = find_pass_engine_imports()
    assert not violations, (
        f"pass modules may import only {ENGINE_CONTEXT} from the "
        "engine (the command table imports them):\n"
        + "\n".join(violations)
    )


def test_hash_table_state_stays_in_its_module() -> None:
    violations = find_table_reach_ins()
    assert not violations, (
        "hash-table slot state touched outside "
        f"{TABLE_MODULE}, or its test oracle imported by src/:\n"
        + "\n".join(violations)
    )


def test_one_walk_of_the_resolved_graph() -> None:
    violations = find_resolved_walk_copies()
    assert not violations, (
        "post-order walks of the alias-resolved graph outside "
        f"{RESOLVED_WALK_MODULE} (use Aig.post_order):\n"
        + "\n".join(violations)
    )


def test_kills_live_only_in_the_dead_column() -> None:
    violations = find_kill_record_copies()
    assert not violations, (
        "kill records beside the graph's dead column (read "
        "Aig.is_dead / the dead column instead):\n"
        + "\n".join(violations)
    )


def test_rewrite_replays_through_the_fused_loop() -> None:
    violations = find_rewrite_replay_helpers()
    assert not violations, (
        "par_rewrite uses a per-candidate replay helper (replay "
        "through repro.commit.replay_rewrites):\n" + "\n".join(violations)
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
    extension_references = find_extension_references()
    if extension_references:
        failed = True
        print("retired-extension conformance FAILED:", file=sys.stderr)
        for violation in extension_references:
            print(f"  {violation}", file=sys.stderr)
    registry_references = find_registry_references()
    if registry_references:
        failed = True
        print("retired-registry conformance FAILED:", file=sys.stderr)
        for violation in registry_references:
            print(f"  {violation}", file=sys.stderr)
        print(
            "add commands to the fixed table in repro.engine.registry",
            file=sys.stderr,
        )
    pass_engine_imports = find_pass_engine_imports()
    if pass_engine_imports:
        failed = True
        print("pass-engine dependency FAILED:", file=sys.stderr)
        for violation in pass_engine_imports:
            print(f"  {violation}", file=sys.stderr)
        print(
            f"pass modules may import only {ENGINE_CONTEXT}",
            file=sys.stderr,
        )
    table_reach_ins = find_table_reach_ins()
    if table_reach_ins:
        failed = True
        print("hash-table encapsulation FAILED:", file=sys.stderr)
        for violation in table_reach_ins:
            print(f"  {violation}", file=sys.stderr)
        print(
            f"go through the public methods of {TABLE_MODULE}",
            file=sys.stderr,
        )
    walk_copies = find_resolved_walk_copies()
    if walk_copies:
        failed = True
        print("resolved-walk conformance FAILED:", file=sys.stderr)
        for violation in walk_copies:
            print(f"  {violation}", file=sys.stderr)
        print(
            f"walk the resolved graph with Aig.post_order "
            f"({RESOLVED_WALK_MODULE})",
            file=sys.stderr,
        )
    kill_records = find_kill_record_copies()
    if kill_records:
        failed = True
        print("kill-record conformance FAILED:", file=sys.stderr)
        for violation in kill_records:
            print(f"  {violation}", file=sys.stderr)
        print(
            "keep kills only in the graph's dead column",
            file=sys.stderr,
        )
    replay_helpers = find_rewrite_replay_helpers()
    if replay_helpers:
        failed = True
        print("rewrite-replay conformance FAILED:", file=sys.stderr)
        for violation in replay_helpers:
            print(f"  {violation}", file=sys.stderr)
        print(
            "replay rewrites through repro.commit.replay_rewrites",
            file=sys.stderr,
        )
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
