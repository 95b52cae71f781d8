"""repro-lint: an AST-based linter for repo-specific invariants.

Ruff and mypy enforce generic Python hygiene; the rules here enforce
invariants of *this* codebase that only hold by convention -- the kind a
sanitizer layer enforces in a training/inference stack.  Run it as::

    python -m repro.analysis.lint src/

Rule catalog (every rule is individually selectable and suppressible):

* **PCK001** -- pickle boundary: classes whose instances cross the
  process-pool or wire boundary define ``__getstate__``/``__reduce__``
  or are registered picklable-as-is; holding a threading primitive
  without a pickle hook is always a finding.
* **DET001** -- deterministic keys: fingerprint- and cache-key-producing
  functions must not consult wall clocks or entropy sources
  (``time.*``, ``random``, ``np.random``, ``uuid``, ``secrets``,
  ``datetime.now``) -- a key that varies across runs silently disables
  every cache keyed on it.
* **LCK001** -- locked module state: module-level mutable containers in
  the service, cache, result-cache and server layers may only be mutated
  inside a ``with <lock>:`` block naming a lock.
* **CIR001** -- checked circuit records: outside
  ``repro/circuit/quantumcircuit.py`` no code builds a
  ``CircuitInstruction(...)`` or calls ``<x>.data.append/extend/insert``.
  Records enter a circuit through its two checked entry points:
  ``QuantumCircuit.append``, which checks the wires, and
  ``QuantumCircuit.splice``, which checks every new record the same way
  and carries the rest by index from the circuit's own ``data``.
* **MAT001** -- memoized gate matrices: outside gate classes (a class
  named ``*Gate`` or deriving from one) no code reads ``<x>.to_matrix``.
  Gate classes build matrices; everyone else reads the gate's memoized,
  read-only ``<gate>.matrix``, built once per gate object.

Suppress a finding on one line with ``# repro-lint: ignore[RULE]``
(comma-separate several rule ids); skip a whole file with
``# repro-lint: skip-file``.  Every pragma should carry a reason or a
TODO -- a pragma is a tracked debt, not a global disable.
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "Finding",
    "Rule",
    "RULES",
    "lint_source",
    "lint_paths",
    "main",
]


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


_PRAGMA_RE = re.compile(r"#\s*repro-lint:\s*ignore\[([A-Za-z0-9_,\s]+)\]")
_SKIP_FILE_RE = re.compile(r"#\s*repro-lint:\s*skip-file")


def _line_pragmas(lines: list[str]) -> dict[int, set[str]]:
    """Per-line suppressed rule ids (1-indexed line numbers)."""
    pragmas: dict[int, set[str]] = {}
    for number, line in enumerate(lines, start=1):
        match = _PRAGMA_RE.search(line)
        if match:
            pragmas[number] = {
                rule.strip() for rule in match.group(1).split(",") if rule.strip()
            }
    return pragmas


def _dotted(node: ast.expr) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class Rule:
    """One lint rule: a scope predicate plus an AST check."""

    id: str = ""
    description: str = ""

    def applies_to(self, path: str) -> bool:
        return True

    def check(self, tree: ast.Module, path: str) -> list[Finding]:
        raise NotImplementedError


# --------------------------------------------------------------------------
# PCK001 -- pickle-boundary safety
# --------------------------------------------------------------------------

#: Classes whose instances cross the process-pool pickle channel or the
#: compile-server wire protocol.  Crossing is a property of the
#: architecture, not the class body, so the set is an explicit registry.
_PCK_BOUNDARY_CLASSES = frozenset(
    {
        "QuantumCircuit",
        "Target",
        "PropertySet",
        "TranspileResult",
        "PassMetrics",
        "AnalysisCache",
        "TranspilerError",
        "ContractViolation",
    }
)

#: Boundary classes audited picklable as-is (plain data, no hooks needed).
_PCK_REGISTERED_PICKLABLE = frozenset(
    {
        "QuantumCircuit",
        "PropertySet",
        "TranspileResult",
        "PassMetrics",
        "AnalysisCache",
        "TranspilerError",
    }
)

_PCK_HOOKS = ("__getstate__", "__reduce__", "__reduce_ex__")

#: Constructors that produce unpicklable members when assigned to self.
_PCK_UNPICKLABLE_CALLS = frozenset(
    {
        "threading.Lock",
        "threading.RLock",
        "threading.Condition",
        "threading.Event",
        "threading.Semaphore",
        "threading.local",
        "ThreadPoolExecutor",
        "ProcessPoolExecutor",
    }
)


def _unpicklable_member_line(node: ast.ClassDef) -> int | None:
    """Line of the first ``self.x = threading.Lock()``-style member."""
    for child in ast.walk(node):
        if not isinstance(child, ast.Assign):
            continue
        if not isinstance(child.value, ast.Call):
            continue
        dotted = _dotted(child.value.func)
        if dotted is None:
            continue
        name = dotted if dotted in _PCK_UNPICKLABLE_CALLS else dotted.split(".")[-1]
        if name not in _PCK_UNPICKLABLE_CALLS:
            continue
        for target in child.targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ) or isinstance(target, ast.Name):
                return child.lineno
    return None


class PickleBoundary(Rule):
    id = "PCK001"
    description = (
        "boundary-crossing classes define __getstate__/__reduce__ or are "
        "registered picklable; threading members always need a hook"
    )

    def check(self, tree: ast.Module, path: str) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if node.name not in _PCK_BOUNDARY_CLASSES:
                continue
            methods = {
                statement.name
                for statement in node.body
                if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            has_hook = any(hook in methods for hook in _PCK_HOOKS)
            if has_hook:
                continue
            bad_member = _unpicklable_member_line(node)
            if bad_member is not None:
                findings.append(
                    Finding(
                        path,
                        bad_member,
                        self.id,
                        f"boundary class {node.name} holds an unpicklable "
                        "member but defines no __getstate__/__reduce__; it "
                        "will fail (or leak a live primitive) when crossing "
                        "the process/wire boundary",
                    )
                )
            elif node.name not in _PCK_REGISTERED_PICKLABLE:
                findings.append(
                    Finding(
                        path,
                        node.lineno,
                        self.id,
                        f"boundary class {node.name} defines no pickle hook "
                        "and is not registered picklable-as-is; add "
                        "__getstate__/__reduce__ or register it in "
                        "repro.analysis.lint after auditing",
                    )
                )
        return findings


# --------------------------------------------------------------------------
# DET001 -- deterministic fingerprint / cache-key producers
# --------------------------------------------------------------------------

#: A function is a key producer when its name says so.
_DET_NAME_RE = re.compile(r"fingerprint|cache_key|digest|_key$|^key$")

#: (root module, attribute) patterns that read clocks or entropy.  An
#: attribute of ``None`` bans every attribute of the module.
_DET_BANNED_MODULES = {
    "time": {"time", "time_ns", "monotonic", "monotonic_ns", "perf_counter", "perf_counter_ns"},
    "random": None,
    "secrets": None,
    "uuid": {"uuid1", "uuid4"},
}

_DET_BANNED_FROM_IMPORTS = {
    "time": {"time", "time_ns", "monotonic", "monotonic_ns", "perf_counter", "perf_counter_ns"},
    "random": "*",
    "secrets": "*",
    "uuid": {"uuid1", "uuid4"},
    "datetime": set(),  # datetime.now reached via the class, handled below
}

_DET_DATETIME_METHODS = frozenset({"now", "utcnow", "today"})


class DeterministicKeys(Rule):
    id = "DET001"
    description = (
        "no clocks or entropy (time.time/random/uuid/secrets/"
        "datetime.now) inside fingerprint- or cache-key-producing functions"
    )

    def check(self, tree: ast.Module, path: str) -> list[Finding]:
        banned_bare: set[str] = set()
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module in _DET_BANNED_FROM_IMPORTS:
                allowed = _DET_BANNED_FROM_IMPORTS[node.module]
                for alias in node.names:
                    if allowed == "*" or alias.name in allowed:
                        banned_bare.add(alias.asname or alias.name)
        findings: list[Finding] = []
        for function in ast.walk(tree):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not _DET_NAME_RE.search(function.name):
                continue
            for node in ast.walk(function):
                if not isinstance(node, ast.Call):
                    continue
                culprit = self._banned_call(node, banned_bare)
                if culprit is not None:
                    findings.append(
                        Finding(
                            path,
                            node.lineno,
                            self.id,
                            f"{culprit}() inside key producer "
                            f"{function.name}(); a fingerprint that varies "
                            "across runs silently disables every cache "
                            "keyed on it",
                        )
                    )
        return findings

    @staticmethod
    def _banned_call(node: ast.Call, banned_bare: set[str]) -> str | None:
        if isinstance(node.func, ast.Name):
            return node.func.id if node.func.id in banned_bare else None
        dotted = _dotted(node.func)
        if dotted is None:
            return None
        parts = dotted.split(".")
        root, leaf = parts[0], parts[-1]
        allowed = _DET_BANNED_MODULES.get(root)
        if root in _DET_BANNED_MODULES and (allowed is None or leaf in allowed):
            return dotted
        if root in ("np", "numpy") and "random" in parts[1:]:
            return dotted
        if leaf in _DET_DATETIME_METHODS and "datetime" in parts[:-1]:
            return dotted
        return None


# --------------------------------------------------------------------------
# LCK001 -- module-level mutable state mutated under a lock
# --------------------------------------------------------------------------

_LCK_SCOPE = (
    "repro/transpiler/service.py",
    "repro/transpiler/cache.py",
    "repro/transpiler/result_cache.py",
)

_LCK_MUTABLE_FACTORIES = frozenset(
    {"dict", "list", "set", "defaultdict", "OrderedDict", "deque", "Counter"}
)

_LCK_MUTATORS = frozenset(
    {
        "append",
        "appendleft",
        "add",
        "update",
        "pop",
        "popitem",
        "popleft",
        "clear",
        "remove",
        "discard",
        "extend",
        "insert",
        "setdefault",
    }
)


def _mentions_lock(node: ast.expr) -> bool:
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and "lock" in child.id.lower():
            return True
        if isinstance(child, ast.Attribute) and "lock" in child.attr.lower():
            return True
    return False


class LockedModuleState(Rule):
    id = "LCK001"
    description = (
        "module-level mutable state in service, cache, result_cache and server "
        "modules is mutated only under a named lock"
    )

    def applies_to(self, path: str) -> bool:
        return any(path.endswith(suffix) for suffix in _LCK_SCOPE) or (
            "repro/server/" in path
        )

    def check(self, tree: ast.Module, path: str) -> list[Finding]:
        tracked: set[str] = set()
        for node in tree.body:
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            if value is None:
                continue
            mutable = isinstance(value, (ast.Dict, ast.List, ast.Set)) or (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id in _LCK_MUTABLE_FACTORIES
            )
            if mutable:
                tracked.update(
                    target.id for target in targets if isinstance(target, ast.Name)
                )
        if not tracked:
            return []
        findings: list[Finding] = []
        # every function anywhere (ast.walk reaches nested ones) starts a
        # fresh runtime scope: it runs later, outside any enclosing lock
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for statement in function.body:
                    self._scan(statement, tracked, False, path, findings)
        return findings

    def _scan(
        self,
        node: ast.AST,
        tracked: set[str],
        locked: bool,
        path: str,
        out: list[Finding],
    ) -> None:
        """Depth-first scan tracking the lexical lock state.

        Prunes nested function/lambda subtrees (they get their own
        top-level scan, unlocked) and flips ``locked`` inside ``with``
        blocks whose context expression names a lock.
        """
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            inner = locked or any(
                _mentions_lock(item.context_expr) for item in node.items
            )
            for item in node.items:  # the lock acquisition itself runs unlocked
                self._scan(item, tracked, locked, path, out)
            for statement in node.body:
                self._scan(statement, tracked, inner, path, out)
            return
        if not locked:
            name = self._mutates(node, tracked)
            if name is not None:
                out.append(
                    Finding(
                        path,
                        getattr(node, "lineno", 0),
                        self.id,
                        f"module-level mutable {name} mutated outside a "
                        "'with <lock>:' block; concurrent callers race "
                        "on shared service/cache state",
                    )
                )
        for child in ast.iter_child_nodes(node):
            self._scan(child, tracked, locked, path, out)

    @staticmethod
    def _mutates(node: ast.AST, tracked: set[str]) -> str | None:
        """Name mutated by this single node (children are scanned separately)."""
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in tracked
            and node.func.attr in _LCK_MUTATORS
        ):
            return node.func.value.id
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id in tracked
            and isinstance(node.ctx, (ast.Store, ast.Del))
        ):
            return node.value.id
        if (
            isinstance(node, ast.AugAssign)
            and isinstance(node.target, ast.Name)
            and node.target.id in tracked
        ):
            return node.target.id
        return None


# --------------------------------------------------------------------------
# CIR001 -- circuit records enter only through QuantumCircuit.append/splice
# --------------------------------------------------------------------------

_CIR_HOME = "repro/circuit/quantumcircuit.py"

_CIR_DATA_MUTATORS = frozenset({"append", "extend", "insert"})


class CheckedCircuitRecords(Rule):
    id = "CIR001"
    description = (
        "outside repro/circuit/quantumcircuit.py, no CircuitInstruction(...) "
        "and no <x>.data.append/extend/insert(...); use QuantumCircuit.append "
        "or QuantumCircuit.splice"
    )

    def applies_to(self, path: str) -> bool:
        return not path.endswith(_CIR_HOME)

    def check(self, tree: ast.Module, path: str) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(tree):
            culprit = self._unchecked(node)
            if culprit is not None:
                findings.append(
                    Finding(
                        path,
                        node.lineno,
                        self.id,
                        f"{culprit} adds a circuit record without "
                        "QuantumCircuit's wire checks; call "
                        "circuit.append(operation, qubits, clbits), or "
                        "circuit.splice(edits) to rewrite a circuit",
                    )
                )
        return findings

    @staticmethod
    def _unchecked(node: ast.AST) -> str | None:
        """The offending expression: a record constructor call, or any
        reference (called or aliased) to a ``.data`` mutator."""
        if isinstance(node, ast.Call):
            dotted = _dotted(node.func)
            if dotted is not None:
                parts = dotted.split(".")
                if parts[-1] == "CircuitInstruction" or parts[-2:] == [
                    "CircuitInstruction",
                    "_make",
                ]:
                    return f"{dotted}()"
        if (
            isinstance(node, ast.Attribute)
            and node.attr in _CIR_DATA_MUTATORS
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "data"
        ):
            return _dotted(node) or f"<expr>.data.{node.attr}"
        return None


# --------------------------------------------------------------------------
# MAT001 -- gate matrices are read through the per-gate memo
# --------------------------------------------------------------------------


def _is_gate_class(node: ast.ClassDef) -> bool:
    """A class named ``*Gate`` or with a base named ``*Gate``."""
    names = [node.name] + [(_dotted(base) or "").rsplit(".", 1)[-1] for base in node.bases]
    return any(name.endswith("Gate") for name in names)


class MemoizedMatrices(Rule):
    id = "MAT001"
    description = (
        "outside gate classes, no <x>.to_matrix; read the gate's memoized "
        "<x>.matrix"
    )

    def check(self, tree: ast.Module, path: str) -> list[Finding]:
        findings: list[Finding] = []
        self._scan(tree, path, findings)
        return findings

    def _scan(self, node: ast.AST, path: str, findings: list[Finding]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef) and _is_gate_class(child):
                continue  # gate classes build matrices, the memo among them
            if isinstance(child, ast.Attribute) and child.attr == "to_matrix":
                culprit = _dotted(child) or "<expr>.to_matrix"
                findings.append(
                    Finding(
                        path,
                        child.lineno,
                        self.id,
                        f"{culprit} builds a fresh matrix; read the gate's "
                        "memoized, read-only .matrix instead",
                    )
                )
            self._scan(child, path, findings)


RULES: tuple[Rule, ...] = (
    PickleBoundary(),
    DeterministicKeys(),
    LockedModuleState(),
    CheckedCircuitRecords(),
    MemoizedMatrices(),
)


# --------------------------------------------------------------------------
# driver
# --------------------------------------------------------------------------


def lint_source(
    source: str, path: str = "<memory>", select: set[str] | None = None
) -> list[Finding]:
    """Lint one source string; ``path`` drives rule scoping (use a
    repo-style posix path like ``src/repro/simulators/statevector.py``)."""
    normalized = path.replace("\\", "/")
    lines = source.splitlines()
    if any(_SKIP_FILE_RE.search(line) for line in lines[:5]):
        return []
    tree = ast.parse(source, filename=path)
    pragmas = _line_pragmas(lines)
    findings: list[Finding] = []
    for rule in RULES:
        if select is not None and rule.id not in select:
            continue
        if not rule.applies_to(normalized):
            continue
        for finding in rule.check(tree, path):
            if finding.rule in pragmas.get(finding.line, ()):  # suppressed
                continue
            findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def lint_paths(
    paths: list[str], select: set[str] | None = None
) -> list[Finding]:
    """Lint files and directory trees; returns all findings."""
    files: list[Path] = []
    for entry in paths:
        root = Path(entry)
        if root.is_dir():
            files.extend(sorted(root.rglob("*.py")))
        else:
            files.append(root)
    findings: list[Finding] = []
    for file in files:
        try:
            source = file.read_text(encoding="utf-8")
        except OSError as exc:
            findings.append(Finding(str(file), 0, "E000", f"unreadable: {exc}"))
            continue
        try:
            findings.extend(lint_source(source, str(file), select))
        except SyntaxError as exc:
            findings.append(
                Finding(str(file), exc.lineno or 0, "E999", f"syntax error: {exc.msg}")
            )
    return findings


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.lint",
        description="repro-lint: repo-invariant static analysis",
    )
    parser.add_argument("paths", nargs="*", default=["src"], help="files or trees")
    parser.add_argument(
        "--select", help="comma-separated rule ids to run (default: all)"
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog and exit"
    )
    args = parser.parse_args(argv)
    if args.list_rules:
        for rule in RULES:
            print(f"{rule.id}  {rule.description}")
        return 0
    select = (
        {rule.strip() for rule in args.select.split(",") if rule.strip()}
        if args.select
        else None
    )
    findings = lint_paths(args.paths, select)
    for finding in findings:
        print(finding.render())
    count = len(findings)
    print(
        f"repro-lint: {count} finding{'s' if count != 1 else ''}",
        file=sys.stderr,
    )
    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
