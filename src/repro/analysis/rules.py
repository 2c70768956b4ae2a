"""The node-level domain lint rules behind ``repro-lint``.

Each rule guards one structural convention the paper's guarantees (or
the PR 2 parallel engine's exactly-once merge) rely on; DESIGN.md's
"Enforced invariants" section maps every rule to the theorem or
subsystem it protects. Rules are deliberately narrow: each one encodes a
pattern we know to be load-bearing in *this* codebase, not a general
style opinion — ruff handles style.
"""

from __future__ import annotations

import ast
import os
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .engine import Finding, Rule, SourceFile, path_segments
from .project import is_pool_dispatch

#: Dispatch-layer kwargs assumed when ``EXECUTOR_KWARGS`` cannot be read
#: out of the registry module being linted.
_DEFAULT_EXECUTOR_KWARGS = frozenset({"workers", "parallel_mode"})


def _in_dirs(logical: str, names: Sequence[str]) -> bool:
    segs = path_segments(logical)
    return any(n in segs for n in names)


def _basename(logical: str) -> str:
    segs = path_segments(logical)
    return segs[-1] if segs else ""


# ----------------------------------------------------------------------
class NoBareAssert(Rule):
    """``assert`` in library code vanishes under ``python -O``.

    Invariants the correctness proofs rest on must survive optimized
    bytecode; the error taxonomy has :class:`repro.core.errors.InvariantError`
    for exactly this.
    """

    id = "no-bare-assert"
    severity = "error"
    description = "assert statement in library code (stripped under python -O)"
    hint = "raise repro.core.errors.InvariantError (or a specific ReproError)"

    def check(self, sf: SourceFile) -> List[Finding]:
        out = []
        for node in ast.walk(sf.tree):
            if isinstance(node, ast.Assert):
                out.append(
                    sf.finding(
                        self,
                        node,
                        "bare assert in library code: the check disappears "
                        "under 'python -O'",
                    )
                )
        return out


# ----------------------------------------------------------------------
class NoMutableDefault(Rule):
    """Mutable default arguments are shared across calls."""

    id = "no-mutable-default"
    severity = "error"
    description = "mutable default argument (list/dict/set literal or call)"
    hint = "default to None and create the container inside the function"

    _MUTABLE_CALLS = {"list", "dict", "set", "bytearray", "defaultdict", "deque"}

    def _is_mutable(self, node: Optional[ast.AST]) -> bool:
        if node is None:
            return False
        if isinstance(node, (ast.List, ast.Dict, ast.Set,
                             ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in self._MUTABLE_CALLS
        return False

    def check(self, sf: SourceFile) -> List[Finding]:
        out = []
        for node in ast.walk(sf.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            for default in list(args.defaults) + list(args.kw_defaults):
                if self._is_mutable(default):
                    out.append(
                        sf.finding(
                            self,
                            default,
                            "mutable default argument: the same object is "
                            "shared by every call",
                        )
                    )
        return out


# ----------------------------------------------------------------------
class FloatEndpointEquality(Rule):
    """Exact ``==``/``!=`` on interval endpoints outside ``core/interval.py``.

    Endpoints that went through τ/2 shrink/expand arithmetic are floats;
    exact equality on them silently diverges between algorithms. Interval
    identity belongs in :mod:`repro.core.interval`, which owns the
    canonical comparisons.
    """

    id = "float-endpoint-equality"
    severity = "error"
    description = "direct ==/!= on interval endpoints (.lo/.hi) outside core/interval.py"
    hint = "compare whole Intervals, or delegate to helpers in core/interval.py"

    _ENDPOINTS = {"lo", "hi"}

    def applies(self, logical: str) -> bool:
        return not logical.endswith("core/interval.py")

    def _is_endpoint(self, node: ast.AST) -> bool:
        return isinstance(node, ast.Attribute) and node.attr in self._ENDPOINTS

    def _is_infinity(self, node: ast.AST) -> bool:
        # math.inf / -math.inf / float("inf"): equality against an exact
        # sentinel is fine — no arithmetic produced it.
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return self._is_infinity(node.operand)
        if isinstance(node, ast.Attribute) and node.attr == "inf":
            return True
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
            and len(node.args) == 1
            and isinstance(node.args[0], ast.Constant)
            and str(node.args[0].value).lstrip("+-").lower() in ("inf", "infinity")
        ):
            return True
        return False

    def check(self, sf: SourceFile) -> List[Finding]:
        out = []
        for node in ast.walk(sf.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left] + list(node.comparators)
            for i, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                left, right = operands[i], operands[i + 1]
                pair = (left, right)
                if not any(self._is_endpoint(x) for x in pair):
                    continue
                if any(self._is_infinity(x) for x in pair):
                    continue
                out.append(
                    sf.finding(
                        self,
                        node,
                        "exact ==/!= on a computed interval endpoint "
                        "(.lo/.hi): float arithmetic makes this unstable",
                    )
                )
                break
        return out


# ----------------------------------------------------------------------
class ErrorTaxonomy(Rule):
    """Planner/algorithm failures must use the ``repro.core.errors`` types."""

    id = "error-taxonomy"
    severity = "error"
    description = (
        "raise ValueError/Exception in planner/algorithm code instead of a "
        "repro.core.errors type"
    )
    hint = "raise QueryError, PlanError, SchemaError, IntervalError or InvariantError"

    _BANNED = {"ValueError", "Exception", "AssertionError"}
    _DIRS = ("core", "algorithms", "nontemporal", "parallel")

    def applies(self, logical: str) -> bool:
        return _in_dirs(logical, self._DIRS)

    def check(self, sf: SourceFile) -> List[Finding]:
        out = []
        for node in ast.walk(sf.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            target = exc.func if isinstance(exc, ast.Call) else exc
            name = None
            if isinstance(target, ast.Name):
                name = target.id
            elif isinstance(target, ast.Attribute):
                name = target.attr
            if name in self._BANNED:
                out.append(
                    sf.finding(
                        self,
                        node,
                        f"raise {name} in planner/algorithm code: callers "
                        "catch ReproError at API boundaries, so this "
                        "escapes the taxonomy",
                    )
                )
        return out


# ----------------------------------------------------------------------
class Determinism(Rule):
    """No unsorted set iteration on result-producing paths.

    The PR 2 exactly-once sharded merge is a pure concatenation: serial
    and parallel runs agree only if every algorithm emits a deterministic
    row multiset independent of hash seeds. Iterating a ``set`` (or
    ``frozenset``) drives output order off ``PYTHONHASHSEED``.
    """

    id = "determinism"
    severity = "error"
    description = (
        "iteration over a set/frozenset in algorithms/ or parallel/merge.py "
        "(hash-order nondeterminism)"
    )
    hint = "wrap the iterable in sorted(...) or iterate an ordered container"

    def applies(self, logical: str) -> bool:
        segs = path_segments(logical)
        if "algorithms" in segs:
            return True
        return _basename(logical) == "merge.py" and "parallel" in segs

    def _is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in ("set", "frozenset")
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            # Set algebra (a | b, a - b, ...) over set operands.
            return self._is_set_expr(node.left) or self._is_set_expr(node.right)
        return False

    def check(self, sf: SourceFile) -> List[Finding]:
        out = []
        iters: List[ast.AST] = []
        for node in ast.walk(sf.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
        for it in iters:
            if self._is_set_expr(it):
                out.append(
                    sf.finding(
                        self,
                        it,
                        "iterating a set on a result-producing path: order "
                        "depends on PYTHONHASHSEED, breaking serial-vs-"
                        "sharded determinism",
                    )
                )
        return out


# ----------------------------------------------------------------------
class SpawnSafety(Rule):
    """Worker payloads must survive pickling under the ``spawn`` method.

    Lambdas, nested functions and locally-bound callables pickle by
    qualified name — they fail (or silently rebind) when a spawn-started
    worker imports the module fresh. Only module-level functions may flow
    into pool ``submit``/``map`` calls.
    """

    id = "spawn-safety"
    severity = "error"
    description = (
        "lambda/closure/local callable handed to a process-pool "
        "submit/map (unpicklable under spawn)"
    )
    hint = "pass a module-level function (see repro.parallel.worker.run_shard)"

    def _local_callables(self, sf: SourceFile) -> Set[str]:
        local: Set[str] = set()
        for node in ast.walk(sf.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # Function defined inside another function: a closure.
                for inner in ast.walk(node):
                    if inner is node:
                        continue
                    if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        local.add(inner.name)
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Lambda):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        local.add(target.id)
        return local

    def check(self, sf: SourceFile) -> List[Finding]:
        out = []
        local = self._local_callables(sf)
        for node in ast.walk(sf.tree):
            if not is_pool_dispatch(node):
                continue
            payload = node.args[0]
            problem = None
            if isinstance(payload, ast.Lambda):
                problem = "a lambda"
            elif isinstance(payload, ast.Name) and payload.id in local:
                problem = f"locally defined callable {payload.id!r}"
            if problem is not None:
                out.append(
                    sf.finding(
                        self,
                        payload,
                        f"{problem} flows into {node.func.attr}() on a process "
                        "pool: not picklable under the spawn start method",
                    )
                )
        return out


# ----------------------------------------------------------------------
class PairedTracerPhases(Rule):
    """``Tracer.timer`` phases must enter and exit on every path.

    The only statically safe spelling is ``with stats.timer("phase"):``
    — the context manager pairs enter/exit even on exceptions. A bare
    ``.timer(...)`` call (stored, discarded, or manually entered) can
    leave a phase open on an error path, skewing every downstream
    ``phase.*`` aggregate.
    """

    id = "paired-tracer-phases"
    severity = "error"
    description = ".timer(...) used outside a with-statement (phase enter without guaranteed exit)"
    hint = 'use "with stats.timer(\'phase.x\'):" so exit is guaranteed on all paths'

    def check(self, sf: SourceFile) -> List[Finding]:
        out = []
        for node in ast.walk(sf.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (isinstance(func, ast.Attribute) and func.attr == "timer"):
                continue
            parent = getattr(node, "_repro_parent", None)
            if isinstance(parent, ast.withitem) and parent.context_expr is node:
                continue
            # `yield` inside the NullTracer/ExecutionStats definition is
            # a def, not a call; only calls reach here.
            out.append(
                sf.finding(
                    self,
                    node,
                    "tracer phase entered outside a with-statement: the "
                    "matching exit is not guaranteed on all paths",
                )
            )
        return out


# ----------------------------------------------------------------------
class TelemetryOnTest(Rule):
    """No code asks whether telemetry is on.

    Below the entry points ``stats`` is always a tracer
    (:data:`~repro.obs.NULL_TRACER` when the caller passed none), so
    testing ``stats``, ``_stats``, ``st`` or ``tracer`` (bare or as an
    attribute) against ``None`` splits a route into a traced and an
    untraced copy. Allowed: a function's first statement normalizing
    what a caller passed, ``stats = NULL_TRACER if stats is None else
    stats`` (or another default).
    """

    id = "telemetry-on-test"
    severity = "error"
    description = "`stats is (not) None` test outside a first-line normalization"
    hint = (
        "record unconditionally into the tracer; normalize an optional "
        "`stats` once, as the function's first statement"
    )

    NAMES = frozenset({"stats", "_stats", "st", "tracer"})

    def _telemetry(self, node: ast.AST) -> bool:
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        return name in self.NAMES

    def check(self, sf: SourceFile) -> List[Finding]:
        allowed = set()
        for func in ast.walk(sf.tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                body = func.body[1:] if ast.get_docstring(func) is not None else func.body
                if body and isinstance(body[0], ast.Assign) and isinstance(
                    body[0].value, ast.IfExp
                ):
                    allowed.add(id(body[0].value.test))
        out = []
        for node in ast.walk(sf.tree):
            if not isinstance(node, ast.Compare) or id(node) in allowed:
                continue
            operands = (node.left, *node.comparators)
            if (
                len(node.ops) == 1
                and isinstance(node.ops[0], (ast.Is, ast.IsNot))
                and any(isinstance(o, ast.Constant) and o.value is None for o in operands)
                and any(self._telemetry(o) for o in operands)
            ):
                out.append(
                    sf.finding(
                        self,
                        node,
                        "telemetry tested against None: record into the tracer "
                        "instead of branching on whether telemetry is on",
                    )
                )
        return out


# ----------------------------------------------------------------------
class StatsContract(Rule):
    """Registered algorithms must honor the dispatch-layer contract.

    Every function registered in ``algorithms/registry.py`` must accept
    ``stats=`` (the telemetry hook every caller may pass) and must *not*
    declare parameters named in ``EXECUTOR_KWARGS`` — those are consumed
    by the dispatch layer before the algorithm runs, so a same-named
    parameter would silently never receive the caller's value.
    """

    id = "stats-contract"
    severity = "error"
    description = (
        "registered algorithm missing stats= or shadowing an EXECUTOR_KWARGS name"
    )
    hint = "add a stats=None parameter; rename parameters colliding with EXECUTOR_KWARGS"

    def applies(self, logical: str) -> bool:
        return _basename(logical) == "registry.py"

    # -- helpers -------------------------------------------------------
    def _registered(self, sf: SourceFile) -> List[Tuple[str, str, ast.AST]]:
        """``(registered_name, function_name, node)`` triples."""
        out = []
        for node in ast.walk(sf.tree):
            # _REGISTRY.setdefault("name", fn)
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "setdefault"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id.endswith("REGISTRY")
                and len(node.args) == 2
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[1], ast.Name)
            ):
                out.append((str(node.args[0].value), node.args[1].id, node))
            # _REGISTRY["name"] = fn
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Subscript)
                and isinstance(node.targets[0].value, ast.Name)
                and node.targets[0].value.id.endswith("REGISTRY")
                and isinstance(node.value, ast.Name)
            ):
                key = node.targets[0].slice
                if isinstance(key, ast.Constant):
                    out.append((str(key.value), node.value.id, node))
        return out

    def _executor_kwargs(self, sf: SourceFile) -> Set[str]:
        for node in ast.walk(sf.tree):
            if not isinstance(node, ast.Assign):
                continue
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            if "EXECUTOR_KWARGS" not in targets:
                continue
            value = node.value
            if isinstance(value, ast.Call) and value.args:
                value = value.args[0]
            if isinstance(value, (ast.Set, ast.List, ast.Tuple)):
                return {
                    str(e.value)
                    for e in value.elts
                    if isinstance(e, ast.Constant)
                }
        return set(_DEFAULT_EXECUTOR_KWARGS)

    def _local_defs(self, sf: SourceFile) -> Dict[str, ast.FunctionDef]:
        return {
            node.name: node
            for node in ast.walk(sf.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }

    def _imported_def(
        self, sf: SourceFile, func_name: str
    ) -> Optional[Tuple[str, ast.FunctionDef]]:
        """Resolve ``from .mod import func`` to the def in the sibling file."""
        if sf.fs_path is None:
            return None
        base = os.path.dirname(sf.fs_path)
        for node in ast.walk(sf.tree):
            if not isinstance(node, ast.ImportFrom) or node.module is None:
                continue
            for alias in node.names:
                if (alias.asname or alias.name) != func_name:
                    continue
                rel = node.module.split(".")
                target_dir = base
                for _ in range(max(0, node.level - 1)):
                    target_dir = os.path.dirname(target_dir)
                candidate = os.path.join(target_dir, *rel) + ".py"
                if not os.path.isfile(candidate):
                    continue
                try:
                    with open(candidate, "r") as handle:
                        tree = ast.parse(handle.read(), filename=candidate)
                except (OSError, SyntaxError):
                    return None
                for sub in ast.walk(tree):
                    if (
                        isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and sub.name == alias.name
                    ):
                        return candidate, sub
        return None

    # -- the check -----------------------------------------------------
    def check(self, sf: SourceFile) -> List[Finding]:
        out = []
        executor_kwargs = self._executor_kwargs(sf)
        local_defs = self._local_defs(sf)
        for reg_name, func_name, node in self._registered(sf):
            where = sf.logical
            fdef = local_defs.get(func_name)
            if fdef is None:
                resolved = self._imported_def(sf, func_name)
                if resolved is None:
                    continue  # unresolvable import: out of this file's scope
                where, fdef = resolved
            args = fdef.args
            names = [
                a.arg
                for a in (
                    list(getattr(args, "posonlyargs", []))
                    + list(args.args)
                    + list(args.kwonlyargs)
                )
            ]
            if "stats" not in names and args.kwarg is None:
                out.append(
                    sf.finding(
                        self,
                        node,
                        f"algorithm {reg_name!r} ({func_name} in {where}) "
                        "does not accept stats=: telemetry calls would "
                        "raise TypeError",
                    )
                )
            shadowed = sorted(set(names) & executor_kwargs)
            if shadowed:
                out.append(
                    sf.finding(
                        self,
                        node,
                        f"algorithm {reg_name!r} ({func_name} in {where}) "
                        f"declares dispatch-layer kwargs {shadowed}: the "
                        "dispatcher consumes these before the algorithm "
                        "runs, so the parameter would never be bound",
                    )
                )
        return out


# ----------------------------------------------------------------------
class KernelNoObjectRows(Rule):
    """Kernel hot loops must stay on interned integer columns.

    The whole point of :mod:`repro.kernels` is that sweep/maintenance
    loops never touch ``(values, Interval)`` object rows — only
    ``columns.py`` (the boundary that interns on the way in and
    de-interns on the way out) may. A ``.rows`` / ``._rows`` access
    inside a loop reintroduces per-event object traffic and silently
    erodes the engine's measured speedup.
    """

    id = "kernel-no-object-rows"
    severity = "error"
    description = (
        "object-row access (.rows/._rows in a loop) inside "
        "src/repro/kernels/ outside columns.py"
    )
    hint = (
        "consume KernelColumns arrays (row_values/row_lo/row_hi/"
        "event_codes); object rows cross only through columns.py"
    )

    _ROW_ATTRS = {"rows", "_rows"}
    _LOOPS = (ast.For, ast.AsyncFor, ast.While,
              ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)

    def applies(self, logical: str) -> bool:
        return _in_dirs(logical, ("kernels",)) and _basename(logical) != "columns.py"

    def check(self, sf: SourceFile) -> List[Finding]:
        out = []
        seen: Set[int] = set()
        for node in ast.walk(sf.tree):
            if not isinstance(node, self._LOOPS):
                continue
            for sub in ast.walk(node):
                if (
                    isinstance(sub, ast.Attribute)
                    and sub.attr in self._ROW_ATTRS
                    and id(sub) not in seen  # nested loops walk twice
                ):
                    seen.add(id(sub))
                    out.append(
                        sf.finding(
                            self,
                            sub,
                            f".{sub.attr} object-row access in a kernel hot "
                            "loop: per-row objects belong behind the "
                            "columns.py intern/de-intern boundary",
                        )
                    )
        return out


# ----------------------------------------------------------------------
class CheckedIntervalInLoop(Rule):
    """Sweep-state loops intersect plain endpoints, not checked intervals.

    Theorem 6 bounds hierarchical TIMEFIRST by ``O(N log N + K)``, so on
    output-heavy joins the constant per result row decides the speed. A
    checked ``Interval(...)``, an ``.intersect(...)`` or an
    ``Interval.always()`` inside an enumeration loop validates and
    allocates once per partial combination; the sweep states carry
    ``(lo, hi)`` numbers instead and build one interval per emitted row
    (unchecked, ``Interval._fast``). ``nontemporal/yannakakis.py`` is in
    scope too: the GHD sweep state runs it over the bags of cyclic
    queries at every expiry. The ``naive`` oracle is out of scope: it
    keeps the checked arithmetic so it stays independent.
    """

    id = "checked-interval-in-loop"
    severity = "error"
    description = (
        "Interval(...), .intersect(...) or Interval.always() inside a loop "
        "in a sweep-state module"
    )
    hint = (
        "intersect on endpoint numbers in the loop (keep max/min argument "
        "order) and build the row's interval once with Interval._fast; "
        "hoist Interval.always() out of the loop"
    )

    _ALGORITHM_MODULES = {
        "generic_state.py", "hybrid.py", "hybrid_interval.py",
    }
    _LOOPS = KernelNoObjectRows._LOOPS

    def applies(self, logical: str) -> bool:
        base = _basename(logical)
        if _in_dirs(logical, ("kernels",)):
            return True
        if _in_dirs(logical, ("nontemporal",)):
            return base == "yannakakis.py"
        return _in_dirs(logical, ("algorithms",)) and (
            base in self._ALGORITHM_MODULES or base.startswith("hierarchical")
        )

    @staticmethod
    def _checked_call(node: ast.Call) -> Optional[str]:
        func = node.func
        if isinstance(func, ast.Name) and func.id == "Interval":
            return "Interval(...) validates every interval it builds"
        if not isinstance(func, ast.Attribute):
            return None
        if func.attr == "intersect":
            return ".intersect(...) builds a checked Interval per call"
        if (
            func.attr == "always"
            and isinstance(func.value, ast.Name)
            and func.value.id == "Interval"
        ):
            return "Interval.always() is loop-invariant"
        return None

    def check(self, sf: SourceFile) -> List[Finding]:
        out = []
        seen: Set[int] = set()
        for node in ast.walk(sf.tree):
            if not isinstance(node, self._LOOPS):
                continue
            for sub in ast.walk(node):
                if not isinstance(sub, ast.Call) or id(sub) in seen:
                    continue
                why = self._checked_call(sub)
                if why is None:
                    continue
                seen.add(id(sub))  # nested loops walk twice
                out.append(
                    sf.finding(
                        self,
                        sub,
                        f"{why} inside a sweep-state loop: intersect on "
                        "(lo, hi) numbers and build one interval per row",
                    )
                )
        return out


# ----------------------------------------------------------------------
class UnusedImport(Rule):
    """An imported name the module never reads (ruff's F401, stdlib-only).

    Lets ``make analyze`` catch what CI's ``ruff`` lint job checks, also
    where ruff is not installed. A name listed in ``__all__`` is a
    re-export, and names inside quoted annotations count as reads.
    ``__future__`` and star imports are never findings.
    """

    id = "unused-import"
    severity = "error"
    description = "imported name never used in the module"
    hint = "delete the import, or list a deliberate re-export in __all__"

    @staticmethod
    def _reads(tree: ast.Module) -> Set[str]:
        reads: Set[str] = set()
        quoted: List[ast.AST] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                reads.add(node.id)
            elif isinstance(node, ast.arg) and node.annotation is not None:
                quoted.append(node.annotation)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
                quoted.append(node.returns)
            elif isinstance(node, ast.AnnAssign):
                quoted.append(node.annotation)
            elif (
                isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))
            ):
                reads.update(
                    e.value for e in node.value.elts if isinstance(e, ast.Constant)
                )
        for annotation in quoted:
            for sub in ast.walk(annotation):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    try:
                        parsed = ast.parse(sub.value, mode="eval")
                    except SyntaxError:
                        continue
                    reads.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
        return reads

    def check(self, sf: SourceFile) -> List[Finding]:
        reads = self._reads(sf.tree)
        out = []
        for node in ast.walk(sf.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if alias.name != "*" and bound not in reads:
                    out.append(
                        sf.finding(self, node, f"{bound!r} is imported but never used")
                    )
        return out


# ----------------------------------------------------------------------
def default_rules() -> List[Rule]:
    """The registered rule set, in reporting order."""
    return [
        NoBareAssert(),
        NoMutableDefault(),
        FloatEndpointEquality(),
        ErrorTaxonomy(),
        Determinism(),
        SpawnSafety(),
        PairedTracerPhases(),
        TelemetryOnTest(),
        StatsContract(),
        KernelNoObjectRows(),
        CheckedIntervalInLoop(),
        UnusedImport(),
    ]
