"""Whole-project model for flow/interprocedural lint rules.

The flow rules in :mod:`repro.analysis.flow_rules` need facts that span
files: which module-level symbols exist, what every import resolves to,
which counter names each module emits, where process-pool payloads come
from, and which shard results skip the ownership filter. Re-deriving all
of that from raw ASTs on every run would defeat the incremental cache,
so the model is built from **per-file summaries**:

* :func:`summarize_file` distills one parsed
  :class:`~repro.analysis.engine.SourceFile` into a JSON-serializable
  :class:`FileSummary` — symbols, imports, constants, harvested counter
  names, stats-threading call facts (every call that does not forward
  ``stats`` in a function holding it), pool-submission payloads, and
  ownership-filter facts. Each harvest reads the function's AST
  directly and is lexical and flow-insensitive: it looks at every
  binding and every statement of a function, reachable or not, so it
  can only be stricter than a path-sensitive check;
* :class:`ProjectModel` aggregates the summaries, maps logical paths to
  dotted module names, and resolves names across import chains
  (following re-exports through ``__init__`` modules), giving the rules
  an approximate call/symbol graph over ``src/repro``.

Because summaries are plain data, the cache stores them verbatim: a
warm run rebuilds the project model (cheap dict work) without parsing a
single unchanged file.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

#: Tracer recording methods whose first argument is a counter name.
COUNTER_METHODS = ("incr", "peak", "observe", "timer", "add_time", "note")

#: Pool dispatch methods (mirrors the node-level spawn-safety rule).
POOL_DISPATCH = frozenset({
    "submit", "map", "starmap", "apply", "apply_async",
    "map_async", "starmap_async", "imap", "imap_unordered",
})


# ----------------------------------------------------------------------
# Module names
# ----------------------------------------------------------------------
def module_name_for(logical: str) -> Optional[str]:
    """Dotted module name for a logical path, or ``None`` if non-package.

    ``src/repro/parallel/worker.py`` → ``repro.parallel.worker``;
    ``src/repro/kernels/__init__.py`` → ``repro.kernels``.
    """
    parts = [p for p in logical.split("/") if p]
    if not parts or not parts[-1].endswith(".py"):
        return None
    if parts[0] == "src":
        parts = parts[1:]
    if not parts:
        return None
    parts[-1] = parts[-1][: -len(".py")]
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) if parts else None


# ----------------------------------------------------------------------
# Summary dataclass
# ----------------------------------------------------------------------
@dataclass
class FileSummary:
    """Everything the project-level rules need from one file."""

    logical: str
    module: Optional[str] = None
    is_package: bool = False
    #: Module-level symbols: name -> {kind, line, accepts_stats}
    defs: Dict[str, Dict] = field(default_factory=dict)
    #: Import bindings: local name -> {module, name, line}; ``name`` is
    #: None for plain ``import module [as alias]`` bindings.
    imports: Dict[str, Dict] = field(default_factory=dict)
    #: Module-level string constants (counter-prefix building blocks).
    constants: Dict[str, str] = field(default_factory=dict)
    #: Counter/timer/note emissions: {name, kind, line, col, resolved}.
    counters: List[Dict] = field(default_factory=list)
    #: Calls made while ``stats`` may be non-None, without forwarding it.
    stats_calls: List[Dict] = field(default_factory=list)
    #: Process-pool submissions: payload + task-constructor provenance.
    pool_submits: List[Dict] = field(default_factory=list)
    #: Ownership-filter violations found by the per-function analysis.
    ownership: List[Dict] = field(default_factory=list)
    #: Names bound only inside functions (closures / local lambdas).
    local_callables: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict:
        return {
            "logical": self.logical,
            "module": self.module,
            "is_package": self.is_package,
            "defs": self.defs,
            "imports": self.imports,
            "constants": self.constants,
            "counters": self.counters,
            "stats_calls": self.stats_calls,
            "pool_submits": self.pool_submits,
            "ownership": self.ownership,
            "local_callables": self.local_callables,
        }

    @staticmethod
    def from_dict(data: Dict) -> "FileSummary":
        return FileSummary(
            logical=data["logical"],
            module=data.get("module"),
            is_package=bool(data.get("is_package")),
            defs=dict(data.get("defs", {})),
            imports=dict(data.get("imports", {})),
            constants=dict(data.get("constants", {})),
            counters=list(data.get("counters", [])),
            stats_calls=list(data.get("stats_calls", [])),
            pool_submits=list(data.get("pool_submits", [])),
            ownership=list(data.get("ownership", [])),
            local_callables=list(data.get("local_callables", [])),
        )


# ----------------------------------------------------------------------
# Expression helpers
# ----------------------------------------------------------------------
def _params_of(node) -> List[str]:
    args = node.args
    return [
        a.arg
        for a in (
            list(getattr(args, "posonlyargs", []))
            + list(args.args)
            + list(args.kwonlyargs)
        )
    ]


def _accepts_stats(node) -> bool:
    # An explicit `stats` parameter only: a bare ``**kwargs`` callee
    # technically accepts ``stats=`` but gives no signal it uses it.
    return "stats" in _params_of(node)


def _resolve_name_expr(node: ast.AST, constants: Dict[str, str]) -> Optional[str]:
    """Static string value of a counter-name expression.

    Handles literals, ``+`` concatenation, module-level constants and
    f-strings — formatted fields become a ``*`` wildcard, matching the
    glossary's ``NN`` placeholder convention.
    """
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.Name):
        return constants.get(node.id)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        left = _resolve_name_expr(node.left, constants)
        right = _resolve_name_expr(node.right, constants)
        if left is not None and right is not None:
            return left + right
        return None
    if isinstance(node, ast.JoinedStr):
        parts = []
        for value in node.values:
            if isinstance(value, ast.Constant):
                parts.append(str(value.value))
            elif isinstance(value, ast.FormattedValue):
                parts.append("*")
            else:
                return None
        return "".join(parts)
    return None


def _mentions_name(node: ast.AST, name: str) -> bool:
    """Does ``node`` reference ``name`` as a variable or attribute?

    ``self.stats`` counts as mentioning ``stats`` — forwarding a stored
    copy of the telemetry bag satisfies the threading contract just as
    well as forwarding the parameter itself.
    """
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id == name:
            return True
        if isinstance(sub, ast.Attribute) and sub.attr == name:
            return True
    return False


def _callee_label(func: ast.AST) -> Optional[str]:
    """``"name"`` or ``"alias.attr"`` for resolvable callees, else None."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return f"{func.value.id}.{func.attr}"
    return None


def _stmt_header_exprs(stmt: ast.AST) -> List[ast.AST]:
    """Expressions evaluated *at* ``stmt`` (not in nested blocks)."""
    if isinstance(stmt, ast.If):
        return [stmt.test]
    if isinstance(stmt, ast.While):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.target, stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return list(stmt.items)
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return []
    if isinstance(stmt, ast.Try) or isinstance(stmt, ast.ExceptHandler):
        return []
    return [stmt]


def _calls_at(stmt: ast.AST) -> List[ast.Call]:
    out = []
    for expr in _stmt_header_exprs(stmt):
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Call):
                out.append(sub)
    return out


# ----------------------------------------------------------------------
# Ownership-filter recognition
# ----------------------------------------------------------------------
def _is_owner_call(node: ast.AST) -> bool:
    """A call to the partition ownership function over a right endpoint."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = None
    if isinstance(func, ast.Name):
        name = func.id
    elif isinstance(func, ast.Attribute):
        name = func.attr
    if name is None or "owner" not in name.lower():
        return False
    # Right-endpoint contract: the probed instant must be a `.hi`.
    return any(
        isinstance(sub, ast.Attribute) and sub.attr == "hi"
        for arg in node.args
        for sub in ast.walk(arg)
    )


def _owner_compare_kind(test: ast.AST) -> Optional[str]:
    """``"eq"``/``"neq"`` when ``test`` compares owner(…hi…) to a shard."""
    if not isinstance(test, ast.Compare) or len(test.ops) != 1:
        return None
    left, right = test.left, test.comparators[0]
    pair = (left, right)
    if not any(_is_owner_call(x) for x in pair):
        return None
    other = right if _is_owner_call(left) else left
    if not _mentions_shard(other):
        return None
    if isinstance(test.ops[0], ast.Eq):
        return "eq"
    if isinstance(test.ops[0], ast.NotEq):
        return "neq"
    return None


def _mentions_shard(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and "shard" in sub.id.lower():
            return True
        if isinstance(sub, ast.Attribute) and "shard" in sub.attr.lower():
            return True
    return False


def _is_filtered_expr(node: ast.AST) -> bool:
    """A comprehension whose filters include the ownership check."""
    if isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.SetComp)):
        for gen in node.generators:
            for cond in gen.ifs:
                if _owner_compare_kind(cond) == "eq":
                    return True
    return False


def _key_shard_test(test: ast.AST) -> Optional[str]:
    """``"is"``/``"isnot"`` when ``test`` compares a shard's ``cuts`` to None.

    A shard task without time cuts is a key shard: the parent split the
    rows on an attribute every relation shares, so no other shard can
    derive any of its results and it needs no ownership filter.
    """
    if not isinstance(test, ast.Compare) or len(test.ops) != 1:
        return None
    left, right = test.left, test.comparators[0]
    if not (isinstance(right, ast.Constant) and right.value is None):
        return None
    name = left.id if isinstance(left, ast.Name) else getattr(left, "attr", None)
    if name != "cuts":
        return None
    if isinstance(test.ops[0], ast.Is):
        return "is"
    if isinstance(test.ops[0], ast.IsNot):
        return "isnot"
    return None


def _is_empty_literal(node: ast.AST) -> bool:
    return isinstance(node, (ast.List, ast.Tuple)) and not node.elts


# ----------------------------------------------------------------------
# Per-function AST walks for the summarizer
# ----------------------------------------------------------------------
_NESTED_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _walk(
    body: Sequence[ast.stmt], key: bool = False, owned: bool = False
) -> Iterator[Tuple[ast.stmt, bool, bool]]:
    """``(stmt, key_shard, owner_guarded)`` for every statement in ``body``.

    Nested ``def``/``class`` bodies are not entered. ``key_shard`` holds
    inside the true arm of ``if <x>.cuts is None`` and the false arm of
    ``if <x>.cuts is not None``. ``owner_guarded`` holds inside the true
    arm of ``if owner(….hi) == shard``, and after an
    ``if owner(….hi) != shard: continue`` for the rest of its block. A
    loop body starts unguarded: one row's check does not cover the next.
    """
    for stmt in body:
        yield stmt, key, owned
        if isinstance(stmt, ast.If):
            cuts = _key_shard_test(stmt.test)
            cmp = _owner_compare_kind(stmt.test)
            yield from _walk(stmt.body, key or cuts == "is", owned or cmp == "eq")
            yield from _walk(stmt.orelse, key or cuts == "isnot", owned or cmp == "neq")
            if cmp == "neq" and isinstance(stmt.body[-1], ast.Continue):
                owned = True
        elif isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
            yield from _walk(stmt.body + stmt.orelse, key, False)
        elif not isinstance(stmt, _NESTED_SCOPES):
            blocks = [getattr(stmt, "body", [])]
            blocks += [handler.body for handler in getattr(stmt, "handlers", [])]
            blocks += [getattr(stmt, "orelse", []), getattr(stmt, "finalbody", [])]
            for block in blocks:
                yield from _walk(block, key, owned)


def _bindings(func, name: str) -> List[Tuple[Optional[ast.AST], bool]]:
    """``(value, key_shard)`` for every binding of ``name`` in ``func``.

    ``value`` is the right-hand side of a plain ``name = value``. Any
    other binding (a parameter, unpacking, a loop or ``with`` target, an
    augmented or ``:=`` assignment, ``except … as``, ``def``, import)
    has value ``None``.
    """
    out: List[Tuple[Optional[ast.AST], bool]] = []
    if name in _params_of(func):
        out.append((None, False))
    for stmt, key, _ in _walk(func.body):
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = getattr(stmt, "targets", None) or [stmt.target]
            if any(isinstance(t, ast.Name) and t.id == name for t in targets):
                if stmt.value is not None:  # a bare annotation binds nothing
                    out.append((stmt.value, key))
                continue
        if isinstance(stmt, _NESTED_SCOPES):
            bound = [stmt.name]
        elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
            bound = [(a.asname or a.name).split(".")[0] for a in stmt.names]
        elif isinstance(stmt, ast.Try):
            bound = [handler.name for handler in stmt.handlers]
        else:
            bound = [
                sub.id
                for expr in _stmt_header_exprs(stmt)
                for sub in ast.walk(expr)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store)
            ]
        if name in bound:
            out.append((None, key))
    return out


def _function_nodes(tree: ast.Module):
    """Top-level functions and methods (not nested functions)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield sub


def _uses_stats_var(func) -> bool:
    if "stats" in _params_of(func):
        return True
    return any(
        isinstance(sub, ast.Name) and sub.id == "stats"
        for sub in ast.walk(func)
    )


def _carries_owned_rows(func, node: ast.AST) -> bool:
    """Does ``node``, passed to a shard-result sink in ``func``, hold only owned rows?

    Every binding of a name must take one of three lexical shapes: an
    ownership-filtered comprehension; an assignment inside a key-shard
    arm (``cuts is None``); or an empty list whose every ``.append`` /
    ``.extend`` sits in a key-shard arm or behind an ownership guard
    (see :func:`_walk`).
    """
    if _is_filtered_expr(node) or _is_empty_literal(node):
        return True
    if not isinstance(node, ast.Name):
        return False
    bindings = _bindings(func, node.id)
    if not bindings or not all(
        key or (value is not None and (_is_filtered_expr(value) or _is_empty_literal(value)))
        for value, key in bindings
    ):
        return False
    return all(
        key or guarded
        for stmt, key, guarded in _walk(func.body)
        for call in _calls_at(stmt)
        if isinstance(call.func, ast.Attribute)
        and call.func.attr in ("append", "extend")
        and isinstance(call.func.value, ast.Name)
        and call.func.value.id == node.id
    )


# ----------------------------------------------------------------------
# The summarizer
# ----------------------------------------------------------------------
def summarize_file(sf) -> FileSummary:
    """Distill one parsed source file into a :class:`FileSummary`."""
    tree = sf.tree
    logical = sf.logical
    summary = FileSummary(
        logical=logical,
        module=module_name_for(logical),
        is_package=logical.endswith("/__init__.py"),
    )

    _harvest_symbols(tree, summary)
    _harvest_counters(tree, summary)

    for func in _function_nodes(tree):
        if _uses_stats_var(func):
            _harvest_stats_calls(func, summary)
        _harvest_ownership(func, summary, logical)
    _harvest_pool_submits(tree, summary)
    return summary


# -- symbols ----------------------------------------------------------
def _harvest_symbols(tree: ast.Module, summary: FileSummary) -> None:
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            summary.defs[node.name] = {
                "kind": "func",
                "line": node.lineno,
                "accepts_stats": _accepts_stats(node),
            }
        elif isinstance(node, ast.ClassDef):
            init = next(
                (
                    sub
                    for sub in node.body
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and sub.name == "__init__"
                ),
                None,
            )
            accepts = _accepts_stats(init) if init is not None else _dataclass_has_stats(node)
            summary.defs[node.name] = {
                "kind": "class",
                "line": node.lineno,
                "accepts_stats": accepts,
            }
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Lambda):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    summary.defs[target.id] = {
                        "kind": "lambda",
                        "line": node.lineno,
                        "accepts_stats": False,
                    }
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if (
                    isinstance(target, ast.Name)
                    and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, str)
                ):
                    summary.constants[target.id] = node.value.value

    module = summary.module or ""
    package_parts = module.split(".") if module else []
    if not summary.is_package and package_parts:
        package_parts = package_parts[:-1]
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                summary.imports[(alias.asname or alias.name).split(".")[0]] = {
                    "module": alias.name,
                    "name": None,
                    "line": node.lineno,
                }
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                base = (node.module or "").split(".")
            else:
                base = list(package_parts)
                for _ in range(node.level - 1):
                    base = base[:-1] if base else base
                if node.module:
                    base = base + node.module.split(".")
            target = ".".join(p for p in base if p)
            for alias in node.names:
                if alias.name == "*":
                    continue
                summary.imports[alias.asname or alias.name] = {
                    "module": target,
                    "name": alias.name,
                    "line": node.lineno,
                }

    # Closures and lambdas bound inside functions (spawn-unsafe payloads).
    local: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                if inner is node:
                    continue
                if isinstance(
                    inner, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    local.add(inner.name)
                elif isinstance(inner, ast.Assign) and isinstance(inner.value, ast.Lambda):
                    for target in inner.targets:
                        if isinstance(target, ast.Name):
                            local.add(target.id)
    summary.local_callables = sorted(local - set(summary.defs))


def _dataclass_has_stats(node: ast.ClassDef) -> bool:
    """Dataclass field scan: an annotated ``stats`` field is a parameter."""
    has_decorator = any(
        (isinstance(d, ast.Name) and d.id == "dataclass")
        or (isinstance(d, ast.Attribute) and d.attr == "dataclass")
        or (
            isinstance(d, ast.Call)
            and isinstance(d.func, (ast.Name, ast.Attribute))
            and (getattr(d.func, "id", None) == "dataclass" or getattr(d.func, "attr", None) == "dataclass")
        )
        for d in node.decorator_list
    )
    if not has_decorator:
        return False
    return any(
        isinstance(sub, ast.AnnAssign)
        and isinstance(sub.target, ast.Name)
        and sub.target.id == "stats"
        for sub in node.body
    )


# -- counters ---------------------------------------------------------
def _harvest_counters(tree: ast.Module, summary: FileSummary) -> None:
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr in COUNTER_METHODS):
            continue
        if not node.args:
            continue  # e.g. Timeline.peak() — not a tracer call
        name = _resolve_name_expr(node.args[0], summary.constants)
        if name is None and not (
            isinstance(node.args[0], (ast.Constant, ast.Name, ast.BinOp, ast.JoinedStr))
        ):
            continue  # first arg is clearly not a name expression
        summary.counters.append(
            {
                "name": name,
                "kind": func.attr,
                "line": node.lineno,
                "col": node.col_offset,
                "resolved": name is not None,
            }
        )


# -- stats threading --------------------------------------------------
def _harvest_stats_calls(func, summary: FileSummary) -> None:
    """Every call in ``func`` (which holds ``stats``) not forwarding it.

    ``stats`` is a tracer on every path below the entry points, so no
    path is exempt; whether the callee takes ``stats=`` is resolved
    project-wide by the rule.
    """
    for stmt, _, _ in _walk(func.body):
        for call in _calls_at(stmt):
            label = _callee_label(call.func)
            if label is None:
                continue
            forwards = any(
                _mentions_name(arg, "stats") for arg in call.args
            ) or any(
                kw.value is not None and _mentions_name(kw.value, "stats")
                for kw in call.keywords
            )
            star_kwargs = any(kw.arg is None for kw in call.keywords)
            if forwards or star_kwargs:
                continue
            summary.stats_calls.append(
                {
                    "func": func.name,
                    "callee": label,
                    "line": call.lineno,
                    "col": call.col_offset,
                }
            )


# -- pool submissions -------------------------------------------------
def _pool_like(node: ast.AST) -> bool:
    name = None
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.Call):
        return _pool_like(node.func)
    if name is None:
        return False
    lowered = name.lower()
    return "pool" in lowered or "executor" in lowered


def is_pool_dispatch(node: ast.AST) -> bool:
    """A ``submit``/``map``-style call on a pool-like receiver with a payload.

    The one recognizer behind both spawn rules: the node rule
    ``spawn-safety`` and the flow rule ``spawn-ships-module-level``.
    """
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in POOL_DISPATCH
        and _pool_like(node.func.value)
        and bool(node.args)
    )


def _classify_payload(node: ast.AST, summary: FileSummary) -> Dict:
    if isinstance(node, ast.Lambda):
        return {"kind": "lambda"}
    if isinstance(node, ast.Name):
        if node.id in summary.local_callables:
            return {"kind": "local", "name": node.id}
        if node.id in summary.defs:
            return {"kind": "module-def", "name": node.id}
        if node.id in summary.imports:
            return {"kind": "import", "name": node.id}
        return {"kind": "unknown", "name": node.id}
    if isinstance(node, ast.Attribute):
        if isinstance(node.value, ast.Name):
            receiver = node.value.id
            imp = summary.imports.get(receiver)
            if imp is not None and imp["name"] is None:
                return {
                    "kind": "module-attr",
                    "alias": receiver,
                    "attr": node.attr,
                }
            return {"kind": "bound-method", "receiver": receiver, "attr": node.attr}
        return {"kind": "bound-method", "receiver": "<expression>", "attr": node.attr}
    return {"kind": "other"}


def _constructor_names(value: ast.AST) -> List[str]:
    """Class names instantiated by a list/generator task expression."""
    out = []
    elts: List[ast.AST] = []
    if isinstance(value, (ast.ListComp, ast.GeneratorExp, ast.SetComp)):
        elts = [value.elt]
    elif isinstance(value, (ast.List, ast.Tuple)):
        elts = list(value.elts)
    for elt in elts:
        if isinstance(elt, ast.Call) and isinstance(elt.func, ast.Name):
            out.append(elt.func.id)
    return out


def _harvest_pool_submits(tree: ast.Module, summary: FileSummary) -> None:
    """Every pool dispatch, with the task constructors its arguments name.

    A task-list argument that is a name is chased through every binding
    of that name in the dispatching function; a parameter names none.
    """
    enclosing = {
        id(node): func for func in _function_nodes(tree) for node in ast.walk(func)
    }
    for node in ast.walk(tree):
        if not is_pool_dispatch(node):
            continue
        func = enclosing.get(id(node))
        ctors: List[Dict] = []
        for arg in node.args[1:]:
            names: List[str] = list(_constructor_names(arg))
            if isinstance(arg, ast.Name) and func is not None:
                for value, _ in _bindings(func, arg.id):
                    if value is not None:
                        names.extend(_constructor_names(value))
            for ctor in names:
                ctors.append(_classify_payload(ast.Name(id=ctor), summary))
        summary.pool_submits.append(
            {
                "line": node.lineno,
                "col": node.col_offset,
                "method": node.func.attr,
                "payload": _classify_payload(node.args[0], summary),
                "task_ctors": ctors,
            }
        )


# -- ownership --------------------------------------------------------
#: Constructors whose row payloads feed the exactly-once concatenation.
OUTCOME_SINKS = {
    "ShardOutcome": ("rows",),
}


def _harvest_ownership(func, summary: FileSummary, logical: str) -> None:
    sinks: List[Tuple[ast.AST, ast.AST, str]] = []  # (value, anchor, label)
    for node in ast.walk(func):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            fields = OUTCOME_SINKS.get(node.func.id)
            if fields:
                for kw in node.keywords:
                    if kw.arg in fields:
                        sinks.append(
                            (kw.value, node, f"{node.func.id}({kw.arg}=...)")
                        )
    for value, anchor, label in sinks:
        if not _carries_owned_rows(func, value):
            summary.ownership.append(
                {
                    "line": anchor.lineno,
                    "col": anchor.col_offset,
                    "detail": (
                        f"{label} in {func.name}(): a shard-result value "
                        "reaches the exactly-once merge, but not every binding "
                        "of it passes the right-endpoint ownership filter or "
                        "sits in a key-shard (`cuts is None`) arm"
                    ),
                }
            )

    if logical.endswith("parallel/merge.py"):
        for node in ast.walk(func):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "extend"
                and node.args
            ):
                continue
            arg = node.args[0]
            ok = (
                isinstance(arg, ast.Attribute) and arg.attr == "rows"
            ) or _is_filtered_expr(arg)
            if not ok:
                summary.ownership.append(
                    {
                        "line": node.lineno,
                        "col": node.col_offset,
                        "detail": (
                            "merge concatenation consumes something other "
                            "than the ownership-filtered shard rows (.rows)"
                        ),
                    }
                )


# ----------------------------------------------------------------------
# The project model
# ----------------------------------------------------------------------
class ProjectModel:
    """Summaries + cross-file name resolution for the flow rules."""

    def __init__(
        self,
        summaries: Dict[str, FileSummary],
        design_text: Optional[str] = None,
        design_path: str = "DESIGN.md",
    ) -> None:
        self.summaries = summaries
        self.design_text = design_text
        self.design_path = design_path
        self.by_module: Dict[str, FileSummary] = {}
        for summary in summaries.values():
            if summary.module:
                self.by_module[summary.module] = summary

    # ------------------------------------------------------------------
    def files(self) -> Sequence[FileSummary]:
        return [self.summaries[k] for k in sorted(self.summaries)]

    def resolve(
        self, module: str, name: str, _seen: Optional[Set[Tuple[str, str]]] = None
    ) -> Optional[Tuple[str, Dict]]:
        """Chase ``module.name`` through defs and import re-exports.

        Returns ``(defining_module, def_record)`` for names that land on
        a module-level definition inside the project, or ``None`` for
        external/unresolvable names.
        """
        if _seen is None:
            _seen = set()
        if (module, name) in _seen:
            return None
        _seen.add((module, name))
        summary = self.by_module.get(module)
        if summary is None:
            return None
        record = summary.defs.get(name)
        if record is not None:
            return module, record
        imported = summary.imports.get(name)
        if imported is not None:
            if imported["name"] is None:
                return None  # a module object, not a definition
            return self.resolve(imported["module"], imported["name"], _seen)
        return None

    def resolve_local(
        self, summary: FileSummary, label: str
    ) -> Optional[Tuple[str, Dict]]:
        """Resolve a ``name`` or ``alias.attr`` callee label from a file."""
        if "." in label:
            alias, attr = label.split(".", 1)
            imp = summary.imports.get(alias)
            if imp is None or imp["name"] is not None:
                return None
            return self.resolve(imp["module"], attr)
        record = summary.defs.get(label)
        if record is not None and summary.module:
            return summary.module, record
        imp = summary.imports.get(label)
        if imp is not None and imp["name"] is not None:
            return self.resolve(imp["module"], imp["name"])
        return None
