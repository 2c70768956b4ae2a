"""Project-level, interprocedural lint rules (the DESIGN §7 set).

These are :class:`~repro.analysis.engine.ProjectRule` subclasses: instead
of one file's AST they see a :class:`~repro.analysis.project.ProjectModel`
built from per-file summaries, so they can check invariants that span
modules — exactly the protocol contracts the node rules cannot reach:

* :class:`CounterGlossaryDrift` — every counter/timer/note name emitted
  anywhere must appear in the DESIGN.md counter glossary, and every
  glossary row must still be emitted somewhere (drift in either
  direction fails the gate);
* :class:`SpawnShipsModuleLevel` — anything reaching a pool dispatch
  (payload callable *or* task-object constructor) must resolve, through
  imports and re-exports, to a module-level ``def``/``class`` — lambdas,
  closures and bound methods cannot cross the spawn pickle boundary;
* :class:`OwnershipBeforeConcat` — every binding of the rows a shard
  hands to the exactly-once merge concatenation (the merge's no-dedup
  guarantee) must pass the right-endpoint ownership filter, or sit in a
  key-shard arm (``cuts is None``), whose results no other shard
  derives;
* :class:`StatsThreading` — a function holding ``stats`` (a tracer on
  every path below the entry points) must forward it to every project
  callee that takes ``stats=``, so no counters silently vanish
  mid-pipeline.
"""

from __future__ import annotations

import re
from fnmatch import fnmatchcase
from typing import Dict, List, Optional, Tuple

from .engine import Finding, ProjectRule
from .project import FileSummary, ProjectModel

__all__ = [
    "CounterGlossaryDrift",
    "SpawnShipsModuleLevel",
    "OwnershipBeforeConcat",
    "StatsThreading",
    "flow_rules",
    "parse_glossary",
]


def _finding(rule: ProjectRule, path: str, line: int, col: int, message: str) -> Finding:
    return Finding(
        rule=rule.id,
        path=path,
        line=line,
        col=col,
        message=message,
        severity=rule.severity,
        hint=rule.hint,
    )


# ----------------------------------------------------------------------
# counter-glossary-drift
# ----------------------------------------------------------------------
_GLOSSARY_HEADING = "Counter glossary"
_CELL_SPLIT = re.compile(r"(?<!\\)\|")  # glossary cells may contain \|
_BACKTICKED = re.compile(r"`([^`]+)`")


def parse_glossary(design_text: str) -> List[Tuple[str, int]]:
    """``(pattern, design_line)`` pairs from the DESIGN.md glossary table.

    Patterns come from backticked spans in each row's first cell (one row
    documents several related names, ``/``-separated); the ``NN`` shard
    placeholder becomes a ``*`` wildcard to line up with the f-string
    harvest on the emission side.
    """
    out: List[Tuple[str, int]] = []
    in_table = False
    seen_heading = False
    for lineno, line in enumerate(design_text.splitlines(), start=1):
        if _GLOSSARY_HEADING in line:
            seen_heading = True
            continue
        if not seen_heading:
            continue
        stripped = line.strip()
        if stripped.startswith("|"):
            in_table = True
            cells = _CELL_SPLIT.split(stripped)
            if len(cells) < 2:
                continue
            first = cells[1]
            for raw in _BACKTICKED.findall(first):
                out.append((raw.replace("NN", "*"), lineno))
        elif in_table:
            break  # table ended
    return out


def _expand_emission(name: str, kind: str) -> List[str]:
    if kind == "observe":
        return [f"{name}.count", f"{name}.total", f"{name}.max"]
    return [name]


def _matches(emitted: str, pattern: str) -> bool:
    # Emitted names may carry a `*` from an f-string field; ground it so
    # fnmatch treats the wildcard as "some concrete value".
    return fnmatchcase(emitted.replace("*", "0"), pattern)


class CounterGlossaryDrift(ProjectRule):
    id = "counter-glossary-drift"
    severity = "error"
    description = (
        "every emitted counter/timer/note name must appear in the DESIGN.md "
        "counter glossary, and every glossary row must still be emitted"
    )
    hint = (
        "add the counter to the DESIGN.md glossary table (or remove the "
        "stale row); counter names must be statically resolvable"
    )

    #: Tracer internals pass names as parameters, not literals.
    EXCLUDED = ("repro/obs/",)

    def check_project(self, project: ProjectModel) -> List[Finding]:
        if project.design_text is None:
            return []
        glossary = parse_glossary(project.design_text)
        findings: List[Finding] = []
        if not glossary:
            findings.append(
                _finding(
                    self, project.design_path, 1, 0,
                    "no counter-glossary table found in the design document",
                )
            )
            return findings

        patterns = [p for p, _ in glossary]
        emitted_names: List[str] = []
        for summary in project.files():
            if any(part in summary.logical for part in self.EXCLUDED):
                continue
            for counter in summary.counters:
                if not counter.get("resolved"):
                    findings.append(
                        _finding(
                            self, summary.logical,
                            counter["line"], counter["col"],
                            f"counter name passed to .{counter['kind']}() is "
                            "not statically resolvable (use a literal, a "
                            "module-level constant, or an f-string)",
                        )
                    )
                    continue
                for name in _expand_emission(counter["name"], counter["kind"]):
                    emitted_names.append(name)
                    if not any(_matches(name, p) for p in patterns):
                        findings.append(
                            _finding(
                                self, summary.logical,
                                counter["line"], counter["col"],
                                f"counter {name!r} is not documented in the "
                                f"{project.design_path} counter glossary",
                            )
                        )

        # The stale direction only makes sense when the scan covers the
        # tree the glossary documents: linting an external extension
        # alone must not flag every row as unemitted.
        covers_repro = any(
            (summary.module or "").split(".")[0] == "repro"
            for summary in project.files()
        )
        if not covers_repro:
            return findings

        for pattern, lineno in glossary:
            if not any(_matches(name, pattern) for name in emitted_names):
                findings.append(
                    _finding(
                        self, project.design_path, lineno, 0,
                        f"glossary row {pattern!r} matches no counter emitted "
                        "anywhere in the scanned sources — stale documentation",
                    )
                )
        return findings


# ----------------------------------------------------------------------
# spawn-ships-module-level
# ----------------------------------------------------------------------
class SpawnShipsModuleLevel(ProjectRule):
    id = "spawn-ships-module-level"
    severity = "error"
    description = (
        "callables and task constructors reaching a pool dispatch must "
        "resolve to module-level definitions (picklable by construction)"
    )
    hint = (
        "hoist the payload to a module-level def/class; ship data plus a "
        "registry name instead of closures or bound methods"
    )

    def check_project(self, project: ProjectModel) -> List[Finding]:
        findings: List[Finding] = []
        for summary in project.files():
            for submit in summary.pool_submits:
                line, col = submit["line"], submit["col"]
                problem = self._classify(project, summary, submit["payload"])
                if problem is not None:
                    findings.append(
                        _finding(
                            self, summary.logical, line, col,
                            f"pool .{submit['method']}() payload {problem}",
                        )
                    )
                for ctor in submit["task_ctors"]:
                    problem = self._classify(project, summary, ctor)
                    if problem is not None:
                        findings.append(
                            _finding(
                                self, summary.logical, line, col,
                                f"task constructor shipped to .{submit['method']}() "
                                f"{problem}",
                            )
                        )
        return findings

    def _classify(
        self, project: ProjectModel, summary: FileSummary, payload: Dict
    ) -> Optional[str]:
        """Human description of the violation, or ``None`` when safe."""
        kind = payload.get("kind")
        if kind == "lambda":
            return "is a lambda — lambdas cannot be pickled across spawn"
        if kind == "local":
            return (
                f"`{payload['name']}` is a closure/nested definition — only "
                "module-level callables survive the spawn pickle boundary"
            )
        if kind == "bound-method":
            return (
                f"`{payload['receiver']}.{payload['attr']}` is a bound "
                "method — the receiver object would be pickled along with it"
            )
        if kind == "module-def":
            record = summary.defs.get(payload["name"], {})
            if record.get("kind") == "lambda":
                return (
                    f"`{payload['name']}` is a module-level lambda — lambdas "
                    "cannot be pickled even at module scope"
                )
            return None
        if kind == "import":
            resolved = project.resolve_local(summary, payload["name"])
            if resolved is None:
                return None  # external (stdlib/third-party): assume importable
            _, record = resolved
            if record.get("kind") == "lambda":
                return (
                    f"`{payload['name']}` resolves to a lambda assignment — "
                    "not picklable across spawn"
                )
            return None
        if kind == "module-attr":
            resolved = project.resolve_local(
                summary, f"{payload['alias']}.{payload['attr']}"
            )
            if resolved is not None and resolved[1].get("kind") == "lambda":
                return (
                    f"`{payload['alias']}.{payload['attr']}` resolves to a "
                    "lambda assignment — not picklable across spawn"
                )
            return None
        return None  # unknown provenance: leave to the node-level rule


# ----------------------------------------------------------------------
# ownership-before-concat
# ----------------------------------------------------------------------
class OwnershipBeforeConcat(ProjectRule):
    id = "ownership-before-concat"
    severity = "error"
    description = (
        "shard results must pass the right-endpoint ownership filter, or "
        "come from a key shard, on every path before the exactly-once "
        "merge concatenation"
    )
    hint = (
        "filter rows with `owner(row_interval.hi) == shard` (or guard the "
        "append on it) before handing them to the merge; only a key shard "
        "(a branch on `cuts is None`) may skip it — the merge concatenates "
        "without dedup (DESIGN: parallel execution, stages 1 and 4)"
    )

    def check_project(self, project: ProjectModel) -> List[Finding]:
        findings: List[Finding] = []
        for summary in project.files():
            for fact in summary.ownership:
                findings.append(
                    _finding(
                        self, summary.logical,
                        fact["line"], fact["col"], fact["detail"],
                    )
                )
        return findings


# ----------------------------------------------------------------------
# stats-threading
# ----------------------------------------------------------------------
class StatsThreading(ProjectRule):
    id = "stats-threading"
    severity = "error"
    description = (
        "a function holding `stats` must forward it to every project "
        "callee accepting `stats=`"
    )
    hint = (
        "pass stats= through (counters vanish silently otherwise); if the "
        "drop is deliberate — e.g. nested recursion counting once — "
        "suppress inline with a justification"
    )

    #: Subsystems under the hard no-counter-loss contract. The algorithm
    #: layer is exempt: DESIGN documents that nested/recursive strategy
    #: calls deliberately withhold `stats` so `results` counts once.
    SCOPES = ("/parallel/", "/serve/", "/kernels/")

    def applies(self, logical: str) -> bool:
        return any(scope in logical for scope in self.SCOPES)

    def check_project(self, project: ProjectModel) -> List[Finding]:
        findings: List[Finding] = []
        for summary in project.files():
            if not self.applies(summary.logical):
                continue
            for fact in summary.stats_calls:
                resolved = project.resolve_local(summary, fact["callee"])
                if resolved is None:
                    continue  # external or unresolvable: out of contract
                module, record = resolved
                if not record.get("accepts_stats"):
                    continue
                findings.append(
                    _finding(
                        self, summary.logical, fact["line"], fact["col"],
                        f"`{fact['func']}` holds `stats` but calls "
                        f"`{fact['callee']}` (→ {module}) without "
                        "forwarding it — those counters are lost",
                    )
                )
        return findings


def flow_rules() -> List[ProjectRule]:
    """The project-level rule set, in reporting order."""
    return [
        CounterGlossaryDrift(),
        SpawnShipsModuleLevel(),
        OwnershipBeforeConcat(),
        StatsThreading(),
    ]
