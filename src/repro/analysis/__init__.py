"""``repro.analysis`` — domain-invariant static analysis for this repo.

Two halves:

* **repro-lint** (:mod:`engine` + :mod:`rules`): an AST-based lint engine
  with a registry of domain rules that encode the structural conventions
  the paper's guarantees rest on — no bare ``assert`` in library code,
  spawn-safe worker payloads, deterministic iteration on result-producing
  paths, the ``stats=`` telemetry contract, paired tracer phases, the
  ``repro.core.errors`` taxonomy, no exact equality on computed interval
  endpoints, no mutable defaults. Run it as ``python -m repro.analysis``;
  CI gates on it (``make analyze``).

* **flow-aware analysis** (:mod:`project` + :mod:`flow_rules`): per-file
  facts harvested by direct, flow-insensitive AST checks and a
  whole-project model feeding four interprocedural rules — the
  machine-checked counter glossary, spawn payload module-levelness,
  ownership-before-concat, and stats threading. Per-file summaries are
  cached under ``.repro-lint-cache/`` so warm runs re-parse nothing.

* **static plan verification** (:mod:`plans`): structural validation of
  :class:`~repro.nontemporal.ghd.GHD`,
  :class:`~repro.core.classification.AttributeTree` and
  :class:`~repro.core.planner.Plan` objects — bag coverage, running
  intersection, hierarchical attribute order, Theorem 12 width
  accounting. Hooked into ``planner.plan()`` under ``REPRO_VERIFY_PLANS``
  and into the Figure 6 tests.

Findings can be silenced inline (``# repro-lint: disable=<rule>``) or
grandfathered in the committed JSON baseline
(:data:`~repro.analysis.engine.DEFAULT_BASELINE_NAME`).
"""

from .cache import AnalysisCache
from .engine import (
    Baseline,
    BaselineEntry,
    DEFAULT_BASELINE_NAME,
    Finding,
    LintReport,
    ProjectRule,
    Rule,
    SourceFile,
    lint_project,
    lint_source,
    run_lint,
)
from .flow_rules import flow_rules
from .plans import (
    PlanVerificationError,
    check_attribute_tree,
    check_ghd,
    check_plan,
    verify_attribute_tree,
    verify_ghd,
    verify_plan,
)
from .report import render_json, render_sarif, render_text
from .rules import default_rules

__all__ = [
    "AnalysisCache",
    "Baseline",
    "BaselineEntry",
    "DEFAULT_BASELINE_NAME",
    "Finding",
    "LintReport",
    "PlanVerificationError",
    "ProjectRule",
    "Rule",
    "SourceFile",
    "check_attribute_tree",
    "check_ghd",
    "check_plan",
    "default_rules",
    "flow_rules",
    "lint_project",
    "lint_source",
    "render_json",
    "render_sarif",
    "render_text",
    "run_lint",
    "verify_attribute_tree",
    "verify_ghd",
    "verify_plan",
]
