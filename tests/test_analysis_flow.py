"""Flow/interprocedural rule tests: synthetic projects per rule plus
tamper tests that mutate the real `parallel`/`serve` sources and assert
the matching rule fires (and that the pristine sources stay clean)."""

import os

from repro.analysis.engine import SourceFile, lint_project
from repro.analysis.flow_rules import (
    CounterGlossaryDrift,
    OwnershipBeforeConcat,
    SpawnShipsModuleLevel,
    StatsThreading,
    flow_rules,
    parse_glossary,
)
from repro.analysis.project import summarize_file

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _read(rel):
    with open(os.path.join(REPO_ROOT, rel)) as handle:
        return handle.read()


def _by_rule(findings, rule_id):
    return [f for f in findings if f.rule == rule_id]


# ----------------------------------------------------------------------
# counter-glossary-drift
# ----------------------------------------------------------------------
GLOSSARY_DESIGN = """\
Counter glossary (prefix = subsystem that records it):

| counter | meaning |
|---|---|
| `a.hits` | documented and emitted |
| `c.sizes.*` | distribution rows |
| `phase.parallel.shardNN` (timers) | per-shard timers |
| `b.ghost` | documented but never emitted |
"""


class TestCounterGlossaryDrift:
    def _lint(self, source, design=GLOSSARY_DESIGN):
        return lint_project(
            {"src/repro/algorithms/mod.py": source},
            [CounterGlossaryDrift()],
            design_text=design,
        )

    def test_documented_names_and_wildcards_pass(self):
        findings = self._lint(
            "def f(stats, i):\n"
            "    stats.incr('a.hits')\n"
            "    stats.observe('c.sizes', 3)\n"
            "    stats.timer(f'phase.parallel.shard{i:02d}')\n",
            design=GLOSSARY_DESIGN.replace("| `b.ghost` | documented but never emitted |\n", ""),
        )
        assert findings == []

    def test_undocumented_counter_fires(self):
        findings = self._lint("def f(stats):\n    stats.incr('a.miss')\n")
        undocumented = [f for f in findings if "'a.miss'" in f.message]
        assert len(undocumented) == 1
        assert undocumented[0].path == "src/repro/algorithms/mod.py"
        assert undocumented[0].line == 2

    def test_stale_glossary_row_fires_at_design_line(self):
        findings = self._lint(
            "def f(stats, i):\n"
            "    stats.incr('a.hits')\n"
            "    stats.observe('c.sizes', 3)\n"
            "    stats.timer(f'phase.parallel.shard{i:02d}')\n"
        )
        stale = [f for f in findings if "b.ghost" in f.message]
        assert len(stale) == 1
        assert stale[0].path == "DESIGN.md"
        # The row's own line in the design text.
        assert GLOSSARY_DESIGN.splitlines()[stale[0].line - 1].startswith("| `b.ghost`")

    def test_unresolvable_name_fires(self):
        findings = self._lint("def f(stats, name):\n    stats.incr(name)\n")
        assert any("not statically resolvable" in f.message for f in findings)

    def test_module_constant_prefix_resolves(self):
        findings = self._lint(
            "PREFIX = 'a.'\n"
            "def f(stats):\n"
            "    stats.incr(PREFIX + 'hits')\n",
            design=(
                "Counter glossary:\n\n"
                "| counter | meaning |\n"
                "|---|---|\n"
                "| `a.hits` | resolved through a module constant |\n"
            ),
        )
        assert findings == []

    def test_no_design_text_skips(self):
        findings = lint_project(
            {"src/repro/algorithms/mod.py": "def f(s):\n    s.incr('x.y')\n"},
            [CounterGlossaryDrift()],
            design_text=None,
        )
        assert findings == []

    def test_parse_glossary_handles_escaped_pipes_and_multi_patterns(self):
        patterns = dict(parse_glossary(
            "Counter glossary:\n\n"
            "| counter | meaning |\n"
            "|---|---|\n"
            "| `x.a` / `x.b` | \\|L\\| something |\n"
        ))
        assert set(patterns) == {"x.a", "x.b"}

    def test_real_serve_counter_rename_fires(self):
        """Tamper: rename a serve.* counter — drift must flag it."""
        design = _read("DESIGN.md")
        source = _read("src/repro/serve/broker.py")
        mutated = source.replace('"serve.appends"', '"serve.appendz"')
        assert mutated != source
        findings = lint_project(
            {"src/repro/serve/broker.py": mutated},
            [CounterGlossaryDrift()],
            design_text=design,
        )
        assert any("serve.appendz" in f.message for f in findings)


# ----------------------------------------------------------------------
# spawn-ships-module-level
# ----------------------------------------------------------------------
class TestSpawnShipsModuleLevel:
    def _lint(self, sources):
        return lint_project(sources, [SpawnShipsModuleLevel()])

    def test_module_level_def_through_import_passes(self):
        findings = self._lint({
            "src/repro/parallel/worker.py": "def run_shard(t):\n    return t\n",
            "src/repro/parallel/executor.py": (
                "from .worker import run_shard\n"
                "def run(pool, tasks):\n"
                "    return pool.map(run_shard, tasks)\n"
            ),
        })
        assert findings == []

    def test_local_lambda_payload_fires(self):
        findings = self._lint({
            "src/repro/parallel/executor.py": (
                "def run(pool, tasks):\n"
                "    f = lambda x: x\n"
                "    return pool.map(f, tasks)\n"
            ),
        })
        assert any("closure/nested" in f.message for f in findings)

    def test_inline_lambda_payload_fires(self):
        findings = self._lint({
            "src/repro/parallel/executor.py": (
                "def run(pool, tasks):\n"
                "    return pool.map(lambda x: x, tasks)\n"
            ),
        })
        assert any("lambda" in f.message for f in findings)

    def test_bound_method_payload_fires(self):
        findings = self._lint({
            "src/repro/parallel/executor.py": (
                "class Runner:\n"
                "    def go(self, pool, tasks):\n"
                "        return pool.map(self.work, tasks)\n"
                "    def work(self, t):\n"
                "        return t\n"
            ),
        })
        assert any("bound" in f.message for f in findings)

    def test_nested_def_payload_fires(self):
        findings = self._lint({
            "src/repro/parallel/executor.py": (
                "def run(pool, tasks):\n"
                "    def f(x):\n"
                "        return x\n"
                "    return pool.map(f, tasks)\n"
            ),
        })
        assert any("closure/nested" in f.message for f in findings)

    def test_module_level_lambda_through_reexport_fires(self):
        """Interprocedural: the lambda hides two imports away."""
        findings = self._lint({
            "src/repro/parallel/impl.py": "f = lambda x: x\n",
            "src/repro/parallel/__init__.py": "from .impl import f\n",
            "src/repro/parallel/executor.py": (
                "from . import f\n"
                "def run(pool, tasks):\n"
                "    return pool.map(f, tasks)\n"
            ),
        })
        assert any("lambda" in f.message for f in findings)

    def test_local_task_constructor_fires(self):
        findings = self._lint({
            "src/repro/parallel/worker.py": "def run_shard(t):\n    return t\n",
            "src/repro/parallel/executor.py": (
                "from .worker import run_shard\n"
                "def run(pool, xs):\n"
                "    class Task:\n"
                "        pass\n"
                "    tasks = [Task() for x in xs]\n"
                "    return pool.map(run_shard, tasks)\n"
            ),
        })
        assert any("task constructor" in f.message.lower() for f in findings)

    def test_module_level_task_constructor_passes(self):
        findings = self._lint({
            "src/repro/parallel/worker.py": (
                "class Task:\n"
                "    pass\n"
                "def run_shard(t):\n"
                "    return t\n"
            ),
            "src/repro/parallel/executor.py": (
                "from .worker import Task, run_shard\n"
                "def run(pool, xs):\n"
                "    tasks = [Task() for x in xs]\n"
                "    return pool.map(run_shard, tasks)\n"
            ),
        })
        assert findings == []

    def test_real_executor_is_clean(self):
        findings = self._lint({
            "src/repro/parallel/executor.py": _read("src/repro/parallel/executor.py"),
            "src/repro/parallel/worker.py": _read("src/repro/parallel/worker.py"),
        })
        assert findings == []

    def test_executor_dispatch_site_is_harvested(self):
        """The one resident-pool dispatch stays visible to the spawn rules."""
        path = "src/repro/parallel/executor.py"
        summary = summarize_file(SourceFile(_read(path), path))
        payloads = sorted(
            (submit["method"], submit["payload"]["kind"], submit["payload"]["name"])
            for submit in summary.pool_submits
        )
        assert payloads == [("map", "import", "run_shard")]


# ----------------------------------------------------------------------
# ownership-before-concat
# ----------------------------------------------------------------------
class TestOwnershipBeforeConcat:
    WORKER = "src/repro/parallel/worker.py"
    MERGE = "src/repro/parallel/merge.py"
    SERVICE = "src/repro/serve/service.py"

    def _lint(self, sources):
        return lint_project(sources, [OwnershipBeforeConcat()])

    def test_real_sources_are_clean(self):
        findings = self._lint({
            self.WORKER: _read(self.WORKER),
            self.MERGE: _read(self.MERGE),
            self.SERVICE: _read(self.SERVICE),
        })
        assert findings == []

    def test_worker_left_endpoint_tamper_fires(self):
        """Filtering on .lo instead of .hi breaks the ownership contract."""
        source = _read(self.WORKER)
        mutated = source.replace(".hi) == shard", ".lo) == shard")
        assert mutated != source
        findings = self._lint({self.WORKER: mutated})
        assert _by_rule(findings, "ownership-before-concat")

    def test_worker_unfiltered_rows_tamper_fires(self):
        source = _read(self.WORKER)
        mutated = source.replace("rows=owned,", "rows=result.rows,", 1)
        assert mutated != source
        findings = self._lint({self.WORKER: mutated})
        assert _by_rule(findings, "ownership-before-concat")

    def test_merge_wrong_attribute_tamper_fires(self):
        source = _read(self.MERGE)
        mutated = source.replace("outcome.rows", "outcome.raw_rows")
        assert mutated != source
        findings = self._lint({self.MERGE: mutated})
        assert _by_rule(findings, "ownership-before-concat")

    GUARDED_APPEND = (
        "def run_shard(task, result, owner):\n"
        "    shard = task.shard\n"
        "    owned = []\n"
        "    for row in result.rows:\n"
        "{body}"
        "    return ShardOutcome(shard=shard, rows=owned)\n"
    )

    def _guarded_append(self, body):
        source = self.GUARDED_APPEND.format(body=body)
        return _by_rule(
            self._lint({self.WORKER: source}), "ownership-before-concat"
        )

    def test_synthetic_guarded_append_passes(self):
        """Both guard shapes cover the append: a `!= shard: continue`
        earlier in the loop body, and an enclosing `== shard`."""
        assert self._guarded_append(
            "        if owner(row[1].hi) != shard:\n"
            "            continue\n"
            "        owned.append(row)\n"
        ) == []
        assert self._guarded_append(
            "        if owner(row[1].hi) == shard:\n"
            "            owned.append(row)\n"
        ) == []

    def test_synthetic_unguarded_append_fires(self):
        assert self._guarded_append("        owned.append(row)\n")
        # A guard in one loop body does not cover the appends of another.
        assert self._guarded_append(
            "        if owner(row[1].hi) != shard:\n"
            "            continue\n"
            "    for row in result.rows:\n"
            "        owned.append(row)\n"
        )

    KEY_SHARD = (
        "def run_shard(task, result, owner):\n"
        "    shard = task.shard\n"
        "    if {test}:\n"
        "        owned = {then}\n"
        "    else:\n"
        "        owned = {other}\n"
        "    return ShardOutcome(shard=shard, rows=owned)\n"
    )
    FILTERED = "[row for row in result.rows if owner(row[1].hi) == shard]"

    def _key_shard(self, test, then, other):
        source = self.KEY_SHARD.format(test=test, then=then, other=other)
        return _by_rule(
            self._lint({self.WORKER: source}), "ownership-before-concat"
        )

    def test_key_shard_branch_passes(self):
        """Rows of a task without cuts (a key shard) need no filter."""
        assert self._key_shard("task.cuts is None", "result.rows", self.FILTERED) == []
        assert self._key_shard("task.cuts is not None", self.FILTERED, "result.rows") == []

    def test_unfiltered_rows_on_time_shard_branch_fire(self):
        assert self._key_shard("task.cuts is not None", "result.rows", self.FILTERED)
        assert self._key_shard("task.cuts is None", self.FILTERED, "result.rows")

    def test_other_none_test_is_not_a_key_shard(self):
        assert self._key_shard("task.columns is None", "result.rows", self.FILTERED)
        assert self._key_shard("task.cuts == ()", "result.rows", self.FILTERED)

    def test_real_worker_inverted_key_test_fires(self):
        source = _read(self.WORKER)
        mutated = source.replace("if task.cuts is None:", "if task.cuts is not None:")
        assert mutated != source
        assert _by_rule(self._lint({self.WORKER: mutated}), "ownership-before-concat")

    def test_inline_suppression_applies_to_flow_findings(self):
        """A span directive on the statement's first line silences the
        flow finding anchored to the multi-line ShardOutcome(...) call."""
        source = _read(self.WORKER)
        tampered = source.replace("rows=owned,", "rows=result.rows,", 1)
        assert _by_rule(self._lint({self.WORKER: tampered}),
                        "ownership-before-concat")
        suppressed = tampered.replace(
            "return ShardOutcome(",
            "return ShardOutcome(  # repro-lint: disable=ownership-before-concat",
            1,
        )
        assert _by_rule(self._lint({self.WORKER: suppressed}),
                        "ownership-before-concat") == []


# ----------------------------------------------------------------------
# stats-threading
# ----------------------------------------------------------------------
class TestStatsThreading:
    def _lint(self, sources):
        return lint_project(sources, [StatsThreading()])

    HELPER = "def helper(x=0, stats=None):\n    return x\n"

    def test_dropped_stats_on_refined_path_fires(self):
        findings = self._lint({
            "src/repro/parallel/helpers.py": self.HELPER,
            "src/repro/parallel/run.py": (
                "from .helpers import helper\n"
                "def run(stats):\n"
                "    if stats is not None:\n"
                "        helper()\n"
            ),
        })
        flagged = _by_rule(findings, "stats-threading")
        assert len(flagged) == 1
        assert "holds `stats` but calls `helper`" in flagged[0].message

    def test_forwarded_stats_passes(self):
        findings = self._lint({
            "src/repro/parallel/helpers.py": self.HELPER,
            "src/repro/parallel/run.py": (
                "from .helpers import helper\n"
                "def run(stats):\n"
                "    if stats is not None:\n"
                "        helper(stats=stats)\n"
                "    helper(1, stats)\n"
            ),
        })
        assert findings == []

    def test_forwarding_self_attribute_passes(self):
        findings = self._lint({
            "src/repro/serve/helpers.py": self.HELPER,
            "src/repro/serve/svc.py": (
                "from .helpers import helper\n"
                "class Service:\n"
                "    def __init__(self, stats=None):\n"
                "        self.stats = stats or object()\n"
                "        helper(stats=self.stats)\n"
            ),
        })
        assert findings == []

    def test_none_state_path_passes(self):
        """A ``None`` normalized at the boundary, then forwarded."""
        findings = self._lint({
            "src/repro/parallel/helpers.py": self.HELPER,
            "src/repro/parallel/run.py": (
                "from .helpers import helper\n"
                "def run(stats=None):\n"
                "    stats = NULL_TRACER if stats is None else stats\n"
                "    helper(stats=stats)\n"
            ),
        })
        assert findings == []

    def test_drop_on_a_none_path_fires(self):
        """``stats`` is a tracer on every path: no path may drop it."""
        findings = self._lint({
            "src/repro/parallel/helpers.py": self.HELPER,
            "src/repro/parallel/run.py": (
                "from .helpers import helper\n"
                "def run(stats):\n"
                "    if stats is None:\n"
                "        helper()\n"
            ),
        })
        assert len(_by_rule(findings, "stats-threading")) == 1

    def test_callee_without_stats_param_passes(self):
        findings = self._lint({
            "src/repro/parallel/helpers.py": "def plain(x):\n    return x\n",
            "src/repro/parallel/run.py": (
                "from .helpers import plain\n"
                "def run(stats):\n"
                "    if stats is not None:\n"
                "        plain(1)\n"
            ),
        })
        assert findings == []

    def test_out_of_scope_subsystem_passes(self):
        """The algorithm layer deliberately withholds stats (DESIGN)."""
        findings = self._lint({
            "src/repro/algorithms/helpers.py": self.HELPER,
            "src/repro/algorithms/run.py": (
                "from .helpers import helper\n"
                "def run(stats):\n"
                "    if stats is not None:\n"
                "        helper()\n"
            ),
        })
        assert findings == []

    def test_real_parallel_sources_are_clean(self):
        sources = {
            rel: _read(rel)
            for rel in (
                "src/repro/parallel/executor.py",
                "src/repro/parallel/worker.py",
                "src/repro/parallel/merge.py",
            )
        }
        findings = self._lint(sources)
        assert findings == []

    def test_real_executor_tamper_fires(self):
        """Strip the stats argument from a merge call in executor.py."""
        rel = "src/repro/parallel/executor.py"
        source = _read(rel)
        needle = "        outcomes,\n        stats=stats,\n"
        assert needle in source
        mutated = source.replace(needle, "        outcomes,\n")
        findings = self._lint({
            rel: mutated,
            "src/repro/parallel/merge.py": _read("src/repro/parallel/merge.py"),
        })
        assert _by_rule(findings, "stats-threading")


# ----------------------------------------------------------------------
# the full set over the real tree (mirrors the CLI gate)
# ----------------------------------------------------------------------
class TestFlowRuleSet:
    def test_flow_rules_ids(self):
        assert [r.id for r in flow_rules()] == [
            "counter-glossary-drift",
            "spawn-ships-module-level",
            "ownership-before-concat",
            "stats-threading",
        ]
