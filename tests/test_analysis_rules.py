"""Self-tests for every repro-lint rule: one good and one bad fixture each,
plus suppression, baseline and engine-level behavior."""

import textwrap

from repro.analysis.engine import Baseline, BaselineEntry, lint_source, run_lint
from repro.analysis.rules import default_rules


def findings_for(source, logical, rule_id=None):
    out = lint_source(textwrap.dedent(source), logical, default_rules())
    if rule_id is not None:
        out = [f for f in out if f.rule == rule_id]
    return out


ALG = "src/repro/algorithms/fixture.py"
CORE = "src/repro/core/fixture.py"
REGISTRY = "src/repro/algorithms/registry.py"


class TestNoBareAssert:
    def test_bad(self):
        src = """
        def f(x):
            assert x is not None
            return x
        """
        found = findings_for(src, ALG, "no-bare-assert")
        assert len(found) == 1
        assert found[0].line == 3

    def test_good(self):
        src = """
        from repro.core.errors import InvariantError

        def f(x):
            if x is None:
                raise InvariantError("x must be set")
            return x
        """
        assert findings_for(src, ALG, "no-bare-assert") == []


class TestNoMutableDefault:
    def test_bad(self):
        src = """
        def f(x, acc=[], opts={}):
            return acc, opts
        """
        assert len(findings_for(src, ALG, "no-mutable-default")) == 2

    def test_bad_kwonly_and_call(self):
        src = """
        def f(x, *, seen=set()):
            return seen
        """
        assert len(findings_for(src, ALG, "no-mutable-default")) == 1

    def test_good(self):
        src = """
        def f(x, acc=None, pair=(), label=""):
            if acc is None:
                acc = []
            return acc
        """
        assert findings_for(src, ALG, "no-mutable-default") == []


class TestFloatEndpointEquality:
    def test_bad(self):
        src = """
        def clip(iv, t):
            if iv.lo == t or t != iv.hi:
                return None
            return iv
        """
        assert len(findings_for(src, ALG, "float-endpoint-equality")) == 2

    def test_good_ordered_comparisons(self):
        src = """
        def contains(iv, t):
            return iv.lo <= t <= iv.hi
        """
        assert findings_for(src, ALG, "float-endpoint-equality") == []

    def test_infinity_sentinel_allowed(self):
        src = """
        import math

        def unbounded(iv):
            return iv.hi == math.inf or iv.lo == -math.inf
        """
        assert findings_for(src, ALG, "float-endpoint-equality") == []

    def test_exempt_inside_interval_module(self):
        src = """
        def same(a, b):
            return a.lo == b.lo and a.hi == b.hi
        """
        assert findings_for(src, "src/repro/core/interval.py",
                            "float-endpoint-equality") == []


class TestErrorTaxonomy:
    def test_bad(self):
        src = """
        def f():
            raise ValueError("bad input")
        """
        assert len(findings_for(src, CORE, "error-taxonomy")) == 1

    def test_bad_assertion_error(self):
        src = """
        def f():
            raise AssertionError("broken")
        """
        assert len(findings_for(src, CORE, "error-taxonomy")) == 1

    def test_good(self):
        src = """
        from repro.core.errors import QueryError

        def f():
            raise QueryError("bad query")
        """
        assert findings_for(src, CORE, "error-taxonomy") == []

    def test_out_of_scope_path_not_flagged(self):
        src = """
        def f():
            raise ValueError("workloads may use stdlib errors")
        """
        assert findings_for(src, "src/repro/workloads/fixture.py",
                            "error-taxonomy") == []

    def test_reraise_without_exc_ignored(self):
        src = """
        def f():
            try:
                g()
            except KeyError:
                raise
        """
        assert findings_for(src, CORE, "error-taxonomy") == []


class TestDeterminism:
    def test_bad_for_loop(self):
        src = """
        def emit(xs, out):
            for v in set(xs):
                out.append(v)
        """
        assert len(findings_for(src, ALG, "determinism")) == 1

    def test_bad_comprehension_and_set_algebra(self):
        src = """
        def emit(a, b):
            return [v for v in set(a) | set(b)]
        """
        assert len(findings_for(src, "src/repro/parallel/merge.py",
                                "determinism")) == 1

    def test_good_sorted(self):
        src = """
        def emit(xs, out):
            for v in sorted(set(xs)):
                out.append(v)
        """
        assert findings_for(src, ALG, "determinism") == []

    def test_out_of_scope_path_not_flagged(self):
        src = """
        def emit(xs):
            return [v for v in set(xs)]
        """
        assert findings_for(src, "src/repro/parallel/partition.py",
                            "determinism") == []


class TestSpawnSafety:
    def test_bad_lambda(self):
        src = """
        def fan_out(pool, items):
            return pool.map(lambda x: x + 1, items)
        """
        assert len(findings_for(src, "src/repro/parallel/executor.py",
                                "spawn-safety")) == 1

    def test_bad_nested_function(self):
        src = """
        def fan_out(executor, tasks):
            def work(task):
                return task.run()
            return [executor.submit(work, t) for t in tasks]
        """
        assert len(findings_for(src, "src/repro/parallel/executor.py",
                                "spawn-safety")) == 1

    def test_good_module_level_payload(self):
        src = """
        def work(task):
            return task.run()

        def fan_out(pool, tasks):
            return pool.map(work, tasks, chunksize=1)
        """
        assert findings_for(src, "src/repro/parallel/executor.py",
                            "spawn-safety") == []

    def test_non_pool_receiver_ignored(self):
        src = """
        def apply(seq):
            return seq.map(lambda x: x + 1)
        """
        assert findings_for(src, "src/repro/parallel/executor.py",
                            "spawn-safety") == []


class TestPairedTracerPhases:
    def test_bad_bare_call(self):
        src = """
        def run(stats):
            t = stats.timer("phase.sweep")
            do_work()
        """
        assert len(findings_for(src, ALG, "paired-tracer-phases")) == 1

    def test_good_with_statement(self):
        src = """
        def run(stats):
            with stats.timer("phase.sweep"):
                do_work()
        """
        assert findings_for(src, ALG, "paired-tracer-phases") == []


class TestStatsContract:
    def test_bad_missing_stats(self):
        src = """
        _REGISTRY = {}
        EXECUTOR_KWARGS = frozenset({"workers", "parallel_mode"})

        def myalg(query, database, tau=0):
            return None

        _REGISTRY.setdefault("myalg", myalg)
        """
        found = findings_for(src, REGISTRY, "stats-contract")
        assert len(found) == 1
        assert "stats=" in found[0].message

    def test_bad_shadowed_executor_kwarg(self):
        src = """
        _REGISTRY = {}
        EXECUTOR_KWARGS = frozenset({"workers", "parallel_mode"})

        def myalg(query, database, tau=0, stats=None, workers=None):
            return None

        _REGISTRY.setdefault("myalg", myalg)
        """
        found = findings_for(src, REGISTRY, "stats-contract")
        assert len(found) == 1
        assert "workers" in found[0].message

    def test_good(self):
        src = """
        _REGISTRY = {}
        EXECUTOR_KWARGS = frozenset({"workers", "parallel_mode"})

        def myalg(query, database, tau=0, stats=None, **kwargs):
            return None

        _REGISTRY.setdefault("myalg", myalg)
        _REGISTRY["other"] = myalg
        """
        assert findings_for(src, REGISTRY, "stats-contract") == []

    def test_out_of_scope_path_not_flagged(self):
        src = """
        _REGISTRY = {}

        def myalg(query, database):
            return None

        _REGISTRY.setdefault("myalg", myalg)
        """
        assert findings_for(src, ALG, "stats-contract") == []

    def test_cross_file_import_resolution(self, tmp_path):
        pkg = tmp_path / "algorithms"
        pkg.mkdir()
        (pkg / "other.py").write_text(
            "def alg(query, database, tau=0):\n    return None\n"
        )
        (pkg / "registry.py").write_text(
            "from .other import alg\n"
            "_REGISTRY = {}\n"
            '_REGISTRY.setdefault("alg", alg)\n'
        )
        report = run_lint([str(pkg)], rules=default_rules())
        contract = [f for f in report.findings if f.rule == "stats-contract"]
        assert len(contract) == 1
        assert "other.py" in contract[0].message


class TestKernelNoObjectRows:
    KERNEL = "src/repro/kernels/fixture.py"

    def test_rows_access_in_loop_flagged(self):
        src = """
        def sweep(relation):
            total = 0
            for values, interval in relation.rows:
                total += 1
            return total
        """
        found = findings_for(src, self.KERNEL, "kernel-no-object-rows")
        assert len(found) == 1
        assert ".rows" in found[0].message

    def test_private_rows_and_comprehensions_flagged(self):
        src = """
        def collect(relation):
            return [v for v, _ in relation._rows]
        """
        assert len(findings_for(
            src, self.KERNEL, "kernel-no-object-rows")) == 1

    def test_rows_outside_loop_allowed(self):
        # One-shot (non-loop) access, e.g. sizing, is not a hot loop.
        src = """
        def size(relation):
            return len(relation.rows)
        """
        assert findings_for(src, self.KERNEL, "kernel-no-object-rows") == []

    def test_columns_module_exempt(self):
        src = """
        def intern(db):
            out = []
            for name in db:
                for values, interval in db[name].rows:
                    out.append(values)
            return out
        """
        assert findings_for(
            src, "src/repro/kernels/columns.py", "kernel-no-object-rows"
        ) == []

    def test_rule_scoped_to_kernels_dir(self):
        src = """
        def f(relation):
            for row in relation.rows:
                pass
        """
        assert findings_for(src, ALG, "kernel-no-object-rows") == []

    def test_real_kernels_package_is_clean(self):
        report = run_lint(["src/repro/kernels"], rules=default_rules())
        assert [f for f in report.findings
                if f.rule == "kernel-no-object-rows"] == []


class TestCheckedIntervalInLoop:
    RULE = "checked-interval-in-loop"
    HIER = "src/repro/algorithms/hierarchical.py"

    def test_intersect_in_loop_flagged(self):
        src = """
        def product(combined, fragments):
            out = []
            for interval in combined:
                for civl in fragments:
                    joint = interval.intersect(civl)
                    if joint is not None:
                        out.append(joint)
            return out
        """
        found = findings_for(src, self.HIER, self.RULE)
        assert len(found) == 1  # nested loops report the call once
        assert found[0].line == 6
        assert ".intersect" in found[0].message

    def test_constructor_and_always_in_comprehension_flagged(self):
        src = """
        from repro.core.interval import Interval

        def rows(keys, pairs):
            a = [(k, Interval.always()) for k in keys]
            b = [Interval(lo, hi) for lo, hi in pairs]
            return a, b
        """
        found = findings_for(src, "src/repro/kernels/fixture.py", self.RULE)
        assert sorted(f.line for f in found) == [5, 6]

    def test_endpoint_arithmetic_and_fast_build_allowed(self):
        src = """
        from repro.core.interval import Interval

        def rows(keys, pairs):
            always = Interval.always()
            first = Interval(0, 1).intersect(always)
            out = [(k, always) for k in keys]
            for lo, hi in pairs:
                lo = lo if lo > 0 else 0
                out.append(Interval._fast(lo, hi))
            return first, out
        """
        assert findings_for(src, "src/repro/algorithms/hybrid.py", self.RULE) == []

    def test_scope_is_the_sweep_state_modules(self):
        src = """
        def f(pairs):
            return [a.intersect(b) for a, b in pairs]
        """
        for logical in (
            "src/repro/algorithms/hierarchical_cm.py",
            "src/repro/algorithms/generic_state.py",
            "src/repro/algorithms/hybrid_interval.py",
            "src/repro/kernels/columns.py",
        ):
            assert len(findings_for(src, logical, self.RULE)) == 1, logical
        for logical in (
            "src/repro/algorithms/naive.py",
            "src/repro/algorithms/joinfirst.py",
            "src/repro/nontemporal/yannakakis.py",
            "src/repro/core/interval.py",
        ):
            assert findings_for(src, logical, self.RULE) == [], logical

    def test_real_sweep_states_are_clean(self):
        report = run_lint(["src/repro"], rules=default_rules())
        assert [f for f in report.findings if f.rule == self.RULE] == []


class TestUnusedImport:
    def test_bad(self):
        src = """
        import math
        from typing import Dict, List

        def f(xs: List[int]) -> int:
            return len(xs)
        """
        found = findings_for(src, CORE, "unused-import")
        assert sorted(f.message for f in found) == [
            "'Dict' is imported but never used",
            "'math' is imported but never used",
        ]
        assert {f.line for f in found} == {2, 3}

    def test_good(self):
        src = """
        from __future__ import annotations

        import os.path
        from typing import Optional
        from .engine import KernelColumns, prepare_run
        from .helpers import *
        from .errors import QueryError  # repro-lint: disable=unused-import

        __all__ = ["prepare_run"]

        def f(columns: "Optional[KernelColumns]") -> str:
            return os.path.join("a", "b")
        """
        assert findings_for(src, CORE, "unused-import") == []


class TestEngineBehavior:
    def test_inline_suppression(self):
        src = """
        def f(x):
            assert x  # repro-lint: disable=no-bare-assert
            return x
        """
        assert findings_for(src, ALG, "no-bare-assert") == []

    def test_file_level_suppression(self):
        src = """
        # repro-lint: disable-file=no-bare-assert

        def f(x):
            assert x
            return x
        """
        assert findings_for(src, ALG, "no-bare-assert") == []

    def test_suppression_is_rule_specific(self):
        src = """
        def f(x):
            assert x  # repro-lint: disable=determinism
            return x
        """
        assert len(findings_for(src, ALG, "no-bare-assert")) == 1

    def test_syntax_error_becomes_finding(self):
        found = findings_for("def f(:\n", ALG)
        assert [f.rule for f in found] == ["syntax-error"]

    def test_baseline_subtracts_and_reports_stale(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text("def f(x):\n    assert x\n    return x\n")
        report = run_lint([str(tmp_path)], rules=default_rules())
        assert [f.rule for f in report.findings] == ["no-bare-assert"]

        baseline = Baseline.from_findings(report.findings, justification="seed")
        baseline.entries.append(
            BaselineEntry(rule="determinism", path="gone.py", line=1,
                          justification="stale")
        )
        report2 = run_lint([str(tmp_path)], rules=default_rules(),
                           baseline=baseline)
        assert report2.findings == []
        assert [f.rule for f in report2.baselined] == ["no-bare-assert"]
        assert [e.path for e in report2.stale_baseline] == ["gone.py"]
        assert report2.exit_code == 0

    def test_baseline_round_trip(self, tmp_path):
        path = tmp_path / "baseline.json"
        baseline = Baseline([BaselineEntry("no-bare-assert", "a/b.py", 7, "why")])
        baseline.save(str(path))
        loaded = Baseline.load(str(path))
        assert loaded.fingerprints() == {("no-bare-assert", "a/b.py", 7)}
        assert loaded.entries[0].justification == "why"

    def test_every_rule_has_identity(self):
        rules = default_rules()
        assert len(rules) == 11
        assert len({r.id for r in rules}) == 11
        for rule in rules:
            assert rule.description and rule.hint and rule.severity == "error"
