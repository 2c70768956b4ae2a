"""Tests for ``python -m repro.analysis`` (exit codes, formats, baseline
workflow) plus the acceptance gate: the repo itself lints clean."""

import json
import os

import pytest

from repro.analysis.__main__ import main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def bad_tree(tmp_path):
    target = tmp_path / "lib"
    target.mkdir()
    (target / "mod.py").write_text(
        "def f(x):\n    assert x\n    return x\n"
    )
    return target


class TestExitCodes:
    def test_findings_exit_one(self, bad_tree, capsys):
        assert main([str(bad_tree), "--no-baseline"]) == 1
        out = capsys.readouterr().out
        assert "no-bare-assert" in out
        assert "1 finding(s)" in out

    def test_clean_tree_exit_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("def f(x):\n    return x\n")
        assert main([str(tmp_path), "--no-baseline"]) == 0

    def test_missing_path_exit_two(self, tmp_path):
        assert main([str(tmp_path / "nope")]) == 2

    def test_unknown_rule_exit_two(self, bad_tree):
        assert main([str(bad_tree), "--select", "no-such-rule"]) == 2

    def test_missing_explicit_baseline_exit_two(self, bad_tree, tmp_path):
        missing = tmp_path / "nothing.json"
        assert main([str(bad_tree), "--baseline", str(missing)]) == 2


class TestOptions:
    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ["no-bare-assert", "spawn-safety", "determinism",
                        "stats-contract", "paired-tracer-phases",
                        "telemetry-on-test",
                        "error-taxonomy", "float-endpoint-equality",
                        "no-mutable-default",
                        # project-level flow rules ride the same CLI
                        "counter-glossary-drift", "spawn-ships-module-level",
                        "ownership-before-concat", "stats-threading"]:
            assert rule_id in out

    def test_select_filters_rules(self, bad_tree, capsys):
        assert main([str(bad_tree), "--no-baseline",
                     "--select", "determinism"]) == 0

    def test_json_format(self, bad_tree, capsys):
        assert main([str(bad_tree), "--no-baseline", "--format", "json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["exit_code"] == 1
        assert data["findings"][0]["rule"] == "no-bare-assert"

    def test_out_writes_report_file(self, bad_tree, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = main([str(bad_tree), "--no-baseline", "--format", "json",
                     "--out", str(report_path)])
        assert code == 1
        data = json.loads(report_path.read_text())
        assert data["findings"][0]["rule"] == "no-bare-assert"
        assert "report written to" in capsys.readouterr().out


class TestSarifFormat:
    def test_sarif_golden_shape(self, bad_tree, tmp_path):
        sarif_path = tmp_path / "report.sarif"
        code = main([str(bad_tree), "--no-baseline", "--format", "sarif",
                     "--output", str(sarif_path)])
        assert code == 1
        doc = json.loads(sarif_path.read_text())
        assert doc["$schema"].endswith("sarif-2.1.0.json")
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        driver = run["tool"]["driver"]
        assert driver["name"] == "repro-lint"
        rule_ids = [r["id"] for r in driver["rules"]]
        assert "no-bare-assert" in rule_ids

        result = run["results"][0]
        assert result["ruleId"] == "no-bare-assert"
        assert rule_ids[result["ruleIndex"]] == "no-bare-assert"
        assert result["level"] == "error"
        assert result["message"]["text"]
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uriBaseId"] == "%SRCROOT%"
        region = location["region"]
        assert region["startLine"] == 2
        assert region["startColumn"] >= 1

    def test_sarif_clean_tree_has_empty_results(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("def f(x):\n    return x\n")
        assert main([str(tmp_path), "--no-baseline", "--format", "sarif"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["runs"][0]["results"] == []


class TestSpanSuppressions:
    """A directive on a statement's first line (or decorator line) covers
    the statement's whole lineno..end_lineno span."""

    def _lint(self, source):
        from repro.analysis.engine import lint_source
        from repro.analysis.rules import default_rules

        return lint_source(source, "lib/mod.py", default_rules())

    def test_directive_on_statement_head_covers_later_lines(self):
        body = (
            "def f(a, b):\n"
            "    return bool(\n"
            "        a.lo ==\n"
            "        b.lo\n"
            "    )\n"
        )
        undirected = self._lint(body)
        assert [f.rule for f in undirected] == ["float-endpoint-equality"]
        assert undirected[0].line == 3  # mid-statement, not the head line

        directed = self._lint(body.replace(
            "    return bool(",
            "    return bool(  # repro-lint: disable=float-endpoint-equality",
        ))
        assert directed == []

    def test_directive_on_decorator_line_covers_def_body(self):
        body = (
            "def deco(fn):\n"
            "    return fn\n"
            "@deco\n"
            "def f(x):\n"
            "    assert x\n"
            "    return x\n"
        )
        undirected = self._lint(body)
        assert [f.rule for f in undirected] == ["no-bare-assert"]

        directed = self._lint(body.replace(
            "@deco\n",
            "@deco  # repro-lint: disable=no-bare-assert\n",
        ))
        assert directed == []

    def test_span_suppression_is_rule_scoped(self):
        body = (
            "def f(a, b):\n"
            "    return bool(  # repro-lint: disable=no-bare-assert\n"
            "        a.lo ==\n"
            "        b.lo\n"
            "    )\n"
        )
        findings = self._lint(body)
        assert [f.rule for f in findings] == ["float-endpoint-equality"]


class TestBaselineWorkflow:
    def test_write_then_gate(self, bad_tree, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        assert main([str(bad_tree), "--baseline", str(baseline),
                     "--write-baseline"]) == 0
        assert baseline.exists()

        # Grandfathered finding no longer fails the gate...
        assert main([str(bad_tree), "--baseline", str(baseline)]) == 0
        # ...but a fresh finding still does.
        (bad_tree / "new.py").write_text("def g(y):\n    assert y\n")
        assert main([str(bad_tree), "--baseline", str(baseline)]) == 1

    def test_stale_entries_reported(self, bad_tree, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        main([str(bad_tree), "--baseline", str(baseline), "--write-baseline"])
        (bad_tree / "mod.py").write_text("def f(x):\n    return x\n")
        assert main([str(bad_tree), "--baseline", str(baseline)]) == 0
        assert "stale baseline entry" in capsys.readouterr().out


class TestRepoGate:
    """The PR acceptance criterion: the repo lints clean at HEAD."""

    def test_src_is_clean_under_committed_baseline(self, monkeypatch, capsys):
        monkeypatch.chdir(REPO_ROOT)
        assert main(["src"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_committed_baseline_is_empty(self):
        """PR 8 retired the last grandfathered finding; the baseline must
        only shrink, so an entry reappearing here is a regression."""
        path = os.path.join(REPO_ROOT, ".repro-lint-baseline.json")
        data = json.loads(open(path).read())
        assert data["version"] == 1
        assert data["entries"] == []

    def test_committed_baseline_has_no_stale_entries(self, monkeypatch, capsys):
        monkeypatch.chdir(REPO_ROOT)
        main(["src", "--format", "json"])
        data = json.loads(capsys.readouterr().out)
        assert data["stale_baseline"] == []

    def test_warm_gate_reparses_zero_files(self, monkeypatch, tmp_path, capsys):
        """The `make analyze` acceptance criterion: a second run over an
        unchanged tree replays everything from the cache."""
        monkeypatch.chdir(REPO_ROOT)
        cache_dir = tmp_path / "cache"
        assert main(["src", "--cache-dir", str(cache_dir)]) == 0
        cold = capsys.readouterr().out
        assert "0 cached)" in cold
        assert main(["src", "--cache-dir", str(cache_dir)]) == 0
        warm = capsys.readouterr().out
        assert "(0 reparsed" in warm
        assert "0 finding(s)" in warm

    def test_introducing_bad_fixture_fails_gate(self, monkeypatch, tmp_path):
        """Copy src adding one violation: the gate must flip to red."""
        monkeypatch.chdir(REPO_ROOT)
        bad = tmp_path / "planted.py"
        bad.write_text("def f(x):\n    assert x\n    return x\n")
        assert main(["src", str(bad)]) == 1
