"""Incremental-cache behavior: a warm run re-parses zero files, an edit
invalidates exactly the edited file, and warm results are byte-identical
to cold ones (including suppression accounting)."""

import json
import os

import pytest

from repro.analysis.cache import AnalysisCache, SCHEMA_VERSION, rules_salt
from repro.analysis.engine import run_lint
from repro.analysis.flow_rules import flow_rules
from repro.analysis.rules import default_rules


GOOD = "def add(a, b):\n    return a + b\n"
SUPPRESSED = (
    "def check(x):\n"
    "    assert x  # repro-lint: disable=no-bare-assert\n"
    "    return x\n"
)
BAD = "def check(x):\n    assert x\n    return x\n"


@pytest.fixture()
def tree(tmp_path):
    pkg = tmp_path / "src" / "repro" / "algorithms"
    pkg.mkdir(parents=True)
    (pkg / "good.py").write_text(GOOD)
    (pkg / "quiet.py").write_text(SUPPRESSED)
    (pkg / "bad.py").write_text(BAD)
    return tmp_path


def _run(tree, cache_dir):
    cwd = os.getcwd()
    os.chdir(tree)
    try:
        return run_lint(
            ["src"],
            default_rules() + flow_rules(),
            cache=AnalysisCache(str(cache_dir)),
        )
    finally:
        os.chdir(cwd)


class TestCacheLifecycle:
    def test_cold_then_warm(self, tree, tmp_path):
        cache_dir = tmp_path / "cache"
        cold = _run(tree, cache_dir)
        assert cold.files_scanned == 3
        assert cold.files_reparsed == 3
        assert cold.files_cached == 0

        warm = _run(tree, cache_dir)
        assert warm.files_scanned == 3
        assert warm.files_reparsed == 0
        assert warm.files_cached == 3

    def test_warm_results_identical(self, tree, tmp_path):
        cache_dir = tmp_path / "cache"
        cold = _run(tree, cache_dir)
        warm = _run(tree, cache_dir)
        assert [f.to_dict() for f in warm.findings] == [
            f.to_dict() for f in cold.findings
        ]
        # The inline suppression in quiet.py replays from the cached table.
        assert cold.suppressed == warm.suppressed == 1
        assert [f.rule for f in cold.findings] == ["no-bare-assert"]

    def test_edit_invalidates_exactly_itself(self, tree, tmp_path):
        cache_dir = tmp_path / "cache"
        _run(tree, cache_dir)
        target = tree / "src" / "repro" / "algorithms" / "good.py"
        target.write_text("def add(a, b):\n    return b + a\n")
        after = _run(tree, cache_dir)
        assert after.files_reparsed == 1
        assert after.files_cached == 2

    def test_cache_file_is_schema_stamped(self, tree, tmp_path):
        cache_dir = tmp_path / "cache"
        _run(tree, cache_dir)
        payload = json.loads((cache_dir / "files.json").read_text())
        assert payload["schema"] == SCHEMA_VERSION
        assert len(payload["files"]) == 3

    def test_schema_mismatch_discards_cache(self, tree, tmp_path):
        # A newer stamp, and an older one: a cache from an earlier
        # summary harvest must never be replayed.
        for schema in (SCHEMA_VERSION + 1, SCHEMA_VERSION - 1):
            cache_dir = tmp_path / f"cache{schema}"
            _run(tree, cache_dir)
            path = cache_dir / "files.json"
            payload = json.loads(path.read_text())
            payload["schema"] = schema
            path.write_text(json.dumps(payload))
            after = _run(tree, cache_dir)
            assert after.files_reparsed == 3
            assert after.files_cached == 0

    def test_corrupt_cache_file_is_tolerated(self, tree, tmp_path):
        cache_dir = tmp_path / "cache"
        _run(tree, cache_dir)
        (cache_dir / "files.json").write_text("{not json")
        after = _run(tree, cache_dir)
        assert after.files_reparsed == 3

    def test_rule_set_change_invalidates(self, tree, tmp_path):
        cache_dir = tmp_path / "cache"
        _run(tree, cache_dir)
        cwd = os.getcwd()
        os.chdir(tree)
        try:
            fewer = [r for r in default_rules() if r.id != "no-bare-assert"]
            report = run_lint(
                ["src"], fewer, cache=AnalysisCache(str(cache_dir))
            )
        finally:
            os.chdir(cwd)
        assert report.files_reparsed == 3
        assert report.findings == []


class TestDigest:
    def test_digest_depends_on_source_and_salt(self):
        salt_a = rules_salt(["r1", "r2"])
        salt_b = rules_salt(["r1"])
        assert AnalysisCache.digest("x = 1\n", salt_a) != AnalysisCache.digest(
            "x = 2\n", salt_a
        )
        assert AnalysisCache.digest("x = 1\n", salt_a) != AnalysisCache.digest(
            "x = 1\n", salt_b
        )

    def test_salt_is_order_insensitive(self):
        assert rules_salt(["a", "b"]) == rules_salt(["b", "a"])
