"""Tests for the bench-smoke entry point (inline mode unless a test says so)."""

import json

from repro.bench.smoke import main, run_smoke


class TestRunSmoke:
    def test_document_shape(self):
        doc = run_smoke(
            algorithms=("timefirst",), workers_list=(1, 2),
            n_dangling=20, n_results=5, repeat=1, parallel_mode="inline",
        )
        assert doc["benchmark"] == "parallel-smoke"
        assert doc["parallel_mode"] == "inline"
        assert doc["workload"]["n_dangling"] == 20
        assert len(doc["cells"]) == 2
        assert "workers=2" in doc["rendered"]

    def test_cells_agree_and_carry_parallel_counters(self):
        doc = run_smoke(
            algorithms=("timefirst",), workers_list=(1, 2),
            n_dangling=20, n_results=5, repeat=1, parallel_mode="inline",
        )
        by_workers = {c["workers"]: c for c in doc["cells"]}
        assert all(c["ok"] for c in doc["cells"])
        assert by_workers[1]["results"] == by_workers[2]["results"]
        assert by_workers[1]["speedup_vs_serial"] == 1.0
        sharded = by_workers[2]
        assert sharded["shards"] == 2
        assert sharded["replicated_tuples"] >= 0
        assert sharded["skew_pct"] >= 100
        assert sharded["max_shard_seconds"] > 0
        assert sharded["critical_path_speedup"] > 0

    def test_process_cells_time_the_first_call_apart(self):
        doc = run_smoke(
            algorithms=("timefirst",), workers_list=(1, 2),
            n_dangling=20, n_results=5, repeat=2, parallel_mode="process",
        )
        by_workers = {c["workers"]: c for c in doc["cells"]}
        assert all(c["ok"] for c in doc["cells"])
        assert "cold_seconds" not in by_workers[1]
        sharded = by_workers[2]
        assert sharded["cold_seconds"] > 0
        assert sharded["cold_pool_started"] in (0, 1)
        assert sharded["warm_median_seconds"] >= sharded["seconds"] > 0

    def test_inline_cells_have_no_cold_fields(self):
        doc = run_smoke(
            algorithms=("timefirst",), workers_list=(1, 2),
            n_dangling=20, n_results=5, repeat=1, parallel_mode="inline",
        )
        assert all("cold_seconds" not in c for c in doc["cells"])
        assert all(c["warm_median_seconds"] > 0 for c in doc["cells"])

    def test_serial_cells_have_no_shard_counters(self):
        doc = run_smoke(
            algorithms=("timefirst",), workers_list=(1,),
            n_dangling=15, n_results=3, repeat=1, parallel_mode="inline",
        )
        (cell,) = doc["cells"]
        assert "shards" not in cell


class TestMain:
    def test_writes_json_and_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "BENCH_parallel.json"
        rc = main([
            "--out", str(out), "--algorithms", "timefirst",
            "--workers", "1", "2", "--dangling", "20", "--results", "5",
            "--repeat", "1", "--mode", "inline",
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["benchmark"] == "parallel-smoke"
        captured = capsys.readouterr()
        assert "Parallel smoke" in captured.out
        assert str(out) in captured.out
