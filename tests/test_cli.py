"""Tests for the ``python -m repro`` command-line demo."""

import pytest

from repro.__main__ import main


class TestCLI:
    def test_default_run(self, capsys):
        rc = main(["line3", "--dangling", "30", "--results", "10"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Figure 7 planner decision" in out
        assert "Cost-based advisor" in out
        assert "results in" in out
        assert "RESULT MISMATCH" not in out

    def test_single_algorithm(self, capsys):
        rc = main(
            ["star3", "--dangling", "30", "--results", "10",
             "--algorithm", "timefirst"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "timefirst" in out
        assert out.count("results in") == 1  # only the requested algorithm ran

    def test_durable_run(self, capsys):
        rc = main(["star3", "--dangling", "30", "--results", "10", "--tau", "500"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "tau = 500" in out

    def test_cyclic_family_handles_inapplicable_algorithms(self, capsys):
        rc = main(["triangle", "--dangling", "25", "--results", "8"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "not applicable" in out  # hybrid-interval on a cycle

    def test_unknown_family_rejected(self):
        with pytest.raises(SystemExit):
            main(["dodecahedron"])

    def test_non_finite_tau_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["line3", "--tau", "inf"])
        assert "finite" in capsys.readouterr().err

    def test_stats_flag_prints_counters(self, capsys):
        rc = main(
            ["line3", "--dangling", "20", "--results", "5", "--stats",
             "--algorithm", "timefirst"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Execution counters" in out
        assert "[timefirst]" in out
        assert "sweep.events" in out

    def test_without_stats_flag_no_counters(self, capsys):
        rc = main(["line3", "--dangling", "20", "--results", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Execution counters" not in out

    def test_parse_flag(self, capsys):
        rc = main(
            ["--parse", "R1(a,b) ⋈ R2(b,c)", "--dangling", "20",
             "--results", "5", "--algorithm", "timefirst"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "custom query" in out
        assert "R1(a, b)" in out

    def test_parse_rejects_non_binary(self):
        with pytest.raises(SystemExit):
            main(["--parse", "R1(a,b,c) ⋈ R2(c,d)"])

    def test_list_flag(self, capsys):
        rc = main(["--list"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "TIMEFIRST sweep" in out
        assert "guarded partition" in out.lower() or "guarded" in out

    def test_describe_covers_every_algorithm(self):
        from repro.algorithms.registry import available_algorithms, describe_algorithms

        text = describe_algorithms()
        for name in available_algorithms():
            assert name in text
        assert "(no description)" not in text


class TestCLIParallel:
    def test_workers_inline_run(self, capsys):
        rc = main(
            ["line3", "--dangling", "20", "--results", "5",
             "--workers", "2", "--parallel-mode", "inline"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Parallel: 2 shards, by key or by time" in out
        assert "inline mode" in out
        assert "RESULT MISMATCH" not in out

    def test_workers_with_stats_reports_shard_counters(self, capsys):
        rc = main(
            ["line3", "--dangling", "20", "--results", "5",
             "--workers", "3", "--parallel-mode", "inline", "--stats",
             "--algorithm", "timefirst"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "parallel.shards" in out
        assert "phase.parallel.shard00" in out
        assert "time: no shared attribute" in out  # line3 keeps time cuts

    def test_invalid_workers_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["line3", "--workers", "0"])
        assert "--workers" in capsys.readouterr().err

    def test_workers_process_mode_end_to_end(self, capsys):
        # The acceptance path: a real spawn-based pool, kept tiny.
        rc = main(
            ["line3", "--dangling", "15", "--results", "4",
             "--workers", "2", "--algorithm", "timefirst", "--stats"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Parallel: 2 shards, by key or by time" in out
        assert "parallel.shards" in out
        assert "RESULT MISMATCH" not in out


class TestServeSubcommand:
    """``python -m repro serve`` dispatches to the serving-layer CLI."""

    def test_synthetic_run_with_verify_and_stats(self, capsys):
        rc = main(["serve", "synthetic", "--n", "80", "--verify", "--stats"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "one shared ingest pass" in out
        assert "Per-query SLO report" in out
        assert "MISMATCH" not in out
        assert "serve.ingest_passes" in out
        assert "serve.template_dedup" in out

    def test_workload_tau_defaults_to_paper_value(self, capsys):
        rc = main(["serve", "ldbc", "--n", "60"])
        assert rc == 0
        assert "tau=11" in capsys.readouterr().out

    def test_unknown_workload_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve", "enron"])
        assert "invalid choice" in capsys.readouterr().err
