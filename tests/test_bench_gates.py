"""Tests for the ratio-gated benchmark runner (repro.bench.gates)."""

import dataclasses
import itertools
import json
import time
from pathlib import Path

import pytest

from repro.bench import gates
from repro.workloads.synthetic import SyntheticConfig

#: Counters that keep every suite contract.
CLEAN = {
    "prepared": {"sort_calls": 1},
    "planner": {"warm_search_nodes": 0,
                "warm_cache_hits": len(gates.PLANNER_FLEET)},
}


def pinned(suite, ratio, ok=True, **counters):
    return {
        "suite": suite, "cell": "c", "seconds": {"ref": ratio, "sub": 1.0},
        "ratio": ratio, "ok": ok,
        "counters": {**CLEAN.get(suite, {}), **counters},
    }


# Pinned cells x gate rules: each row names exactly the rules it breaks.
# (id, suite, ratio, ok, counters, baseline ratio or None: no cell, rules)
GATE_ROWS = [
    ("kernels-pass", "kernels", 2.0, True, {}, 2.0, []),
    ("prepared-pass", "prepared", 2.0, True, {}, 2.0, []),
    ("allen-pass", "allen", 2.0, True, {}, 2.0, []),
    ("planner-pass", "planner", 20.0, True, {}, 20.0, []),
    ("parallel-pass", "parallel", 0.5, True, {}, None, []),  # a record
    ("kernels-ok", "kernels", 2.0, False, {}, 2.0, ["ok"]),
    ("allen-ok", "allen", 2.0, False, {}, 2.0, ["ok"]),
    ("planner-ok", "planner", 20.0, False, {}, 20.0, ["ok"]),
    ("parallel-ok", "parallel", 0.5, False, {}, None, ["ok"]),
    ("prepared-contract-sorts", "prepared", 2.0, True, {"sort_calls": 2},
     2.0, ["contract"]),
    ("planner-contract-search", "planner", 20.0, True,
     {"warm_search_nodes": 7}, 20.0, ["contract"]),
    ("planner-contract-hits", "planner", 20.0, True,
     {"warm_cache_hits": 10}, 20.0, ["contract"]),
    ("kernels-floor", "kernels", 0.9, True, {}, 1.0, ["floor"]),
    ("allen-floor", "allen", 0.9, True, {}, 1.0, ["floor"]),
    ("planner-floor", "planner", 1.9, True, {}, 2.0, ["floor"]),
    ("kernels-regression", "kernels", 1.6, True, {}, 2.0, ["regression"]),
    ("prepared-regression", "prepared", 1.6, True, {}, 2.0, ["regression"]),
    ("allen-regression", "allen", 1.6, True, {}, 2.0, ["regression"]),
    ("planner-regression", "planner", 16.0, True, {}, 20.0, ["regression"]),
    ("kernels-missing", "kernels", 2.0, True, {}, None, ["missing"]),
    ("prepared-missing", "prepared", 2.0, True, {}, None, ["missing"]),
    ("allen-missing", "allen", 2.0, True, {}, None, ["missing"]),
    ("planner-missing", "planner", 20.0, True, {}, None, ["missing"]),
]


@pytest.mark.parametrize(
    "suite, ratio, ok, counters, base_ratio, rules",
    [row[1:] for row in GATE_ROWS], ids=[row[0] for row in GATE_ROWS],
)
def test_gate_rule(suite, ratio, ok, counters, base_ratio, rules):
    cell = pinned(suite, ratio, ok, **counters)
    baseline = {} if base_ratio is None else {"c": {**cell, "ratio": base_ratio}}
    assert list(gates.gate(cell, baseline)) == rules


def test_missing_baseline_message_names_cell_and_fix():
    doc = {"allen": {"cells": [pinned("allen", 2.0)]}}
    (failure,) = gates.check(doc, {"kernels": {"cells": []}})
    assert failure.startswith("allen c:")
    assert "make bench-baseline" in failure


def test_time_arms_alternates_and_loops_short_arms():
    log = []

    def slow():
        log.append("slow")
        time.sleep(0.025)

    setups = []
    seconds, results = gates.time_arms(
        {"slow": (None, slow),
         "fast": (lambda: setups.append(1), lambda: log.append("fast") or 7)},
        repeat=2,
    )
    assert results == {"slow": None, "fast": 7}
    # probe, probe, then the arms take turns sample by sample.
    assert [k for k, _ in itertools.groupby(log)] == ["slow", "fast"] * 3
    fast_calls = log.count("fast")
    assert fast_calls > 3 and (fast_calls - 1) % 2 == 0  # looped samples
    assert len(setups) == fast_calls  # setup before every call
    assert seconds["slow"] >= 0.025 > seconds["fast"]


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setitem(gates.PREPARED_SIZES, "3k", SyntheticConfig(
        n_dangling=150, n_results=20, window=150))
    monkeypatch.setattr(gates, "PARALLEL_CONFIG",
                        SyntheticConfig(n_dangling=60, n_results=10))


@pytest.mark.parametrize("suite, cell, mode", [
    ("kernels", "line3/1k", None),
    ("kernels", "star3/1k", None),
    ("prepared", "fleet/3k", None),
    ("allen", "overlaps/1k", None),
    ("allen", "during/1k", None),
    ("allen", "meets/1k", None),
    ("allen", "equals/1k", None),
    ("planner", "table1", None),
    ("parallel", "line3/timefirst", "inline"),
    ("parallel", "line3/timefirst", "process"),
])
def test_real_cell(tiny, monkeypatch, suite, cell, mode):
    if mode:
        monkeypatch.setattr(gates, "PARALLEL_MODE", mode)
    got = gates.SUITES[suite].measure(cell, 1)
    assert (got["suite"], got["cell"], got["ok"]) == (suite, cell, True)
    assert all(s > 0 for s in got["seconds"].values()) and got["ratio"] > 0
    assert "contract" not in gates.gate(got, {cell: got})
    counters = got["counters"]
    if suite == "kernels":
        assert counters["results"] > 0
        assert counters["sort_calls"] == 1
        assert counters["rows"] + counters["semijoin_dropped"] == counters["input_tuples"]
    elif suite == "prepared":
        assert counters["sort_calls"] == 1
        assert counters["evaluations"] == 4  # distinct hypergraphs
    elif suite == "allen":
        assert counters["pairs"] > 0  # meets/equals fire on gridded endpoints
        assert counters["input_tuples"] == 2 * gates.ALLEN_SIZES["1k"]
    elif suite == "planner":
        assert counters["cold_search_nodes"] > 0
        assert counters["warm_search_nodes"] == 0
        assert counters["warm_cache_hits"] == counters["queries"]
    else:
        assert counters["shards"] == 2
        assert ("cold_pool_started" in counters) == (mode == "process")


def test_parallel_cell_carries_shard_counters(tiny, monkeypatch):
    monkeypatch.setattr(gates, "PARALLEL_MODE", "inline")
    got = gates.parallel_cell("line3/timefirst", 1)
    assert got["ok"]  # serial and sharded results agree
    counters = got["counters"]
    assert counters["results"] > 0 and counters["shards"] == 2
    assert counters["replicated_tuples"] >= 0
    assert counters["skew_pct"] >= 100
    assert counters["max_shard_seconds"] > 0


def test_inline_parallel_cell_has_no_cold_fields(tiny, monkeypatch):
    monkeypatch.setattr(gates, "PARALLEL_MODE", "inline")
    got = gates.parallel_cell("line3/timefirst", 1)
    assert "cold_seconds" not in got["counters"]
    assert "cold_pool_started" not in got["counters"]
    assert all(s > 0 for s in got["seconds"].values())


@pytest.fixture
def small_suites(tiny, tmp_path, monkeypatch):
    """One small cell per suite, in an empty directory, with recorded times.

    The tests using it check round-trip mechanics, not timing: each arm
    runs once for the result its cell cross-validates, and every cell
    records the same seconds (reference 2.5x the subject), so a check
    compares recorded numbers and cannot fail on a slow run. The real
    floors are gated by ``make bench-check`` and by
    ``test_committed_baseline_passes_its_own_gate``.
    """

    def recorded_arms(arms, repeat):
        results = {}
        for name, (setup, fn) in arms.items():
            if setup is not None:
                setup()
            results[name] = fn()
        reference, subject = arms
        return {reference: 2.5, subject: 1.0}, results

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(gates, "REPEAT", 1)
    monkeypatch.setattr(gates, "time_arms", recorded_arms)
    monkeypatch.setattr(gates, "PARALLEL_MODE", "inline")
    for name, cell in [("kernels", "line3/1k"),
                       ("parallel", "line3/timefirst")]:
        monkeypatch.setitem(gates.SUITES, name, dataclasses.replace(
            gates.SUITES[name], cells=(cell,), check_cells=(cell,)))
    return tmp_path


@pytest.mark.parametrize("suite", ["allen", "kernels", "planner"])
def test_cli_exits_2_on_unreadable_baseline(tmp_path, monkeypatch, capsys,
                                            suite):
    monkeypatch.chdir(tmp_path)
    assert gates.main(["--check", suite]) == 2
    (tmp_path / gates.BASELINE).write_text("{not json")
    assert gates.main([suite]) == 2  # must not clobber other sections
    assert "cannot read baseline" in capsys.readouterr().out
    with pytest.raises(SystemExit):
        gates.main(["no-such-suite"])


@pytest.mark.parametrize("suite", ["kernels", "planner", "parallel"])
def test_cli_writes_baseline_and_exits_zero(small_suites, capsys, suite):
    other = {"prepared": {"cells": ["untouched"]}}
    (small_suites / gates.BASELINE).write_text(json.dumps(other))
    assert gates.main([suite]) == 0
    doc = json.loads((small_suites / gates.BASELINE).read_text())
    assert list(doc) == ["prepared", suite]
    assert doc["prepared"] == other["prepared"]
    assert [c["cell"] for c in doc[suite]["cells"]] == \
        list(gates.SUITES[suite].cells)
    out = capsys.readouterr().out
    assert f"{suite:<9}" in out and f"wrote {suite} to {gates.BASELINE}" in out


@pytest.mark.parametrize("suite", ["kernels", "planner"])
def test_cli_check_round_trips(small_suites, capsys, suite):
    assert gates.main([suite]) == 0
    written = (small_suites / gates.BASELINE).read_text()
    assert gates.main(["--check", suite]) == 0
    assert "bench gate passed" in capsys.readouterr().out
    check = json.loads((small_suites / gates.CHECK_OUT).read_text())
    assert list(check) == [suite]
    assert (small_suites / gates.BASELINE).read_text() == written


def test_committed_baseline_passes_its_own_gate():
    path = Path(__file__).resolve().parent.parent / gates.BASELINE
    baseline = json.loads(path.read_text())
    assert list(baseline) == list(gates.SUITES)
    for name, suite in gates.SUITES.items():
        cells = {c["cell"]: c for c in baseline[name]["cells"]}
        assert list(cells) == list(suite.cells)
        for cell in cells.values():
            assert gates.gate(cell, cells) == {}, (name, cell["cell"])
    # The lazy-sweep default rests on >= 1.3x over forward-scan at N=10k.
    allen = {c["cell"]: c for c in baseline["allen"]["cells"]}
    assert allen["overlaps/10k"]["ratio"] >= 1.3
