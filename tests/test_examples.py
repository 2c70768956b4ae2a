"""Smoke tests: every example script must run end to end."""

import pathlib
import runpy

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).parent.parent / "examples").glob("*.py")
)


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(script, capsys, monkeypatch):
    # Shrink heavy example configs is unnecessary: they are already sized
    # to finish in seconds; just run them.
    runpy.run_path(str(script), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip(), f"{script.name} produced no output"


def test_examples_exist():
    names = {p.stem for p in EXAMPLES}
    assert {"quickstart", "dblp_patterns", "flight_routes",
            "trading_behavior", "temporal_predicates"} <= names
