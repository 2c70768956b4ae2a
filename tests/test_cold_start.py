"""Cold start: scipy loads only when a decomposition is searched.

The fractional edge cover LP is the only user of scipy, and most
processes never solve it: spawn workers sweeping kernel shards, reads
through a warm plan cache, the CLI's ``--help``. Each case runs in a
fresh interpreter, because this test process has long since imported
scipy through the rest of the suite.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: The Table 1 anchor shapes and their pinned ρ.
TABLE1_RHO = {
    "line(3)": 2.0,
    "star(3)": 3.0,
    "triangle()": 1.5,
    "cycle(4)": 2.0,
    "bowtie()": 2.5,
}

STAR_READ = textwrap.dedent(
    """
    import sys
    from repro.algorithms.registry import temporal_join
    from repro.core.query import JoinQuery
    from repro.workloads.synthetic import SyntheticConfig, generate

    query = JoinQuery.star(3)
    db = generate(query, SyntheticConfig(n_dangling=20, n_results=5, seed=1))
    rows = temporal_join(query, db)
    assert len(rows) == 5, len(rows)
    print("scipy" in sys.modules)
    """
)


def _run(args, **env_extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_PLAN_CACHE", None)
    env.update(env_extra)
    out = subprocess.run(
        [sys.executable] + args, env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


def _scipy_loaded_after(code, **env_extra):
    tail = "\nimport sys\nprint('scipy' in sys.modules)\n"
    return _run(["-c", code + tail], **env_extra).split()[-1] == "True"


@pytest.mark.parametrize("code", [
    "import repro",
    "import repro.parallel.worker",
])
def test_import_does_not_load_scipy(code):
    assert not _scipy_loaded_after(code)


def test_cli_help_does_not_load_scipy():
    code = textwrap.dedent(
        """
        import runpy, sys
        sys.argv = ["repro", "--help"]
        try:
            runpy.run_module("repro", run_name="__main__")
        except SystemExit as stop:
            assert stop.code in (0, None), stop.code
        """
    )
    assert not _scipy_loaded_after(code)


def test_warm_plan_cache_star_read_does_not_load_scipy(tmp_path):
    cache = str(tmp_path / "plans")
    # The first process searches, solves the LP and fills the cache.
    assert _run(["-c", STAR_READ], REPRO_PLAN_CACHE=cache).split()[-1] == "True"
    assert os.path.exists(os.path.join(cache, "plans.pkl"))
    # The second reads the plan back and never touches the solver.
    assert _run(["-c", STAR_READ], REPRO_PLAN_CACHE=cache).split()[-1] == "False"


def test_rho_of_table1_shapes_is_unchanged_and_loads_scipy():
    code = textwrap.dedent(
        f"""
        import json, sys
        from repro.core.query import JoinQuery
        from repro.nontemporal.cover import rho

        assert "scipy" not in sys.modules
        widths = {{
            shape: rho(eval("JoinQuery." + shape).hypergraph)
            for shape in {sorted(TABLE1_RHO)!r}
        }}
        print(json.dumps([widths, "scipy" in sys.modules]))
        """
    )
    widths, loaded = json.loads(_run(["-c", code]).splitlines()[-1])
    assert widths == TABLE1_RHO
    assert loaded
