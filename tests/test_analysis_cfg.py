"""CFG golden-shape tests and worklist-solver behavior.

The shapes are deliberate goldens: block numbering is deterministic
(entry=0, exit=1, then creation order), so a change to the builder that
re-routes an edge shows up as a diff here before it silently changes
what a flow rule can prove.
"""

import ast

import pytest

from repro.analysis.cfg import build_cfg
from repro.analysis.dataflow import ReachingDefinitions, solve_forward


def _func(source: str) -> ast.FunctionDef:
    node = ast.parse(source).body[0]
    assert isinstance(node, ast.FunctionDef)
    return node


class TestCfgShapes:
    def test_branch_golden(self):
        cfg = build_cfg(_func(
            "def f(x):\n"
            "    if x:\n"
            "        a = 1\n"
            "    else:\n"
            "        a = 2\n"
            "    return a\n"
        ))
        # 0=entry(if header), 1=exit, 2=after, 3=then, 4=else
        assert cfg.shape() == {0: [3, 4], 1: [], 2: [1], 3: [2], 4: [2]}
        labels = {lab[0] for _, lab in cfg.blocks[0].succs}
        assert labels == {"true", "false"}

    def test_loop_golden(self):
        cfg = build_cfg(_func(
            "def g(xs):\n"
            "    total = 0\n"
            "    for x in xs:\n"
            "        total = total + x\n"
            "    return total\n"
        ))
        # 0=entry, 1=exit, 2=header, 3=after, 4=body (back edge 4->2)
        assert cfg.shape() == {0: [2], 1: [], 2: [3, 4], 3: [1], 4: [2]}
        header_labels = {lab[0] for _, lab in cfg.blocks[2].succs}
        assert header_labels == {"loop-body", "false"}

    def test_try_golden(self):
        cfg = build_cfg(_func(
            "def h():\n"
            "    try:\n"
            "        x = risky()\n"
            "    except ValueError:\n"
            "        x = 0\n"
            "    return x\n"
        ))
        # 0=entry(try header), 1=exit, 2=body, 3=after, 4=handler. The
        # handler is reachable from the protected body (exception may
        # fire before or after the assignment).
        assert cfg.shape() == {0: [2], 1: [], 2: [3, 4], 3: [1], 4: [3]}

    def test_break_and_continue_target_loop_blocks(self):
        cfg = build_cfg(_func(
            "def f(xs):\n"
            "    for x in xs:\n"
            "        if x < 0:\n"
            "            continue\n"
            "        if x > 9:\n"
            "            break\n"
            "    return 1\n"
        ))
        header = next(
            b for b in cfg.blocks.values()
            if b.stmts and isinstance(b.stmts[0], ast.For)
        )
        continue_block = next(
            b for b in cfg.blocks.values()
            if b.stmts and isinstance(b.stmts[-1], ast.Continue)
        )
        assert [dst for dst, _ in continue_block.succs] == [header.id]
        after = [dst for dst, lab in header.succs if lab and lab[0] == "false"]
        break_block = next(
            b for b in cfg.blocks.values()
            if b.stmts and isinstance(b.stmts[-1], ast.Break)
        )
        assert [dst for dst, _ in break_block.succs] == after

    def test_return_edges_to_exit(self):
        cfg = build_cfg(_func(
            "def f(x):\n"
            "    if x:\n"
            "        return 1\n"
            "    return 2\n"
        ))
        return_blocks = [
            b for b in cfg.blocks.values()
            if b.stmts and isinstance(b.stmts[-1], ast.Return)
        ]
        assert len(return_blocks) == 2
        for block in return_blocks:
            assert [dst for dst, _ in block.succs] == [cfg.exit]


class TestWorklistSolver:
    def test_convergence_on_loop_with_join(self):
        func = _func(
            "def f(xs):\n"
            "    acc = []\n"
            "    for x in xs:\n"
            "        if x:\n"
            "            y = 1\n"
            "        else:\n"
            "            y = 2\n"
            "        acc.append(y)\n"
            "    return acc\n"
        )
        cfg = build_cfg(func)
        rd = ReachingDefinitions(params=["xs"])
        solution = solve_forward(cfg, rd)  # must terminate
        ret = func.body[-1]
        state = solution.before(ret)
        assert state is not None
        # Both branch assignments of y survive the loop-exit join.
        assert len(rd.definitions(state, "y")) == 2
        # acc has exactly its single initializer.
        (stmt, value), = rd.definitions(state, "acc")
        assert isinstance(value, ast.List)

    def test_param_definitions_are_sentinels(self):
        func = _func("def f(a):\n    return a\n")
        cfg = build_cfg(func)
        rd = ReachingDefinitions(params=["a"])
        solution = solve_forward(cfg, rd)
        state = solution.before(func.body[0])
        assert rd.definitions(state, "a") == [(None, None)]

    def test_non_convergence_raises(self):
        class Diverging(ReachingDefinitions):
            def join(self, a, b):
                merged = dict(super().join(a, b))
                merged[f"fresh{len(merged)}"] = frozenset()  # grows forever
                return merged

        func = _func(
            "def f(xs):\n"
            "    for x in xs:\n"
            "        x = x\n"
        )
        with pytest.raises(RuntimeError):
            solve_forward(build_cfg(func), Diverging(), max_iterations=50)
