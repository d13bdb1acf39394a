"""Pairwise contraction of multi-operand einsums (``chart.contract``).

Every value-level einsum with three or more operands goes through
``contract``; numpy's own multi-operand einsum runs one nested loop over
all indices, which cost the lab most of its value-level time.
"""
import ast
from pathlib import Path

import numpy as np
import pytest

import nklab
from nklab import chart as C
from nklab import findiff as F
from nklab import jets as J
from nklab import suites
from nklab.chart import _contract_plan, contract

_SRC = Path(nklab.__file__).resolve().parent
_MODULES = sorted(_SRC.glob("*.py"))


def _calls(tree):
    """(call, enclosing function name) for every call in ``tree``."""
    def walk(node, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from walk(child, child.name)
            else:
                if isinstance(child, ast.Call):
                    yield child, fn
                yield from walk(child, fn)

    yield from walk(tree, None)


def _name(func):
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def _contract_specs():
    specs = set()
    for path in _MODULES:
        for call, _ in _calls(ast.parse(path.read_text())):
            if _name(call.func) == "contract" and isinstance(call.args[0], ast.Constant):
                specs.add((path.stem, call.args[0].value))
    return sorted(specs)


_SPECS = _contract_specs()


def test_scan_finds_the_routed_specs():
    modules = {m for m, _ in _SPECS}
    assert {"ansatz", "calculus", "chart", "models", "nkcore", "reduction"} <= modules
    assert len(_SPECS) >= 30


# lab shapes: one point (the single-point checks) or lab-fd's 20 samples,
# 3 tangent vectors per point, dimension 6; the greedy order depends on them
@pytest.mark.parametrize("batch", [1, 20])
@pytest.mark.parametrize("module,spec", _SPECS)
def test_contract_equals_einsum(module, spec, batch):
    sizes = {"z": batch, "b": batch, "n": 3}
    rng = np.random.default_rng(0)
    ops = [rng.standard_normal([sizes.get(ch, 6) for ch in term])
           for term in spec.split("->")[0].split(",")]
    steps = _contract_plan(spec, tuple(op.shape for op in ops))
    assert all(len(pos) == 2 for pos, _ in steps)
    want = np.einsum(spec, *ops)
    got = contract(spec, *ops)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_a_batch_of_8_points_or_more_is_planned_once(monkeypatch):
    # every (spec, shapes) the lab plans, exact and fd: the greedy order at
    # 8 points is the one at a 64-point chunk and at the largest stencil
    # block, so planning at 8 for all of them changes no arithmetic
    seen = set()

    def spy(spec, shapes):
        seen.add((spec, shapes))
        return _contract_plan(spec, shapes)

    monkeypatch.setattr(C, "_contract_plan", spy)
    for mode in ("exact", "fd"):
        suites.run(samples=8, mode=mode)
    assert len({spec for spec, _ in seen}) >= 25
    for spec, shapes in seen:
        batched = C._batch_operands(spec)
        assert batched, spec
        assert all(shapes[i][0] <= J.MIN_CHUNK for i in batched), (spec, shapes)

        def plan(nb):
            at = list(shapes)
            for i in batched:
                at[i] = (nb, *at[i][1:])
            return _contract_plan.__wrapped__(spec, tuple(at))

        assert plan(8) == plan(64) == plan(F.BLOCK + J.MIN_CHUNK - 1), (spec, shapes)


def test_the_batch_letter_leads_the_output_and_its_operands():
    assert C._batch_operands("zai,zab,zbj->zij") == (0, 1, 2)
    assert C._batch_operands("ai,zab,bj->zij") == (1,)
    assert C._batch_operands("iaj,i,j->a") == ()


def test_no_multi_operand_einsum_outside_contract():
    offenders = []
    for path in _MODULES:
        for call, fn in _calls(ast.parse(path.read_text())):
            if _name(call.func) != "einsum" or (path.stem, fn) == ("chart", "contract"):
                continue
            starred = any(isinstance(a, ast.Starred) for a in call.args)
            if starred or len(call.args) >= 4:
                offenders.append(f"{path.name}:{call.lineno}")
    assert offenders == []


def test_matmul_runs_only_in_the_jet_kernels():
    # one batched-matmul kernel of two arrays (einsum2) and the gathered
    # order >= 1 jet product (jj); every other product goes through them
    callers = sorted({(path.stem, fn) for path in _MODULES
                      for call, fn in _calls(ast.parse(path.read_text()))
                      if _name(call.func) == "matmul"})
    assert callers == [("jets", "einsum2"), ("jets", "jj")]


def test_two_operands_run_the_kernel_without_a_plan(monkeypatch):
    # a two-operand spec needs no contraction order: contract is the kernel
    def no_plan(spec, shapes):
        raise AssertionError("a two-operand contraction was planned")

    monkeypatch.setattr(C, "_contract_plan", no_plan)
    rng = np.random.default_rng(2)
    for spec, shapes in (("zab,zbc->zac", ((20, 6, 6), (20, 6, 6))),
                         ("zij,zkj->kzi", ((20, 6, 4), (20, 3, 4))),
                         ("zi,zijk->zjk", ((20, 6), (20, 6, 6, 6)))):
        x, y = (rng.standard_normal(s) for s in shapes)
        want = np.einsum(spec, x, y)
        got = contract(spec, x, y)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_two_operand_einsums_outside_the_kernel_are_few():
    # the checks contract two arrays through contract, which is the kernel;
    # np.einsum keeps jc and junary (a constant or one jet operand), the
    # unary specs and interior's ellipsis spec
    left = []
    for path in _MODULES:
        for call, fn in _calls(ast.parse(path.read_text())):
            if _name(call.func) == "einsum" and len(call.args) == 3:
                left.append((path.stem, fn))
    assert sorted(left) == [("exterior", "interior"), ("jets", "jc")]
