"""Richardson stencil jets: one stencil per context, evaluated block by block, exact
arithmetic order kept."""
import math
import tracemalloc

import numpy as np
import pytest

from nklab import chart as C
from nklab import findiff as F
from nklab import jets as J
from nklab import models as M
from nklab import suites
from nklab.chart import (ChartMap, DegenerateFrameError, EvalContext, OutOfDomainError,
                         sample_points)
from nklab.findiff import fd_jet
from nklab.suites import MODEL_NAMES

A = np.array([[0.7, -1.3, 0.4], [1.1, 0.2, -0.9]])


def _sin_ax(p):
    """Point-wise f: R^3 -> R^2, f(x) = sin(A x)."""
    return np.sin(p @ A.T)


def _poly(x, y, z, cubic):
    """Polynomial R^3 -> R^2 of degree 3, or 2 with ``cubic=0``; arrays or jets."""
    return [1 + 2 * x - y * z + cubic * 0.5 * x * x * x, cubic * x * y * z - y * y + 3 * z]


def _reference(f, points, space, h):
    """The per-offset loop: one call of f for each stencil offset and step."""

    def raw(step):
        vals = {}
        for m in space.monomials:
            for off, _ in F._stencil_for(m):
                if off not in vals:
                    vals[off] = np.asarray(f(points + step * np.array(off)), dtype=float)
        nb = points.shape[0]
        tshape = next(iter(vals.values())).shape[1:]
        out = np.zeros((*tshape, space.ncoef, nb))
        for k, m in enumerate(space.monomials):
            acc = np.zeros((nb, *tshape))
            for off, w in F._stencil_for(m):
                acc = acc + w * vals[off]
            out[..., k, :] = np.moveaxis(acc, 0, -1) / step ** sum(m)
        return out

    der = (4.0 * raw(h / 2.0) - raw(h)) / 3.0
    fac = np.array([math.prod(math.factorial(mi) for mi in m) for m in space.monomials])
    c = der / fac[:, None]
    c[..., 0, :] = np.moveaxis(np.asarray(f(points), dtype=float), 0, -1)
    return c


@pytest.fixture()
def points(rng):
    return rng.uniform(-1.0, 1.0, size=(5, 3))


@pytest.mark.parametrize("order", [1, 2, 3])
def test_one_call_on_every_stencil_point(monkeypatch, points, order):
    # 64-point blocks: each stencil point goes to f once, in order, in the
    # blocks of the batch rule; at order 1 a 6-point remainder would be left
    # of the 70 points, so the last block starts 8 points earlier
    monkeypatch.setattr(F, "BLOCK", 64)
    space = J.jetspace(3, order)
    h = F.default_step(order)
    offsets = F._plan(space)[0]
    stencil = points + np.array([h, h / 2.0])[:, None, None, None] * offsets[None, :, None, :]
    stencil = stencil.reshape(-1, 3)
    calls = []

    def f(p):
        calls.append(p)
        return {"x": _sin_ax(p)}

    jet = F.fd_jet(f, points, space)["x"]
    assert [len(p) for p in calls] == [rows.stop - rows.start
                                       for rows in J.chunks(len(stencil), 64)]
    assert order > 1 or [len(p) for p in calls] == [56, 14]
    assert np.array_equal(np.concatenate(calls), stencil)
    assert np.array_equal(jet.c, _reference(_sin_ax, points, space, h))


@pytest.mark.parametrize("order", [1, 2, 3])
def test_bit_identical_to_per_offset_loop(points, order):
    space = J.jetspace(3, order)
    h = F.default_step(order)
    jet = F.fd_jet(lambda p: {"x": _sin_ax(p)}, points, space)["x"]
    assert jet.space is space
    assert np.array_equal(jet.c, _reference(_sin_ax, points, space, h))


@pytest.mark.parametrize("order", [2, 3])
def test_polynomial_reproduced(points, order):
    space = J.jetspace(3, order)
    cubic = float(order >= 3)
    coords = J.seed_coordinates(space, points)
    xyz = [coords[i] for i in range(3)]
    exact = J.jassemble((2,), [((i,), e) for i, e in enumerate(_poly(*xyz, cubic))])
    jet = F.fd_jet(lambda p: {"x": np.stack(_poly(*p.T, cubic), axis=1)}, points, space)["x"]
    assert np.max(np.abs(jet.c - exact.c)) < 1e-8


def test_value_row_is_f_at_points(points):
    jet = F.fd_jet(lambda p: {"x": _sin_ax(p)}, points, J.jetspace(3, 3))["x"]
    assert np.array_equal(jet.val, _sin_ax(points))


def test_stencil_leaving_the_box_raises():
    def metric(ctx):
        return J.jconst(ctx.space, np.broadcast_to(np.eye(2), (ctx.nbatch, 2, 2)).copy())

    chart = ChartMap("flat", [(-1.0, 1.0)] * 2, {"metric": metric})
    near_wall = np.array([[0.0, 0.0], [0.999, 0.0]])
    assert EvalContext(chart, near_wall, order=3).root("metric").c.shape == (2, 2, 10, 2)
    ctx = EvalContext(chart, near_wall, order=3, mode="fd")
    with pytest.raises(OutOfDomainError):
        ctx.root("metric")


def test_fields_combined_side_by_side(points):
    # a scalar and a matrix field in one call: each as if combined alone
    space = J.jetspace(3, 3)
    fields = {"s": lambda p: _sin_ax(p)[:, 0],
              "m": lambda p: _sin_ax(p)[:, :, None] * p[:, None, :]}
    jets = F.fd_jet(lambda p: {k: f(p) for k, f in fields.items()}, points, space)
    for k, f in fields.items():
        assert np.array_equal(jets[k].c, _reference(f, points, space, F.default_step(3)))


# ---------------------------------------------------------------------------
# fd root jets of a context: one stencil evaluation for all of its fields


def _per_root(ctx, name):
    """A root's fd jet the per-root way: a fresh order-0 stencil context for
    this field alone, then one Richardson term at a time."""
    space, nb = ctx.space, ctx.nbatch
    index = {(0,) * space.nvars: 0}
    terms = [[(index.setdefault(off, len(index)), w) for off, w in F._stencil_for(m)]
             for m in space.monomials]
    offsets = np.array(list(index), dtype=float)
    steps = (F.default_step(space.order), F.default_step(space.order) / 2.0)
    pts = ctx.points + np.array(steps)[:, None, None, None] * offsets[None, :, None, :]
    sub = EvalContext(ctx.chart, pts.reshape(-1, space.nvars), order=0)
    flat = np.asarray(ctx.chart.evaluators[name](sub).val, dtype=float)
    vals = flat.reshape(2, len(offsets), nb, *flat.shape[1:])
    raw = []
    for row in terms:
        acc = np.zeros((2, nb, *flat.shape[1:]))
        for i, w in row:
            acc = acc + w * vals[:, i]
        raw.append(acc)
    hpow = np.array([[s ** sum(m) for m in space.monomials] for s in steps])
    fac = np.array([math.prod(math.factorial(mi) for mi in m) for m in space.monomials])
    raw = np.moveaxis(np.stack(raw, axis=1), (1, 2), (-2, -1))
    d1 = raw[0] / hpow[0][:, None]
    d2 = raw[1] / hpow[1][:, None]
    c = (4.0 * d2 - d1) / 3.0 / fac[:, None]
    c[..., 0, :] = np.moveaxis(vals[0, 0], 0, -1)
    return c


@pytest.fixture()
def stencil_calls(monkeypatch):
    """The field names of every ``fd_jet`` call ``chart`` makes from now on."""
    calls = []

    def spy(f, points, space):
        out = fd_jet(f, points, space)
        calls.append(sorted(out))
        return out

    monkeypatch.setattr(C, "fd_jet", spy)
    return calls


@pytest.mark.parametrize("model", MODEL_NAMES)
def test_one_stencil_call_per_context(model, stencil_calls):
    for chart in M.build_model(model).charts:
        pts = sample_points(chart, 3, np.random.default_rng(1))
        for order in (1, 2, 3, 4):
            ctx = EvalContext(chart, pts, order, mode="fd")
            stencil_calls.clear()
            jets = {name: ctx.root(name) for name in chart.evaluators}
            assert stencil_calls == [sorted(chart.evaluators)], (chart.name, order)
            for name, jet in jets.items():
                assert np.array_equal(jet.c, _per_root(ctx, name)), (chart.name, order, name)


@pytest.mark.parametrize("model", MODEL_NAMES)
def test_roots_from_small_blocks_equal_the_whole_stencil(monkeypatch, model):
    # 64-point blocks: almost every stencil of 3 points spans several of
    # them, and on s2s2 the order-2 one (198 points) would leave a 6-point
    # remainder, so its last block starts 8 points earlier
    monkeypatch.setattr(F, "BLOCK", 64)
    for chart in M.build_model(model).charts:
        pts = sample_points(chart, 3, np.random.default_rng(1))
        for order in (1, 2, 3, 4):
            ctx = EvalContext(chart, pts, order, mode="fd")
            for name in chart.evaluators:
                assert np.array_equal(ctx.root(name).c, _per_root(ctx, name)), (
                    chart.name, order, name)


@pytest.mark.parametrize("model", ["s6", "ansatz"])
def test_fd_memory_is_that_of_exact(model):
    # the whole lab of a model at 64 samples: the fd roots of a 64-point
    # chunk (9344 stencil points at order 2) peak no higher than 1.5x the
    # exact lab; with each stencil as one batch it read 2.1x on s6 and 2.2x
    # on ansatz
    peaks = {}
    tracemalloc.start()
    try:
        for mode in ("exact", "fd"):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            suites.run(models=(model,), samples=64, mode=mode)
            peaks[mode] = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peaks["fd"] <= 1.5 * peaks["exact"], peaks


def test_a_field_failing_on_a_later_block_is_left_out(monkeypatch, stencil_calls):
    # 8-point blocks of a 36-point stencil; only the first block holds the
    # context's first point
    monkeypatch.setattr(F, "BLOCK", 8)
    pts = np.array([[0.0, 0.0], [0.3, -0.2]])
    seen = []

    def bad(ctx):
        seen.append(ctx.nbatch)
        if ctx.nbatch > 2 and not np.array_equal(ctx.points[0], pts[0]):
            raise DegenerateFrameError("no frame past the first block")
        return ctx.coord(0)

    def metric(ctx):
        return J.jconst(ctx.space, np.broadcast_to(np.eye(2), (ctx.nbatch, 2, 2)).copy())

    chart = ChartMap("flat", [(-1.0, 1.0)] * 2, {"metric": metric, "bad": bad})
    ctx = EvalContext(chart, pts, order=2, mode="fd")
    seen.clear()
    assert ctx.root("metric").c.shape == (2, 2, 6, 2)
    assert stencil_calls == [["metric"]]
    assert seen == [8, 8]       # tried on the second block, then no more
    with pytest.raises(DegenerateFrameError):
        ctx.root("bad")


def test_a_field_failing_on_the_stencil_raises_only_when_requested(stencil_calls):
    def bad(ctx):
        if ctx.nbatch > 2:      # only on the stencil, never at the context's points
            raise DegenerateFrameError("no frame on the stencil")
        return ctx.coord(0)

    def metric(ctx):
        return J.jconst(ctx.space, np.broadcast_to(np.eye(2), (ctx.nbatch, 2, 2)).copy())

    chart = ChartMap("flat", [(-1.0, 1.0)] * 2, {"metric": metric, "bad": bad})
    pts = np.array([[0.0, 0.0], [0.3, -0.2]])
    assert EvalContext(chart, pts, order=2).root("bad").c.shape == (6, 2)
    ctx = EvalContext(chart, pts, order=2, mode="fd")
    assert ctx.root("metric").c.shape == (2, 2, 6, 2)
    assert stencil_calls == [["metric"]]
    with pytest.raises(DegenerateFrameError):
        ctx.root("bad")
    with pytest.raises(DegenerateFrameError):
        EvalContext(chart, pts, order=2, mode="fd").root("bad")
