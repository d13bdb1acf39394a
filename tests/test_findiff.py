"""Richardson stencil jets: one batched call, exact arithmetic order kept."""
import math

import numpy as np
import pytest

from nklab import findiff as F
from nklab import jets as J
from nklab.chart import ChartMap, EvalContext, OutOfDomainError

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
def test_one_call_on_every_stencil_point(points, order):
    space = J.jetspace(3, order)
    noff = len({off for m in space.monomials for off, _ in F._stencil_for(m)})
    calls = []

    def f(p):
        calls.append(p.shape)
        return _sin_ax(p)

    F.fd_jet(f, points, space)
    assert calls == [(2 * noff * len(points), 3)]


@pytest.mark.parametrize("order", [1, 2, 3])
def test_bit_identical_to_per_offset_loop(points, order):
    space = J.jetspace(3, order)
    h = F.default_step(order)
    jet = F.fd_jet(_sin_ax, points, space)
    assert jet.space is space
    assert np.array_equal(jet.c, _reference(_sin_ax, points, space, h))


@pytest.mark.parametrize("order", [2, 3])
def test_polynomial_reproduced(points, order):
    space = J.jetspace(3, order)
    cubic = float(order >= 3)
    coords = J.seed_coordinates(space, points)
    xyz = [coords[i] for i in range(3)]
    exact = J.jassemble((2,), [((i,), e) for i, e in enumerate(_poly(*xyz, cubic))])
    jet = F.fd_jet(lambda p: np.stack(_poly(*p.T, cubic), axis=1), points, space)
    assert np.max(np.abs(jet.c - exact.c)) < 1e-8


def test_value_row_is_f_at_points(points):
    jet = F.fd_jet(_sin_ax, points, J.jetspace(3, 3))
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
