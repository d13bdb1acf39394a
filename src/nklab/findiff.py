"""Richardson-extrapolated central differences.

``fd_jet`` builds a :class:`~nklab.jets.Jet` for a black-box value function
by stencil evaluation.  Plugging these in as the root jets of a chart gives
the "extrapolated-differences" engine mode -- an independent cross-check of
the exact-propagation arithmetic.

Central differences have O(h^2) truncation error; one Richardson level
((4 D_{h/2} - D_h)/3) pushes that to O(h^4).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .jets import Jet, JetSpace

__all__ = ["fd_jet", "default_step"]

# 1-d central stencils for the k-th derivative, as (offset, weight / h^k).
_STENCILS = {
    0: [(0, 1.0)],
    1: [(-1, -0.5), (1, 0.5)],
    2: [(-1, 1.0), (0, -2.0), (1, 1.0)],
    3: [(-2, -0.5), (-1, 1.0), (1, -1.0), (2, 0.5)],
    4: [(-2, 1.0), (-1, -4.0), (0, 6.0), (1, -4.0), (2, 1.0)],
}


def default_step(order: int) -> float:
    # Balance truncation against roundoff amplification ~ eps / h^order.
    return {0: 1e-2, 1: 1e-4, 2: 5e-3, 3: 2e-2, 4: 4e-2}.get(order, 5e-2)


def _stencil_for(multi) -> list[tuple[tuple, float]]:
    """Tensor product of 1-d stencils for a mixed partial."""
    axes = [i for i, m in enumerate(multi) if m > 0]
    parts = [_STENCILS[multi[i]] for i in axes]
    out = []
    for combo in itertools.product(*parts):
        off = [0] * len(multi)
        w = 1.0
        for ax, (o, wt) in zip(axes, combo):
            off[ax] = o
            w *= wt
        out.append((tuple(off), w))
    return out


def _raw_partials(f, points: np.ndarray, space: JetSpace, h: float) -> np.ndarray:
    """All mixed partials of f at given step, no extrapolation.

    ``f(points) -> (nbatch, *tshape)``; result (*tshape, ncoef, nbatch)
    holds derivative values (not yet divided by factorials).
    """
    offsets = {}
    for m in space.monomials:
        for off, _ in _stencil_for(m):
            offsets.setdefault(off, None)
    offs = list(offsets)
    vals = {}
    for off in offs:
        p = points + h * np.array(off)
        vals[off] = np.asarray(f(p), dtype=float)
    sample = next(iter(vals.values()))
    tshape = sample.shape[1:]
    nb = sample.shape[0]
    out = np.zeros((*tshape, space.ncoef, nb))
    for k, m in enumerate(space.monomials):
        acc = np.zeros((nb, *tshape))
        for off, w in _stencil_for(m):
            acc = acc + w * vals[off]
        out[..., k, :] = np.moveaxis(acc, 0, -1) / h ** sum(m)
    return out


def fd_jet(f, points: np.ndarray, space: JetSpace, h: float | None = None) -> Jet:
    """Jet of a black-box function by Richardson-extrapolated stencils."""
    if h is None:
        h = default_step(space.order)
    d1 = _raw_partials(f, points, space, h)
    d2 = _raw_partials(f, points, space, h / 2.0)
    der = (4.0 * d2 - d1) / 3.0
    fac = np.array([math.prod(math.factorial(mi) for mi in m) for m in space.monomials])
    c = der / fac[:, None]
    # The value row needs no extrapolation; keep it exact.
    c[..., 0, :] = np.moveaxis(np.asarray(f(points), dtype=float), 0, -1)
    return Jet(space, c)

