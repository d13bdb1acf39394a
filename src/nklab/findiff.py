"""Richardson-extrapolated central differences.

``fd_jet`` builds a :class:`~nklab.jets.Jet` for a black-box value function
by stencil evaluation.  Plugging these in as the root jets of a chart gives
the "extrapolated-differences" engine mode -- an independent cross-check of
the exact-propagation arithmetic.

Central differences have O(h^2) truncation error; one Richardson level
((4 D_{h/2} - D_h)/3) pushes that to O(h^4).  Every stencil point of both
step sizes goes to the value function in one batched call; the zero offset
is among them, so the value row comes from the same call, unextrapolated.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

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


@lru_cache(maxsize=None)
def _plan(space: JetSpace):
    """Stencil plan of a jet space: (offsets, terms, fac).

    ``offsets`` (noff, nvars) lists every distinct stencil offset, the zero
    offset first; ``terms[k]`` is monomial k's ``[(offset index, weight)]``
    in ``_stencil_for`` order; ``fac`` holds the factorial divisors.
    """
    index = {(0,) * space.nvars: 0}
    terms = [[(index.setdefault(off, len(index)), w) for off, w in _stencil_for(m)]
             for m in space.monomials]
    offsets = np.array(list(index), dtype=float)
    fac = np.array([math.prod(math.factorial(mi) for mi in m) for m in space.monomials])
    return offsets, terms, fac


def fd_jet(f, points: np.ndarray, space: JetSpace) -> Jet:
    """Jet of a black-box function by Richardson-extrapolated stencils.

    ``f(points) -> (nbatch, *tshape)`` is called once, on the stencil points
    of steps h = ``default_step(order)`` and h/2 stacked as
    ``(2 * noff * nbatch, nvars)``.
    """
    h = default_step(space.order)
    offsets, terms, fac = _plan(space)
    steps = (h, h / 2.0)
    nb = points.shape[0]
    pts = points + np.array(steps)[:, None, None, None] * offsets[None, :, None, :]
    flat = np.asarray(f(pts.reshape(-1, points.shape[1])), dtype=float)
    tshape = flat.shape[1:]
    vals = flat.reshape(2, len(offsets), nb, *tshape)
    raw = []
    for row in terms:
        acc = np.zeros((2, nb, *tshape))
        for i, w in row:
            acc = acc + w * vals[:, i]
        raw.append(acc)
    # (2, ncoef, nb, *tshape) -> (2, *tshape, ncoef, nb), C-ordered as
    # downstream contractions round by memory layout; divided by step^degree.
    hpow = np.array([[s ** sum(m) for m in space.monomials] for s in steps])
    raw = np.ascontiguousarray(np.moveaxis(np.stack(raw, axis=1), (1, 2), (-2, -1)))
    d1 = raw[0] / hpow[0][:, None]
    d2 = raw[1] / hpow[1][:, None]
    c = (4.0 * d2 - d1) / 3.0 / fac[:, None]
    # The value row needs no extrapolation; keep it exact.
    c[..., 0, :] = np.moveaxis(vals[0, 0], 0, -1)
    return Jet(space, c)
