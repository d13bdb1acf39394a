"""Richardson-extrapolated central differences.

``fd_jet`` builds :class:`~nklab.jets.Jet` objects for black-box value
functions by stencil evaluation: one function returns every field, keyed by
name, and each gets its jet.  Plugging these in as the root jets of a chart
gives the "extrapolated-differences" engine mode -- an independent
cross-check of the exact-propagation arithmetic.

Central differences have O(h^2) truncation error; one Richardson level
((4 D_{h/2} - D_h)/3) pushes that to O(h^4).  Every stencil point of both
step sizes goes to the value function in one batched call; the zero offset
is among them, so the value row comes from the same call, unextrapolated.
The combination runs over all fields at once, one slot of a padded term
table at a time, so every coefficient still sums its terms in stencil order.
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
    """Stencil plan of a jet space: (offsets, idx, wts, fac).

    ``offsets`` (noff, nvars) lists every distinct stencil offset, the zero
    offset first.  Row k of the padded ``(ncoef, P)`` tables ``idx`` and
    ``wts`` holds monomial k's offset indices and weights in
    ``_stencil_for`` order; the slots past its stencil read offset ``noff``,
    a zero row that ``fd_jet`` appends, with weight 0.  ``fac`` holds the
    factorial divisors.
    """
    index = {(0,) * space.nvars: 0}
    terms = [[(index.setdefault(off, len(index)), w) for off, w in _stencil_for(m)]
             for m in space.monomials]
    idx = np.full((space.ncoef, max(map(len, terms))), len(index))
    wts = np.zeros(idx.shape)
    for k, row in enumerate(terms):
        idx[k, :len(row)], wts[k, :len(row)] = zip(*row)
    offsets = np.array(list(index), dtype=float)
    fac = np.array([math.prod(math.factorial(mi) for mi in m) for m in space.monomials])
    return offsets, idx, wts, fac


def fd_jet(f, points: np.ndarray, space: JetSpace) -> dict[str, Jet]:
    """Jets of black-box fields by Richardson-extrapolated stencils.

    ``f(points) -> {name: (nbatch, *tshape)}`` is called once, on the
    stencil points of steps h = ``default_step(order)`` and h/2 stacked as
    ``(2 * noff * nbatch, nvars)``; the result maps the same names to jets.
    All fields are combined at once, over their flattened tensor axes side
    by side, one padded term slot at a time: each coefficient sums its
    stencil terms in ``_stencil_for`` order, as a per-term loop would.
    """
    h = default_step(space.order)
    offsets, idx, wts, fac = _plan(space)
    steps = (h, h / 2.0)
    noff, nb = len(offsets), points.shape[0]
    pts = points + np.array(steps)[:, None, None, None] * offsets[None, :, None, :]
    fields = {name: np.asarray(v, dtype=float)
              for name, v in f(pts.reshape(-1, points.shape[1])).items()}
    shapes = {name: v.shape[1:] for name, v in fields.items()}
    sizes = [math.prod(t) for t in shapes.values()]
    starts = np.cumsum([0] + sizes)
    # (2, noff + 1, nb, F): every field's values, then the zero row
    vals = np.zeros((2, noff + 1, nb, sum(sizes)))
    for v, lo, n in zip(fields.values(), starts, sizes):
        vals[:, :noff, :, lo:lo + n] = v.reshape(2, noff, nb, n)
    acc = np.zeros((2, space.ncoef, nb, vals.shape[-1]))
    for p in range(idx.shape[1]):
        acc += wts[:, p, None, None] * vals[:, idx[:, p]]
    # (2, ncoef, nb, F) -> (2, F, ncoef, nb), C-ordered as downstream
    # contractions round by memory layout; divided by step^degree.
    hpow = np.array([[s ** sum(m) for m in space.monomials] for s in steps])
    raw = np.ascontiguousarray(np.moveaxis(acc, -1, 1))
    d1 = raw[0] / hpow[0][:, None]
    d2 = raw[1] / hpow[1][:, None]
    c = (4.0 * d2 - d1) / 3.0 / fac[:, None]
    # The value row needs no extrapolation; keep it exact.
    c[:, 0, :] = vals[0, 0].T
    return {name: Jet(space, c[lo:lo + n].reshape(*t, space.ncoef, nb))
            for (name, t), lo, n in zip(shapes.items(), starts, sizes)}
