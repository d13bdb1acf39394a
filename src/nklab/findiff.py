"""Richardson-extrapolated central differences.

``fd_jet`` builds :class:`~nklab.jets.Jet` objects for black-box value
functions by stencil evaluation: one function returns every field, keyed by
name, and each gets its jet.  Plugging these in as the root jets of a chart
gives the "extrapolated-differences" engine mode -- an independent
cross-check of the exact-propagation arithmetic.

Central differences have O(h^2) truncation error; one Richardson level
((4 D_{h/2} - D_h)/3) pushes that to O(h^4).  The stencil points of both
step sizes go to the value function in blocks of :data:`BLOCK` points, cut
by the batch rule of :func:`~nklab.jets.chunks`, so each point rounds as
in one batch and memory does not grow with the stencil; the zero offset is
among them, so the value row comes from the same calls, unextrapolated.
Each block's values go straight into one value table.  The combination
runs over all fields at once, one slot of a padded term table at a time,
so every coefficient still sums its terms in stencil order.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from .jets import Jet, JetSpace, chunks

__all__ = ["fd_jet", "default_step"]

#: Stencil points per call of the value function.
BLOCK = 1024

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

    ``f(points) -> {name: (npoints, *tshape)}`` is called on the stencil
    points of steps h = ``default_step(order)`` and h/2, stacked as
    ``(2 * noff * nbatch, nvars)`` and cut into blocks (:data:`BLOCK`);
    the result maps the names that every block returned to jets.  All
    fields are combined at once, over their flattened tensor axes side by
    side, one padded term slot at a time: each coefficient sums its
    stencil terms in ``_stencil_for`` order, as a per-term loop would.
    """
    h = default_step(space.order)
    offsets, idx, wts, fac = _plan(space)
    steps = (h, h / 2.0)
    noff, nb = len(offsets), points.shape[0]
    pts = points + np.array(steps)[:, None, None, None] * offsets[None, :, None, :]
    pts = pts.reshape(-1, points.shape[1])
    # (2 * noff + 1, nb, F): every field's values, step by step, then the
    # zero row that padded slots read
    vals = None
    for rows in chunks(len(pts), BLOCK):
        block = f(pts[rows])
        if vals is None:
            shapes = {name: np.shape(v)[1:] for name, v in block.items()}
            bounds = np.cumsum([0, *map(math.prod, shapes.values())])
            cols = {name: slice(a, b) for name, a, b in zip(shapes, bounds, bounds[1:])}
            vals = np.empty((2 * noff + 1, nb, bounds[-1]))
            vals[-1] = 0.0
            flat = vals[:-1].reshape(len(pts), -1)
        shapes = {name: t for name, t in shapes.items() if name in block}
        for name in shapes:
            v = block.pop(name)
            flat[rows, cols[name]] = np.reshape(v, (len(v), -1))
    acc = np.empty((space.ncoef, nb, vals.shape[-1]))
    term = np.empty_like(acc)
    d = []
    for s, step in enumerate(steps):
        # step s reads offset i at row s * noff + i, a padded slot the zero row
        at = np.where(idx < noff, s * noff + idx, 2 * noff)
        acc.fill(0.0)
        for p in range(idx.shape[1]):
            # in-range rows: "clip" lets take write to out unbuffered
            np.take(vals, at[:, p], axis=0, out=term, mode="clip")
            np.multiply(wts[:, p, None, None], term, out=term)
            acc += term
        # (ncoef, nb, F) -> (F, ncoef, nb), C-ordered as downstream
        # contractions round by memory layout; divided by step^degree.
        d.append(np.ascontiguousarray(np.moveaxis(acc, -1, 0)))
        d[s] /= np.array([step ** sum(m) for m in space.monomials])[:, None]
    d1, c = d
    # (4 D_{h/2} - D_h) / 3 / fac, in place
    c *= 4.0
    c -= d1
    c /= 3.0
    c /= fac[:, None]
    # The value row needs no extrapolation; keep it exact.
    c[:, 0, :] = vals[0].T
    return {name: Jet(space, c[cols[name]].reshape(*t, space.ncoef, nb))
            for name, t in shapes.items()}
