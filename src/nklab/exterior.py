"""Exterior algebra and calculus on chart batches.

Forms are dense covariant antisymmetric arrays.  Value-level routines take
batch-first arrays ``(nbatch, d, ..., d)``; jet-level routines take jets.
Conventions:

* (a ^ b) = (p+q)!/(p!q!) Alt(a x b), so (dx1 ^ dx2)(e1, e2) = 1.
  The wedge takes forms: its inputs must be antisymmetric.  It is computed
  in the packed antisymmetric basis, on the C(d, p+q) increasing
  multi-indices I, as the signed sum over (p, q)-shuffles of
  a_{I[chosen]} b_{I[rest]}; one gather through a cached (slot, sign)
  table then unpacks the full array, which is exactly antisymmetric.
  ``wedge_packed`` returns the packed components, so a top-degree
  product is one number per point, not a d^d array.
* d is the packed (1, p)-shuffle sum of the gradient, the same kernel as
  the jet wedge: (d a)_I = sum_k (-1)^k d_{I_k} a_{I without I_k} on each
  increasing multi-index I, then unpacked.  This is the usual coordinate
  exterior derivative, (p+1) Alt(grad a) on forms.  d takes forms: it
  reads only the increasing-index components of its argument.
* <a, b> on p-forms contracts all indices and divides by p!.
* delta = codifferential: (delta a) = -g^{ij} (nabla a)_{i j ...}; the form
  Laplacian d delta + delta d is then nonnegative on functions.
* Hodge star uses the chart orientation: (star a)_{J} = or/p! sqrt(det g)
  a^{I} eps_{I J}.  ``hodge_packed`` returns the components on the
  increasing multi-indices J: each reads one component a^{I}, at the
  increasing complement I of J.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from . import jets as J
from .calculus import covd, covd_field, metric_inv
from .chart import contract, memoized

__all__ = [
    "wedge",
    "wedge_packed",
    "interior",
    "form_ip",
    "form_norm2",
    "hodge",
    "hodge_packed",
    "d_form",
    "codifferential",
    "codifferential_field",
    "form_laplacian_field",
]

# axis-label alphabet for generated einsum specs; 'b' is reserved for the
# batch axis and must not appear here
_LETTERS = "cdefghijklmn"


def _shuffles(p: int, q: int):
    """``(sign, chosen, rest)`` for every (p, q)-shuffle of p + q slots."""
    for chosen in itertools.combinations(range(p + q), p):
        sign = (-1) ** (sum(chosen) - p * (p - 1) // 2)
        rest = [i for i in range(p + q) if i not in chosen]
        yield sign, list(chosen), rest


def _flat(idx: np.ndarray, d: int) -> np.ndarray:
    """Row-major flat position in (d,)*k of each row of multi-indices ``idx``."""
    return idx @ d ** np.arange(idx.shape[-1] - 1, -1, -1)


@lru_cache(maxsize=None)
def _combinations(d: int, k: int) -> np.ndarray:
    """The C(d, k) increasing multi-indices of length k, in lexicographic order."""
    combos = list(itertools.combinations(range(d), k))
    return np.array(combos, dtype=np.intp).reshape(len(combos), k)


@lru_cache(maxsize=None)
def _shuffle_table(d: int, p: int, q: int):
    """Gather table of the packed wedge of a p-form and a q-form on R^d.

    Row s, column c: the flat positions of a_{I[chosen]} and b_{I[rest]} for
    shuffle s and the c-th increasing multi-index I; and each shuffle's sign.
    """
    combos = _combinations(d, p + q)
    rows = [(sign, _flat(combos[:, chosen], d), _flat(combos[:, rest], d))
            for sign, chosen, rest in _shuffles(p, q)]
    sign, ia, ib = zip(*rows)
    return np.array(ia), np.array(ib), np.array(sign, dtype=float)


@lru_cache(maxsize=None)
def _unpack_table(d: int, k: int):
    """``(slot, sign)`` of every entry J of a k-form on R^d.

    Entry J equals ``sign[J] * packed[slot[J]]``: ``slot`` is the rank of
    sorted(J) among the increasing multi-indices and ``sign`` the parity of
    J's inversions.  sorted(J) is the set of J's entries, so it is ranked
    by its bit mask; a J with a repeated index sets fewer than k bits,
    matches no multi-index and gets slot C(d, k), which ``_unpack`` pads
    with zero.
    """
    # small integer types: the table of a 6-form has 6^6 entries and is cached
    idx = np.indices((d,) * k, dtype=np.int8).reshape(k, d**k)
    inversions = np.zeros(d**k, dtype=np.int8)
    for i, j in itertools.combinations(range(k), 2):
        inversions += idx[i] > idx[j]
    mask = np.zeros(d**k, dtype=np.intp)
    for row in idx:
        mask |= 1 << row.astype(np.intp)
    combos = _combinations(d, k)
    rank = np.full(2**d, len(combos), dtype=np.min_scalar_type(len(combos)))
    rank[(1 << combos).sum(axis=1)] = np.arange(len(combos))
    return rank[mask], 1 - 2 * (inversions % 2)


def _unpack(packed: np.ndarray, d: int, k: int) -> np.ndarray:
    """Full antisymmetric array ``(d,)*k + rest`` from packed ``(C(d, k), *rest)``."""
    slot, sign = _unpack_table(d, k)
    padded = np.concatenate([packed, np.zeros((1,) + packed.shape[1:])])
    out = padded[slot]
    out *= sign.reshape((-1,) + (1,) * (packed.ndim - 1))
    return out.reshape((d,) * k + packed.shape[1:])


def _shuffle_sum(t: np.ndarray, d: int, p: int, q: int) -> np.ndarray:
    """Signed (p, q)-shuffle sum of ``t`` on the increasing multi-indices, unpacked.

    ``t`` is tensor-axes-first, ``(d,)*(p+q) + rest``; component I of the
    result is the sum over shuffles of sign * t[I[chosen], I[rest]].  Only
    these entries of ``t`` are read, and the result is exactly antisymmetric.
    """
    ia, ib, sign = _shuffle_table(d, p, q)
    flat = t.reshape((d ** (p + q),) + t.shape[p + q:])
    return _unpack(np.tensordot(sign, flat[ia * d**q + ib], axes=1), d, p + q)


def _packed_wedge(a: np.ndarray, p: int, b: np.ndarray, q: int, d: int) -> np.ndarray:
    """Packed wedge on tensor-axes-first arrays; trailing axes ride along."""
    ia, ib, sign = _shuffle_table(d, p, q)
    af = a.reshape((d**p,) + a.shape[p:])
    bf = b.reshape((d**q,) + b.shape[q:])
    return np.tensordot(sign, af[ia] * bf[ib], axes=1)


def wedge_packed(a: np.ndarray, p: int, b: np.ndarray, q: int) -> np.ndarray:
    """Components of a ^ b on the increasing multi-indices, batch first.

    Shape ``(nbatch, C(d, p + q))``, columns in lexicographic order of the
    multi-indices; a top-degree product (p + q = d) is the single column 0.
    ``a`` and ``b`` must be forms (antisymmetric).
    """
    d = a.shape[1] if p else b.shape[1]
    return _packed_wedge(np.moveaxis(a, 0, -1), p, np.moveaxis(b, 0, -1), q, d).T


def wedge(a: np.ndarray, p: int, b: np.ndarray, q: int) -> np.ndarray:
    """Wedge of batch-first form values; ``a`` and ``b`` must be antisymmetric.

    The product is computed on the C(d, p + q) increasing multi-indices and
    unpacked, so the result is exactly antisymmetric (zero for p + q > d).
    """
    d = a.shape[1] if p else b.shape[1]
    return np.moveaxis(_unpack(wedge_packed(a, p, b, q).T, d, p + q), -1, 0)


def wedge_jet(a: J.Jet, p: int, b: J.Jet, q: int) -> J.Jet:
    """Wedge of form jets, through ``wedge``'s shuffle and unpack tables.

    The packed shuffle sum is taken on the tensor axes of the jet product
    ``a (x) b``, coefficient by coefficient; ``a`` and ``b`` must be forms.
    """
    d = a.tshape[0] if p else b.tshape[0]
    sa = "".join(_LETTERS[:p])
    sb = "".join(_LETTERS[p:p + q])
    prod = J.jj(f"{sa},{sb}->{sa}{sb}", a, b)
    return J.Jet(prod.space, _shuffle_sum(prod.c, d, p, q))


def interior(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Contraction of a vector into the first slot, batch-first values."""
    return np.einsum("bi,bi...->b...", x, a)


def _raise_all(a: np.ndarray, p: int, ginv: np.ndarray) -> np.ndarray:
    out = a
    labels = list(_LETTERS[:p])
    for ax in range(p):
        src = labels[ax]
        cur = "".join(labels)
        labels[ax] = src.upper()
        out = contract(f"b{cur},b{src}{src.upper()}->b{''.join(labels)}", out, ginv)
    # relabel back to lowercase layout (axes order unchanged)
    return out


def form_ip(a: np.ndarray, b: np.ndarray, p: int, ginv: np.ndarray, full: bool = False) -> np.ndarray:
    """<a,b> per batch point; 1/p! convention unless ``full``."""
    if p == 0:
        return a * b
    bu = _raise_all(b, p, ginv)
    letters = _LETTERS[:p]
    val = contract(f"b{letters},b{letters}->b", a, bu)
    if not full:
        val = val / math.factorial(p)
    return val


def form_norm2(a: np.ndarray, p: int, ginv: np.ndarray, full: bool = False) -> np.ndarray:
    return form_ip(a, a, p, ginv, full=full)


def hodge(a: np.ndarray, p: int, g: np.ndarray, ginv: np.ndarray, orientation: float = 1.0) -> np.ndarray:
    """Hodge star of a batch-first p-form value; result is a (d-p)-form.

    ``hodge_packed`` unpacked, so ``a`` must be a form and the result is
    exactly antisymmetric.
    """
    d = g.shape[-1]
    return np.moveaxis(_unpack(hodge_packed(a, p, g, ginv, orientation).T, d, d - p), -1, 0)


@lru_cache(maxsize=None)
def _complement_table(d: int, q: int):
    """Flat position of the increasing complement I of each increasing
    q-index J, and the sign eps_{I J}."""
    combos = _combinations(d, q)
    rest = np.array([[i for i in range(d) if i not in c] for c in combos.tolist()],
                    dtype=np.intp).reshape(len(combos), d - q)
    _, eps = _unpack_table(d, d)
    return _flat(rest, d), eps[_flat(np.concatenate([rest, combos], axis=1), d)]


def hodge_packed(a: np.ndarray, p: int, g: np.ndarray, ginv: np.ndarray,
                 orientation: float = 1.0) -> np.ndarray:
    """Components of ``hodge(a, ...)`` on the increasing multi-indices, batch first.

    Shape ``(nbatch, C(d, d - p))``, columns in lexicographic order of the
    multi-indices; ``a`` must be a form, since only the increasing component
    of each complement is read.
    """
    d = g.shape[-1]
    slot, sign = _complement_table(d, d - p)
    sqg = np.sqrt(np.linalg.det(g))
    au = _raise_all(a, p, ginv).reshape(len(g), -1)
    return orientation * (sign * au[:, slot]) * sqg[:, None]


def d_form(w: J.Jet, p: int) -> J.Jet:
    """Exterior derivative of a p-form jet -> (p+1)-form jet.

    The (1, p)-shuffle sum of ``jgrad(w)``; ``w`` must be a form, since only
    its increasing-index components are read.
    """
    grad = J.jgrad(w)
    return J.Jet(grad.space, _shuffle_sum(grad.c, grad.tshape[0], 1, p))


def codifferential(ctx, w: J.Jet, p: int) -> J.Jet:
    """delta w = -g^{ij} (nabla w)_{i j ...} -> (p-1)-form jet."""
    return _trace_covd(ctx, covd(ctx, w, "l" * p), p)


def _trace_covd(ctx, nab: J.Jet, p: int) -> J.Jet:
    """-g^{ij} nab_{i j ...}: delta of a p-form from its covariant derivative."""
    rest = _LETTERS[2:p + 1]
    return -1.0 * J.jj(f"ij,ij{rest}->{rest}", metric_inv(ctx), nab)


@memoized
def codifferential_field(ctx, field, p: int) -> J.Jet:
    """delta of a p-form field (ctx -> Jet): the trace of its memoized
    covariant derivative (:func:`~nklab.calculus.covd_field`), which the
    context's other readers of that derivative share."""
    return _trace_covd(ctx, covd_field(ctx, field, "l" * p), p)


def form_laplacian_field(ctx, field, p: int) -> J.Jet:
    """(d delta + delta d) of a p-form field (ctx -> Jet), delta of the
    field being :func:`codifferential_field`."""
    out = codifferential(ctx, d_form(field(ctx), p), p + 1)
    if p == 0:
        return out
    return out + d_form(codifferential_field(ctx, field, p), p - 1)
