"""Exterior algebra and calculus on chart batches.

Forms are dense covariant antisymmetric arrays.  Value-level routines take
batch-first arrays ``(nbatch, d, ..., d)``; jet-level routines take jets.
Conventions:

* (a ^ b) = (p+q)!/(p!q!) Alt(a x b), so (dx1 ^ dx2)(e1, e2) = 1.
* (d a)_{i0..ip} = (p+1) Alt(grad a) -- the usual coordinate exterior
  derivative.
* <a, b> on p-forms contracts all indices and divides by p!.
* delta = codifferential: (delta a) = -g^{ij} (nabla a)_{i j ...}; the form
  Laplacian d delta + delta d is then nonnegative on functions.
* Hodge star uses the chart orientation: (star a)_{J} = or/p! sqrt(det g)
  a^{I} eps_{I J}.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import jets as J
from .calculus import covd, metric_inv

__all__ = [
    "perm_sign",
    "alt",
    "wedge",
    "interior",
    "flat",
    "form_ip",
    "form_norm2",
    "levi_civita",
    "hodge",
    "d_form",
    "codifferential",
    "form_laplacian_field",
    "split_form_types",
    "TypeSplit2Form",
]

# axis-label alphabet for generated einsum specs; 'b' is reserved for the
# batch axis and must not appear here
_LETTERS = "cdefghijklmn"


def perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, cyc = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            cyc += 1
        if cyc % 2 == 0:
            sign = -sign
    return sign


def _signed_add(out: np.ndarray, sign: int, term: np.ndarray) -> None:
    """``out += sign * term`` for ``sign = +-1``, without a temporary."""
    if sign > 0:
        out += term
    else:
        out -= term


def alt(arr: np.ndarray, p: int) -> np.ndarray:
    """Antisymmetrize the first ``p`` axes (extra axes ride along)."""
    if p <= 1:
        return arr
    extra = arr.ndim - p
    out = np.zeros_like(arr)
    for perm in itertools.permutations(range(p)):
        axes = list(perm) + list(range(p, p + extra))
        _signed_add(out, perm_sign(perm), arr.transpose(axes))
    return out / math.factorial(p)


def _shuffles(p: int, q: int):
    for chosen in itertools.combinations(range(p + q), p):
        sign = (-1) ** (sum(chosen) - p * (p - 1) // 2)
        rest = [i for i in range(p + q) if i not in chosen]
        yield sign, list(chosen) + rest


def _wedge_core(a, b, p, q):
    """Wedge on tensor-axes-first arrays with one trailing batch-like group."""
    extra_a = a.ndim - p
    prod = np.tensordot(a, b, axes=0) if extra_a == 0 else None
    if prod is None:
        # merge trailing axes by elementwise broadcast: a (..p.., E), b (..q.., E)
        sa = "".join(_LETTERS[:p])
        sb = "".join(_LETTERS[p:p + q])
        prod = np.einsum(f"{sa}...,{sb}...->{sa}{sb}...", a, b)
    out = np.zeros_like(prod)
    inv_axes_extra = list(range(p + q, prod.ndim))
    for sign, perm in _shuffles(p, q):
        inv = [0] * (p + q)
        for pos, src in enumerate(perm):
            inv[src] = pos
        _signed_add(out, sign, prod.transpose(inv + inv_axes_extra))
    return out


def wedge(a: np.ndarray, p: int, b: np.ndarray, q: int) -> np.ndarray:
    """Wedge of batch-first form values."""
    av = np.moveaxis(a, 0, -1)
    bv = np.moveaxis(b, 0, -1)
    return np.moveaxis(_wedge_core(av, bv, p, q), -1, 0)


def wedge_jet(a: J.Jet, p: int, b: J.Jet, q: int) -> J.Jet:
    sa = "".join(_LETTERS[:p])
    sb = "".join(_LETTERS[p:p + q])
    prod = J.jj(f"{sa},{sb}->{sa}{sb}", a, b)
    out = np.zeros_like(prod.c)
    extra = [p + q, p + q + 1]
    for sign, perm in _shuffles(p, q):
        inv = [0] * (p + q)
        for pos, src in enumerate(perm):
            inv[src] = pos
        _signed_add(out, sign, prod.c.transpose(inv + extra))
    return J.Jet(prod.space, out)


def interior(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Contraction of a vector into the first slot, batch-first values."""
    return np.einsum("bi,bi...->b...", x, a)


def flat(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    return np.einsum("bij,bj->bi", g, x)


def _raise_all(a: np.ndarray, p: int, ginv: np.ndarray) -> np.ndarray:
    out = a
    labels = list(_LETTERS[:p])
    for ax in range(p):
        src = labels[ax]
        cur = "".join(labels)
        labels[ax] = src.upper()
        out = np.einsum(f"b{cur},b{src}{src.upper()}->b{''.join(labels)}", out, ginv)
    # relabel back to lowercase layout (axes order unchanged)
    return out


def form_ip(a: np.ndarray, b: np.ndarray, p: int, ginv: np.ndarray, full: bool = False) -> np.ndarray:
    """<a,b> per batch point; 1/p! convention unless ``full``."""
    if p == 0:
        return a * b
    bu = _raise_all(b, p, ginv)
    letters = _LETTERS[:p]
    val = np.einsum(f"b{letters},b{letters}->b", a, bu)
    if not full:
        val = val / math.factorial(p)
    return val


def form_norm2(a: np.ndarray, p: int, ginv: np.ndarray, full: bool = False) -> np.ndarray:
    return form_ip(a, a, p, ginv, full=full)


@lru_cache(maxsize=None)
def levi_civita(d: int) -> np.ndarray:
    eps = np.zeros((d,) * d)
    for perm in itertools.permutations(range(d)):
        eps[perm] = perm_sign(perm)
    return eps


def hodge(a: np.ndarray, p: int, g: np.ndarray, ginv: np.ndarray, orientation: float = 1.0) -> np.ndarray:
    """Hodge star of a batch-first p-form value; result is a (d-p)-form."""
    d = g.shape[-1]
    q = d - p
    sqg = np.sqrt(np.linalg.det(g))
    eps = levi_civita(d)
    if p == 0:
        out = np.einsum("b,...->b...", a * sqg, eps)
        return orientation * out
    au = _raise_all(a, p, ginv)
    li = _LETTERS[:p]
    lj = _LETTERS[p:p + q]
    out = np.einsum(f"b{li},{li}{lj}->b{lj}", au, eps) / math.factorial(p)
    return orientation * out * sqg[(...,) + (None,) * q]


def d_form(ctx, w: J.Jet, p: int) -> J.Jet:
    """Exterior derivative of a p-form jet -> (p+1)-form jet."""
    grad = J.jgrad(w)
    return J.Jet(grad.space, (p + 1) * alt(grad.c, p + 1))


def codifferential(ctx, w: J.Jet, p: int) -> J.Jet:
    """delta w = -g^{ij} (nabla w)_{i j ...} -> (p-1)-form jet."""
    nab, _ = covd(ctx, w, "l" * p)
    gi = metric_inv(ctx)
    rest = _LETTERS[2:p + 1]
    return -1.0 * J.jj(f"ij,ij{rest}->{rest}", gi, nab)


def form_laplacian_field(field, p: int):
    """Return ctx -> Jet computing (d delta + delta d) of a p-form field."""

    def lap(ctx):
        def df(c):
            return d_form(c, field(c), p)

        def cf(c):
            return codifferential(c, field(c), p)

        t1 = codifferential(ctx, df(ctx), p + 1)
        if p == 0:
            return t1
        t2 = d_form(ctx, cf(ctx), p - 1)
        return t1 + t2

    return lap


# ---------------------------------------------------------------------------
# type decomposition with respect to an almost complex structure


@dataclass
class TypeSplit2Form:
    """J-invariant / J-anti-invariant parts of a 2-form (batch-first values)."""

    invariant: np.ndarray   # (1,1) part: a(JX, JY) = a(X, Y)
    anti: np.ndarray        # (2,0)+(0,2) part: a(JX, JY) = -a(X, Y)


def split_form_types(a: np.ndarray, jmat: np.ndarray) -> TypeSplit2Form:
    ajj = np.einsum("bai,bcj,bac->bij", jmat, jmat, a)
    return TypeSplit2Form(invariant=0.5 * (a + ajj), anti=0.5 * (a - ajj))

