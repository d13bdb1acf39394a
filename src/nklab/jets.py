"""Truncated multivariate Taylor arithmetic ("jets").

A jet stores, for a batch of base points, the Taylor coefficients of a
tensor-valued function up to a fixed total degree.  Arithmetic on jets
propagates derivatives exactly (no step-size error), which is what makes
the curvature residuals in this package hit 1e-9 territory instead of the
1e-4 typical of finite differencing.

Layout convention: coefficient arrays have shape ``(*tensor_shape, ncoef,
nbatch)``.  The coefficient axis enumerates monomials in graded
lexicographic order; ``c[..., k, :]`` is the coefficient of the monomial
``x^m / 1`` -- i.e. coefficients are *Taylor* coefficients, already divided
by the factorials, so the value of the jet at displacement h is simply
``sum_k c[..., k, :] * h^{m_k}``.

A jet stores only the coefficients it can trust.  Monomials are sorted by
degree, so the coefficients of degree <= k are a prefix of the array, and
a jet's space *is* its trust order: ``c.shape[-2] == space.ncoef``.
Binary operations work in the lower-order operand's space (truncated
Taylor propagation); a partial derivative lands one order lower.  A jet
differentiated past its order has an empty space, and reading its value
raises, which turns silent order-budget overruns into hard errors.

Truncation is exact: the coefficients of degree <= k of a product depend
only on those of degree <= k of its operands.  ``Jet.truncate`` takes that
prefix, and it is the one place a jet is cut to a lower space: ``jj``,
``+``, ``-`` and ``jassemble`` call it.  A caller that adds a product to a
derivative (a Christoffel correction to ``jgrad``, say) truncates the
product's operands to the derivative's space first -- one operand is
enough, since ``jj`` works in the lower space.  Otherwise the product
computes a top order that the sum then throws away.

Multiplication (``jj``) is one batched GEMM per call.  Coefficient t of a
product is the sum, over the monomial pairs (a, b) with m_a + m_b = m_t, of
the tensor products of coefficient a of one operand and b of the other.
``JetSpace`` lists those pairs per target in a padded segment table of
shape ``(ncoef, W)``, W being the largest pair count of one target.  ``jj``
gathers both operands through it to ``(ncoef, nbatch, S, L, W*K)`` and
``(ncoef, nbatch, S, W*K, R)`` (S, L, K, R: the shared, left, contracted
and right tensor axes of the spec, each flattened), so ``np.matmul`` sums
over pairs and contracted axes in its inner dimension.  A padded slot
reads a zero row in both operands and adds exactly zero.  A constant
enters as an array (``jc``, ``jb``, or ``jet + array`` on the value row),
never as a jet built only to be multiplied.

Every two-operand product reads one layout plan, ``_pair_layout``, with
its sizes from ``_pair_shapes``.  :func:`einsum2`, the batched-matmul
kernel of two plain arrays, runs it for ``chart.contract``, for ``jj`` at
order 0, where a jet is its value, and for ``jb`` (a per-batch constant
times a jet, whose coefficient axis is one more output letter): the batch
axis is a shared letter and leads the matmul batch.  The product stays as
the matmul wrote it, batch leading, and the jet's coefficients are a view
of it, so ``Jet.val`` reads it contiguously with no copy back to the
batch-last layout.  (A matmul ``jj`` that copied its product back made
the fd lab 24% slower.)  ``jj`` at order >= 1 gathers its pairs into the
same layout.  ``jc`` and ``junary`` stay ``np.einsum``: a constant or a
single jet, read along the batch axis in place (order-0 ``jc`` on matmul
was 6% slower).

A batch too large to hold at once is cut by one rule, :func:`chunks`:
the ``suites`` sessions cut their sample points with it, and ``findiff``
its stencil points.  Every part starts at a multiple of
:data:`MIN_CHUNK`, so each point keeps its place in the 8-point blocks of
numpy's vector loops, and no part holds fewer than :data:`MIN_CHUNK`
points unless the whole batch does; a prefix of whole :data:`MIN_CHUNK`
blocks keeps both properties.  Measured: parts like that round every
point as one batch does, bit for bit, while a part of one to three points
takes other numpy paths.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

__all__ = [
    "JetSpace",
    "Jet",
    "jetspace",
    "jassemble",
    "seed_coordinates",
    "jconst",
    "jj",
    "jc",
    "jb",
    "junary",
    "jpartial",
    "jgrad",
    "jsin",
    "jcos",
    "jrecip",
    "jentire",
    "jcompose",
    "jmatinv",
    "einsum2",
    "SINC_SQRT",
    "VERSINE_RATIO",
    "SINC_DEFECT",
    "MIN_CHUNK",
    "chunks",
]

#: The fewest points in a part of a batch (:func:`chunks`); parts start at
#: its multiples.
MIN_CHUNK = 8


def chunks(n: int, size: int) -> list[slice]:
    """Consecutive slices of ``size`` points covering ``range(n)`` in
    order, ``size`` being a multiple of :data:`MIN_CHUNK`.  A last slice
    start less than :data:`MIN_CHUNK` points below ``n`` moves down by
    :data:`MIN_CHUNK` when the slice before keeps that many points, and
    goes otherwise; so every slice starts at a multiple of
    :data:`MIN_CHUNK`, and none holds fewer than :data:`MIN_CHUNK` points
    unless it starts at 0."""
    bounds = [*range(0, n, size), n]
    if len(bounds) > 2 and n - bounds[-2] < MIN_CHUNK:
        if bounds[-2] - bounds[-3] >= 2 * MIN_CHUNK:
            bounds[-2] -= MIN_CHUNK
        else:
            del bounds[-2]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def _monomials(nvars: int, order: int):
    """All exponent tuples with total degree <= order, graded lex order."""
    out = []
    for deg in range(order + 1):
        for c in itertools.combinations_with_replacement(range(nvars), deg):
            m = [0] * nvars
            for v in c:
                m[v] += 1
            out.append(tuple(m))
    # combinations_with_replacement is lex within a degree; good enough, but
    # keep a deterministic canonical order by sorting within each degree.
    out.sort(key=lambda m: (sum(m), m))
    return out


class JetSpace:
    """Index tables for jets in ``nvars`` variables at a given order."""

    def __init__(self, nvars: int, order: int):
        self.nvars = nvars
        self.order = order
        self.monomials = _monomials(nvars, order)
        self.ncoef = len(self.monomials)
        self.index = {m: i for i, m in enumerate(self.monomials)}

        # Multiplication table: all coefficient pairs (a, b) whose monomial
        # product still fits in the space, sorted by target index.  jj reads
        # only the segment table below; the flat one gives the pair count.
        pairs = []
        for ia, ma in enumerate(self.monomials):
            da = sum(ma)
            for ib, mb in enumerate(self.monomials):
                if da + sum(mb) > order:
                    continue
                mt = tuple(x + y for x, y in zip(ma, mb))
                pairs.append((self.index[mt], ia, ib))
        pairs.sort()
        tgt = np.array([p[0] for p in pairs], dtype=np.int64)
        self.mul_a = np.array([p[1] for p in pairs], dtype=np.int64)
        self.mul_b = np.array([p[2] for p in pairs], dtype=np.int64)
        # Segment table: row t lists the pairs whose product lands on
        # coefficient t, padded to the longest segment W with index ncoef.
        # jj appends a zero row at index ncoef to both operands, so a padded
        # slot multiplies 0 by 0, and coefficient t is the sum over one row.
        count = np.bincount(tgt, minlength=self.ncoef)
        width = int(count.max()) if self.ncoef else 0
        slot = np.arange(len(tgt)) - np.repeat(np.cumsum(count) - count, count)
        self.seg_a = np.full((self.ncoef, width), self.ncoef, dtype=np.int64)
        self.seg_b = np.full((self.ncoef, width), self.ncoef, dtype=np.int64)
        self.seg_a[tgt, slot] = self.mul_a
        self.seg_b[tgt, slot] = self.mul_b

        # Partial-derivative tables: d/dx_v of coefficient of m comes from
        # the coefficient of m + e_v scaled by (m_v + 1).
        self.dsrc = np.zeros((nvars, self.ncoef), dtype=np.int64)
        self.dfac = np.zeros((nvars, self.ncoef))
        for v in range(nvars):
            for i, m in enumerate(self.monomials):
                up = list(m)
                up[v] += 1
                j = self.index.get(tuple(up))
                if j is None:
                    self.dsrc[v, i] = 0
                    self.dfac[v, i] = 0.0
                else:
                    self.dsrc[v, i] = j
                    self.dfac[v, i] = m[v] + 1

    def __repr__(self):  # pragma: no cover
        return f"JetSpace(nvars={self.nvars}, order={self.order}, ncoef={self.ncoef})"


@lru_cache(maxsize=None)
def jetspace(nvars: int, order: int) -> JetSpace:
    return JetSpace(nvars, order)


@dataclass
class Jet:
    """Batched jet of a tensor-valued function.  See module docstring."""

    space: JetSpace
    c: np.ndarray  # (*tshape, space.ncoef, nbatch)

    def __post_init__(self):
        if self.c.shape[-2] != self.space.ncoef:
            raise ValueError("coefficient axis does not match the jet space")

    @property
    def ok(self) -> int:
        """Derivative order up to which the coefficients are exact."""
        return self.space.order

    @property
    def tshape(self):
        return self.c.shape[:-2]

    @property
    def nbatch(self) -> int:
        return self.c.shape[-1]

    @property
    def val(self) -> np.ndarray:
        """Value part, batch axis first: shape (nbatch, *tshape)."""
        v = self.value_row
        return v.transpose(v.ndim - 1, *range(v.ndim - 1))

    @property
    def value_row(self) -> np.ndarray:
        """Value part, batch axis last: shape (*tshape, nbatch), a view.

        Every read of a jet's value goes through here, so a jet that has
        consumed more derivative orders than were seeded (empty space) raises
        ``ValueError`` rather than an ``IndexError`` from the empty row.
        """
        if self.space.order < 0:
            raise ValueError("jet consumed more derivative orders than seeded")
        return self.c[..., 0, :]

    def truncate(self, space: JetSpace) -> "Jet":
        """This jet cut to ``space``: its coefficients of degree <= space.order.

        The coefficients are a view.  A jet that holds no more than ``space``
        is returned as it is, so ``x.truncate(y.space)`` lives in the lower
        of the two spaces.
        """
        if space.order >= self.space.order:
            return self
        return Jet(space, self.c[..., :space.ncoef, :])

    def __getitem__(self, index) -> "Jet":
        """Index the tensor axes (coefficient and batch axes stay last)."""
        return Jet(self.space, self.c[index])

    def __add__(self, other):
        if isinstance(other, Jet):
            sp = _lower(self, other)
            return Jet(sp, self.truncate(sp).c + other.truncate(sp).c)
        out = self.c.copy()
        out[..., 0, :] = self.value_row + other
        return Jet(self.space, out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet):
            sp = _lower(self, other)
            return Jet(sp, self.truncate(sp).c - other.truncate(sp).c)
        return self + (-other)

    def __neg__(self):
        return Jet(self.space, -self.c)

    def __mul__(self, other):
        if isinstance(other, Jet):
            return jj(",->", self, other)
        return Jet(self.space, self.c * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * jrecip(other)
        return Jet(self.space, self.c / other)

    def transpose(self, *axes) -> "Jet":
        """Permute tensor axes (coefficient and batch axes stay last)."""
        n = len(self.tshape)
        perm = list(axes) + [n, n + 1]
        return Jet(self.space, self.c.transpose(perm))


def _lower(*jets: Jet) -> JetSpace:
    """The space of the least-trusted jet: where a combination of them lives."""
    return min((x.space for x in jets), key=lambda sp: sp.order)


def jassemble(tshape, parts) -> Jet:
    """Jet of shape ``tshape`` built from ``(index, jet)`` parts, zero elsewhere.

    ``index`` addresses the tensor axes (e.g. ``np.s_[:3, 3:]``) and each
    part's tensor shape must fit it.  The result is trusted as far as its
    least-trusted part.
    """
    parts = list(parts)
    sp = _lower(*(x for _, x in parts))
    c = np.zeros((*tshape, sp.ncoef, parts[0][1].nbatch))
    for index, x in parts:
        c[index] = x.truncate(sp).c
    return Jet(sp, c)


def seed_coordinates(space: JetSpace, points: np.ndarray) -> Jet:
    """Identity jet of the coordinates: shape (nvars,), exact to any order.

    ``points`` has shape (nbatch, nvars).
    """
    nb, nv = points.shape
    if nv != space.nvars:
        raise ValueError("point dimension does not match jet space")
    c = np.zeros((nv, space.ncoef, nb))
    c[:, 0, :] = points.T
    for v in range(nv):
        e = tuple(1 if i == v else 0 for i in range(nv))
        if space.order >= 1:
            c[v, space.index[e], :] = 1.0
    return Jet(space, c)


def jconst(space: JetSpace, values: np.ndarray, batch_last: bool = False) -> Jet:
    """Jet of a constant (all derivatives zero).

    ``values`` has shape (nbatch, *tshape) unless ``batch_last``.
    """
    if not batch_last:
        values = np.moveaxis(np.asarray(values, dtype=float), 0, -1)
    tshape = values.shape[:-1]
    nb = values.shape[-1]
    c = np.zeros((*tshape, space.ncoef, nb))
    c[..., 0, :] = values
    return Jet(space, c)


#: Letters that name the coefficient and batch axes in the einsum specs of
#: ``jc``, ``jb`` and ``junary``.  ``jj``, ``jc`` and ``jb`` refuse a spec
#: that uses them, so one spec means the same in every jet product.
_RESERVED = "pz"


@lru_cache(maxsize=None)
def _split_spec(spec: str):
    for ch in spec:
        if ch in _RESERVED:
            raise ValueError(f"jet spec {spec!r} uses the reserved letter {ch!r}")
    return _roles(spec)[:3]


class _Roles(NamedTuple):
    """The letters of a two-operand spec by role, whatever the shapes."""

    a: str
    b: str
    rhs: str
    shared: list  # both operands and the output, in output order
    left: list  # x and the output
    right: list  # y and the output
    con: list  # both operands only, in x order
    ka: list  # letters of x not summed away first (a letter in x only is)
    kb: list
    sum_x: tuple  # axes of x summed away first
    sum_y: tuple


@lru_cache(maxsize=None)
def _roles(spec: str) -> _Roles:
    lhs, rhs = spec.split("->")
    a, b = lhs.split(",")
    if len(set(a)) != len(a) or len(set(b)) != len(b):
        raise ValueError(f"spec {spec!r} repeats a letter within one operand")
    if len(set(rhs)) != len(rhs) or not set(rhs) <= set(a + b):
        raise ValueError(f"spec {spec!r} has a bad output")
    ka = [ch for ch in a if ch in b or ch in rhs]
    kb = [ch for ch in b if ch in a or ch in rhs]
    return _Roles(
        a, b, rhs,
        shared=[ch for ch in rhs if ch in a and ch in b],
        left=[ch for ch in rhs if ch in a and ch not in b],
        right=[ch for ch in rhs if ch in b and ch not in a],
        con=[ch for ch in a if ch in b and ch not in rhs],
        ka=ka, kb=kb,
        sum_x=tuple(i for i, ch in enumerate(a) if ch not in ka),
        sum_y=tuple(i for i, ch in enumerate(b) if ch not in kb),
    )


def _sizes(spec: str, tx: tuple, ty: tuple) -> dict:
    """Letter -> axis size of ``spec`` over shapes ``tx`` and ``ty``."""
    r = _roles(spec)
    if len(r.a) != len(tx) or len(r.b) != len(ty):
        raise ValueError(f"spec {spec!r} does not fit shapes {tx}, {ty}")
    size = dict(zip(r.a, tx))
    for ch, n in zip(r.b, ty):
        if size.setdefault(ch, n) != n:
            raise ValueError(f"spec {spec!r}: axis {ch!r} has sizes {size[ch]} and {n}")
    return size


class _PairLayout(NamedTuple):
    """How a two-operand spec runs as a matmul, whatever the shapes: the
    one layout plan of ``einsum2`` and of ``jj`` at every order."""

    spec: str  # the spec the matmul runs: the operands swapped where ``swap``
    swap: bool
    roles: _Roles
    perm_x: tuple  # kept x axes -> (*shared, *left, *contracted)
    perm_y: tuple  # kept y axes -> (*shared, *contracted, *right)
    cut_x: int  # axes of perm_x before the contracted ones
    cut_y: int
    out_perm: tuple  # matmul result axes (*shared, *left, *right) -> rhs


@lru_cache(maxsize=None)
def _pair_layout(spec: str) -> _PairLayout:
    r = _roles(spec)
    # the matmul rows come from the operand whose output letters come first
    rest = [ch for ch in r.rhs if ch not in r.shared]
    if r.left and r.right and rest == r.right + r.left:
        return _pair_layout(f"{r.b},{r.a}->{r.rhs}")._replace(swap=True)
    order = r.shared + r.left + r.right
    return _PairLayout(
        spec=spec, swap=False, roles=r,
        perm_x=tuple(r.ka.index(ch) for ch in r.shared + r.left + r.con),
        perm_y=tuple(r.kb.index(ch) for ch in r.shared + r.con + r.right),
        cut_x=len(r.shared + r.left), cut_y=len(r.shared),
        out_perm=tuple(order.index(ch) for ch in r.rhs),
    )


@lru_cache(maxsize=None)
def _pair_shapes(spec: str, sx: tuple, sy: tuple) -> tuple:
    """``(S, L, K)``, ``(S, K, R)`` and ``(*shared, *left, *right)`` sizes."""
    r = _roles(spec)
    size = _sizes(spec, sx, sy)
    s, left, k, right = (math.prod(size[ch] for ch in part)
                         for part in (r.shared, r.left, r.con, r.right))
    return (s, left, k), (s, k, right), tuple(size[ch] for ch in r.shared + r.left + r.right)


def einsum2(spec: str, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``np.einsum(spec, x, y)`` for two plain arrays, as one ``np.matmul``.

    The letters of both operands and the output lead the matmul batch, the
    other output letters of the operands are its rows and columns -- rows
    from the operand whose output letters come first -- and the letters of
    both operands only are summed in its inner dimension; a letter in one
    operand only is summed away first.  The layout is planned once per
    spec (``_pair_layout``), the one plan of every two-operand product,
    ``jj``'s too, and the sizes once per shapes (``_pair_shapes``).
    The product comes back as a view of the matmul result, shared letters
    leading, with no copy into the order of the output letters: it is
    C-contiguous when the output lists the shared letters first and each
    operand's other letters together.  Real and complex operands alike;
    explicit letters only (no ellipsis).
    """
    p = _pair_layout(spec)
    if p.swap:
        x, y = y, x
    shape_x, shape_y, out_shape = _pair_shapes(p.spec, x.shape, y.shape)
    if p.roles.sum_x:
        x = x.sum(axis=p.roles.sum_x)
    if p.roles.sum_y:
        y = y.sum(axis=p.roles.sum_y)
    out = np.matmul(x.transpose(p.perm_x).reshape(shape_x),
                    y.transpose(p.perm_y).reshape(shape_y))
    return out.reshape(out_shape).transpose(p.out_perm)


def _gather(c: np.ndarray, seg: np.ndarray, cut: int) -> np.ndarray:
    """Coefficient rows ``seg`` of ``c``, laid out as ``(nbatch, B, ncoef, W, A)``.

    ``c`` is laid out ``(nbatch, *before, coef, *after)``, with ``cut``
    tensor axes before its coefficient axis, which holds the ncoef
    coefficients ``seg`` addresses; the tensor axes before and after it
    merge into B and A.  Index ``ncoef`` in ``seg`` reads a zero row
    appended after the coefficients.
    """
    n = seg.shape[0]
    lead, after = c.shape[:1 + cut], c.shape[2 + cut:]
    at = (slice(None),) * (1 + cut)
    rows = np.empty((*lead, n + 1, *after))
    rows[at + (slice(None, n),)] = c
    rows[at + (n,)] = 0.0
    return rows.reshape(lead[0], math.prod(lead[1:]), n + 1, math.prod(after)).take(seg, axis=2)


def _jet_axes(perm: tuple, cut: int) -> tuple:
    """Jet axes ``(*kept, coef, nbatch)`` -> ``(nbatch, *perm[:cut], coef, *perm[cut:])``."""
    k = len(perm)
    return (k + 1, *perm[:cut], k, *perm[cut:])


def jj(spec: str, x: Jet, y: Jet) -> Jet:
    """Binary einsum over tensor axes of two jets, e.g. ``jj('ab,b->a', g, v)``.

    Works in the lower-order operand's space ``sp``: both operands are
    truncated to it first.  The layout is ``einsum2``'s (``_pair_layout``):
    tensor letters are sorted into shared (both operands and the output),
    left (x and the output), contracted (both operands only) and right (y
    and the output); a letter in one operand only is summed away first.
    Both operands are gathered through the segment tables
    ``sp.seg_a``/``sp.seg_b`` to ``(ncoef, nbatch, S, L, W*K)`` and
    ``(ncoef, nbatch, S, W*K, R)`` -- where the layout swaps the operands,
    their tables swap with them -- so a single ``np.matmul`` sums over the
    W pairs of every output coefficient and the K contracted entries at
    once; at order 0 it is one :func:`einsum2` of the values.  The letters
    in ``_RESERVED`` are rejected, and so is a letter repeated within one
    operand.
    """
    a, b, rhs = _split_spec(spec)  # refuse reserved letters before reading the operands
    sp = _lower(x, y)
    x, y = x.truncate(sp), y.truncate(sp)
    if sp.order == 0:  # one pair, nothing to gather: a product of values
        return Jet(sp, einsum2(f"{a}pz,{b}pz->{rhs}pz", x.c, y.c))
    p = _pair_layout(spec)
    seg_a, seg_b = sp.seg_a, sp.seg_b
    if p.swap:
        x, y, seg_a, seg_b = y, x, seg_b, seg_a
    (S, L, K), (_, _, R), out_shape = _pair_shapes(p.spec, x.tshape, y.tshape)
    xc = x.c.sum(axis=p.roles.sum_x) if p.roles.sum_x else x.c
    yc = y.c.sum(axis=p.roles.sum_y) if p.roles.sum_y else y.c
    n, w = seg_a.shape
    nb = x.nbatch
    ga = _gather(xc.transpose(_jet_axes(p.perm_x, p.cut_x)), seg_a, p.cut_x)
    gb = _gather(yc.transpose(_jet_axes(p.perm_y, p.cut_y)), seg_b, p.cut_y)
    prod = np.matmul(ga.reshape(nb, S, L, n, w * K).transpose(3, 0, 1, 2, 4),
                     gb.transpose(2, 0, 1, 3, 4).reshape(n, nb, S, w * K, R))
    del ga, gb  # free the gathers before the output copy
    out = prod.reshape(n, nb, *out_shape).transpose(*(2 + i for i in p.out_perm), 0, 1)
    return Jet(sp, np.ascontiguousarray(out))


def jc(spec: str, const: np.ndarray, x: Jet) -> Jet:
    """Einsum of a plain constant array (no batch axis) with a jet."""
    a, b, rhs = _split_spec(spec)
    out = np.einsum(f"{a},{b}pz->{rhs}pz", const, x.c)
    return Jet(x.space, out)


def jb(spec: str, const_b: np.ndarray, x: Jet) -> Jet:
    """Einsum of a per-batch constant (shape (nbatch, *cshape)) with a jet.

    One :func:`einsum2`, the batch letter shared and the coefficient axis
    one more output letter of the jet, so the constant is broadcast over
    it.  Like order-0 ``jj``, the product stays the kernel's batch-leading
    view, with no copy back to the jet layout.
    """
    a, b, rhs = _split_spec(spec)  # refuse reserved letters before reading the operands
    return Jet(x.space, einsum2(f"z{a},{b}pz->{rhs}pz", np.asarray(const_b, dtype=float), x.c))


def junary(spec: str, x: Jet) -> Jet:
    """Unary einsum (trace / transpose / diagonal) on the tensor axes."""
    lhs, rhs = spec.split("->")
    out = np.einsum(f"{lhs}pz->{rhs}pz", x.c)
    return Jet(x.space, out)


def _derivative_space(sp: JetSpace):
    """Space one order lower, with the rows of ``dsrc``/``dfac`` that feed it."""
    low = jetspace(sp.nvars, sp.order - 1)
    return low, sp.dsrc[:, :low.ncoef], sp.dfac[:, :low.ncoef, None]


def jpartial(x: Jet, var: int) -> Jet:
    """Partial derivative along coordinate ``var``; costs one order of trust."""
    low, src, fac = _derivative_space(x.space)
    return Jet(low, x.c[..., src[var], :] * fac[var])


def jgrad(x: Jet) -> Jet:
    """Stack all partials; the new derivative axis becomes tensor axis 0.

    One gather of every partial's source rows, scaled in place; the result
    is a view with the derivative axis moved to the front.
    """
    low, src, fac = _derivative_space(x.space)
    d = x.c[..., src, :]  # (*tshape, nvars, low.ncoef, nbatch)
    d *= fac
    return Jet(low, np.moveaxis(d, -3, 0))


# ---------------------------------------------------------------------------
# scalar function composition


def _nilpotent(x: Jet) -> Jet:
    """``x`` minus its value: the part that vanishes at the points."""
    dx = Jet(x.space, x.c.copy())
    dx.value_row[...] = 0.0
    return dx


def jcompose(u: Jet, coeffs: list[np.ndarray]) -> Jet:
    """Compose a scalar jet with a univariate Taylor series, or with F of them.

    ``coeffs[k]`` is ``f^{(k)}(u0)/k!`` as an array over the batch, of shape
    ``(nbatch,)``, or ``(F, nbatch)`` for F series at once, whose result is
    an ``(F,)``-jet.  Horner evaluation in the nilpotent part ``u - u0``,
    the coefficients entering as arrays.
    """
    sp = u.space
    if sp.order == 0:
        return jconst(sp, coeffs[0], batch_last=True)
    dU = _nilpotent(u)
    spec = ",->" if coeffs[0].ndim == 1 else "f,->f"
    res = Jet(sp, dU.c * coeffs[-1][..., None, :]) + coeffs[-2]
    for k in range(len(coeffs) - 3, -1, -1):
        res = jj(spec, res, dU) + coeffs[k]
    return res


def _series_cycle(u: Jet, f0, f1, f2, f3):
    """Series whose derivatives cycle with period 4 (sin/cos)."""
    u0 = u.value_row
    cyc = [f0(u0), f1(u0), f2(u0), f3(u0)]
    coeffs = [cyc[k % 4] / math.factorial(k) for k in range(u.space.order + 1)]
    return jcompose(u, coeffs)


def jsin(u: Jet) -> Jet:
    return _series_cycle(u, np.sin, np.cos, lambda x: -np.sin(x), lambda x: -np.cos(x))


def jcos(u: Jet) -> Jet:
    return _series_cycle(u, np.cos, lambda x: -np.sin(x), lambda x: -np.cos(x), np.sin)


def jrecip(u: Jet) -> Jet:
    u0 = u.value_row
    coeffs = [(-1.0) ** k * u0 ** (-k - 1) for k in range(u.space.order + 1)]
    return jcompose(u, coeffs)


@lru_cache(maxsize=None)
def _entire_matrix(series: tuple, order: int) -> np.ndarray:
    """``B[f, k, j] = a_{j+k} C(j+k, k)`` for each Maclaurin series ``a`` of
    ``series``: its shifted coefficients at u0 are ``c_k = sum_j B[f, k, j]
    u0^j``."""
    M = len(series[0])
    B = np.zeros((len(series), order + 1, M))
    for f, a in enumerate(series):
        for k in range(order + 1):
            for j in range(M - k):
                B[f, k, j] = a[j + k] * math.comb(j + k, k)
    return B


def jentire(u: Jet, series: np.ndarray) -> Jet:
    """Compose with an entire function given by its Maclaurin coefficients.

    ``series`` is one table ``(M,)``, or F tables ``(F, M)`` composed at once
    into an ``(F,)``-jet.  The shifted Taylor coefficients at u0 are ``c_k =
    sum_m a_m C(m,k) u0^{m-k}``, one GEMM of ``_entire_matrix`` with the
    powers of u0; for the rapidly decaying series used here (sinc-type) the
    sum converges to machine precision well before ``m = len(series)``.
    """
    u0 = u.value_row
    table = np.atleast_2d(series)
    B = _entire_matrix(tuple(map(tuple, table)), u.space.order)
    pw = np.empty((table.shape[1], *u0.shape))
    pw[0] = 1.0
    pw[1:] = u0
    np.cumprod(pw, axis=0, out=pw)  # pw[j] = u0^j
    coeffs = (B.reshape(-1, len(pw)) @ pw.reshape(len(pw), -1)).reshape(*B.shape[:2], *u0.shape)
    # (order + 1, *u0.shape) for one series, (order + 1, F, *u0.shape) for F
    return jcompose(u, list(coeffs[0] if np.ndim(series) == 1 else coeffs.swapaxes(0, 1)))


def _entire_coeffs(fn, M: int = 40) -> np.ndarray:
    return np.array([fn(m) for m in range(M)])


# sin(sqrt(s))/sqrt(s) and friends -- analytic in s = |v|^2,
# which sidesteps the sqrt branch point at v = 0 in the exponential chart.
SINC_SQRT = _entire_coeffs(lambda m: (-1.0) ** m / math.factorial(2 * m + 1))
# (1 - cos(2 sqrt(s))) / (2 s)
VERSINE_RATIO = _entire_coeffs(lambda j: (-1.0) ** j * 4.0 ** (j + 1) / (2 * math.factorial(2 * j + 2)))
# (1 - sinc(2 sqrt(s))) / s
SINC_DEFECT = _entire_coeffs(lambda j: (-1.0) ** j * 4.0 ** (j + 1) / math.factorial(2 * j + 3))


# ---------------------------------------------------------------------------
# matrix inverse


def jmatinv(g: Jet) -> Jet:
    """Inverse of a square-matrix jet via the truncated Neumann series.

    Writing g = g0 (I + N) with N nilpotent in the truncated algebra,
    g^{-1} = (I + sum (-N)^j) g0^{-1}; the series terminates at the jet
    order, so the result is exact.  I and g0^{-1} enter as arrays, so only
    the powers of N call ``jj``.
    """
    sp = g.space
    inv0 = np.linalg.inv(g.val)  # (B, d, d)
    if sp.order == 0:
        return jconst(sp, inv0)
    n = jb("ab,bc->ac", inv0, _nilpotent(g))  # N = g0^{-1} (g - g0)
    term = -n
    acc = term + np.eye(g.tshape[-1])[..., None]
    for _ in range(sp.order - 1):
        term = -jj("ab,bc->ac", term, n)
        acc = acc + term
    return jb("bc,ab->ac", inv0, acc)
