"""Connection-level machinery: Christoffel symbols, curvature, transport.

Sign conventions (pinned by the quantitative anchors in the test suite):

* R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_{[X,Y]} Z, with
  components R^l_{ijk} = d_i Gamma^l_{jk} - d_j Gamma^l_{ik} + Gamma
  quadratic terms, so that the round unit sphere has positive sectional
  curvature.
* Ric(X,Y) = tr(Z -> R(Z,X)Y), i.e. Ric_{jk} = R^i_{ijk}; the round unit
  6-sphere then has Ric = 5 g and scalar curvature 30.
* The curvature operator on 2-forms is q(a)_{ij} = -1/2 a^{kl} R_{klij}
  (identity operator on round spheres).

All functions take an :class:`~nklab.chart.EvalContext` and return jets;
derived jets are memoized on the context.

Orders: a derivative lands one order below its argument, so a caller
that adds a product to a derivative truncates the product's operands to
the derivative's space first (``Jet.truncate``).  ``covd`` does so for
its Christoffel corrections, ``riemann`` for its Gamma.Gamma term and
``lie_derivative`` for its transport terms.  Memoized jets are kept at
their full order, since other consumers read all of it -- except the
inverse of a metric field, built once per context of order k at order
max(k - 1, 0) (``inverse_of``): its readers take its value or a product
with a derivative of g.
"""

from __future__ import annotations

import numpy as np

from . import jets as J
from .chart import EvalContext, contract

__all__ = [
    "metric",
    "inverse_of",
    "metric_inv",
    "christoffel",
    "christoffel_of",
    "covd",
    "covd_field",
    "second_covd_field",
    "riemann",
    "riemann_lower",
    "ricci",
    "scalar_curvature",
    "curvature_operator_value",
    "lie_derivative",
]


def metric(ctx: EvalContext) -> J.Jet:
    return ctx.root("metric")


def inverse_of(ctx: EvalContext, metric_field, key) -> J.Jet:
    """The inverse of a metric field (ctx -> Jet), memoized under ``key``.

    Built once per context, at order max(k - 1, 0) for a context of order
    k: no reader needs more, and ``jj`` cuts it to a lower operand's order.
    """

    def build(c):
        space = J.jetspace(c.space.nvars, max(c.order - 1, 0))
        return J.jmatinv(metric_field(c).truncate(space))

    return ctx.memo(("inverse", key), build)


def metric_inv(ctx: EvalContext) -> J.Jet:
    """g^{-1} of the chart metric (:func:`inverse_of`)."""
    return inverse_of(ctx, metric, "metric")


def _christoffel_from(g: J.Jet, ginv: J.Jet) -> J.Jet:
    dg = J.jgrad(g)  # (i, a, b) = d_i g_ab
    s = J.junary("ijl->lij", dg) + J.junary("jil->lij", dg) - J.junary("lij->lij", dg)
    return 0.5 * J.jj("kl,lij->kij", ginv, s)


def christoffel(ctx: EvalContext) -> J.Jet:
    """Gamma^k_{ij} of the chart metric; tensor shape (k, i, j)."""
    return christoffel_of(ctx, metric, "metric")


def christoffel_of(ctx: EvalContext, metric_field, key) -> J.Jet:
    """Christoffel symbols of a metric field (e.g. the Kahler quotient
    metric), memoized under ``key``, like its inverse (:func:`inverse_of`)."""
    return ctx.memo(("christoffel", key), lambda c: _christoffel_from(
        metric_field(c), inverse_of(c, metric_field, key)))


def covd(ctx: EvalContext, t: J.Jet, kinds: str, gamma: J.Jet | None = None) -> J.Jet:
    """Covariant derivative; the new covariant slot becomes tensor axis 0.

    (covd T)[i, ...] = nabla_i T[...], a tensor of kinds ``"l" + kinds``;
    pass ``gamma`` to differentiate with respect to a connection other than
    the chart Levi-Civita one.
    """
    if gamma is None:
        gamma = christoffel(ctx)
    out = J.jgrad(t)
    # so each correction is computed in out's space
    gamma, t = gamma.truncate(out.space), t.truncate(out.space)
    n = len(kinds)
    letters = [chr(ord("a") + q) for q in range(n)]
    base = "".join(letters)
    for q, kind in enumerate(kinds):
        src = letters[q]
        rest = base.replace(src, "m")
        if kind == "u":
            corr = J.jj(f"{src}im,{rest}->i{base}", gamma, t)
            out = out + corr
        else:
            corr = J.jj(f"mi{src},{rest}->i{base}", gamma, t)
            out = out - corr
    return out


def covd_field(ctx: EvalContext, field, kinds: str, key) -> J.Jet:
    """Memoized covariant derivative of a field callable (ctx -> Jet)."""
    return ctx.memo(("covd", key), lambda c: covd(c, field(c), kinds))


def second_covd_field(ctx: EvalContext, field, kinds: str, key) -> J.Jet:
    """nabla^2_{i,j} of a field: covd applied twice; axes (i, j, ...).

    The inner derivative is ``covd_field(ctx, field, kinds, key)``.
    """

    def build(c):
        return covd(c, covd_field(c, field, kinds, key), "l" + kinds)

    return ctx.memo(("covd2", key), build)


def riemann(ctx: EvalContext) -> J.Jet:
    """R^l_{ijk} with R(e_i,e_j)e_k = R^l_{ijk} e_l; tensor shape (l,i,j,k)."""

    def build(c):
        gam = christoffel(c)
        dgam = J.jgrad(gam)  # (i, l, j, k)
        gam = gam.truncate(dgam.space)
        t1 = J.junary("iljk->lijk", dgam)
        t2 = J.junary("jlik->lijk", dgam)
        q1 = J.jj("lim,mjk->lijk", gam, gam)
        q2 = q1.transpose(0, 2, 1, 3)  # Gamma^l_{jm} Gamma^m_{ik}: q1 with i <-> j
        return t1 - t2 + q1 - q2

    return ctx.memo("riemann", build)


def riemann_lower(ctx: EvalContext) -> J.Jet:
    """R_{ijkl} = g(R(e_i,e_j)e_k, e_l)."""

    def build(c):
        return J.jj("mijk,ml->ijkl", riemann(c), metric(c))

    return ctx.memo("riemann_lower", build)


def ricci(ctx: EvalContext) -> J.Jet:
    return ctx.memo("ricci", lambda c: J.junary("iijk->jk", riemann(c)))


def scalar_curvature(ctx: EvalContext) -> J.Jet:
    return ctx.memo("scalar_curvature", lambda c: J.jj("jk,jk->", ricci(c), metric_inv(c)))


def curvature_operator_value(ctx: EvalContext, alpha: np.ndarray) -> np.ndarray:
    """q(alpha)_{ij} = -1/2 alpha^{kl} R_{klij} at value level.

    ``alpha`` is (nbatch, d, d) covariant antisymmetric.
    """
    rl = riemann_lower(ctx).val
    gi = metric_inv(ctx).val
    up = contract("bka,blc,bac->bkl", gi, gi, alpha)
    return -0.5 * contract("bkl,bklij->bij", up, rl)


def lie_derivative(ctx: EvalContext, xfield: J.Jet, t: J.Jet, kinds: str) -> J.Jet:
    """Lie derivative along a vector-field jet, coordinate formula.

    (L_X T) = X^m d_m T + sum_lower (d_a X^m) T[..m..]
                        - sum_upper (d_m X^a) T[..m..].
    """
    n = len(kinds)
    letters = [chr(ord("a") + q) for q in range(n)]
    base = "".join(letters)
    out = J.jj(f"m,m{base}->{base}", xfield, J.jgrad(t))
    # so each term is computed in out's space
    dX = J.jgrad(xfield).truncate(out.space)  # (i, a) = d_i X^a
    t = t.truncate(out.space)
    for q, kind in enumerate(kinds):
        src = letters[q]
        rest = base.replace(src, "m")
        if kind == "l":
            out = out + J.jj(f"{src}m,{rest}->{base}", dX, t)
        else:
            out = out - J.jj(f"m{src},{rest}->{base}", dX, t)
    return out

