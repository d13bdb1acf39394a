"""Reduction of a nearly Kahler six-manifold by a unit Killing field.

Given a chart with ``metric`` and ``J`` evaluators and its unit Killing
vector field as the evaluator ``xi``, this module builds the induced
objects -- the dual 1-forms, the vertical/horizontal splitting, the three
transversal anticommuting almost complex structures, the endomorphisms
entering the torsion of the splitting, the deformed metric whose
horizontal part is Kahler, and the canonical Hermitian connection -- as
jets memoized on the context, and measures the residuals of the
identities they satisfy.

Conventions: endomorphism arrays are indexed ``E[a, i]`` for E^a_i (apply
on the left), 2-forms of an endomorphism are ``omega_E(X, Y) = g(E X, Y)``,
and every residual function takes an :class:`~nklab.chart.EvalContext`
(points, jet order and derivative backend) and returns a ``{name: array}``
dictionary, as in :mod:`nklab.nkcore`: each residual is a float array of
shape ``(nbatch,)``, the max of its absolute value at each point, and the
pinned norms (``norm_*``, ``psi_norm``) and the terms of
:func:`sekigawa_terms_at` are per-point arrays too.
"""

from __future__ import annotations

import math

import numpy as np

from . import calculus as C
from . import jets as J
from .chart import EvalContext, NonEinsteinBaseError, contract, gram_schmidt, memoized
from .exterior import (
    codifferential,
    codifferential_field,
    d_form,
    form_ip,
    form_laplacian_field,
    form_norm2,
    wedge,
    wedge_jet,
)
from .nkcore import _maxabs, d_omega, j_field, nabla_j, omega_field

__all__ = [
    "xi_field",
    "zeta_form",
    "jxi_field",
    "jzeta_form",
    "dzeta_form",
    "djzeta_form",
    "nabla_xi",
    "i_endo",
    "k_endo",
    "jhat_endo",
    "sigma_endo",
    "pi_h",
    "omega_endo",
    "g0_metric",
    "g0_christoffel",
    "i0_endo",
    "omega_j_form",
    "omega_k_split",
    "psi_form",
    "zeta_prime",
    "omega0_jhat",
    "gamma_bar",
    "verify_killing_unit",
    "foliation_checks",
    "acs_check",
    "transversal_parallel_check",
    "norms_and_laplacian_checks",
    "djxi_check",
    "lie_derivative_suite",
    "g0_connection_check",
    "kahler_projection_check",
    "base_kahler_check",
    "sekigawa_terms_at",
    "canonical_connection_checks",
]

_SQ3 = math.sqrt(3.0)

#: Largest Einstein-tensor residual under which the base counts as Einstein.
_EINSTEIN_TOL = 1e-6


# ---------------------------------------------------------------------------
# fields induced by the chart's unit Killing field ``xi``, memoized on the
# context like ``nkcore.omega_field``


def xi_field(ctx: EvalContext) -> J.Jet:
    """The unit Killing field, the chart's ``xi`` evaluator."""
    return ctx.root("xi")


@memoized
def zeta_form(ctx: EvalContext) -> J.Jet:
    """Dual 1-form zeta = g(xi, .)."""
    return J.jj("ij,j->i", C.metric(ctx), ctx.root("xi"))


@memoized
def jxi_field(ctx: EvalContext) -> J.Jet:
    return J.jj("ai,i->a", j_field(ctx), ctx.root("xi"))


@memoized
def jzeta_form(ctx: EvalContext) -> J.Jet:
    return J.jj("ij,j->i", C.metric(ctx), jxi_field(ctx))


@memoized
def dzeta_form(ctx: EvalContext) -> J.Jet:
    return d_form(zeta_form(ctx), 1)


@memoized
def djzeta_form(ctx: EvalContext) -> J.Jet:
    return d_form(jzeta_form(ctx), 1)


@memoized
def nabla_xi(ctx: EvalContext) -> J.Jet:
    """Endomorphism (nabla xi)[a, i] = nabla_i xi^a, the transpose of the
    memoized covariant derivative of xi."""
    return J.junary("ia->ai", C.covd_field(ctx, xi_field, "u"))


# -- transversal endomorphisms -------------------------------------------
@memoized
def i_endo(ctx: EvalContext) -> J.Jet:
    return J.jj("i,iaj->aj", ctx.root("xi"), nabla_j(ctx))


@memoized
def k_endo(ctx: EvalContext) -> J.Jet:
    return J.jj("i,iaj->aj", jxi_field(ctx), nabla_j(ctx))


@memoized
def jhat_endo(ctx: EvalContext) -> J.Jet:
    return nabla_xi(ctx) + 0.5 * k_endo(ctx)


@memoized
def sigma_endo(ctx: EvalContext) -> J.Jet:
    return J.jj("ab,bi->ai", k_endo(ctx), jhat_endo(ctx))


@memoized
def pi_h(ctx: EvalContext) -> J.Jet:
    """Orthogonal projection onto the horizontal distribution."""
    eye = J.jconst(ctx.space, np.broadcast_to(np.eye(ctx.chart.dim),
                                              (ctx.nbatch,) + (ctx.chart.dim,) * 2).copy())
    t1 = J.jj("a,i->ai", ctx.root("xi"), zeta_form(ctx))
    t2 = J.jj("a,i->ai", jxi_field(ctx), jzeta_form(ctx))
    return eye - t1 - t2


@memoized
def omega_endo(ctx: EvalContext, item: str) -> J.Jet:
    """2-form g(E ., .) of the endomorphism E named ``item``."""
    endo = {"I": i_endo, "K": k_endo, "jhat": jhat_endo, "sigma": sigma_endo}[item]
    return J.jj("ai,aj->ij", endo(ctx), C.metric(ctx))


# -- deformed metric -------------------------------------------------------
@memoized
def g0_metric(ctx: EvalContext) -> J.Jet:
    sflat = J.jj("ia,aj->ij", C.metric(ctx), sigma_endo(ctx))
    return C.metric(ctx) + 0.5 * sflat


def g0_christoffel(ctx: EvalContext) -> J.Jet:
    return C.christoffel_of(ctx, g0_metric)


# -- reduced Kahler structure ---------------------------------------------
@memoized
def i0_endo(ctx: EvalContext) -> J.Jet:
    """Normalized transversal structure (2/sqrt3)(1 - sigma/2) I."""
    si = J.jj("ab,bi->ai", sigma_endo(ctx), i_endo(ctx))
    return (2.0 / _SQ3) * (i_endo(ctx) - 0.5 * si)


@memoized
def omega_j_form(ctx: EvalContext) -> J.Jet:
    """Horizontal part of the fundamental form: Omega - zeta ^ J zeta."""
    return omega_field(ctx) - wedge_jet(zeta_form(ctx), 1, jzeta_form(ctx), 1)


@memoized
def omega_k_split(ctx: EvalContext):
    """I0-invariant and I0-anti-invariant parts of omega_K."""
    om_k = omega_endo(ctx, "K")
    i0 = i0_endo(ctx)
    half_moved = J.jj("ai,ab->ib", i0, om_k)
    moved = J.jj("bj,ib->ij", i0, half_moved)
    return ((om_k + moved) * 0.5, (om_k - moved) * 0.5)


@memoized
def psi_form(ctx: EvalContext):
    """Complex 2-form sqrt3 * (anti-invariant part of omega_K) + 2i omega_J.

    Returns the pair (real jet, imaginary jet).
    """
    _, anti = omega_k_split(ctx)
    return (_SQ3 * anti, 2.0 * omega_j_form(ctx))


@memoized
def zeta_prime(ctx: EvalContext) -> J.Jet:
    return (2.0 * _SQ3) * jzeta_form(ctx)


@memoized
def omega0_jhat(ctx: EvalContext) -> J.Jet:
    """g0-lowered form of jhat (equals dzeta/2)."""
    return J.jj("ai,aj->ij", jhat_endo(ctx), g0_metric(ctx))


# -- canonical Hermitian connection ---------------------------------------
@memoized
def gamma_bar(ctx: EvalContext) -> J.Jet:
    """Christoffel symbols of nabla + (1/2) (nabla J) J."""
    corr = 0.5 * J.jj("iam,mj->aij", nabla_j(ctx), j_field(ctx))
    return C.christoffel(ctx) + corr


# ---------------------------------------------------------------------------
# Killing field and foliation


def verify_killing_unit(ctx: EvalContext) -> dict:
    """Unit length and invariance of g, J, Omega and d Omega (order >= 2)."""
    g = C.metric(ctx)
    xi = ctx.root("xi")
    n2 = contract("zi,zij,zj->z", xi.val, g.val, xi.val)
    out = {"unit_length": _maxabs(np.sqrt(n2) - 1.0)}
    out["killing"] = _maxabs(C.lie_derivative(ctx, xi, g, "ll").val)
    out["preserves_j"] = _maxabs(C.lie_derivative(ctx, xi, j_field(ctx), "ul").val)
    out["preserves_omega"] = _maxabs(C.lie_derivative(ctx, xi, omega_field(ctx), "ll").val)
    out["preserves_d_omega"] = _maxabs(C.lie_derivative(ctx, xi, d_omega(ctx), "lll").val)
    return out


def foliation_checks(ctx: EvalContext) -> dict:
    """The orbits of xi and J xi are totally geodesic and commute."""
    xi, jxi = ctx.root("xi"), jxi_field(ctx)
    cov_xi = C.covd_field(ctx, xi_field, "u").val  # (z, i, a)
    cov_jxi = C.covd(ctx, jxi, "u").val
    xv, jv = xi.val, jxi.val
    out = {
        "acc_xi_xi": _maxabs(contract("zi,zia->za", xv, cov_xi)),
        "acc_jxi_xi": _maxabs(contract("zi,zia->za", jv, cov_xi)),
        "acc_xi_jxi": _maxabs(contract("zi,zia->za", xv, cov_jxi)),
        "acc_jxi_jxi": _maxabs(contract("zi,zia->za", jv, cov_jxi)),
        "commutator": _maxabs(C.lie_derivative(ctx, xi, jxi, "u").val),
    }
    dz = dzeta_form(ctx).val
    out["interior_xi_dzeta"] = _maxabs(contract("zi,zij->zj", xv, dz))
    out["interior_jxi_dzeta"] = _maxabs(contract("zi,zij->zj", jv, dz))
    return out


# ---------------------------------------------------------------------------
# transversal algebra


def acs_check(ctx: EvalContext) -> dict:
    """Algebra of the three transversal structures and the split of dzeta."""
    g = C.metric(ctx).val
    jv = j_field(ctx).val
    i_e = i_endo(ctx).val
    k_e = k_endo(ctx).val
    jh = jhat_endo(ctx).val
    sg = sigma_endo(ctx).val
    pi = pi_h(ctx).val
    xi, jxi = ctx.root("xi").val, jxi_field(ctx).val

    def mm(a, b):
        return contract("zab,zbi->zai", a, b)

    out = {}
    out["kills_vertical"] = np.max(
        [_maxabs(contract("zai,zi->za", e, v))
         for e in (i_e, k_e, jh, sg) for v in (xi, jxi)], axis=0)
    out["i_square"] = _maxabs(mm(i_e, i_e) + pi)
    out["k_square"] = _maxabs(mm(k_e, k_e) + pi)
    out["jhat_square"] = _maxabs(mm(jh, jh) + pi)
    out["sigma_square"] = _maxabs(mm(sg, sg) - pi)
    out["k_is_ij"] = _maxabs(k_e - mm(i_e, jv))
    out["ij_anticommute"] = _maxabs(mm(i_e, jv) + mm(jv, i_e))
    out["ik_anticommute"] = _maxabs(mm(i_e, k_e) + mm(k_e, i_e))
    out["jk_anticommute"] = _maxabs(mm(jv, k_e) + mm(k_e, jv))
    out["jhat_commutes_i"] = _maxabs(mm(jh, i_e) - mm(i_e, jh))
    out["jhat_commutes_k"] = _maxabs(mm(jh, k_e) - mm(k_e, jh))
    out["jhat_commutes_j"] = _maxabs(mm(jh, jv) - mm(jv, jh))

    for nm, e in (("i", i_e), ("k", k_e), ("jhat", jh)):
        om = contract("zai,zaj->zij", e, g)
        out[f"skew_{nm}"] = _maxabs(om + np.swapaxes(om, 1, 2))

    # split of the exterior derivative of the dual 1-form
    gi = C.metric_inv(ctx).val
    dz = dzeta_form(ctx).val
    a_endo = contract("zij,zja->zai", dz, gi)   # dzeta(X,Y) = g(AX, Y)
    jaj = contract("zab,zbc,zci->zai", jv, a_endo, jv)
    out["dzeta_invariant_part"] = _maxabs(0.5 * (a_endo - jaj) - 2.0 * jh)
    out["dzeta_anti_part"] = _maxabs(0.5 * (a_endo + jaj) + k_e)
    out["a_is_2_nabla_xi"] = _maxabs(a_endo - 2.0 * nabla_xi(ctx).val)

    # torsion in terms of I and K on horizontal arguments
    nj = nabla_j(ctx).val
    om_i = omega_endo(ctx, "I").val
    om_k = omega_endo(ctx, "K").val
    rhs = (contract("za,zpq->zpaq", xi, om_i)
           + contract("za,zpq->zpaq", jxi, om_k))
    resid = contract("zpi,zpaq,zqj->ziaj", pi, nj - rhs, pi)
    out["torsion_via_ik"] = _maxabs(resid)
    return out


def transversal_parallel_check(ctx: EvalContext) -> dict:
    """I and K are parallel in horizontal directions for the induced
    partial connection: all-horizontal components of nabla I, nabla K
    vanish."""
    g = C.metric(ctx).val
    pi = pi_h(ctx).val
    out = {}
    for item, getter in (("i", i_endo), ("k", k_endo)):
        cov = C.covd(ctx, getter(ctx), "ul").val  # (z, x, a, j)
        low = contract("zxaj,zab->zxbj", cov, g)
        proj = contract("zxp,zxbj,zbc,zjq->zpcq", pi, low, pi, pi)
        out[f"parallel_{item}"] = _maxabs(proj)
    return out


# ---------------------------------------------------------------------------
# norms, Laplacians and the contraction identities of the torsion


def norms_and_laplacian_checks(ctx: EvalContext) -> dict:
    """Pinned norms of the reduced data and eigenform equations."""
    g = C.metric(ctx).val
    jv = j_field(ctx).val
    dz = dzeta_form(ctx).val
    out = {}

    # eigenform equations of the dual 1-forms
    lap_z = form_laplacian_field(ctx, zeta_form, 1).val
    out["laplacian_zeta"] = _maxabs(lap_z - 10.0 * zeta_form(ctx).val)
    lap_jz = form_laplacian_field(ctx, jzeta_form, 1).val
    out["laplacian_jzeta"] = _maxabs(lap_jz - 18.0 * jzeta_form(ctx).val)
    out["codifferential_jzeta"] = _maxabs(codifferential_field(ctx, jzeta_form, 1).val)

    gi = C.metric_inv(ctx).val
    dz_moved = contract("zai,zbj,zab->zij", jv, jv, dz)
    dz11 = 0.5 * (dz + dz_moved)
    dz20 = 0.5 * (dz - dz_moved)
    n11, n20 = form_norm2(dz11, 2, gi), form_norm2(dz20, 2, gi)
    out["norm_dzeta11"] = n11
    out["norm_dzeta11_dev"] = _maxabs(n11 - 8.0)
    out["norm_dzeta20"] = n20
    out["norm_dzeta20_dev"] = _maxabs(n20 - 2.0)

    jh = jhat_endo(ctx).val
    n_jh = contract("zai,zbj,zab,zij->z", jh, jh, g, gi)
    out["norm_jhat"] = n_jh
    out["norm_jhat_dev"] = _maxabs(n_jh - 4.0)

    djz = djzeta_form(ctx).val
    n_djz = form_norm2(djz, 2, gi, full=True)
    out["norm_djzeta"] = n_djz
    out["norm_djzeta_dev"] = _maxabs(n_djz - 36.0)

    om = omega_field(ctx).val
    out["ip_dzeta_omega"] = _maxabs(form_ip(dz, om, 2, gi))
    out["ip_dzeta11_omega"] = _maxabs(form_ip(dz11, om, 2, gi))

    om_i = omega_endo(ctx, "I").val
    om_k = omega_endo(ctx, "K").val
    out["djzeta_is_m3_omega_i"] = _maxabs(djz + 3.0 * om_i)
    dom = d_omega(ctx).val
    out["interior_xi_domega"] = _maxabs(
        contract("zi,zijk->zjk", ctx.root("xi").val, dom) - 3.0 * om_i)
    out["interior_jxi_domega"] = _maxabs(
        contract("zi,zijk->zjk", jxi_field(ctx).val, dom) - 3.0 * om_k)

    # contraction of nabla Omega against nabla xi
    n_om = C.covd_field(ctx, omega_field, "ll").val  # (z,a,i,j)
    n_xi = C.covd_field(ctx, xi_field, "u").val  # (z,b,m)
    contr = contract("zab,zamj,zbm->zj", gi, n_om, n_xi)
    out["nabla_omega_nabla_xi"] = _maxabs(contr + 2.0 * jzeta_form(ctx).val)

    # spectrum of the deformed metric relative to g, and of sigma
    ell = np.linalg.cholesky(g)

    def g_spectrum(b):
        """Sorted eigenvalues of the bilinear form b relative to g."""
        x = np.linalg.solve(ell, b)
        m = np.swapaxes(np.linalg.solve(ell, np.swapaxes(x, 1, 2)), 1, 2)
        return np.sort(np.linalg.eigvalsh(0.5 * (m + np.swapaxes(m, 1, 2))), axis=1)

    g0 = g0_metric(ctx).val
    out["g0_spectrum"] = _maxabs(g_spectrum(g0) - np.array([0.5, 0.5, 1.0, 1.0, 1.5, 1.5]))

    sg = sigma_endo(ctx).val
    out["sigma_trace"] = _maxabs(np.einsum("zaa->z", sg))
    sflat = contract("zia,zaj->zij", g, sg)
    out["sigma_spectrum"] = _maxabs(g_spectrum(sflat)
                                    - np.array([-1.0, -1.0, 0.0, 0.0, 1.0, 1.0]))

    # reconstruction of g from the deformed metric
    rec = (4.0 / 3.0) * (g0 - 0.5 * contract("zia,zaj->zij", g0, sg))
    pi = pi_h(ctx).val
    out["g_from_g0"] = _maxabs(contract("zpi,zpq,zqj->zij", pi, rec - g, pi))
    return out


def djxi_check(ctx: EvalContext) -> dict:
    """Exterior derivative of the contraction of J xi into d Omega."""

    def beta_field(c):
        return J.jj("i,iab->ab", jxi_field(c), d_omega(c))

    dbeta = d_form(beta_field(ctx), 2).val
    rhs = -12.0 * wedge(jzeta_form(ctx).val, 1, omega_field(ctx).val, 2)
    return {"d_interior_jxi_domega": _maxabs(dbeta - rhs)}


# ---------------------------------------------------------------------------
# Lie derivatives along J xi


def lie_derivative_suite(ctx: EvalContext) -> dict:
    """Flow of J xi applied to every structure of the reduction."""
    g = C.metric(ctx)
    jv = j_field(ctx)
    jxi = jxi_field(ctx)
    gval = g.val
    out = {}

    def lie(t, kinds):
        return C.lie_derivative(ctx, jxi, t, kinds).val

    def lower(endo_val):
        return contract("zai,zaj->zij", endo_val, gval)

    jh, i_e, k_e = jhat_endo(ctx), i_endo(ctx), k_endo(ctx)
    jjh = J.jj("ab,bi->ai", jv, jh)
    om_k, om_jh, om_i = omega_endo(ctx, "K"), omega_endo(ctx, "jhat"), omega_endo(ctx, "I")
    zjz_w = wedge_jet(zeta_form(ctx), 1, jzeta_form(ctx), 1)

    # the derivatives that two checks read
    lie_g, lie_om = lie(g, "ll"), lie(omega_field(ctx), "ll")
    lie_i, lie_k, lie_jh = lie(i_e, "ul"), lie(k_e, "ul"), lie(jh, "ul")
    lie_om_i, lie_om_k, lie_om_jh = lie(om_i, "ll"), lie(om_k, "ll"), lie(om_jh, "ll")

    # metric: L g = 2 g(J jhat . , .)
    out["metric"] = _maxabs(lie_g - 2.0 * lower(jjh.val))

    # closed forms stay closed under any flow
    out["dzeta"] = _maxabs(lie(dzeta_form(ctx), "ll"))
    out["djzeta"] = _maxabs(lie(djzeta_form(ctx), "ll"))

    out["omega"] = _maxabs(lie_om - 4.0 * om_k.val + 2.0 * om_jh.val)
    cartan = (contract("zi,zijk->zjk", jxi.val, d_omega(ctx).val)
              - dzeta_form(ctx).val)
    out["omega_cartan_route"] = _maxabs(lie_om - cartan)
    out["j_endo"] = _maxabs(lie(jv, "ul") - 4.0 * k_e.val)

    pi = pi_h(ctx)
    j_h = J.jj("ab,bi->ai", jv, pi)
    ijh = J.jj("ab,bi->ai", i_e, jh)
    out["omega_k"] = _maxabs(lie_om_k + 4.0 * omega_field(ctx).val - 4.0 * zjz_w.val)
    out["k_endo"] = _maxabs(lie_k + 4.0 * j_h.val + 2.0 * ijh.val)

    out["omega_jhat"] = _maxabs(lie_om_jh + 2.0 * omega_field(ctx).val - 2.0 * zjz_w.val)
    out["jhat_endo"] = _maxabs(lie_jh)

    jhk = J.jj("ab,bi->ai", jh, k_e)
    out["omega_i"] = _maxabs(lie_om_i)
    out["i_endo"] = _maxabs(lie_i - 2.0 * jhk.val)

    out["two_omega_jhat"] = _maxabs(2.0 * om_jh.val - dzeta_form(ctx).val - om_k.val)

    sflat = J.jj("ia,aj->ij", g, sigma_endo(ctx))
    out["sigma_flat"] = _maxabs(lie(sflat, "ll") + 4.0 * lower(jjh.val))
    out["g0"] = _maxabs(lie(g0_metric(ctx), "ll"))

    # transport formula: for alpha = g(A.,.), L alpha = g((L A).,.) + (L g)(A.,.)
    for nm, endo, lie_endo, lie_form in (("i", i_e, lie_i, lie_om_i), ("k", k_e, lie_k, lie_om_k),
                                         ("jhat", jh, lie_jh, lie_om_jh)):
        via = (contract("zai,zaj->zij", lie_endo, gval)
               + contract("zai,zaj->zij", endo.val, lie_g))
        out[f"transport_{nm}"] = _maxabs(lie_form - via)

    # everything is also invariant along xi itself
    xi = ctx.root("xi")
    out["xi_invariance"] = np.max(
        [_maxabs(C.lie_derivative(ctx, xi, t, kinds).val)
         for t, kinds in ((g0_metric(ctx), "ll"), (om_i, "ll"), (om_k, "ll"), (jh, "ul"))],
        axis=0)
    return out


# ---------------------------------------------------------------------------
# the deformed metric is Kahler in horizontal directions


def g0_connection_check(ctx: EvalContext) -> dict:
    """Horizontal difference tensor between the two Levi-Civita connections.

    Route one computes the Christoffel symbols of the deformed metric
    directly from its jets; route two evaluates the closed-form expression
    through the derivatives of sigma and of jhat.  Both are compared after
    projecting every slot horizontally.
    """
    g0 = g0_metric(ctx)
    gam = C.christoffel(ctx).val
    gam0 = g0_christoffel(ctx).val
    pi = pi_h(ctx).val
    sg = sigma_endo(ctx).val
    g0v = g0.val

    diff = contract("zaxy,zaq->zxyq", gam0 - gam, g0v)

    cov_sigma = C.covd_field(ctx, sigma_endo, "ul").val   # (z, x, a, y)
    cov_jhat = C.covd(ctx, jhat_endo(ctx), "ul").val
    k_e = k_endo(ctx).val
    term = cov_sigma + contract("zmx,zmay->zxay", k_e, cov_jhat)
    half = term - 0.5 * contract("zab,zxby->zxay", sg, term)
    rhs = (1.0 / 3.0) * contract("zxay,zaq->zxyq", half, g0v)

    resid = contract("zxp,zyq,zwr,zxyw->zpqr", pi, pi, pi, diff - rhs)
    out = {"difference_tensor": _maxabs(resid)}

    # (pi + sigma/2)(pi - sigma/2) = (3/4) pi
    lhs = contract("zab,zbi->zai", pi + 0.5 * sg, pi - 0.5 * sg)
    out["projector_algebra"] = _maxabs(lhs - 0.75 * pi)
    return out


# ---------------------------------------------------------------------------
# Kahler projection


def kahler_projection_check(ctx: EvalContext) -> dict:
    """The reduced data projects to a Kahler structure: normalized
    transversal structure, type decomposition, parallelism under the
    deformed connection, and the circle-action phase equation."""
    g0 = g0_metric(ctx)
    g0v = g0.val
    pi = pi_h(ctx).val
    i0 = i0_endo(ctx)
    i0v = i0.val
    out = {}

    out["i0_square"] = _maxabs(contract("zab,zbi->zai", i0v, i0v) + pi)
    moved_g0 = contract("zai,zbj,zab->zij", i0v, i0v, g0v)
    out["i0_compatible"] = _maxabs(
        contract("zpi,zpq,zqj->zij", pi, moved_g0 - g0v, pi))

    om_i = omega_endo(ctx, "I").val
    out["omega_i_via_i0"] = _maxabs(om_i - (2.0 / _SQ3)
                                    * contract("zai,zaj->zij", i0v, g0v))

    # omega0_jhat = dzeta / 2, and it is closed
    om0 = omega0_jhat(ctx)
    out["omega0_jhat_half_dzeta"] = _maxabs(om0.val - 0.5 * dzeta_form(ctx).val)
    out["omega0_jhat_closed"] = _maxabs(d_form(om0, 2).val)

    # type split of omega_K with respect to i0
    om_k = omega_endo(ctx, "K").val
    om_jh = omega_endo(ctx, "jhat").val
    inv, anti = omega_k_split(ctx)
    out["omega_k_invariant_part"] = _maxabs(inv.val + (om_k - 2.0 * om_jh) / 3.0)
    out["omega_k_anti_part"] = _maxabs(anti.val - (2.0 / 3.0) * (2.0 * om_k - om_jh))

    om_j = omega_j_form(ctx)
    moved_j = contract("zai,zbj,zab->zij", i0v, i0v, om_j.val)
    out["omega_j_anti_invariant"] = _maxabs(moved_j + om_j.val)

    re_p, im_p = psi_form(ctx)
    psi = re_p.val + 1j * im_p.val
    out["psi_type"] = _maxabs(contract("zai,zaj->zij", i0v, psi) + 1j * psi)
    out["psi_intermediate_j"] = _maxabs(
        contract("zai,zaj->zij", i0v, om_j.val) + (_SQ3 / 2.0) * anti.val)
    out["psi_intermediate_k"] = _maxabs(
        contract("zai,zaj->zij", i0v, anti.val) - (2.0 / _SQ3) * om_j.val)

    k_e = k_endo(ctx).val
    i0k = contract("zab,zbi->zai", i0v, k_e)
    target = (4.0 / _SQ3) * (contract("zai,zaj->zij", k_e, g0v)
                             - 1j * contract("zai,zaj->zij", i0k, g0v))
    out["psi_via_k"] = _maxabs(psi - target)

    g0i = C.inverse_of(ctx, g0_metric).val
    n2 = form_norm2(re_p.val, 2, g0i) + form_norm2(im_p.val, 2, g0i)
    out["psi_norm"] = n2
    out["psi_norm_dev"] = _maxabs(n2 - 64.0 / 3.0)

    # parallelism under the deformed connection, horizontally projected
    def hproj(cov):
        # cov: (z, x, a, j) endo-valued; sandwich all slots with pi
        return contract("zxp,zab,zxbq,zqj->zpaj", pi, pi, cov, pi)

    gam0 = g0_christoffel(ctx)
    cov_i0 = C.covd(ctx, i0, "ul", gamma=gam0).val
    out["i0_parallel"] = _maxabs(hproj(cov_i0))
    cov_k = C.covd(ctx, k_endo(ctx), "ul", gamma=gam0).val
    out["k_parallel"] = _maxabs(hproj(cov_k))

    def fproj(cov):
        # cov: (z, x, i, j) form-valued
        return contract("zxp,zxab,zai,zbj->zpij", pi, cov, pi, pi)

    cov_re = C.covd(ctx, re_p, "ll", gamma=gam0).val
    cov_im = C.covd(ctx, im_p, "ll", gamma=gam0).val
    out["psi_parallel"] = np.maximum(_maxabs(fproj(cov_re)), _maxabs(fproj(cov_im)))

    # normalized circle action: zeta'(xi') = 1 and L_{xi'} Psi = i Psi
    zp = zeta_prime(ctx)
    xip = (1.0 / (2.0 * _SQ3)) * jxi_field(ctx)
    out["zeta_prime_pairing"] = _maxabs(
        contract("zi,zi->z", zp.val, xip.val) - 1.0)
    dzp = d_form(zp, 1).val
    out["dzeta_prime_omega_i"] = _maxabs(dzp + 6.0 * _SQ3 * om_i)
    out["dzeta_prime_i0"] = _maxabs(
        dzp + 12.0 * contract("zai,zaj->zij", i0v, g0v))
    lre = C.lie_derivative(ctx, xip, re_p, "ll").val
    lim = C.lie_derivative(ctx, xip, im_p, "ll").val
    out["phase_equation"] = np.maximum(_maxabs(lre + im_p.val), _maxabs(lim - re_p.val))
    return out


# ---------------------------------------------------------------------------
# integrand identity on the four-dimensional base


def sekigawa_terms_at(ctx: EvalContext, rng) -> dict:
    """Terms of the integral identity for almost Kahler Einstein 4-metrics.

    The context (order >= 4) must be on a 4-dimensional base chart carrying
    ``metric`` and ``Jhat`` evaluators.  Raises ``NonEinsteinBaseError``
    when the metric is not Einstein, since the identity is derived under
    that hypothesis.  Returns every named term, |lhs|, |rhs| and
    ``identity_residual`` at each point.  ``rng`` draws the seeds of the
    frames of the curvature block, one ``(nbatch, 2, 4)`` draw.
    """
    g = C.metric(ctx)
    scal = C.scalar_curvature(ctx).val
    ric = C.ricci(ctx).val
    ein = np.max(np.abs(ric - (scal[:, None, None] / 4.0) * g.val))
    if not ein <= _EINSTEIN_TOL:
        raise NonEinsteinBaseError(
            f"base metric is not Einstein (residual {ein:.3e}); "
            "the integrand identity does not apply")

    @memoized
    def om_f(c):
        return J.jj("ai,aj->ij", c.root("Jhat"), C.metric(c))

    @memoized
    def rop_f(c):
        rl = C.riemann_lower(c)
        gic = C.metric_inv(c).truncate(rl.space)  # omu meets rl only
        omu1 = J.jj("ka,kl->al", gic, om_f(c))
        omu = J.jj("lb,al->ab", gic, omu1)
        return -0.5 * J.jj("kl,klij->ij", omu, rl)

    @memoized
    def sstar_f(c):
        rop = rop_f(c)
        gic = C.metric_inv(c)
        r1 = J.jj("ia,ij->aj", gic, rop)
        ru = J.jj("jb,aj->ab", gic, r1)
        return J.jj("ab,ab->", ru, om_f(c))

    out = {"scal": scal, "sstar": sstar_f(ctx).val}

    lap_sstar = form_laplacian_field(ctx, sstar_f, 0).val
    out["laplacian_sstar"] = lap_sstar

    # divergence of the pairing of the star-Ricci form with nabla Omega
    nab_om = C.covd_field(ctx, om_f, "ll")

    def pair_f(c):
        rop = rop_f(c)
        gic = C.metric_inv(c).truncate(rop.space)  # up meets rop only
        no = C.covd_field(c, om_f, "ll")
        up1 = J.jj("ia,xij->xaj", gic, no)
        up = J.jj("jc,xaj->xac", gic, up1)
        return 0.5 * J.jj("xac,ac->x", up, rop)

    delta_pair = codifferential(ctx, pair_f(ctx), 1).val
    out["div_rho_nabla_omega"] = np.abs(delta_pair)

    gv, giv = g.val, C.metric_inv(ctx).val
    jhat = ctx.root("Jhat").val
    no = nab_om.val                          # (z, x, i, j)

    # phi(X, Y) = <nabla_{Jhat X} Omega, nabla_Y Omega>
    inner = contract("zxij,zia,zjb,zyab->zxy", no, giv, giv, no) / 2.0
    phi = contract("zmx,zmy->zxy", jhat, inner)
    norm_phi = contract("zxy,zxa,zyb,zab->z", phi, giv, giv, phi)
    out["norm_phi"] = norm_phi

    # |nabla Omega|^2 and the rough Laplacian of Omega
    norm_nabla_om = contract("zxy,zxij,zia,zjb,zyab->z", giv, no, giv, giv, no) / 2.0
    out["norm_nabla_omega"] = norm_nabla_om
    d2om = C.second_covd_field(ctx, om_f, "ll").val
    rough = -contract("zab,zabij->zij", giv, d2om)
    norm_rough = form_norm2(rough, 2, giv)
    out["norm_rough_omega"] = norm_rough

    # curvature block on anti-invariant 2-forms, anti-linear part, in the
    # basis b1, b2 built from a Jhat-adapted frame f1, Jhat f1, f3, Jhat f3
    seeds = rng.standard_normal((ctx.nbatch, 2, 4))
    jseed = contract("zai,zi->za", jhat, seeds[:, 0])
    f = gram_schmidt(np.stack([seeds[:, 0], jseed, seeds[:, 1]], axis=1), gv)
    f = np.concatenate([f, contract("zai,zi->za", jhat, f[:, 2])[:, None]], axis=1)
    cov = contract("zij,zkj->kzi", gv, f)
    b1 = (wedge(cov[0], 1, cov[2], 1) - wedge(cov[1], 1, cov[3], 1)) / math.sqrt(2.0)
    b2 = (wedge(cov[0], 1, cov[3], 1) + wedge(cov[1], 1, cov[2], 1)) / math.sqrt(2.0)
    basis = (b1, b2)
    bmat = np.array([[form_ip(C.curvature_operator_value(ctx, ba), bb, 2, giv)
                      for bb in basis] for ba in basis]).transpose(2, 0, 1)
    rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
    banti = 0.5 * (bmat + rot @ bmat @ rot)
    r2 = np.sum(banti**2, axis=(1, 2))
    out["norm_r_anti"] = r2

    lhs = lap_sstar - 8.0 * delta_pair
    rhs = -8.0 * r2 - norm_rough - norm_phi - (scal / 4.0) * norm_nabla_om
    out["lhs"] = np.abs(lhs)
    out["rhs"] = np.abs(rhs)
    out["identity_residual"] = _maxabs(lhs - rhs)
    return out


def base_kahler_check(ctx: EvalContext) -> dict:
    """Kahler-Einstein normalization of the 4-dimensional base model.

    The context (order >= 2) needs ``metric``, ``I0`` and ``Jhat``
    evaluators: the integrable structure must be parallel, the
    opposite-orientation structure too, both fundamental forms closed, and
    the metric Einstein with constant twelve.
    """
    g = C.metric(ctx)
    gv = g.val
    ric = C.ricci(ctx).val
    out = {"einstein_12": _maxabs(ric - 12.0 * gv)}

    eye = np.eye(ctx.chart.dim)
    for nm in ("I0", "Jhat"):
        e = ctx.root(nm)
        ev = e.val
        out[f"{nm.lower()}_square"] = _maxabs(
            contract("zab,zbi->zai", ev, ev) + eye)
        out[f"{nm.lower()}_compatible"] = _maxabs(
            contract("zai,zbj,zab->zij", ev, ev, gv) - gv)
        out[f"{nm.lower()}_parallel"] = _maxabs(
            C.covd(ctx, e, "ul").val)
        om = J.jj("ai,aj->ij", e, g)
        out[f"{nm.lower()}_form_closed"] = _maxabs(d_form(om, 2).val)

    i0 = ctx.root("I0").val
    jh = ctx.root("Jhat").val
    out["i0_jhat_commute"] = _maxabs(
        contract("zab,zbi->zai", i0, jh) - contract("zab,zbi->zai", jh, i0))
    return out


# ---------------------------------------------------------------------------
# canonical Hermitian connection


def canonical_connection_checks(ctx: EvalContext, rng) -> dict:
    """The torsion-adapted connection preserves g, J and the splitting
    into the two parallel rank-3 distributions exchanged by J."""
    gb = gamma_bar(ctx)
    g = C.metric(ctx)
    out = {}
    out["metric_parallel"] = _maxabs(C.covd(ctx, g, "ll", gamma=gb).val)
    out["j_parallel"] = _maxabs(C.covd(ctx, j_field(ctx), "ul", gamma=gb).val)

    cov_xi = C.covd(ctx, ctx.root("xi"), "u", gamma=gb).val  # (z, i, a)
    sg = sigma_endo(ctx).val
    jh = jhat_endo(ctx).val
    target = contract("zab,zbi->zai", sg + np.eye(ctx.chart.dim), jh)
    out["xi_derivative"] = _maxabs(np.swapaxes(cov_xi, 1, 2) - target)

    # horizontal-horizontal part of nabla sigma (Levi-Civita) vanishes
    pi = pi_h(ctx).val
    cov_sg = C.covd_field(ctx, sigma_endo, "ul").val
    proj = contract("zxp,zab,zxbj,zjq->zpaq", pi, pi, cov_sg, pi)
    out["sigma_transversal_parallel"] = _maxabs(proj)

    # distributions spanned by xi with the +1 eigenspace of sigma, and its
    # J-image: both are preserved by the connection
    p_plus = 0.5 * (pi_h(ctx) + sigma_endo(ctx))
    p_minus = 0.5 * (pi_h(ctx) - sigma_endo(ctx))
    # the products are computed in the projectors' space
    pi_e = p_plus + J.jj("a,i->ai", ctx.root("xi").truncate(p_plus.space), zeta_form(ctx))
    pi_f = p_minus + J.jj("a,i->ai", jxi_field(ctx).truncate(p_minus.space), jzeta_form(ctx))

    jval = j_field(ctx).val
    out["j_maps_e_to_f"] = _maxabs(
        contract("zab,zbi->zai", jval, pi_e.val)
        - contract("zab,zbi->zai", pi_f.val, contract("zab,zbi->zai", jval, pi_e.val)))

    out["e_projector_parallel"] = _maxabs(C.covd(ctx, pi_e, "ul", gamma=gb).val)

    d = ctx.chart.dim
    eye = np.eye(d)
    split = []
    for _ in range(3):
        w = rng.standard_normal(d)
        for proj in (pi_e, pi_f):
            cov = C.covd(ctx, J.jc("i,ai->a", w, proj), "u", gamma=gb).val  # (z, u, a)
            split.append(_maxabs(contract("zab,zub->zua", eye - proj.val, cov)))
    out["splitting_parallel"] = np.max(split, axis=0)
    return out
