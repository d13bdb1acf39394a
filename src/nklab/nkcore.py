"""Verification suite for six-dimensional strict nearly Kahler structures.

Every check takes an :class:`~nklab.chart.EvalContext` on a chart carrying
``metric`` and ``J`` evaluators; the context fixes the points, the jet
order and the derivative backend.  The checks measure residuals of the
identities that characterize the geometry: skewness of the intrinsic
torsion, the classical first-order identities, the constant-type property
with its four-argument polarization, adapted frames with the canonical
expansions of the torsion 3-form, the Einstein and star-Ricci
normalizations, and the Laplacian eigenvalue equations of the fundamental
2-form.

Residual functions return ``{name: array}`` dictionaries: each residual
is a float array of shape ``(nbatch,)``, the max of its absolute value at
each context point (over every axis but the batch axis), and a reported
value such as ``scal_value`` is its per-point array.  Reducing over the
points and deciding pass/fail against a tolerance is the caller's job
(:mod:`nklab.suites` in the lab); nothing in this module asserts.

A check that takes an ``rng`` draws its random probes from it with
``standard_normal``, each draw with the context's points on its first
axis, so the lab can hand a chunk of points its rows of draws made for
all the points.
"""

from __future__ import annotations

import numpy as np

from . import calculus as C
from . import jets as J
from .chart import (
    DegenerateFrameError,
    DegeneratePairError,
    EvalContext,
    contract,
    gram_schmidt,
    memoized,
    unit_tangent_vectors,
)
from .exterior import (
    _combinations,
    _unpack,
    codifferential,
    d_form,
    form_laplacian_field,
    form_norm2,
    hodge,
    hodge_packed,
    interior,
    wedge,
    wedge_packed,
)

__all__ = [
    "j_field",
    "omega_field",
    "nabla_j",
    "psi_lower",
    "check_nearly_kahler",
    "gray_identities_check",
    "orthogonality_residuals",
    "type_tensor_check",
    "constant_type_samples",
    "frame_expansion_check",
    "elementary_identity_check",
    "einstein_and_ricci_star_check",
    "laplacian_omega_check",
]


# ---------------------------------------------------------------------------
# basic fields


def j_field(ctx: EvalContext) -> J.Jet:
    """Almost complex structure as an endomorphism jet J[a, i] = J^a_i."""
    return ctx.root("J")


@memoized
def omega_field(ctx: EvalContext) -> J.Jet:
    """Fundamental 2-form Omega_{ij} = g(J e_i, e_j), antisymmetrized.

    J.g is antisymmetric only as far as J is g-orthogonal, which fd root
    jets hold only to their accuracy in their derivative coefficients; the
    form routines read one triangle, so Omega is made a form here.
    """
    jg = J.jj("ki,kj->ij", ctx.root("J"), C.metric(ctx))
    return 0.5 * (jg - jg.transpose(1, 0))


def nabla_j(ctx: EvalContext) -> J.Jet:
    """Covariant derivative of J; axes (i, a, j) for (nabla_i J)^a_j."""
    return C.covd_field(ctx, j_field, "ul")


@memoized
def psi_lower(ctx: EvalContext) -> J.Jet:
    """Torsion 3-tensor psi[i, j, k] = g((nabla_i J) e_j, e_k).

    Built at order 0: every reader takes its value."""
    return J.jj("iaj,ak->ijk", C.cut(nabla_j(ctx), 0), C.metric(ctx))


@memoized
def d_omega(ctx: EvalContext) -> J.Jet:
    return d_form(omega_field(ctx), 2)


def _maxabs(a) -> np.ndarray:
    """max |a| at each point: over every axis but the first (batch) one."""
    return np.abs(a).max(axis=tuple(range(1, np.ndim(a))))


# ---------------------------------------------------------------------------
# defining condition


def check_nearly_kahler(ctx: EvalContext) -> dict:
    """Residuals of the defining data at the context's points (order >= 1).

    Checks that J is an isometric almost complex structure and that the
    covariant derivative of J is skew in its first two arguments (the
    nearly Kahler condition).  ``torsion_scale`` reports max |nabla J| so
    callers can distinguish the strict case from the Kahler one.
    """
    g = C.metric(ctx).val
    jv = j_field(ctx).val
    psi = psi_lower(ctx).val

    return {
        "j_square": _maxabs(contract("zab,zbc->zac", jv, jv) + np.eye(ctx.chart.dim)),
        "compatible": _maxabs(contract("zai,zab,zbj->zij", jv, g, jv) - g),
        "nk_condition": _maxabs(psi + np.swapaxes(psi, 1, 2)),
        "torsion_scale": _maxabs(psi),
    }


# ---------------------------------------------------------------------------
# first- and second-order identities


def gray_identities_check(ctx: EvalContext) -> dict:
    """Residuals of the five classical identities of the torsion.

    Items one to four are first order; the fourth is stated for vector
    fields, so it is evaluated on coordinate fields using the raw
    derivative of J together with the Christoffel symbols.  Item five is
    the second-order polarization identity with a cyclic sum on the
    right-hand side.
    """
    g = C.metric(ctx).val
    gam = C.christoffel(ctx).val
    jv = j_field(ctx).val
    nj = nabla_j(ctx).val            # (z, i, a, j)
    psi = psi_lower(ctx).val         # (z, i, j, k)

    out = {}
    out["gray1"] = _maxabs(psi + np.swapaxes(psi, 1, 2))

    lhs2 = contract("zmi,zmaj->ziaj", jv, nj)
    rhs2 = contract("ziam,zmj->ziaj", nj, jv)
    out["gray2"] = _maxabs(lhs2 - rhs2)

    lhs3 = contract("zab,zibj->ziaj", jv, nj)
    out["gray3"] = _maxabs(lhs3 + rhs2)

    # g(nabla_X Y, X) = g(nabla_X JY, JX) on coordinate fields
    dj = J.jgrad(j_field(ctx)).val   # (z, i, a, j) = partial_i J^a_j
    lhs4 = contract("zkij,zki->zij", gam, g)
    cov_jy = dj + contract("zaim,zmj->ziaj", gam, jv)  # nabla_i (J e_j)^a
    rhs4 = contract("ziaj,zab,zbi->zij", cov_jy, g, jv)
    out["gray4"] = _maxabs(lhs4 - rhs4)

    # 2 g((nabla2_{W,X} J) Y, Z) = - cyclic_{X,Y,Z} g((nabla_W J) X, (nabla_Y J) JZ)
    d2j = C.second_covd_field(ctx, j_field, "ul").val  # (z, w, x, a, j)
    lhs5 = 2.0 * contract("zwxay,zaq->zwxyq", d2j, g)
    t = contract("zwax,zab,zybm,zmq->zwxyq", nj, g, nj, jv)
    rhs5 = -(t + np.einsum("zwxyq->zwqxy", t) + np.einsum("zwxyq->zwyqx", t))
    out["gray5"] = _maxabs(lhs5 - rhs5)
    return out


def orthogonality_residuals(ctx: EvalContext, rng) -> dict:
    """(nabla_X J) Y is orthogonal to X, JX, Y and JY; 3 pairs per point."""
    g = C.metric(ctx).val
    jv = j_field(ctx).val
    nj = nabla_j(ctx).val
    x = unit_tangent_vectors(g, rng, 3)
    y = unit_tangent_vectors(g, rng, 3)
    v = contract("ziaj,zni,znj->zna", nj, x, y)
    ws = (x, y, contract("zai,zni->zna", jv, x), contract("zai,zni->zna", jv, y))
    return {"torsion_orthogonality": np.max(
        [_maxabs(contract("zna,zab,znb->zn", v, g, w)) for w in ws], axis=0)}


def type_tensor_check(ctx: EvalContext, rng) -> dict:
    """Constant-type consequences at type constant one.

    Covers the four-argument polarization, the composition square
    (nabla_X J)^2 Y = -|X|^2 Y on the orthogonal complement of the
    J-plane of X, and the rough Laplacian normalization of the
    fundamental form.
    """
    g = C.metric(ctx).val
    gi = C.metric_inv(ctx).val
    jv = j_field(ctx).val
    om = omega_field(ctx).val
    psi = psi_lower(ctx).val
    nj = nabla_j(ctx).val

    lhs = contract("zija,zklb,zab->zijkl", psi, psi, gi)
    rhs = (contract("zik,zjl->zijkl", g, g) - contract("zil,zjk->zijkl", g, g)
           - contract("zik,zjl->zijkl", om, om) + contract("zil,zjk->zijkl", om, om))
    out = {"four_argument": _maxabs(lhs - rhs)}

    x = unit_tangent_vectors(g, rng, 1)[:, 0]
    jx = contract("zai,zi->za", jv, x)
    raw = rng.standard_normal(x.shape)
    seeds = np.stack([x, jx, raw], axis=1)
    y = gram_schmidt(seeds, g)[:, 2]
    ajy = contract("ziaj,zi,zj->za", nj, x, y)
    sq = contract("ziaj,zi,zj->za", nj, x, ajy)
    out["square_minus_norm"] = _maxabs(sq + y)

    d2om = C.second_covd_field(ctx, omega_field, "ll").val
    rough = -contract("zab,zabij->zij", gi, d2om)
    out["rough_laplacian"] = _maxabs(rough - 4.0 * om)
    return out


# ---------------------------------------------------------------------------
# constant type


def constant_type_samples(ctx: EvalContext, rng) -> dict:
    """``alpha``: type-constant samples over 4 random tangent pairs at each
    of the context's points, shape (nbatch, 4)."""
    g = C.metric(ctx).val
    jv = j_field(ctx).val
    nj = nabla_j(ctx).val
    x = unit_tangent_vectors(g, rng, 4)
    y = unit_tangent_vectors(g, rng, 4)
    gxy = contract("zni,zij,znj->zn", x, g, y)
    jx = contract("zai,zni->zna", jv, x)
    gjxy = contract("zna,zab,znb->zn", jx, g, y)
    den = 1.0 - gxy**2 - gjxy**2
    if np.any(den <= 1e-8):
        raise DegeneratePairError("sampled tangent pair too close to a J-plane")
    v = contract("ziaj,zni,znj->zna", nj, x, y)
    num = contract("zna,zab,znb->zn", v, g, v)
    return {"alpha": num / den}


# ---------------------------------------------------------------------------
# adapted frames


def _adapted_frames(g, jv, nj, e1, e3) -> np.ndarray:
    """Adapted frames from seeds ``e1``, ``e3``, batched over the first axis.

    Returns rows (e1, Je1, e3, Je3, e5, Je5) per point, shape (nbatch, 6, d).
    """
    e1 = e1 / np.sqrt(contract("zi,zij,zj->z", e1, g, e1))[:, None]
    je1 = contract("zai,zi->za", jv, e1)
    e3 = (e3 - contract("zi,zij,zj->z", e3, g, e1)[:, None] * e1
          - contract("zi,zij,zj->z", e3, g, je1)[:, None] * je1)
    n3 = np.sqrt(np.maximum(contract("zi,zij,zj->z", e3, g, e3), 0.0))
    if np.any(n3 < 1e-8):
        raise DegenerateFrameError(
            "third frame seed lies in the J-invariant plane of the first")
    e3 = e3 / n3[:, None]
    e5 = contract("ziaj,zi,zj->za", nj, e1, e3)
    je3 = contract("zai,zi->za", jv, e3)
    je5 = contract("zai,zi->za", jv, e5)
    return np.stack([e1, je1, e3, je3, e5, je5], axis=1)


def _frame_form(k: int, entries: dict) -> np.ndarray:
    """The k-form on R^6 with the given components on increasing indices."""
    rank = {tuple(c): n for n, c in enumerate(_combinations(6, k).tolist())}
    packed = np.zeros(len(rank))
    for idx, value in entries.items():
        packed[rank[idx]] = value
    return _unpack(packed, 6, k)


# frame-component patterns of the torsion 3-form, its Hodge dual, and the
# fundamental form in an adapted frame
_PSI_PATTERN = _frame_form(3, {(0, 2, 4): 1.0, (0, 3, 5): -1.0,
                               (1, 2, 5): -1.0, (1, 3, 4): -1.0})
_STAR_PSI_PATTERN = _frame_form(3, {(1, 3, 5): -1.0, (1, 2, 4): 1.0,
                                    (0, 3, 4): 1.0, (0, 2, 5): 1.0})
_OMEGA_PATTERN = _frame_form(2, {(0, 1): 1.0, (2, 3): 1.0, (4, 5): 1.0})


def frame_expansion_check(ctx: EvalContext, rng) -> dict:
    """Expand psi, its Hodge dual, and Omega in adapted frames.

    One frame per context point, from seeds ``rng`` draws.  The frame
    components must reproduce the fixed integer patterns; this pins the
    normalization and the orientation conventions at once.
    """
    g = C.metric(ctx).val
    gi = C.metric_inv(ctx).val
    om = omega_field(ctx).val
    psi = psi_lower(ctx).val
    star_psi = hodge(psi, 3, g, gi, ctx.chart.orientation)
    # per point, the e1 seed then the e3 seed
    seeds = rng.standard_normal((ctx.nbatch, 2, g.shape[-1]))
    e = _adapted_frames(g, j_field(ctx).val, nabla_j(ctx).val, seeds[:, 0], seeds[:, 1])
    pf = contract("zai,zbj,zck,zijk->zabc", e, e, e, psi)
    spf = contract("zai,zbj,zck,zijk->zabc", e, e, e, star_psi)
    of = contract("zai,zbj,zij->zab", e, e, om)
    return {"psi": _maxabs(pf - _PSI_PATTERN),
            "star_psi": _maxabs(spf - _STAR_PSI_PATTERN),
            "omega": _maxabs(of - _OMEGA_PATTERN)}


# ---------------------------------------------------------------------------
# elementary consequences of the defining identities


def elementary_identity_check(ctx: EvalContext, rng) -> dict:
    """Pointwise interior-product, Hodge and wedge identities of Omega."""
    g = C.metric(ctx).val
    gi = C.metric_inv(ctx).val
    jv = j_field(ctx).val
    om_jet = omega_field(ctx)
    om = om_jet.val
    dom = d_omega(ctx).val
    ori = ctx.chart.orientation

    x = unit_tangent_vectors(g, rng, 1)[:, 0]
    jx = contract("zai,zi->za", jv, x)
    jxf = contract("za,zab->zb", jx, g)

    star_om = hodge(om, 2, g, gi, ori)
    star_dom = hodge(dom, 3, g, gi, ori)
    om_om = wedge(om, 2, om, 2)

    out = {}
    out["interior_omega"] = _maxabs(interior(x, om) - jxf)
    out["interior_star_omega"] = _maxabs(interior(x, star_om) - wedge(jxf, 1, om, 2))
    out["interior_d_omega"] = _maxabs(interior(x, dom) - interior(jx, star_dom))
    out["norm_omega"] = _maxabs(form_norm2(om, 2, gi) - 3.0)
    out["star_omega"] = _maxabs(star_om - 0.5 * om_om)

    om3 = wedge_packed(om, 2, om_om, 4)[:, 0] / 6.0
    vol = ori * np.sqrt(np.linalg.det(g))
    out["volume"] = _maxabs(om3 - vol)
    # the 5-forms are exactly antisymmetric: the max over their C(6, 5)
    # packed components is the max over the full arrays
    out["omega_wedge_d_omega"] = _maxabs(wedge_packed(om, 2, dom, 3))

    xf = contract("za,zab->zb", x, g)
    out["star_one_form"] = _maxabs(
        hodge_packed(xf, 1, g, gi, ori) - 0.5 * wedge_packed(jxf, 1, om_om, 4))
    # a value: Omega cut to order 1
    out["codifferential_omega"] = _maxabs(codifferential(ctx, C.cut(om_jet), 2).val)
    return out


# ---------------------------------------------------------------------------
# curvature normalizations


def einstein_and_ricci_star_check(ctx: EvalContext) -> dict:
    """Einstein constant five, scalar curvature thirty, star-Ricci one.

    The star-Ricci tensor tr(Z -> R(X, JZ) JY) is also cross-checked
    against the curvature operator applied to the fundamental form, an
    independent route through the same data.
    """
    g = C.metric(ctx).val
    jv = j_field(ctx).val
    ric = C.ricci(ctx).val
    scal = C.scalar_curvature(ctx).val
    riem = C.riemann(ctx).val
    om = omega_field(ctx).val

    out = {}
    out["ricci"] = _maxabs(ric - 5.0 * g)
    out["scal"] = _maxabs(scal - 30.0)
    out["scal_value"] = scal.copy()   # not a view: it outlives the jet

    t = contract("zcj,zmibc->zmibj", jv, riem)
    ric_star = contract("zbm,zmibj->zij", jv, t)
    out["ricci_star"] = _maxabs(ric_star - g)

    rop = C.curvature_operator_value(ctx, om)
    out["ricci_star_operator_route"] = _maxabs(
        ric_star - contract("zim,zmj->zij", rop, jv))
    return out


def laplacian_omega_check(ctx: EvalContext) -> dict:
    """Rough and Hodge Laplacian eigenvalues of the fundamental form.

    The two routes are tied together by the curvature term of the
    Weitzenboeck formula on 2-forms, which is verified as well.
    """
    lap = form_laplacian_field(ctx, omega_field, 2).val
    gi = C.metric_inv(ctx).val
    om = omega_field(ctx).val
    d2om = C.second_covd_field(ctx, omega_field, "ll").val
    rough = -contract("zab,zabij->zij", gi, d2om)
    scal = C.scalar_curvature(ctx).val
    rop = C.curvature_operator_value(ctx, om)

    out = {}
    out["rough_laplacian"] = _maxabs(rough - 4.0 * om)
    out["hodge_laplacian"] = _maxabs(lap - 12.0 * om)
    weitz = rough + (scal[:, None, None] / 3.0) * om - 2.0 * rop
    out["weitzenboeck"] = _maxabs(lap - weitz)
    return out
