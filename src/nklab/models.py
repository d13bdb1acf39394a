"""Concrete chart models: S3 x S3, the round 6-sphere, and S2 x S2.

Each model has one chart.  On S3 x S3 it is the quaternion exponential at
the identity on each factor, and tangent vectors are left-trivialized
through its differential, which has the closed form

    T(x) w = A(s) w - V(s) x cross w + U(s) <x, w> x,     s = |x|^2,

with A = sinc(2 sqrt s), V = (1 - cos(2 sqrt s))/(2 s) and U = (1 -
A)/s -- all entire in s, so the chart is smooth through x = 0.  The
structure J(Y,Z) = (2Z - Y, Z - 2Y)/sqrt3 and the quadratic form
|Y|^2 + |Z|^2 - <Y,Z> are expressed on coordinates by conjugating with the
block transport matrix.  No matrix jet is inverted: with X = [x cross]
and P = x x^T, XP = PX = 0 and X^2 = P - s I, so T = A I - V X + U P has

    T^T T = V I + ((1 - V)/s) P,    T^-1 = a I + X + (V - U a) P,  a = A/V,

((1 - V)/s is entire; V = (sin r / r)^2 > 0 for r = |x| < pi), and
conjugating j (x) I3 by diag(T_x, T_y) gives the blocks [[j00 I, j01 T_x^-1
T_y], [j10 T_y^-1 T_x, j11 I]].

The 6-sphere sits in the imaginary octonions; J_p = p cross (.) is pulled
back through the stereographic chart u -> Phi(u) = (2 w u, (s - 1) w),
w = 1/(1 + s), s = |u|^2, in closed form: with X = C Phi (the matrix of
Phi cross) and u~ = (u, -1),

    g = 4 w^2 I,    J = X[:6, :6] - 2 w (u v^T - v u^T),  v = (X^T u~)[:6],

and a rotation A in so(7) gives xi = (1/2w) [(A Phi)[:6] - 2 w (u~ . A Phi) u],
so neither the embedding's differential nor the metric inverse is formed.
S2 x S2 with radius 1/(2 sqrt 3) per factor is the Einstein base (Ric =
12 g) used by the reduction suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import jets as J
from .chart import ChartMap, ConfigError, EvalContext, contract, memoized
from .exterior import wedge, wedge_packed

__all__ = [
    "ModelBundle",
    "build_s3s3",
    "build_s3s3_product",
    "build_s6",
    "build_s2s2",
    "build_model",
    "MODEL_BUILDERS",
    "S3S3_SCALE",
    "S2S2_RADIUS",
    "octonion_cross_table",
]

# Metric scale for which S3 x S3 has constant type 1 (scal = 30): the type
# constant at scale 1 measures 4/9 and scales inversely with the metric, so
# c = 4/9.  The tests check it through that homothety law.
S3S3_SCALE = 4.0 / 9.0

#: Radius of each sphere of the Einstein base S2 x S2 (Ric = 12 g), which
#: is also the base of the ``ansatz`` model.
S2S2_RADIUS = 1.0 / (2.0 * math.sqrt(3.0))


# ---------------------------------------------------------------------------
# model bundle


@dataclass
class ModelBundle:
    """A registered geometry: its chart, and facts about how it was built.

    A chart that carries the Killing field the reduction runs on names its
    evaluator ``xi``: unit on ``s3s3`` and ``ansatz``, a rotation that is
    nowhere unit on ``s6``.
    """

    name: str
    chart: ChartMap
    meta: dict = field(default_factory=dict)


def _fix_orientation_nk6(chart: ChartMap) -> None:
    """Orient the chart so the coordinate volume matches Omega^3 / 6."""
    p = chart.center()[None, :]
    ctx = EvalContext(chart, p, order=0)
    g = ctx.root("metric").val
    jm = ctx.root("J").val
    om = contract("bki,bkj->bij", jm, g)
    comp = wedge_packed(wedge(om, 2, om, 2), 4, om, 2)[0, 0] / 6.0
    ref = math.sqrt(float(np.linalg.det(g[0])))
    chart.orientation = 1.0 if comp / ref > 0 else -1.0


# ---------------------------------------------------------------------------
# S3 x S3

_J_ALG = np.kron(np.array([[-1.0, 2.0], [-2.0, 1.0]]) / math.sqrt(3.0), np.eye(3))
_J_SWAP = np.kron(np.array([[0.0, -1.0], [1.0, 0.0]]), np.eye(3))
_EPS3 = np.zeros((3, 3, 3))
for _i, _j, _k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
    _EPS3[_i, _j, _k] = 1
    _EPS3[_i, _k, _j] = -1
# tensor-axis blocks of the two S3 factors
_XX, _YY, _XY, _YX = np.s_[:3, :3], np.s_[3:, 3:], np.s_[:3, 3:], np.s_[3:, :3]


# Maclaurin tables in s of A = sinc(2 sqrt s), V = (1 - cos 2 sqrt s)/(2 s),
# U = (1 - A)/s, Q = (1 - V)/s and U - Q, all entire; (V - 1)/s is V's
# table less its first term, padded with a zero
_VR_TAIL = np.append(J.VERSINE_RATIO[1:], 0.0)
_S3_SERIES = np.stack([J.SINC_SQRT * 4.0 ** np.arange(len(J.SINC_SQRT)), J.VERSINE_RATIO,
                       J.SINC_DEFECT, -_VR_TAIL, J.SINC_DEFECT + _VR_TAIL])
# the constant entries, on the value row, of the frames' coefficient table
# (T^-1's 1 at X) and of their basis (I)
_COEF_ONE = np.zeros((3, 3, 1))
_COEF_ONE[1, 1] = 1.0
_BASIS_EYE = np.zeros((3, 3, 3, 1))
_BASIS_EYE[0] = np.eye(3)[..., None]


def _s3s3_factor(x: J.Jet):
    """(T, T^-1, T^T T) of one S3 factor at the (3,)-jet ``x``, in closed form.

    T = A I - V X + U P with X = [x cross], P = x x^T, s = |x|^2.  The
    identities XP = PX = 0 and X^2 = P - s I give T^T T = V I + Q P with Q
    = (1 - V)/s, and T^-1 = a I + X + (V - U a) P with a = A / V.  Since
    A^2 + s V^2 = V, V - U a = (U - Q) / V.  V = (sin r / r)^2 is positive
    in the chart box (r = |x| < pi).  The three frames are one product of
    their coefficient table with the basis (I, X, P).
    """
    s = J.jj("a,a->", x, x)
    f = J.jentire(s, _S3_SERIES)                   # A, V, U, Q, U - Q
    ac = J.jj("f,->f", f[[0, 4]], J.jrecip(f[1]))  # a, V - U a
    coef = J.jassemble((3, 3), [((0, 0), f[0]), ((0, 1), -f[1]), ((0, 2), f[2]),
                                ((1, 0), ac[0]), ((1, 2), ac[1]),
                                ((2, 0), f[1]), ((2, 2), f[3])]) + _COEF_ONE
    basis = J.jassemble((3, 3, 3), [(1, J.jc("abc,b->ac", _EPS3, x)),
                                    (2, J.jj("a,d->ad", x, x))]) + _BASIS_EYE
    frames = J.jj("fk,kad->fad", coef, basis)
    return frames[0], frames[1], frames[2]


@memoized
def _s3s3_frames(ctx: EvalContext):
    """``_s3s3_factor`` of the two factors, memoized per context."""
    return _s3s3_factor(ctx.coords[:3]), _s3s3_factor(ctx.coords[3:])


def _s3s3_metric_evaluator(c_scale: float, cross: bool = True):
    def ev(ctx):
        (tx, _, gx), (ty, _, gy) = _s3s3_frames(ctx)
        parts = [(_XX, gx), (_YY, gy)]
        if cross:
            gxy = -0.5 * J.jj("ai,aj->ij", tx, ty)
            parts += [(_XY, gxy), (_YX, gxy.transpose(1, 0))]
        return c_scale * J.jassemble((6, 6), parts)

    return ev


def _s3s3_J_evaluator(jalg: np.ndarray):
    """T^-1 jalg T with T = diag(Tx, Ty), jalg = j (x) I3 for a 2x2 j."""
    diag = np.kron(np.diag([jalg[0, 0], jalg[3, 3]]), np.eye(3))[..., None]

    def ev(ctx):
        (tx, txinv, _), (ty, tyinv, _) = _s3s3_frames(ctx)
        return J.jassemble((6, 6), [(_XY, jalg[0, 3] * J.jj("ab,bc->ac", txinv, ty)),
                                    (_YX, jalg[3, 0] * J.jj("ab,bc->ac", tyinv, tx))]) + diag

    return ev


def _s3s3_xi_diag_evaluator(c_scale: float):
    """The diagonal right translation by k on both factors, unit at metric
    scale ``c_scale``: T^-1 e_z on each factor, over sqrt(c_scale)."""
    def ev(ctx):
        (_, txinv, _), (_, tyinv, _) = _s3s3_frames(ctx)
        return J.jassemble((6,), [(np.s_[:3], txinv[:, 2]),
                                  (np.s_[3:], tyinv[:, 2])]) / math.sqrt(c_scale)

    return ev


def build_s3s3(scale: float | None = None) -> ModelBundle:
    """Nearly Kahler S3 x S3; ``scale`` defaults to the calibrated value."""
    c_scale = S3S3_SCALE if scale is None else float(scale)
    ev = {
        "metric": _s3s3_metric_evaluator(c_scale),
        "J": _s3s3_J_evaluator(_J_ALG),
        "xi": _s3s3_xi_diag_evaluator(c_scale),
    }
    ch = ChartMap("s3s3:a", [(-0.8, 0.8)] * 6, ev)
    _fix_orientation_nk6(ch)
    return ModelBundle(name="s3s3", chart=ch, meta={"scale": c_scale})


def build_s3s3_product() -> ModelBundle:
    """Product metric with the factor-swap almost complex structure.

    This is *not* nearly Kahler; it exists as the negative control.
    """
    box = [(-0.8, 0.8)] * 6
    ev = {
        "metric": _s3s3_metric_evaluator(1.0, cross=False),
        "J": _s3s3_J_evaluator(_J_SWAP),
    }
    ch = ChartMap("s3s3-product:a", box, ev)
    _fix_orientation_nk6(ch)
    return ModelBundle(name="s3s3-product", chart=ch)


# ---------------------------------------------------------------------------
# round S6 in the imaginary octonions


def octonion_cross_table() -> np.ndarray:
    """(7,7,7) tensor C with (x cross y)_k = C[k,i,j] x_i y_j."""
    c = np.zeros((7, 7, 7))
    triples = [(1, 2, 4), (2, 3, 5), (3, 4, 6), (4, 5, 7), (5, 6, 1), (6, 7, 2), (7, 1, 3)]
    for i, j, k in triples:
        for a, b, cc in [(i, j, k), (j, k, i), (k, i, j)]:
            c[cc - 1, a - 1, b - 1] = 1
            c[cc - 1, b - 1, a - 1] = -1
    return c


_OCT = octonion_cross_table()
# ((u, 0) x e_7)[:6] = _OCT_E7 u
_OCT_E7 = _OCT[:6, :6, 6]


@memoized
def _s6_conformal(ctx: EvalContext):
    """s = |u|^2 and w = 1 / (1 + s) of the stereographic chart."""
    s = J.jj("a,a->", ctx.coords, ctx.coords)
    return s, J.jrecip(1.0 + s)


def _s6_metric(ctx):
    """g = 4 w^2 I: the stereographic metric is conformally flat."""
    _, w = _s6_conformal(ctx)
    return J.jc("ij,->ij", 4.0 * np.eye(6), J.jj(",->", w, w))


def _s6_J(ctx):
    """J = X[:6, :6] - 2 w (u v^T - v u^T), with X = C Phi and v = (X^T u~)[:6].

    Phi = (2 w u, (s - 1) w) is the embedding, u~ = (u, -1), and (s - 1) w
    = 1 - 2 w.  v = (u~ x Phi)[:6] = ((u, 0) x e_7)[:6], since w (1 + s) =
    1, so v is linear in u.
    """
    _, w = _s6_conformal(ctx)
    wu = J.jj(",a->a", w, ctx.coords)
    phi = J.jassemble((7,), [(np.s_[:6], 2.0 * wu), (6, -2.0 * w + 1.0)])
    v = J.jc("ca,a->c", _OCT_E7, ctx.coords)
    m = J.jj("a,c->ac", wu, v)
    return J.jc("aBc,B->ac", _OCT[:6, :, :6], phi) - 2.0 * (m - m.transpose(1, 0))


def _s6_rotation_evaluator(amat: np.ndarray):
    """The rotation field of ``amat`` in so(7), xi = (1/2w) [(A Phi)[:6] - 2 w (u~ . A Phi) u].

    With a = A[:6, 6], (A Phi)[:6] / 2w = A[:6, :6] u + (s - 1)/2 a and
    u~ . A Phi = a . u, so xi is a polynomial in u.
    """
    a66, a = amat[:6, :6], amat[:6, 6]

    def ev(ctx):
        u = ctx.coords
        s, _ = _s6_conformal(ctx)
        au = J.jc("a,a->", a, u)
        return (J.jc("ab,b->a", a66, u) + J.jc("a,->a", 0.5 * a, s - 1.0)
                - J.jj(",a->a", au, u))

    return ev


def so7_generator(i: int, j: int) -> np.ndarray:
    a = np.zeros((7, 7))
    a[i, j] = 1.0
    a[j, i] = -1.0
    return a


def build_s6() -> ModelBundle:
    """Round unit 6-sphere with the octonion cross-product structure."""
    ev = {"metric": _s6_metric, "J": _s6_J, "xi": _s6_rotation_evaluator(so7_generator(0, 1))}
    ch = ChartMap("s6:north", [(-0.7, 0.7)] * 6, ev)
    _fix_orientation_nk6(ch)
    return ModelBundle(name="s6", chart=ch)


# ---------------------------------------------------------------------------
# S2 x S2 base


def _s2s2_metric_evaluator(r1: float, r2: float):
    def ev(ctx):
        sin1 = J.jsin(ctx.coord(0))
        sin2 = J.jsin(ctx.coord(2))
        one = J.jconst(ctx.space, np.ones((ctx.nbatch,)))
        return J.jassemble((4, 4), [((0, 0), r1 * r1 * one),
                                    ((1, 1), r1 * r1 * J.jj(",->", sin1, sin1)),
                                    ((2, 2), r2 * r2 * one),
                                    ((3, 3), r2 * r2 * J.jj(",->", sin2, sin2))])

    return ev


def sphere_rotation(ctx: EvalContext, dim: int, signs=(1.0, 1.0)) -> J.Jet:
    """(dim, dim) endomorphism jet rotating each round-sphere factor by 90 degrees.

    Factor f has polar coordinates (phi, psi) = (x_2f, x_2f+1); the rotation
    is j(d_phi) = d_psi / sin(phi), j(d_psi) = -sin(phi) d_phi, reversed
    where ``signs[f]`` is -1.  Coordinates past the factors are sent to zero.
    """
    parts = []
    for f, sgn in enumerate(signs):
        sin = J.jsin(ctx.coord(2 * f))
        parts += [((2 * f, 2 * f + 1), -sgn * sin), ((2 * f + 1, 2 * f), sgn * J.jrecip(sin))]
    return J.jassemble((dim, dim), parts)


def build_s2s2(radii: tuple[float, float] | None = None) -> ModelBundle:
    """Product of two round 2-spheres (default: Einstein with Ric = 12 g)."""
    r1, r2 = radii if radii is not None else (S2S2_RADIUS, S2S2_RADIUS)
    box = [(0.5, math.pi - 0.5), (-2.5, 2.5)] * 2
    ev = {
        "metric": _s2s2_metric_evaluator(r1, r2),
        "I0": lambda ctx: sphere_rotation(ctx, 4, (1.0, 1.0)),
        "Jhat": lambda ctx: sphere_rotation(ctx, 4, (1.0, -1.0)),
    }
    ch = ChartMap("s2s2:main", box, ev, orientation=1.0)
    return ModelBundle(name="s2s2", chart=ch)


def _build_ansatz() -> ModelBundle:
    """The :mod:`nklab.ansatz` model, imported here as it imports this module."""
    from .ansatz import assemble

    return assemble()


MODEL_BUILDERS = {
    "s3s3": build_s3s3,
    "s6": build_s6,
    "s2s2": build_s2s2,
    "s3s3-product": build_s3s3_product,
    "ansatz": _build_ansatz,
}


def build_model(name: str) -> ModelBundle:
    if name not in MODEL_BUILDERS:
        raise ConfigError(f"unknown model '{name}' (known: {sorted(MODEL_BUILDERS)})")
    return MODEL_BUILDERS[name]()
