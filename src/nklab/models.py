"""Concrete chart models: S3 x S3, the round 6-sphere, and S2 x S2.

S3 x S3 uses exponential charts on each factor.  Tangent vectors are
left-trivialized through the differential of the quaternion exponential,
which has the closed form

    T(x) w = A(s) w - V(s) x cross w + U(s) <x, w> x,     s = |x|^2,

with A = sinc(2 sqrt s), V = (1 - cos(2 sqrt s))/(2 s) and U = (1 -
A)/s -- all entire in s, so the chart is smooth through x = 0.  The
structure J(U,V) = (2V - U, V - 2U)/sqrt3 and the quadratic form
|U|^2 + |V|^2 - <U,V> are expressed on coordinates by conjugating with the
block transport matrix.

The 6-sphere sits in the imaginary octonions; J_p = p cross (.) is pulled
back through stereographic charts.  S2 x S2 with radius 1/(2 sqrt 3) per
factor is the Einstein base (Ric = 12 g) used by the reduction suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import jets as J
from .calculus import metric_inv
from .chart import ChartMap, ConfigError, EvalContext, contract
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
    "qmul_v",
    "qconj_v",
    "qexp_v",
    "qlog_v",
    "octonion_cross_table",
    "transition_s3s3",
]

# Metric scale for which S3 x S3 has constant type 1 (scal = 30): the type
# constant at scale 1 measures 4/9 and scales inversely with the metric, so
# c = 4/9.  The tests check it through that homothety law.
S3S3_SCALE = 4.0 / 9.0

S2S2_RADIUS = 1.0 / (2.0 * math.sqrt(3.0))


# ---------------------------------------------------------------------------
# quaternion helpers (value level)

_QT = np.zeros((4, 4, 4))
_QT[0, 0, 0] = 1
for _i in range(1, 4):
    _QT[0, _i, _i] = -1
    _QT[_i, 0, _i] = 1
    _QT[_i, _i, 0] = 1
for _i, _j, _k in [(1, 2, 3), (2, 3, 1), (3, 1, 2)]:
    _QT[_k, _i, _j] = 1
    _QT[_k, _j, _i] = -1

_EPS3 = np.zeros((3, 3, 3))
for _i, _j, _k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
    _EPS3[_i, _j, _k] = 1
    _EPS3[_i, _k, _j] = -1


def qmul_v(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a, b = np.broadcast_arrays(a, b)
    return contract("ijk,zj,zk->zi", _QT, a.reshape(-1, 4), b.reshape(-1, 4)).reshape(a.shape)


def qconj_v(q: np.ndarray) -> np.ndarray:
    out = np.array(q, dtype=float, copy=True)
    out[..., 1:] *= -1
    return out


def qexp_v(v: np.ndarray) -> np.ndarray:
    """Exponential of a pure-imaginary quaternion given as a 3-vector."""
    v = np.atleast_2d(v)
    th = np.linalg.norm(v, axis=-1, keepdims=True)
    sinc = np.where(th > 1e-12, np.sin(th) / np.where(th > 0, th, 1.0), 1.0)
    return np.concatenate([np.cos(th), sinc * v], axis=-1)


def qlog_v(q: np.ndarray) -> np.ndarray:
    """Inverse of qexp_v for unit quaternions with positive real part branch."""
    q = np.atleast_2d(q)
    w = np.clip(q[..., :1], -1.0, 1.0)
    v = q[..., 1:]
    nv = np.linalg.norm(v, axis=-1, keepdims=True)
    th = np.arctan2(nv, w)
    fac = np.where(nv > 1e-12, th / np.where(nv > 0, nv, 1.0), 1.0)
    return fac * v


# ---------------------------------------------------------------------------
# quaternion helpers (jet level)


def _transport_jet(x: J.Jet) -> J.Jet:
    """T(x): coordinate basis -> left-trivialized Lie algebra, (3,3)-jet."""
    s = J.jj("a,a->", x, x)
    four_s = 4.0 * s
    a = J.jentire(four_s, J.SINC_SQRT)       # sinc(2 sqrt s)
    v = J.jentire(s, J.VERSINE_RATIO)        # (1 - cos 2 sqrt s) / (2 s)
    u = J.jentire(s, J.SINC_DEFECT)          # (1 - a) / s
    cross = J.jc("abc,b->ac", _EPS3, x)      # (x cross .)[a, c]
    outer = J.jj("a,d->ad", x, x)
    return J.jc("ad,->ad", np.eye(3), a) - J.jj(",ad->ad", v, cross) + J.jj(",ad->ad", u, outer)


# ---------------------------------------------------------------------------
# model bundle


@dataclass
class ModelBundle:
    """A registered geometry: its charts, and facts about how it was built.

    A chart that carries the Killing field the reduction runs on names its
    evaluator ``xi``: unit on ``s3s3`` and ``ansatz``, a rotation that is
    nowhere unit on ``s6``.
    """

    name: str
    charts: list
    meta: dict = field(default_factory=dict)

    @property
    def chart(self) -> ChartMap:
        return self.charts[0]


def _fix_orientation_nk6(chart: ChartMap) -> None:
    """Orient the chart so the coordinate volume matches Omega^3 / 6."""
    p = chart.center()[None, :]
    ctx = EvalContext(chart, p, order=0)
    g = ctx.root("metric").val
    jm = ctx.root("J").val
    om = np.einsum("bki,bkj->bij", jm, g)
    comp = wedge_packed(wedge(om, 2, om, 2), 4, om, 2)[0, 0] / 6.0
    ref = math.sqrt(float(np.linalg.det(g[0])))
    chart.orientation = 1.0 if comp / ref > 0 else -1.0


# ---------------------------------------------------------------------------
# S3 x S3

_J_ALG = np.kron(np.array([[-1.0, 2.0], [-2.0, 1.0]]) / math.sqrt(3.0), np.eye(3))
_J_SWAP = np.kron(np.array([[0.0, -1.0], [1.0, 0.0]]), np.eye(3))
# tensor-axis blocks of the two S3 factors
_XX, _YY, _XY, _YX = np.s_[:3, :3], np.s_[3:, 3:], np.s_[:3, 3:], np.s_[3:, :3]
# Killing generator at unit metric scale: the diagonal right translation by
# k on both factors
_XI_DIAG = np.array([0.0, 0.0, 1.0, 0.0, 0.0, 1.0])


def _s3s3_frames(ctx: EvalContext):
    def build(c):
        tx = _transport_jet(c.coords[:3])
        ty = _transport_jet(c.coords[3:])
        m = J.jassemble((6, 6), [(_XX, tx), (_YY, ty)])
        minv = J.jassemble((6, 6), [(_XX, J.jmatinv(tx)), (_YY, J.jmatinv(ty))])
        return m, minv

    return ctx.memo("s3s3_frames", build)


def _s3s3_metric_evaluator(c_scale: float, cross: bool = True):
    def ev(ctx):
        m, _ = _s3s3_frames(ctx)
        tx, ty = m[_XX], m[_YY]
        parts = [(_XX, J.jj("ai,aj->ij", tx, tx)), (_YY, J.jj("ai,aj->ij", ty, ty))]
        if cross:
            gxy = -0.5 * J.jj("ai,aj->ij", tx, ty)
            parts += [(_XY, gxy), (_YX, gxy.transpose(1, 0))]
        return c_scale * J.jassemble((6, 6), parts)

    return ev


def _s3s3_J_evaluator(jalg: np.ndarray):
    def ev(ctx):
        m, minv = _s3s3_frames(ctx)
        jm = J.jc("AB,Bj->Aj", jalg, m)
        return J.jj("AB,Bj->Aj", minv, jm)

    return ev


def _s3s3_xi_diag_evaluator(c_scale: float):
    v6 = _XI_DIAG / math.sqrt(c_scale)

    def ev(ctx):
        _, minv = _s3s3_frames(ctx)
        return J.jc("B,AB->A", v6, minv)

    return ev


_S3S3_CENTERS = {
    "a": (np.array([1.0, 0.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0, 0.0])),
    "b": (qexp_v(np.array([0.4, 0.0, 0.0]))[0], qexp_v(np.array([0.0, 0.3, 0.1]))[0]),
}


def build_s3s3(scale: float | None = None, charts=("a", "b")) -> ModelBundle:
    """Nearly Kahler S3 x S3; ``scale`` defaults to the calibrated value."""
    c_scale = S3S3_SCALE if scale is None else float(scale)
    box = [(-0.8, 0.8)] * 6
    chart_list = []
    for key in charts:
        p0, q0 = _S3S3_CENTERS[key]
        ev = {
            "metric": _s3s3_metric_evaluator(c_scale),
            "J": _s3s3_J_evaluator(_J_ALG),
            "xi": _s3s3_xi_diag_evaluator(c_scale),
        }
        ch = ChartMap(f"s3s3:{key}", box, ev, meta={"centers": (p0, q0)})
        _fix_orientation_nk6(ch)
        chart_list.append(ch)
    return ModelBundle(name="s3s3", charts=chart_list, meta={"scale": c_scale})


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
    return ModelBundle(name="s3s3-product", charts=[ch])


def transition_s3s3(bundle: ModelBundle, i_from: int, i_to: int, coords: np.ndarray) -> np.ndarray:
    """Express chart-i coordinates in chart-j coordinates (value level)."""
    pa, qa = bundle.charts[i_from].meta["centers"]
    pb, qb = bundle.charts[i_to].meta["centers"]
    coords = np.atleast_2d(coords)
    x, y = coords[:, :3], coords[:, 3:]
    p = qmul_v(pa, qexp_v(x))
    q = qmul_v(qa, qexp_v(y))
    x2 = qlog_v(qmul_v(qconj_v(pb), p))
    y2 = qlog_v(qmul_v(qconj_v(qb), q))
    return np.concatenate([x2, y2], axis=-1)


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


def _s6_embed(ctx: EvalContext, pole: float):
    """Stereographic embedding Phi and its differential P (closed forms)."""

    def build(c):
        u = c.coords
        s = J.jj("a,a->", u, u)
        w = J.jrecip(1.0 + s)
        phi = J.jassemble((7,), [(np.s_[:6], J.jj(",a->a", 2.0 * w, u)),
                                 (6, pole * (s - 1.0) * w)])
        w2 = J.jj(",->", w, w)
        outer = J.jj("a,i->ai", u, u)
        # d_i Phi_a = 2 w delta_ai - 4 w^2 u_a u_i ; d_i Phi_7 = pole * 4 w^2 u_i
        pa = J.jc("ia,->ia", np.eye(6), 2.0 * w) - J.jj(",ai->ia", 4.0 * w2, outer)
        p = J.jassemble((6, 7), [(np.s_[:, :6], pa),
                                 (np.s_[:, 6], J.jj(",i->i", 4.0 * pole * w2, u))])
        return phi, p

    return ctx.memo(("s6_embed", pole), build)


def _s6_metric_evaluator(pole: float):
    def ev(ctx):
        _, p = _s6_embed(ctx, pole)
        return J.jj("iA,jA->ij", p, p)

    return ev


def _s6_J_evaluator(pole: float):
    def ev(ctx):
        phi, p = _s6_embed(ctx, pole)
        gi = metric_inv(ctx)
        cross = J.jj("AC,jC->Aj", J.jc("ABC,B->AC", _OCT, phi), p)   # (Phi x P_j)_A
        proj = J.jj("kA,Aj->kj", p, cross)
        return J.jj("ik,kj->ij", gi, proj)

    return ev


def _s6_rotation_evaluator(pole: float, amat: np.ndarray):
    def ev(ctx):
        phi, p = _s6_embed(ctx, pole)
        gi = metric_inv(ctx)
        w = J.jc("AB,B->A", amat, phi)
        down = J.jj("kA,A->k", p, w)
        return J.jj("ik,k->i", gi, down)

    return ev


def so7_generator(i: int, j: int) -> np.ndarray:
    a = np.zeros((7, 7))
    a[i, j] = 1.0
    a[j, i] = -1.0
    return a


def build_s6() -> ModelBundle:
    """Round unit 6-sphere with the octonion cross-product structure."""
    box = [(-0.7, 0.7)] * 6
    charts = []
    for key, pole in (("north", 1.0), ("south", -1.0)):
        ev = {"metric": _s6_metric_evaluator(pole), "J": _s6_J_evaluator(pole),
              "xi": _s6_rotation_evaluator(pole, so7_generator(0, 1))}
        ch = ChartMap(f"s6:{key}", box, ev)
        _fix_orientation_nk6(ch)
        charts.append(ch)
    return ModelBundle(name="s6", charts=charts)


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
    return ModelBundle(name="s2s2", charts=[ch])


MODEL_BUILDERS = {
    "s3s3": build_s3s3,
    "s6": build_s6,
    "s2s2": build_s2s2,
    "s3s3-product": build_s3s3_product,
}


def build_model(name: str) -> ModelBundle:
    if name == "ansatz":
        from .ansatz import assemble

        return assemble()
    if name not in MODEL_BUILDERS:
        raise ConfigError(f"unknown model '{name}' (known: {sorted(MODEL_BUILDERS) + ['ansatz']})")
    return MODEL_BUILDERS[name]()
