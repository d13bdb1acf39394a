"""Explicit six-dimensional model: a two-torus bundle over S2 x S2.

The chart coordinates are (phi1, psi1, phi2, psi2, t1, t2): spherical
angles on the two base factors followed by the two fiber angles.  Over
the product of two round 2-spheres of radius 1/(2 sqrt 3) we pick

* a connection form ``theta = dt1 + A`` whose curvature is -12 times
  the Kahler form of the base complex structure,
* a connection form ``mu = dt2 + B`` whose curvature is twice the
  fundamental form of the commuting anti-selfdual rotation, and
* a complex 2-form ``Phi`` of type (0,2) with a fiber phase, normalised
  so the reconstructed structure matches the homogeneous S3 x S3 one.

The metric and 2-form assembled from these data,

    g     = mu (x) mu + (1/12) theta (x) theta + (4/3) g_base
            - 1/(2 sqrt 3) (Re Phi)(Jhat . , .)
    omega = 1/(2 sqrt 3) mu ^ theta + 1/2 Im Phi,

define an almost Hermitian structure whose integrability residuals are
certified numerically at assembly time.  The ``printed_coefficients``
flag swaps in the uncorrected vertical/horizontal weights
(theta (x) theta and (2/3) g_base); those make the symmetric tensor
degenerate, which the chart constructor rejects -- the flag exists so
tests can demonstrate the failure.

The phase of ``Phi`` carries an integer gauge (n1, n2).  The correct
gauge is the one making ``d Phi - i theta ^ Phi`` vanish; see
``gauge_search``, which recovers (-1, -1) by scanning a window of
candidates.  Shifting the gauge while adding the compensating exact
form to ``theta`` is a pure coordinate change in t1, checked by
``gauge_equivalence_residual``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import jets as J
from . import nkcore as NK
from .calculus import metric
from .chart import (
    ChartMap,
    EvalContext,
    ConfigError,
    InvariantViolation,
    contract,
    memoized,
    sample_points,
)
from .exterior import d_form, wedge_jet
from .models import S2S2_RADIUS, ModelBundle, _fix_orientation_nk6, sphere_rotation

__all__ = [
    "TAUT_NORMALIZATION",
    "DEFAULT_GAUGE",
    "base_coframe",
    "base_metric_jet",
    "base_rotations",
    "connection_forms",
    "connection_residuals",
    "tautological_pair",
    "twisted_parallel_residual",
    "GaugeSearchResult",
    "gauge_search",
    "assemble",
    "gauge_equivalence_residual",
]

#: Scale of the tautological 2-form.  Pinned by matching the transversal
#: complex volume form of the reduced homogeneous model, whose squared
#: form norm is 64/3 = 2 * TAUT_NORMALIZATION**2.
TAUT_NORMALIZATION = 4.0 / math.sqrt(3.0)

#: Fiber-phase gauge for which the twisted parallel equation holds.
DEFAULT_GAUGE = (-1, -1)

_DIM = 6
_VERT_WEIGHT = 1.0 / 12.0       # theta (x) theta coefficient
_BASE_WEIGHT = 4.0 / 3.0        # pulled-back base metric coefficient
_CROSS_WEIGHT = 1.0 / (2.0 * math.sqrt(3.0))
_CERTIFY_TOL = 1e-6             # pointwise algebra residual at assembly
# points per batch of the gauge scan: the 50 candidates tiled over the
# lab's 6 points in one 300-point batch set the ansatz suite's memory peak
_SCAN_POINTS = 64


def _scalar_const(ctx: EvalContext, value: float) -> J.Jet:
    return J.jconst(ctx.space, np.full(ctx.nbatch, float(value)))


def _one_form(comps: dict) -> J.Jet:
    """Covector jet with the given scalar-jet components (others zero)."""
    return J.jassemble((_DIM,), comps.items())


# ---------------------------------------------------------------------------
# base geometry, pulled back to the 6-dimensional chart


@memoized
def base_coframe(ctx: EvalContext):
    """Orthonormal coframe (a1, a2, b1, b2) of the two sphere factors, each
    of radius ``models.S2S2_RADIUS``."""
    r = S2S2_RADIUS
    s1 = J.jsin(ctx.coord(0))
    s2 = J.jsin(ctx.coord(2))
    a1 = _one_form({0: _scalar_const(ctx, r)})
    a2 = _one_form({1: r * s1})
    b1 = _one_form({2: _scalar_const(ctx, r)})
    b2 = _one_form({3: r * s2})
    return a1, a2, b1, b2


@memoized
def base_metric_jet(ctx: EvalContext) -> J.Jet:
    """Pullback of the base metric: a 6 x 6 jet supported on axes 0-3."""
    frame = base_coframe(ctx)
    out = J.jj("i,j->ij", frame[0], frame[0])
    for e in frame[1:]:
        out = out + J.jj("i,j->ij", e, e)
    return out


@memoized
def base_rotations(ctx: EvalContext):
    """Endomorphism jets (I0, Jhat): both rotate each factor by 90 degrees,
    with equal orientations for I0 and opposite ones for Jhat."""
    return tuple(sphere_rotation(ctx, _DIM, (1.0, s2_sign)) for s2_sign in (1.0, -1.0))


@memoized
def _area_forms(ctx: EvalContext):
    """(omega_1, omega_2): the area forms of the two factors."""
    a1, a2, b1, b2 = base_coframe(ctx)
    return wedge_jet(a1, 1, a2, 1), wedge_jet(b1, 1, b2, 1)


# ---------------------------------------------------------------------------
# connection forms on the torus fibers


def connection_forms(ctx: EvalContext, shift=(0, 0)):
    """(theta, mu): the two fiber connection forms.

    ``shift = (p1, p2)`` adds the exact form p1 dpsi1 + p2 dpsi2 to the
    first connection; gauge-equivalent models compensate it in the phase
    of the tautological form.
    """
    return _connection_forms(ctx, float(shift[0]), float(shift[1]))


@memoized
def _connection_forms(ctx: EvalContext, p1: float, p2: float):
    one = _scalar_const(ctx, 1.0)
    c1 = J.jcos(ctx.coord(0))
    c2 = J.jcos(ctx.coord(2))
    theta = _one_form({
        1: (c1 - one) + _scalar_const(ctx, p1),
        3: (c2 - one) + _scalar_const(ctx, p2),
        4: one,
    })
    mu = _one_form({
        1: (one - c1) * (1.0 / 6.0),
        3: (c2 - one) * (1.0 / 6.0),
        5: one,
    })
    return theta, mu


def connection_residuals(ctx: EvalContext) -> dict:
    """Curvature anchors d theta = -12 omega_I0 and d mu = 2 omega_Jhat, and
    the twisted parallelism of Phi at :data:`DEFAULT_GAUGE`, per point."""
    theta, mu = connection_forms(ctx)
    w1, w2 = _area_forms(ctx)
    r1 = d_form(theta, 1) + 12.0 * (w1 + w2)
    r2 = d_form(mu, 1) - 2.0 * (w1 - w2)
    return {"dtheta_plus_12_omega_i0": NK._maxabs(r1.val),
            "dmu_minus_2_omega_jhat": NK._maxabs(r2.val),
            "twisted_parallel": twisted_parallel_residual(ctx, DEFAULT_GAUGE)}


# ---------------------------------------------------------------------------
# the tautological (0,2)-form


def _phi(ctx: EvalContext, n1, n2, s):
    """(Re Phi, Im Phi) for gauge (n1, n2) and conjugation sign s, each may be per-batch."""
    a1, a2, b1, b2 = base_coframe(ctx)
    p_re = wedge_jet(a1, 1, b1, 1) - wedge_jet(a2, 1, b2, 1)
    # jet first: an array on the left would treat the jet as an array element
    p_im = (wedge_jet(a1, 1, b2, 1) + wedge_jet(a2, 1, b1, 1)) * -s
    gamma = ctx.coord(4) + ctx.coord(1) * n1 + ctx.coord(3) * n2
    cg = J.jcos(gamma)
    sg = J.jsin(gamma)
    re = TAUT_NORMALIZATION * (J.jj(",ij->ij", cg, p_re) - J.jj(",ij->ij", sg, p_im))
    im = TAUT_NORMALIZATION * (J.jj(",ij->ij", sg, p_re) + J.jj(",ij->ij", cg, p_im))
    return re, im


#: ``_phi`` on a scalar gauge and sign; ``gauge_search`` passes it arrays.
_phi_memoized = memoized(_phi)


def tautological_pair(ctx: EvalContext, gauge, conjugate: bool = False, shift=(0, 0)):
    """(Re Phi, Im Phi) for Phi = TAUT_NORMALIZATION e^{i gamma} (a1 - i a2)^(b1 - i b2).

    ``gamma = t1 + n1 psi1 + n2 psi2`` with (n1, n2) = gauge + shift.
    ``conjugate`` replaces the factor 1-forms by their complex conjugates.
    """
    return _phi_memoized(ctx, float(gauge[0] + shift[0]), float(gauge[1] + shift[1]),
                         -1.0 if conjugate else 1.0)


def _twisted_parallel(ctx: EvalContext, re: J.Jet, im: J.Jet, shift=(0, 0)) -> np.ndarray:
    """Max component of d Phi - i theta ^ Phi at each of the context's points."""
    theta, _ = connection_forms(ctx, shift)
    d_re, d_im = d_form(re, 2), d_form(im, 2)
    theta = theta.truncate(d_re.space)  # so both wedges are computed in it
    return np.maximum(NK._maxabs((d_re + wedge_jet(theta, 1, im, 2)).val),
                      NK._maxabs((d_im - wedge_jet(theta, 1, re, 2)).val))


def twisted_parallel_residual(ctx: EvalContext, gauge, conjugate: bool = False,
                              shift=(0, 0)) -> np.ndarray:
    """Max component of d Phi - i theta ^ Phi at each of the context's points."""
    return _twisted_parallel(ctx, *tautological_pair(ctx, gauge, conjugate, shift), shift)


@dataclass
class GaugeSearchResult:
    gauge: tuple
    conjugate: bool
    residual: float
    table: dict = field(repr=False)


def gauge_search(ctx: EvalContext) -> GaugeSearchResult:
    """Scan the integer gauges in [-2, 2]^2 (and the conjugate option) for
    the one that makes the twisted parallel equation hold at the context's
    points (order >= 1); smallest residual wins, with the non-conjugate
    representative preferred on ties.  The 50 candidates run in batches of
    at most ``_SCAN_POINTS`` points (and at least one candidate): the
    points tiled once per candidate, gauge and sign as arrays over them."""
    cands = [(n1, n2, conj) for n1 in range(-2, 3) for n2 in range(-2, 3)
             for conj in (False, True)]
    step = max(1, _SCAN_POINTS // ctx.nbatch)
    table = {}
    for i in range(0, len(cands), step):
        batch = cands[i:i + step]
        n1, n2, conj = (np.repeat(np.array(col, dtype=float), ctx.nbatch)
                        for col in zip(*batch))
        tiled = EvalContext(ctx.chart, np.tile(ctx.points, (len(batch), 1)), ctx.order,
                            mode=ctx.mode)
        worst = _twisted_parallel(tiled, *_phi(tiled, n1, n2, 1.0 - 2.0 * conj))
        table.update(zip(batch, map(float, worst.reshape(len(batch), -1).max(axis=1))))
    best = min(table, key=lambda k: (table[k], k[2]))  # the first of equal keys
    return GaugeSearchResult(gauge=best[:2], conjugate=best[2],
                             residual=table[best], table=table)


# ---------------------------------------------------------------------------
# assembly


def _metric_evaluator(gauge, conjugate, shift, printed):
    vert = 1.0 if printed else _VERT_WEIGHT
    base = 2.0 / 3.0 if printed else _BASE_WEIGHT

    def ev(ctx):
        theta, mu = connection_forms(ctx, shift)
        re, _ = tautological_pair(ctx, gauge, conjugate, shift)
        _, jhat = base_rotations(ctx)
        g0 = base_metric_jet(ctx)
        cross = J.jj("ai,ab->ib", jhat, re)
        g = (J.jj("i,j->ij", mu, mu) + vert * J.jj("i,j->ij", theta, theta)
             + base * g0 - _CROSS_WEIGHT * cross)
        return 0.5 * (g + g.transpose(1, 0))

    return ev


def _j_evaluator(gauge, conjugate, shift):
    def ev(ctx):
        theta, mu = connection_forms(ctx, shift)
        _, im = tautological_pair(ctx, gauge, conjugate, shift)
        om = _CROSS_WEIGHT * wedge_jet(mu, 1, theta, 1) + 0.5 * im
        gi = J.jmatinv(metric(ctx))  # a root field: every order
        return J.jj("aj,jm->ma", om, gi)

    return ev


def _fiber_evaluator():
    def ev(ctx):
        return J.jassemble((_DIM,), [(5, _scalar_const(ctx, 1.0))])

    return ev


def _build_chart(gauge, conjugate, shift, printed) -> ChartMap:
    box = [(0.5, math.pi - 0.5), (-2.5, 2.5)] * 2 + [(-3.0, 3.0)] * 2
    ev = {
        "metric": _metric_evaluator(gauge, conjugate, shift, printed),
        "J": _j_evaluator(gauge, conjugate, shift),
        "xi": _fiber_evaluator(),
    }
    return ChartMap("ansatz:main", box, ev, orientation=1.0)


def _certify_chart(chart: ChartMap) -> None:
    """Raise unless J is a g-compatible almost complex structure and the
    fiber field has unit length, to ``_CERTIFY_TOL`` at 12 chart points."""
    pts = sample_points(chart, 12, np.random.default_rng(0))
    ctx = EvalContext(chart, pts, order=0)
    g = ctx.root("metric").val
    jm = ctx.root("J").val
    xi = ctx.root("xi").val
    for identity, r in (
            ("acs_square", contract("zab,zbc->zac", jm, jm) + np.eye(_DIM)),
            ("acs_compatibility", contract("zai,zab,zbj->zij", jm, g, jm) - g),
            ("fiber_unit_length", np.sqrt(contract("zi,zij,zj->z", xi, g, xi)) - 1.0)):
        worst = float(np.max(np.abs(r)))
        if not worst <= _CERTIFY_TOL:
            raise InvariantViolation(identity, worst)


def assemble(gauge=None, conjugate: bool = False, shift=(0, 0),
             printed_coefficients: bool = False, certify: bool = True) -> ModelBundle:
    """Build the model bundle.

    With the default (corrected) weights the assembled structure passes
    the pointwise certification; ``printed_coefficients=True`` restores
    the uncorrected weights, whose symmetric tensor is degenerate and is
    rejected when the chart validates its metric.
    """
    g = tuple(DEFAULT_GAUGE if gauge is None else gauge)
    if len(g) != 2 or any(int(v) != v for v in g):
        raise ConfigError("gauge must be a pair of integers")
    ch = _build_chart(g, conjugate, tuple(shift), printed_coefficients)
    if certify:
        _certify_chart(ch)
    _fix_orientation_nk6(ch)
    return ModelBundle(name="ansatz", chart=ch,
                       meta={"gauge": g, "conjugate": conjugate, "shift": tuple(shift)})


def gauge_equivalence_residual(reference: ModelBundle, shift=(1, -1),
                               samples: int = 10, seed: int = 0) -> dict:
    """Shifting the connection gauge is a coordinate change in t1.

    ``reference`` is an assembled model.  Shifting its phase gauge by
    (p1, p2) while adding p1 dpsi1 + p2 dpsi2 to its connection gives a
    model that pulls back to it under t1 -> t1 - p1 psi1 - p2 psi2.  Only
    the shifted model is assembled here; compare metric and J at mapped
    points.
    """
    p1, p2 = shift
    meta = reference.meta
    shifted = assemble(meta["gauge"], meta["conjugate"],
                       (meta["shift"][0] + p1, meta["shift"][1] + p2), certify=False)
    rng = np.random.default_rng(seed)
    pts = sample_points(reference.chart, samples, rng)
    # restrict psi and t1 so both the point and its image stay in the box
    width = 2.4 / max(1.0, abs(p1) + abs(p2))
    pts[:, 1] = rng.uniform(-width, width, size=samples)
    pts[:, 3] = rng.uniform(-width, width, size=samples)
    pts[:, 4] = rng.uniform(-0.3, 0.3, size=samples)
    f = p1 * pts[:, 1] + p2 * pts[:, 3]
    mapped = pts.copy()
    mapped[:, 4] = pts[:, 4] - f
    # Jacobian of (.., t1, ..) -> (.., t1 - p1 psi1 - p2 psi2, ..)
    jac = np.eye(_DIM)
    jac[4, 1] = -p1
    jac[4, 3] = -p2
    jinv = np.eye(_DIM)
    jinv[4, 1] = p1
    jinv[4, 3] = p2
    ctx_a = EvalContext(reference.chart, pts, order=0)
    ctx_b = EvalContext(shifted.chart, mapped, order=0)
    g_pull = contract("ai,zab,bj->zij", jac, ctx_b.root("metric").val, jac)
    j_pull = contract("ia,zab,bj->zij", jinv, ctx_b.root("J").val, jac)
    return {
        "metric": float(np.max(np.abs(ctx_a.root("metric").val - g_pull))),
        "J": float(np.max(np.abs(ctx_a.root("J").val - j_pull))),
    }
