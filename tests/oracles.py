"""Independent references that the tests hold the lab's checks against.

None is reached by a lab run:

* :func:`constant_type_at` is a second, single-pair route to the type
  constant that the batched ``nkcore.constant_type_samples`` computes;
* :func:`flat_kahler` is a Kahler control on which every nearly-Kahler
  residual vanishes exactly;
* :func:`left_translation_xi` and :data:`S6_ROTATIONS` are Killing fields
  besides the one each model reduces by, installed as a chart's ``xi`` by
  :func:`with_xi`;
* :func:`dense_hodge` is the Hodge star through the dense Levi-Civita
  symbol, against which the packed ``exterior.hodge_packed`` is held;
* :func:`generic_fields` builds a chart's fields the generic way the
  models' closed forms replace: the S^6 pullback P P^T and g^-1 P (Phi x
  P)^T through the embedding's differential P, and the S^3 x S^3 frames
  with T^-1 from ``jets.jmatinv``.
"""
import copy
import math
from itertools import combinations, permutations

import numpy as np

from nklab import calculus as C
from nklab import exterior as E
from nklab import jets as J
from nklab import models as M
from nklab import nkcore as NK
from nklab.chart import ChartMap, DegeneratePairError, EvalContext
from nklab.models import ModelBundle


def constant_type_at(chart: ChartMap, p, x, y) -> float:
    """Rayleigh quotient |(nabla_X J)Y|^2 / (|X|^2 |Y|^2 - g(X,Y)^2 - g(JX,Y)^2).

    Evaluated with exact jets at the single chart point ``p``.  Raises
    ``DegeneratePairError`` when Y lies in the J-invariant plane spanned by
    X and JX, where the denominator vanishes.
    """
    ctx = EvalContext(chart, p, order=1)
    g = C.metric(ctx).val[0]
    jv = NK.j_field(ctx).val[0]
    nj = NK.nabla_j(ctx).val[0]
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    nx2 = x @ g @ x
    ny2 = y @ g @ y
    den = nx2 * ny2 - (x @ g @ y) ** 2 - (np.einsum("ai,i->a", jv, x) @ g @ y) ** 2
    if den <= 1e-10 * max(nx2 * ny2, 1e-30):
        raise DegeneratePairError(
            "constant-type quotient undefined: second vector lies in the "
            "J-plane of the first")
    v = np.einsum("iaj,i,j->a", nj, x, y)
    return float((v @ g @ v) / den)


def flat_kahler() -> ModelBundle:
    """Flat C^3: constant metric and constant compatible J, so nabla J = 0
    and every nearly-Kahler residual vanishes identically."""
    jmat = np.kron(np.eye(3), np.array([[0.0, -1.0], [1.0, 0.0]]))

    def ev_g(ctx):
        return J.jconst(ctx.space, np.broadcast_to(np.eye(6), (ctx.nbatch, 6, 6)).copy())

    def ev_j(ctx):
        return J.jconst(ctx.space, np.broadcast_to(jmat, (ctx.nbatch, 6, 6)).copy())

    ch = ChartMap("flat:c3", [(-1.0, 1.0)] * 6, {"metric": ev_g, "J": ev_j}, orientation=1.0)
    return ModelBundle(name="flat", chart=ch)


def with_xi(chart: ChartMap, evaluator) -> ChartMap:
    """A copy of ``chart`` whose Killing field ``xi`` is ``evaluator``."""
    out = copy.copy(chart)
    out.evaluators = {**chart.evaluators, "xi": evaluator}
    return out


#: (4, 4, 4) quaternion product table: (a b)_i = _QT[i, j, k] a_j b_k.
_QT = np.zeros((4, 4, 4))
_QT[0, 0, 0] = 1
for _i in range(1, 4):
    _QT[0, _i, _i] = -1
    _QT[_i, 0, _i] = 1
    _QT[_i, _i, 0] = 1
for _i, _j, _k in [(1, 2, 3), (2, 3, 1), (3, 1, 2)]:
    _QT[_k, _i, _j] = 1
    _QT[_k, _j, _i] = -1


def _jqmul(a: J.Jet, b: J.Jet) -> J.Jet:
    outer = J.jj("j,k->jk", a, b)
    return J.jc("ijk,jk->i", _QT, outer)


#: Maclaurin coefficients of cos(sqrt(s)), for ``jets.jentire``.
COS_SQRT = np.array([(-1.0) ** m / math.factorial(2 * m) for m in range(40)])


def _qexp_jet(x: J.Jet) -> J.Jet:
    """exp of a pure-imaginary (3,)-jet -> (4,)-jet, entire in |x|^2."""
    s = J.jj("a,a->", x, x)
    c = J.jentire(s, COS_SQRT)
    sc = J.jentire(s, J.SINC_SQRT)
    vec = J.jj(",a->a", sc, x)
    return J.jassemble((4,), [(0, c), (np.s_[1:], vec)])


def _qconj_jet(q: J.Jet) -> J.Jet:
    c = q.c.copy()
    c[1:] *= -1
    return J.Jet(q.space, c)


def _transport_jet(x: J.Jet) -> J.Jet:
    """T(x) = A I - V (x cross .) + U x x^T, the S^3 left-trivialization."""
    s = J.jj("a,a->", x, x)
    a = J.jentire(4.0 * s, J.SINC_SQRT)
    v = J.jentire(s, J.VERSINE_RATIO)
    u = J.jentire(s, J.SINC_DEFECT)
    cross = J.jc("abc,b->ac", M._EPS3, x)
    outer = J.jj("a,d->ad", x, x)
    return J.jc("ad,->ad", np.eye(3), a) - J.jj(",ad->ad", v, cross) + J.jj(",ad->ad", u, outer)


def generic_s3s3_frames(ctx):
    """(T, T^-1, T^T T) per factor: T^-1 by ``jmatinv``, T^T T by ``jj``."""
    out = []
    for x in (ctx.coords[:3], ctx.coords[3:]):
        t = _transport_jet(x)
        out.append((t, J.jmatinv(t), J.jj("ai,aj->ij", t, t)))
    return tuple(out)


def _s6_embed(ctx):
    """Stereographic embedding Phi and its differential P."""
    u = ctx.coords
    s = J.jj("a,a->", u, u)
    w = J.jrecip(1.0 + s)
    phi = J.jassemble((7,), [(np.s_[:6], J.jj(",a->a", 2.0 * w, u)),
                             (6, (s - 1.0) * w)])
    w2 = J.jj(",->", w, w)
    outer = J.jj("a,i->ai", u, u)
    # d_i Phi_a = 2 w delta_ai - 4 w^2 u_a u_i ; d_i Phi_7 = 4 w^2 u_i
    pa = J.jc("ia,->ia", np.eye(6), 2.0 * w) - J.jj(",ai->ia", 4.0 * w2, outer)
    p = J.jassemble((6, 7), [(np.s_[:, :6], pa),
                             (np.s_[:, 6], J.jj(",i->i", 4.0 * w2, u))])
    return phi, p


def generic_fields(chart: ChartMap, ctx, amat=None) -> dict:
    """``metric``, ``J`` and, where the chart has one, ``xi`` of an ``s6``,
    ``s3s3`` or ``s3s3-product`` chart, built the generic way; ``amat``
    is the so(7) generator of the ``s6`` rotation field."""
    model = chart.name.split(":")[0]
    if model == "s6":
        phi, p = _s6_embed(ctx)
        g = J.jj("iA,jA->ij", p, p)
        gi = J.jmatinv(g)
        cross = J.jj("AC,jC->Aj", J.jc("ABC,B->AC", M._OCT, phi), p)   # (Phi x P_j)_A
        jm = J.jj("ik,kj->ij", gi, J.jj("kA,Aj->kj", p, cross))
        amat = M.so7_generator(0, 1) if amat is None else amat
        down = J.jj("kA,A->k", p, J.jc("AB,B->A", amat, phi))
        return {"metric": g, "J": jm, "xi": J.jj("ik,k->i", gi, down)}
    (tx, txinv, _), (ty, tyinv, _) = generic_s3s3_frames(ctx)
    m = J.jassemble((6, 6), [(M._XX, tx), (M._YY, ty)])
    minv = J.jassemble((6, 6), [(M._XX, txinv), (M._YY, tyinv)])
    g = J.jj("ai,aj->ij", m, m)
    if model == "s3s3-product":
        return {"metric": g, "J": J.jj("AB,Bj->Aj", minv, J.jc("AB,Bj->Aj", M._J_SWAP, m))}
    cross = J.jassemble((6, 6), [(M._XY, J.jj("ai,aj->ij", tx, ty)),
                                 (M._YX, J.jj("ai,aj->ij", ty, tx))])
    v6 = np.array([0.0, 0.0, 1.0, 0.0, 0.0, 1.0]) / math.sqrt(M.S3S3_SCALE)
    return {"metric": M.S3S3_SCALE * (g - 0.5 * cross),
            "J": J.jj("AB,Bj->Aj", minv, J.jc("AB,Bj->Aj", M._J_ALG, m)),
            "xi": J.jc("B,AB->A", v6, minv)}


def left_translation_xi(bundle: ModelBundle):
    """Evaluator, on the chart of an ``s3s3`` bundle, of the unit Killing
    field of left translation by the quaternion i on the first factor (the
    chart's own ``xi`` is the diagonal right translation)."""
    b = np.array([0.0, 1.0, 0.0, 0.0]) / math.sqrt(bundle.meta["scale"])
    right_b = np.einsum("ijk,k->ij", _QT, b)  # q -> q b, as a matrix

    def ev(ctx):
        e = _qexp_jet(ctx.coords[:3])
        w = _jqmul(J.jc("ij,j->i", right_b, _qconj_jet(e)), e)
        (_, txinv, _), _ = M._s3s3_frames(ctx)
        return J.jassemble((6,), [(np.s_[:3], J.jj("ab,b->a", txinv, w[1:]))])

    return ev


#: Rotations of the round ``S^6`` besides the chart's ``xi``, generated by
#: ``so7_generator(0, 1)``, as so(7) matrices.
S6_ROTATIONS = {
    "rot23": M.so7_generator(2, 3),
    "rot-mixed": M.so7_generator(0, 4) + 0.5 * M.so7_generator(1, 6),
}


def dense_hodge(a: np.ndarray, p: int, g: np.ndarray, ginv: np.ndarray,
                orientation: float = 1.0) -> np.ndarray:
    """(star a)_J = or/p! sqrt(det g) a^I eps_{I J}, summed over every I."""
    d = g.shape[-1]
    eps = np.zeros((d,) * d)
    for perm in permutations(range(d)):
        eps[perm] = (-1) ** sum(perm[i] > perm[j] for i, j in combinations(range(d), 2))
    sqg = np.sqrt(np.linalg.det(g))
    if p == 0:
        return orientation * np.einsum("b,...->b...", a * sqg, eps)
    letters = "cdefghijklmn"
    li, lj = letters[:p], letters[p:d]
    au = E._raise_all(a, p, ginv)
    out = np.einsum(f"b{li},{li}{lj}->b{lj}", au, eps) / math.factorial(p)
    return orientation * out * sqg[(...,) + (None,) * (d - p)]
