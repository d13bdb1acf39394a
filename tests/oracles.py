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
  symbol, against which the packed ``exterior.hodge_packed`` is held.
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
    return ModelBundle(name="flat", charts=[ch])


def with_xi(chart: ChartMap, evaluator) -> ChartMap:
    """A copy of ``chart`` whose Killing field ``xi`` is ``evaluator``."""
    out = copy.copy(chart)
    out.evaluators = {**chart.evaluators, "xi": evaluator}
    return out


def _jqmul(a: J.Jet, b: J.Jet) -> J.Jet:
    outer = J.jj("j,k->jk", a, b)
    return J.jc("ijk,jk->i", M._QT, outer)


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


def left_translation_xi(bundle: ModelBundle):
    """Evaluator, on the first chart of an ``s3s3`` bundle, of the unit
    Killing field of left translation by the quaternion i on the first
    factor (the chart's own ``xi`` is the diagonal right translation)."""
    p0 = bundle.chart.meta["centers"][0]
    bq = np.array([0.0, 1.0, 0.0, 0.0]) / math.sqrt(bundle.meta["scale"])
    bp = M.qmul_v(M.qmul_v(M.qconj_v(p0), bq), p0)  # Ad_{p0^{-1}} b
    right_bp = np.einsum("ijk,k->ij", M._QT, bp)  # q -> q bp, as a matrix

    def ev(ctx):
        e = _qexp_jet(ctx.coords[:3])
        w = _jqmul(J.jc("ij,j->i", right_bp, _qconj_jet(e)), e)
        _, minv = M._s3s3_frames(ctx)
        v = J.jassemble((6,), [(np.s_[:3], w[1:])])
        return J.jj("AB,B->A", minv, v)

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
