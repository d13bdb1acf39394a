"""Independent references that the tests hold the lab's checks against.

Neither is reached by a lab run: :func:`constant_type_at` is a second,
single-pair route to the type constant that the batched
``nkcore.constant_type_samples`` computes, and :func:`flat_kahler` is a
Kahler control on which every nearly-Kahler residual vanishes exactly.
"""
import numpy as np

from nklab import calculus as C
from nklab import jets as J
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
