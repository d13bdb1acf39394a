"""Charts, evaluation contexts, sampling helpers and value-level contraction.

A :class:`ChartMap` is a named open coordinate box together with a set of
field evaluators.  Evaluators are written once, against jets: each takes
an :class:`EvalContext` and returns a :class:`~nklab.jets.Jet`.  Because a
context seeded at order ``k`` carries full Taylor data, every derived
quantity (curvature, Laplacians, Lie derivatives) is obtained by exact
coefficient manipulation -- no re-evaluation, no step size.
"""

from __future__ import annotations

from functools import lru_cache, update_wrapper

import numpy as np

from . import jets as J

__all__ = [
    "NKLabError",
    "OutOfDomainError",
    "DegenerateMetricError",
    "DegenerateFrameError",
    "DegeneratePairError",
    "NonEinsteinBaseError",
    "InvariantViolation",
    "ConfigError",
    "ChartMap",
    "EvalContext",
    "memoized",
    "sample_points",
    "unit_tangent_vectors",
    "gram_schmidt",
    "contract",
    "maxabs",
]


class NKLabError(Exception):
    """Base class for all structured errors raised by this package."""


class OutOfDomainError(NKLabError):
    pass


class DegenerateMetricError(NKLabError):
    pass


class DegenerateFrameError(NKLabError):
    pass


class DegeneratePairError(NKLabError):
    """Raised when a sampled vector pair spans a J-invariant plane."""


class NonEinsteinBaseError(NKLabError):
    pass


class InvariantViolation(NKLabError):
    """A structural invariant failed during construction (names the identity)."""

    def __init__(self, identity: str, residual: float):
        self.identity = identity
        self.residual = residual
        super().__init__(f"invariant '{identity}' violated (residual {residual:.3e})")


class ConfigError(NKLabError):
    pass


class ChartMap:
    """Coordinate box plus jet evaluators for the fields living on it.

    Parameters
    ----------
    name : str
        Identifier used in reports and error messages.
    box : sequence of (lo, hi)
        Open coordinate ranges; evaluation outside raises OutOfDomainError.
    evaluators : dict
        name -> callable(ctx) -> Jet.  'metric' is mandatory.  The metric
        is validated to be symmetric positive definite on construction.
    orientation : +1 or -1, optional
        Sign of the preferred volume form against the coordinate one.
    """

    def __init__(self, name, box, evaluators, orientation=1.0):
        self.name = name
        self.box = [(float(a), float(b)) for a, b in box]
        self.dim = len(self.box)
        if "metric" not in evaluators:
            raise ConfigError(f"chart '{name}' has no metric evaluator")
        self.evaluators = dict(evaluators)
        self.orientation = float(orientation)
        self._validate_metric()

    def _validate_metric(self):
        pts = sample_points(self, 8, np.random.default_rng(0))
        ctx = EvalContext(self, pts, order=0)
        g = ctx.root("metric").val
        try:
            np.linalg.cholesky(g)
        except np.linalg.LinAlgError as e:
            raise DegenerateMetricError(f"metric on chart '{self.name}' is not positive definite") from e
        # cholesky does not raise on NaN; the symmetry test fails on it
        if not np.max(np.abs(g - np.swapaxes(g, -1, -2))) <= 1e-12:
            raise DegenerateMetricError(f"metric on chart '{self.name}' is not symmetric")

    def contains(self, points: np.ndarray) -> np.ndarray:
        lo = np.array([b[0] for b in self.box])
        hi = np.array([b[1] for b in self.box])
        return np.all((points > lo) & (points < hi), axis=-1)

    def center(self) -> np.ndarray:
        return np.array([(a + b) / 2.0 for a, b in self.box])


class EvalContext:
    """Jets of every requested field at a fixed batch of chart points.

    ``order`` is the derivative budget: root jets live in
    ``jetspace(dim, order)``, every derivative taken lands one order lower,
    and reading the value of a jet differentiated more than ``order`` times
    raises instead of returning garbage.  It runs from 0.  Each root jet is
    evaluated on its first read and memoized with the derived jets.
    """

    def __init__(self, chart: ChartMap, points: np.ndarray, order: int):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.shape[1] != chart.dim:
            raise ConfigError("points do not match chart dimension")
        if not np.all(chart.contains(points)):
            raise OutOfDomainError(f"points outside the domain of chart '{chart.name}'")
        if order < 0:
            raise ConfigError(f"no context of order {order}: orders run from 0")
        self.chart = chart
        self.points = points
        self.order = order
        self.space = J.jetspace(chart.dim, order)
        self.coords = J.seed_coordinates(self.space, points)
        self._memo: dict = {}

    @property
    def nbatch(self) -> int:
        return self.points.shape[0]

    def coord(self, i: int) -> J.Jet:
        return self.coords[i]

    def root(self, name: str) -> J.Jet:
        """Jet of a chart evaluator (memoized)."""
        key = ("root", name)
        if key not in self._memo:
            fn = self.chart.evaluators.get(name)
            if fn is None:
                raise ConfigError(f"chart '{self.chart.name}' has no evaluator '{name}'")
            self._memo[key] = fn(self)
        return self._memo[key]

    def memo(self, key, builder):
        """``builder(self)``, built once per hashable ``key`` (:func:`memoized`)."""
        if key not in self._memo:
            self._memo[key] = builder(self)
        return self._memo[key]


def memoized(fn):
    """Memoize ``fn(ctx, *args)`` on the context under ``(fn, *args)``.

    Keyed by the function that defines it, no derived jet can read
    another's entry.  Arguments are positional and hashable: a field passed
    as one must be a stable function, as a fresh ``lambda`` never hits.
    The key holds ``fn``, not the name the wrapper is bound to, so a
    tracer that rebinds that name shares the entries."""

    def cached(ctx, *args):
        return ctx.memo((fn, *args), lambda c: fn(c, *args))

    return update_wrapper(cached, fn)


# ---------------------------------------------------------------------------
# value-level helpers


@lru_cache(maxsize=None)
def _batch_operands(spec: str) -> tuple:
    """Positions of the operands that lead with the batch letter of
    ``spec``: the output's first letter, where every operand that has it
    has it first; none otherwise."""
    lhs, out = spec.split("->")
    terms = lhs.split(",")
    if not out or any(out[0] in t[1:] for t in terms):
        return ()
    return tuple(i for i, t in enumerate(terms) if t[0] == out[0])


@lru_cache(maxsize=None)
def _contract_plan(spec: str, shapes: tuple) -> tuple:
    """Steps ``(positions, two-operand spec)`` of ``contract``, greedy order.

    ``np.einsum_path`` picks which operands to contract next.  Each step
    pops two of them (highest position first) and appends the intermediate,
    which keeps the letters that a later operand or the output still needs.
    A path step over more operands, which the path's memory limit can
    produce, is taken as a chain of pairs through its own intermediate.
    """
    lhs, out = spec.split("->")
    terms = lhs.split(",")
    path = np.einsum_path(spec, *(np.broadcast_to(0.0, s) for s in shapes),
                          optimize="greedy")[0][1:]
    steps = []
    for group in path:
        group = sorted(group, reverse=True)
        for k in range(1, len(group)):
            pos = tuple(group[:2]) if k == 1 else (len(terms) - 1, group[k])
            taken = [terms.pop(i) for i in pos]
            live = set(out).union(*terms)
            new = "".join(dict.fromkeys(ch for t in taken for ch in t if ch in live))
            new = new if terms else out
            terms.append(new)
            steps.append((pos, f"{','.join(taken)}->{new}"))
    return tuple(steps)


def contract(spec: str, *ops: np.ndarray) -> np.ndarray:
    """``np.einsum(spec, *ops)`` for two or more operands, contracted pairwise.

    Each pair is one :func:`~nklab.jets.einsum2`, the batched-matmul kernel
    of order-0 ``jj``: a two-operand spec is that kernel alone.  Without
    ``optimize``, numpy runs a multi-operand einsum as one nested loop over
    every index at once; a chain of pairs in the order
    ``np.einsum_path(optimize="greedy")`` finds costs only the sum of the
    pair sizes.  The order is planned once per spec and operand shapes, a
    batch axis (:func:`_batch_operands`) of :data:`~nklab.jets.MIN_CHUNK`
    points or more taken as that many: the greedy order of the lab's specs
    is the same at every such batch size, so chunks and stencil blocks of
    any size share one plan, and a batch smaller than that, which only a
    whole batch can be, is planned at its own size.  ``optimize=`` would
    reach the same matmul but search the path on every call: 21 us against
    8 us here for ``zab,zbc->zac`` at 64 points.  The product is returned
    as the kernel leaves it, a view that need not be C-contiguous.
    Explicit letters only (no ellipsis).
    """
    if len(ops) == 2:
        return J.einsum2(spec, *ops)
    ops = list(ops)
    shapes = [np.shape(o) for o in ops]
    for i in _batch_operands(spec):
        shapes[i] = (min(shapes[i][0], J.MIN_CHUNK), *shapes[i][1:])
    for pos, sub in _contract_plan(spec, tuple(shapes)):
        taken = [ops.pop(i) for i in pos]
        ops.append(J.einsum2(sub, *taken))
    return ops[0]


def maxabs(a) -> np.ndarray:
    """max |a| at each point: over every axis but the first (batch) one."""
    return np.abs(a).max(axis=tuple(range(1, np.ndim(a))))


# ---------------------------------------------------------------------------
# sampling helpers


def sample_points(chart: ChartMap, n: int, rng) -> np.ndarray:
    """Uniform points in the chart box, 5% of each width off the walls."""
    lo = np.array([b[0] for b in chart.box])
    hi = np.array([b[1] for b in chart.box])
    w = hi - lo
    return rng.uniform(lo + 0.05 * w, hi - 0.05 * w, size=(n, chart.dim))


def unit_tangent_vectors(g: np.ndarray, rng, n_per_point: int = 1) -> np.ndarray:
    """Random g-unit tangent vectors, shape (nbatch, n_per_point, dim)."""
    nb, d = g.shape[0], g.shape[-1]
    v = rng.standard_normal((nb, n_per_point, d))
    nrm = np.sqrt(contract("bnd,bde,bne->bn", v, g, v))
    if np.any(nrm < 1e-8):
        raise DegenerateFrameError("sampled tangent vector is degenerate")
    return v / nrm[..., None]


def gram_schmidt(vectors: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Batched g-orthonormalization of rows of ``vectors`` (nbatch, k, dim)."""
    out = np.array(vectors, dtype=float, copy=True)
    k = out.shape[1]
    for i in range(k):
        for j in range(i):
            proj = contract("bd,bde,be->b", out[:, i], g, out[:, j])
            out[:, i] -= proj[:, None] * out[:, j]
        nrm = np.sqrt(contract("bd,bde,be->b", out[:, i], g, out[:, i]))
        if np.any(nrm < 1e-10):
            raise DegenerateFrameError("Gram-Schmidt received linearly dependent seeds")
        out[:, i] /= nrm[:, None]
    return out
