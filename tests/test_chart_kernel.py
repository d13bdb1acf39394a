"""Chart plumbing and the covariant-derivative kernel.

The flat torus and a synthetic conformally flat metric give closed-form
Christoffel symbols and curvature, so the kernel is checked against
hand-derived values rather than against itself.
"""
import math

import numpy as np
import pytest

from nklab import calculus as C
from nklab import findiff as F
from nklab import jets as J
from nklab import nkcore as NK
from nklab import reduction as R
from nklab.chart import (
    ChartMap,
    ConfigError,
    DegenerateMetricError,
    EvalContext,
    OutOfDomainError,
    maxabs,
    memoized,
    sample_points,
    unit_tangent_vectors,
)


def _flat_chart(dim=3):
    def metric(ctx):
        return J.jconst(ctx.space, np.broadcast_to(np.eye(dim), (ctx.nbatch, dim, dim)).copy())

    return ChartMap("flat", [(-1.0, 1.0)] * dim, {"metric": metric})


def _conformal_chart():
    """g = e^{2x} delta on R^2: Gamma^0_00 = 1, Gamma^0_11 = -1, Gamma^1_01 = 1."""

    def metric(ctx):
        u = 2.0 * ctx.coord(0)
        e = np.exp(u.value_row)
        f = J.jcompose(u, [e / math.factorial(k) for k in range(u.space.order + 1)])
        return J.jassemble((2, 2), [((0, 0), f), ((1, 1), f)])

    return ChartMap("conf", [(-1.0, 1.0)] * 2, {"metric": metric})


class TestChartValidation:
    def test_missing_metric_rejected(self):
        with pytest.raises(ConfigError):
            ChartMap("bad", [(-1, 1)], {})

    def test_degenerate_metric_rejected(self):
        def metric(ctx):
            return J.jconst(ctx.space, np.zeros((ctx.nbatch, 2, 2)))

        with pytest.raises(DegenerateMetricError):
            ChartMap("bad", [(-1, 1)] * 2, {"metric": metric})

    def test_asymmetric_metric_rejected(self):
        def metric(ctx):
            m = np.broadcast_to(np.array([[1.0, 0.3], [0.2, 1.0]]), (ctx.nbatch, 2, 2)).copy()
            return J.jconst(ctx.space, m)

        with pytest.raises(DegenerateMetricError):
            ChartMap("bad", [(-1, 1)] * 2, {"metric": metric})

    def test_metric_nan_at_some_points_rejected(self):
        def metric(ctx):
            m = np.broadcast_to(np.eye(2), (ctx.nbatch, 2, 2)).copy()
            m[ctx.points[:, 0] > 0.0] = np.nan
            return J.jconst(ctx.space, m)

        with pytest.raises(DegenerateMetricError):
            ChartMap("bad", [(-1, 1)] * 2, {"metric": metric})

    def test_out_of_domain(self):
        ch = _flat_chart()
        with pytest.raises(OutOfDomainError):
            EvalContext(ch, np.array([[0.0, 0.0, 2.0]]), order=0)

    def test_unknown_evaluator(self):
        ch = _flat_chart()
        ctx = EvalContext(ch, np.zeros((1, 3)), order=0)
        with pytest.raises(ConfigError):
            ctx.root("nope")

    def test_sample_points_respect_box(self):
        ch = _flat_chart()
        pts = sample_points(ch, 64, np.random.default_rng(0))
        assert np.all(ch.contains(pts))

    def test_unit_tangent_vectors(self, rng):
        g = np.broadcast_to(np.diag([1.0, 4.0, 9.0]), (5, 3, 3)).copy()
        v = unit_tangent_vectors(g, rng, n_per_point=2)
        norms = np.einsum("zni,zij,znj->zn", v, g, v)
        assert np.allclose(norms, 1.0, atol=1e-12)


class TestKernel:
    def test_flat_christoffel_vanishes(self):
        ch = _flat_chart()
        ctx = EvalContext(ch, np.array([[0.1, -0.2, 0.5]]), order=2)
        assert np.max(np.abs(C.christoffel(ctx).val)) == 0.0
        assert np.max(np.abs(C.riemann(ctx).val)) == 0.0

    def test_conformal_christoffel_closed_form(self):
        ch = _conformal_chart()
        ctx = EvalContext(ch, np.array([[0.3, 0.1], [-0.5, 0.7]]), order=2)
        gam = C.christoffel(ctx).val
        want = np.zeros_like(gam)
        want[:, 0, 0, 0] = 1.0
        want[:, 0, 1, 1] = -1.0
        want[:, 1, 0, 1] = want[:, 1, 1, 0] = 1.0
        assert np.allclose(gam, want, atol=1e-12)

    def test_conformal_scalar_curvature(self):
        # R = -2 e^{-2f} Lap f for g = e^{2f} delta in two dimensions.
        # f = x is harmonic, so this metric is secretly flat (u = e^x
        # turns it into polar coordinates du^2 + u^2 dy^2).
        ch = _conformal_chart()
        pts = np.array([[0.25, -0.4]])
        ctx = EvalContext(ch, pts, order=3)
        assert np.allclose(C.scalar_curvature(ctx).val, 0.0, atol=1e-11)

    def test_sphere_scalar_curvature(self):
        # round 2-sphere of radius r: R = 2 / r^2
        r = 0.7

        def metric(ctx):
            s = J.jsin(ctx.coord(0))
            return J.jassemble((2, 2), [((0, 0), J.jconst(ctx.space, np.full(ctx.nbatch, r * r))),
                                        ((1, 1), r * r * s * s)])

        ch = ChartMap("sphere", [(0.4, math.pi - 0.4), (-2.0, 2.0)], {"metric": metric})
        ctx = EvalContext(ch, np.array([[1.1, 0.3], [0.8, -1.0]]), order=3)
        assert np.allclose(C.scalar_curvature(ctx).val, 2.0 / r**2, atol=1e-11)

    def test_covd_metric_vanishes(self):
        ch = _conformal_chart()
        ctx = EvalContext(ch, np.array([[0.2, 0.6]]), order=2)
        nab = C.covd(ctx, C.metric(ctx), "ll")
        assert np.max(np.abs(nab.val)) < 1e-13

    def test_fd_mode_matches_exact(self):
        ch = _conformal_chart()
        pts = np.array([[0.15, -0.3]])
        exact = C.christoffel(EvalContext(ch, pts, 2)).val
        approx = C.christoffel(EvalContext(F.fd_chart(ch), pts, 2)).val
        assert np.allclose(exact, approx, atol=1e-8)

    def test_memo_caches(self):
        ch = _flat_chart()
        ctx = EvalContext(ch, np.zeros((1, 3)), order=1)
        calls = []

        def build(c):
            calls.append(1)
            return 42

        assert ctx.memo("k", build) == 42
        assert ctx.memo("k", build) == 42
        assert len(calls) == 1


class TestMemoized:
    def test_keyed_by_function_and_arguments(self):
        ctx = EvalContext(_flat_chart(), np.zeros((1, 3)), order=1)
        calls = []

        @memoized
        def f(c, n):
            calls.append(n)
            return [n]

        @memoized
        def g(c, n):
            return [n]

        assert f(ctx, 1) is f(ctx, 1) and f(ctx, 2) == [2]
        assert g(ctx, 1) is not f(ctx, 1)
        assert calls == [1, 2]
        assert f.__name__ == "f" and f.__wrapped__(ctx, 3) == [3]

    def test_a_rebound_wrapper_shares_the_entries(self, monkeypatch):
        # a tracer rebinds module attributes; the key is the function the
        # decorator closed over, so what ricci built through the rebound
        # name is what the original name reads
        ctx = EvalContext(_conformal_chart(), np.array([[0.15, -0.3]]), order=2)
        orig, seen = C.riemann, []
        monkeypatch.setattr(C, "riemann", lambda c: seen.append(orig(c)) or seen[-1])
        C.ricci(ctx)
        monkeypatch.undo()
        assert len(seen) == 1 and C.riemann(ctx) is seen[0]

    def test_kinds_and_fields_are_separate_entries(self, s3s3):
        # a key written by hand once let a field or kinds read another's jet
        pts = sample_points(s3s3.chart, 4, np.random.default_rng(0))
        ctx = EvalContext(s3s3.chart, pts, order=2)
        C.covd_field(ctx, NK.omega_field, "ll")
        assert np.array_equal(NK.nabla_j(ctx).c, C.covd(ctx, NK.j_field(ctx), "ul").c)
        ul = C.covd_field(ctx, R.sigma_endo, "ul")
        ll = C.covd_field(ctx, R.sigma_endo, "ll")
        assert ul is not ll and ul is C.covd_field(ctx, R.sigma_endo, "ul")
        assert np.array_equal(ul.c, C.covd(ctx, R.sigma_endo(ctx), "ul").c)
        assert np.array_equal(ll.c, C.covd(ctx, R.sigma_endo(ctx), "ll").c)
        assert np.max(np.abs(ul.val - ll.val)) > 0.1


@pytest.mark.parametrize("batch_last", [True, False])
def test_maxabs_is_the_max_per_point_and_fails_nan(batch_last):
    """``maxabs`` reads a ``Jet.val`` view (batch axis last in memory) and a
    batch-first array alike, and a NaN anywhere in a point makes its max NaN."""
    c = np.random.default_rng(0).uniform(-1.0, 1.0, size=(4, 5, 3, 2, 6))
    a = np.moveaxis(c[..., 0, :], -1, 0)  # (6, 4, 5, 3), strided like Jet.val
    a = a if batch_last else np.ascontiguousarray(a)
    a[2, 3, 4, 1] = np.nan
    got = maxabs(a)
    want = np.array([np.max(np.abs(a[z])) for z in range(6)])
    assert got.shape == (6,)
    assert np.array_equal(np.isnan(got), np.arange(6) == 2)
    assert np.array_equal(got, want, equal_nan=True)
