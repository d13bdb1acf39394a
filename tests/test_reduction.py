"""Unit-Killing reduction battery on the homogeneous model.

Residual names follow the check functions; each block asserts the whole
dictionary at once so a regression reports every offending identity.
"""
import math

import numpy as np
import pytest

from nklab import calculus as C
from nklab import jets as J
from nklab import models as M
from nklab import reduction as R
from nklab.chart import EvalContext, NonEinsteinBaseError, sample_points
from nklab.exterior import form_ip
from oracles import left_translation_xi, with_xi


def _assert_all_below(res: dict, tol: float, skip=()):
    bad = {k: v for k, v in res.items() if k not in skip and not np.max(np.abs(v)) <= tol}
    assert not bad, f"residuals above {tol}: {bad}"


@pytest.fixture(scope="module")
def setup(s3s3):
    ch = s3s3.chart
    pts = sample_points(ch, 6, np.random.default_rng(11))
    return ch, pts


@pytest.fixture(scope="module")
def ctx2(setup):
    ch, pts = setup
    return EvalContext(ch, pts, order=2)


@pytest.fixture(scope="module")
def ctx3(setup):
    ch, pts = setup
    return EvalContext(ch, pts[:3], order=3)


class TestKillingData:
    def test_unit_killing(self, ctx2):
        _assert_all_below(R.verify_killing_unit(ctx2), 1e-12)

    def test_unit_killing_needs_order_two(self, setup):
        ch, pts = setup
        with pytest.raises(ValueError, match="derivative orders"):
            R.verify_killing_unit(EvalContext(ch, pts, order=1))

    def test_foliation(self, ctx2):
        _assert_all_below(R.foliation_checks(ctx2), 1e-12)

    def test_build_killing_data(self, ctx2):
        from nklab import calculus as C

        xi, zeta, dzeta = ctx2.root("xi").val, R.zeta_form(ctx2).val, R.dzeta_form(ctx2).val
        assert xi.shape[-1] == 6
        g = C.metric(ctx2).val
        assert np.max(np.abs(zeta - np.einsum("zij,zj->zi", g, xi))) < 1e-14
        assert np.max(np.abs(dzeta + np.swapaxes(dzeta, 1, 2))) < 1e-14

    def test_scaled_field_fails_unit_check(self, s3s3):
        # |2 xi|^2 - 1 = 3: the advertised failure of the doubled field
        orig = s3s3.chart.evaluators["xi"]
        ch = with_xi(s3s3.chart, lambda ctx: 2.0 * orig(ctx))
        ctx = EvalContext(ch, sample_points(ch, 4, np.random.default_rng(0)), 1)
        from nklab import calculus as C

        xi = ctx.root("xi")
        n2 = np.einsum("zi,zij,zj->z", xi.val, C.metric(ctx).val, xi.val)
        dev = np.max(np.abs(n2 - 1.0))
        assert abs(dev - 3.0) < 1e-10


class TestTransversalStructures:
    def test_acs_algebra(self, ctx2):
        _assert_all_below(R.acs_check(ctx2), 1e-12)

    def test_parallel_along_xi(self, ctx2):
        _assert_all_below(R.transversal_parallel_check(ctx2), 1e-12)

    def test_build_transversals(self, ctx2):
        h = R.pi_h(ctx2).val
        assert np.max(np.abs(np.einsum("zab,zbc->zac", h, h) - h)) < 1e-12
        assert np.max(np.abs(np.trace(R.sigma_endo(ctx2).val, axis1=1, axis2=2))) < 1e-12

    def test_norms_and_laplacians(self, ctx3):
        res = R.norms_and_laplacian_checks(ctx3)
        assert abs(np.mean(res["norm_dzeta11"]) - 8.0) < 1e-12
        assert abs(np.mean(res["norm_dzeta20"]) - 2.0) < 1e-12
        assert abs(np.mean(res["norm_jhat"]) - 4.0) < 1e-12
        assert abs(np.mean(res["norm_djzeta"]) - 36.0) < 1e-12
        _assert_all_below(res, 1e-11, skip=("norm_dzeta11", "norm_dzeta20",
                                            "norm_jhat", "norm_djzeta"))

    def test_djxi(self, ctx2):
        _assert_all_below(R.djxi_check(ctx2), 1e-12)


class TestLieDerivatives:
    def test_full_suite(self, ctx2):
        res = R.lie_derivative_suite(ctx2)
        assert len(res) >= 19
        _assert_all_below(res, 1e-12)

    def test_each_lie_derivative_along_jxi_is_taken_once(self, setup, monkeypatch):
        # the transport checks reread the Lie derivatives of g and of the
        # endomorphisms and forms that earlier keys took; none is recomputed
        ctx = EvalContext(*setup, order=2)
        jxi, seen = R.jxi_field(ctx), []
        lie = C.lie_derivative
        monkeypatch.setattr(C, "lie_derivative", lambda c, x, t, k: (
            seen.append(id(t)) if x is jxi else None) or lie(c, x, t, k))
        R.lie_derivative_suite(ctx)
        assert len(seen) == len(set(seen)) == 13

    def test_left_family_agrees(self, s3s3):
        ch = with_xi(s3s3.chart, left_translation_xi(s3s3))
        ctx = EvalContext(ch, sample_points(ch, 4, np.random.default_rng(12)), 2)
        _assert_all_below(R.verify_killing_unit(ctx), 1e-12)
        _assert_all_below(R.lie_derivative_suite(ctx), 1e-11)


class TestReducedKahler:
    def test_g0_connection(self, ctx3):
        _assert_all_below(R.g0_connection_check(ctx3), 1e-12)

    def test_projection_block(self, ctx3):
        res = R.kahler_projection_check(ctx3)
        assert abs(np.mean(res["psi_norm"]) - 64.0 / 3.0) < 1e-11
        _assert_all_below(res, 1e-11, skip=("psi_norm",))

    def test_build_reduced_kahler(self, ctx3):
        assert R.zeta_prime(ctx3).val.shape[-1] == 6

    def test_canonical_connection(self, ctx3):
        res = R.canonical_connection_checks(ctx3, rng=np.random.default_rng(13))
        _assert_all_below(res, 1e-12)

    def test_levi_civita_derivatives_of_xi_and_sigma_are_taken_once(self, setup,
                                                                    monkeypatch):
        # the sources sharing a context read its memoized Levi-Civita
        # derivatives of xi and of sigma: foliation and acs at order 1,
        # norms, g0conn and canon at order 2
        ctx1, ctx2, seen = EvalContext(*setup, order=1), EvalContext(*setup, order=2), []
        covd = C.covd
        monkeypatch.setattr(C, "covd", lambda c, t, kinds, gamma=None: (
            seen.append(t) if gamma is None else None) or covd(c, t, kinds, gamma))
        R.foliation_checks(ctx1)
        R.acs_check(ctx1)
        R.norms_and_laplacian_checks(ctx2)
        R.g0_connection_check(ctx2)
        R.canonical_connection_checks(ctx2, rng=np.random.default_rng(13))
        for field in (ctx1.root("xi"), ctx2.root("xi"), R.sigma_endo(ctx2)):
            assert sum(t is field for t in seen) == 1

    def test_nan_direction_fails_splitting(self, ctx3):
        # the second of the three random directions is NaN: one of six terms
        rng = np.random.default_rng(13)
        draws = iter([rng.standard_normal(6), np.full(6, np.nan), rng.standard_normal(6)])

        class Draws:
            def standard_normal(self, d):
                return next(draws)

        res = R.canonical_connection_checks(ctx3, rng=Draws())
        assert np.isnan(np.max(res["splitting_parallel"]))


class TestBaseGeometry:
    def test_base_kahler(self, s2s2):
        pts = sample_points(s2s2.chart, 6, np.random.default_rng(14))
        _assert_all_below(R.base_kahler_check(EvalContext(s2s2.chart, pts, 2)), 1e-12)

    def test_sekigawa_trivial_case(self, s2s2):
        pts = sample_points(s2s2.chart, 3, np.random.default_rng(15))
        terms = R.sekigawa_terms_at(EvalContext(s2s2.chart, pts, 4),
                                    np.random.default_rng(0))
        res = {k: np.mean(v) for k, v in terms.items()}   # the lab's means
        assert abs(res["scal"] - 48.0) < 1e-11
        assert abs(res["sstar"] - 48.0) < 1e-11
        for k in ("norm_phi", "norm_nabla_omega", "norm_r_anti"):
            assert res[k] < 1e-12, k
        assert abs(res["lhs"]) < 1e-9 and abs(res["rhs"]) < 1e-9
        assert np.max(terms["identity_residual"]) < 1e-9

    def test_norm_r_anti_on_nonzero_curvature(self, s2s2):
        # on s2s2 the block is ~1e-63, so the context is seeded with a random
        # algebraic curvature tensor, the Kulkarni-Nomizu product of two
        # random symmetric forms at each point
        pts = sample_points(s2s2.chart, 5, np.random.default_rng(18))
        ctx = EvalContext(s2s2.chart, pts, 4)
        rng = np.random.default_rng(19)
        h, k = (a + np.swapaxes(a, 1, 2) for a in rng.normal(size=(2, 5, 4, 4)))
        kn = (np.einsum("zil,zjk->zijkl", h, k) + np.einsum("zjk,zil->zijkl", h, k)
              - np.einsum("zik,zjl->zijkl", h, k) - np.einsum("zjl,zik->zijkl", h, k))
        fake = J.jconst(J.jetspace(4, 2), kn)
        ctx.memo((C.riemann_lower.__wrapped__,), lambda c: fake)
        got = np.mean(R.sekigawa_terms_at(ctx, np.random.default_rng(0))["norm_r_anti"])
        want = _norm_r_anti_per_point(ctx, kn)
        assert want > 1.0
        assert abs(got - want) <= 1e-13 * want

    def test_uneven_radii_rejected(self):
        b = M.build_s2s2(radii=(0.3, 0.5))
        pts = sample_points(b.chart, 2, np.random.default_rng(16))
        with pytest.raises(NonEinsteinBaseError):
            R.sekigawa_terms_at(EvalContext(b.chart, pts, 4), np.random.default_rng(0))


def _norm_r_anti_per_point(ctx, rl):
    """Mean squared anti-linear block of the curvature operator on the
    Jhat-anti-invariant 2-forms, one point at a time."""
    gv = C.metric(ctx).val
    giv = C.metric_inv(ctx).val
    jhat = ctx.root("Jhat").val
    nb = ctx.nbatch
    r2 = np.zeros(nb)
    rng = np.random.default_rng(0)
    for z in range(nb):
        f1 = rng.standard_normal(4)
        f1 /= math.sqrt(f1 @ gv[z] @ f1)
        f2 = jhat[z] @ f1
        raw = rng.standard_normal(4)
        raw -= (raw @ gv[z] @ f1) * f1 + (raw @ gv[z] @ f2) * f2
        f3 = raw / math.sqrt(raw @ gv[z] @ raw)
        f4 = jhat[z] @ f3
        cov = [gv[z] @ f for f in (f1, f2, f3, f4)]

        def wf(a, b):
            return np.einsum("i,j->ij", a, b) - np.einsum("i,j->ij", b, a)

        b1 = (wf(cov[0], cov[2]) - wf(cov[1], cov[3])) / math.sqrt(2.0)
        b2 = (wf(cov[0], cov[3]) + wf(cov[1], cov[2])) / math.sqrt(2.0)
        bmat = np.zeros((2, 2))
        basis = (b1, b2)
        for a_i, ba in enumerate(basis):
            rba = -0.5 * np.einsum("kl,klij->ij",
                                   giv[z] @ ba @ giv[z], rl[z])
            for b_i, bb in enumerate(basis):
                bmat[a_i, b_i] = form_ip(rba[None], bb[None], 2, giv[z][None])[0]
        rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
        banti = 0.5 * (bmat + rot @ bmat @ rot)
        r2[z] = np.sum(banti**2)
    return float(np.mean(r2))


class TestReductionOnS6:
    def test_rotation_is_killing_but_not_unit(self, s6):
        ch = s6.chart
        ctx = EvalContext(ch, sample_points(ch, 5, np.random.default_rng(17)), 1)
        from nklab import calculus as C

        xi = ctx.root("xi")
        lg = C.lie_derivative(ctx, xi, C.metric(ctx), "ll").val
        assert np.max(np.abs(lg)) < 1e-12
        n = np.sqrt(np.einsum("zi,zij,zj->z", xi.val, C.metric(ctx).val, xi.val))
        assert np.max(np.abs(n - 1.0)) > 0.05
