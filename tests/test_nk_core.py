"""Structure-equation battery: torsion identities, constant type, curvature."""
import numpy as np
import pytest

from nklab import models as M
from nklab import nkcore as NK
from nklab.chart import DegeneratePairError, EvalContext, sample_points
from oracles import constant_type_at, flat_kahler


def _ctx(bundle, n=6, order=2, seed=0, chart=0):
    ch = bundle.charts[chart]
    pts = sample_points(ch, n, np.random.default_rng(seed))
    return EvalContext(ch, pts, order)


@pytest.fixture(scope="module", params=["s3s3", "s6"])
def nk_bundle(request):
    return M.build_model(request.param)


class TestDefiningConditions:
    def test_check_nearly_kahler(self, nk_bundle):
        res = NK.check_nearly_kahler(_ctx(nk_bundle, n=8, order=1, seed=1))
        assert np.max(res["j_square"]) < 1e-12
        assert np.max(res["compatible"]) < 1e-12
        assert np.max(res["nk_condition"]) < 1e-12
        assert np.max(res["torsion_scale"]) > 1e-3   # strict, not Kahler

    def test_psi_totally_skew(self, nk_bundle):
        ctx = _ctx(nk_bundle)
        psi = NK.psi_lower(ctx).val
        assert np.max(np.abs(psi + np.swapaxes(psi, 1, 2))) < 1e-12
        assert np.max(np.abs(psi + np.swapaxes(psi, 2, 3))) < 1e-12


class TestTorsionIdentities:
    def test_gray_identities(self, nk_bundle):
        res = NK.gray_identities_check(_ctx(nk_bundle))
        for k in ("gray1", "gray2", "gray3", "gray4"):
            assert np.max(res[k]) < 1e-12, k
        assert np.max(res["gray5"]) < 1e-11

    def test_orthogonality(self, nk_bundle):
        res = NK.orthogonality_residuals(_ctx(nk_bundle), np.random.default_rng(2))
        assert np.max(res["torsion_orthogonality"]) < 1e-12

    def test_type_tensor(self, nk_bundle):
        res = NK.type_tensor_check(_ctx(nk_bundle), np.random.default_rng(3))
        assert np.max(list(res.values())) < 1e-11

    def test_elementary_identities(self, nk_bundle):
        res = NK.elementary_identity_check(_ctx(nk_bundle), np.random.default_rng(4))
        assert np.max(list(res.values())) < 1e-11, res


class TestAdaptedFrames:
    def test_frame_expansions(self, nk_bundle):
        res = NK.frame_expansion_check(_ctx(nk_bundle, n=3, order=1, seed=5),
                                       np.random.default_rng(1))
        assert np.max(res["omega"]) < 1e-11
        assert np.max(res["psi"]) < 1e-10
        assert np.max(res["star_psi"]) < 1e-10

    def test_frame_is_orthonormal(self, nk_bundle):
        p = nk_bundle.chart.center()
        ctx = EvalContext(nk_bundle.chart, p[None, :], 1)
        from nklab import calculus as C

        g = C.metric(ctx).val
        rng = np.random.default_rng(0)
        e1, e3 = rng.standard_normal(6), rng.standard_normal(6)
        frame = NK._adapted_frames(g, NK.j_field(ctx).val, NK.nabla_j(ctx).val,
                                   e1[None], e3[None])[0]
        gram = frame @ g[0] @ frame.T
        assert np.max(np.abs(gram - np.eye(6))) < 1e-10


class TestConstantType:
    def test_alpha_one(self, nk_bundle):
        ch = nk_bundle.chart
        rng = np.random.default_rng(6)
        pts = sample_points(ch, 12, rng)
        alpha = NK.constant_type_samples(EvalContext(ch, pts, 1), rng)
        assert np.max(np.abs(alpha - 1.0)) < 1e-12

    def test_single_pair_route(self, nk_bundle):
        p = nk_bundle.chart.center()
        ctx = EvalContext(nk_bundle.chart, p[None, :], 1)
        from nklab import calculus as C

        g = C.metric(ctx).val[0]
        jm = NK.j_field(ctx).val[0]
        x = np.eye(6)[0]
        # find a second direction with a component off the J-plane of x
        # so the quotient is well defined
        for k in range(1, 6):
            y = np.eye(6)[k].astype(float)
            for w in (x, jm @ x):
                y = y - (y @ g @ w) / (w @ g @ w) * w
            if y @ g @ y > 1e-6:
                break
        val = constant_type_at(nk_bundle.chart, p, x, y)
        assert abs(val - 1.0) < 1e-10

    def test_degenerate_pair_raises(self, nk_bundle):
        p = nk_bundle.chart.center()
        ctx = EvalContext(nk_bundle.chart, p[None, :], 1)
        jm = NK.j_field(ctx).val[0]
        x = np.eye(6)[0]
        with pytest.raises(DegeneratePairError):
            constant_type_at(nk_bundle.chart, p, x, jm @ x)   # y in span{x, Jx}

    def test_homothety_scaling(self):
        # alpha multiplies by 1/c when the metric multiplies by c
        for factor in (0.5, 2.0):
            b = M.build_s3s3(scale=factor * M.S3S3_SCALE, charts=("a",))
            rng = np.random.default_rng(8)
            pts = sample_points(b.chart, 6, rng)
            alpha = NK.constant_type_samples(EvalContext(b.chart, pts, 1), rng)
            assert np.max(np.abs(factor * alpha - 1.0)) < 1e-10


class TestCurvature:
    def test_einstein_and_ricci_star(self, nk_bundle):
        res = NK.einstein_and_ricci_star_check(_ctx(nk_bundle, n=3, order=3))
        assert np.max(res["ricci"]) < 1e-11
        assert np.max(res["scal"]) < 1e-10
        assert abs(np.mean(res["scal_value"]) - 30.0) < 1e-10
        assert np.max(res["ricci_star"]) < 1e-11
        assert np.max(res["ricci_star_operator_route"]) < 1e-11

    def test_laplacians(self, nk_bundle):
        res = NK.laplacian_omega_check(_ctx(nk_bundle, n=2, order=3))
        assert np.max(res["rough_laplacian"]) < 1e-10      # nabla*nabla Omega = 4 Omega
        assert np.max(res["hodge_laplacian"]) < 1e-10      # Delta Omega = 12 Omega
        assert np.max(res["weitzenboeck"]) < 1e-10


class TestNegativeControls:
    def test_product_structure_not_nk(self, s3s3_product):
        res = NK.check_nearly_kahler(_ctx(s3s3_product, n=8, order=1, seed=9))
        assert np.max(res["j_square"]) < 1e-12          # still an ACS
        assert np.max(res["compatible"]) < 1e-12        # still compatible
        assert np.max(res["nk_condition"]) > 0.1        # but not nearly Kahler

    def test_flat_kahler_is_torsion_free(self):
        res = NK.check_nearly_kahler(_ctx(flat_kahler(), n=5, order=1))
        assert np.max(res["nk_condition"]) == 0.0
        assert np.max(res["torsion_scale"]) == 0.0
        assert np.max(res["j_square"]) < 1e-14


@pytest.mark.parametrize("batch_last", [True, False])
def test_maxabs_is_the_max_per_point_and_fails_nan(batch_last):
    """``_maxabs`` reads a ``Jet.val`` view (batch axis last in memory) and a
    batch-first array alike, and a NaN anywhere in a point makes its max NaN."""
    c = np.random.default_rng(0).uniform(-1.0, 1.0, size=(4, 5, 3, 2, 6))
    a = np.moveaxis(c[..., 0, :], -1, 0)  # (6, 4, 5, 3), strided like Jet.val
    a = a if batch_last else np.ascontiguousarray(a)
    a[2, 3, 4, 1] = np.nan
    got = NK._maxabs(a)
    want = np.array([np.max(np.abs(a[z])) for z in range(6)])
    assert got.shape == (6,)
    assert np.array_equal(np.isnan(got), np.arange(6) == 2)
    assert np.array_equal(got, want, equal_nan=True)
