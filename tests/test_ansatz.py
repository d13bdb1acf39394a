"""Torus-bundle model: potentials, gauge scan, assembly, certification."""
import numpy as np
import pytest

from nklab import ansatz as A
from nklab import jets as J
from nklab import nkcore as NK
from nklab import reduction as R
from nklab.chart import (
    ConfigError,
    DegenerateMetricError,
    EvalContext,
    InvariantViolation,
    sample_points,
)


def _points(bundle, n, seed):
    """n sample points of the bundle's chart, and the rng left after drawing them."""
    rng = np.random.default_rng(seed)
    return sample_points(bundle.chart, n, rng), rng


@pytest.fixture(scope="module")
def ctx1():
    ch = A._build_chart(A.DEFAULT_GAUGE, False, (0, 0), False)
    pts = sample_points(ch, 6, np.random.default_rng(21))
    return EvalContext(ch, pts, order=1)


class TestConnectionForms:
    def test_curvature_anchors(self, ctx1):
        res = A.connection_residuals(ctx1)
        assert np.max(res["dtheta_plus_12_omega_i0"]) < 1e-13
        assert np.max(res["dmu_minus_2_omega_jhat"]) < 1e-13

    def test_coframe_is_orthonormal_for_base_metric(self, ctx1):
        frame = A.base_coframe(ctx1)
        g0 = A.base_metric_jet(ctx1).val
        gi = np.zeros_like(g0)
        gi[:, :4, :4] = np.linalg.inv(g0[:, :4, :4])
        for i, e in enumerate(frame):
            for j, f in enumerate(frame):
                ip = np.einsum("zi,zij,zj->z", e.val, gi, f.val)
                assert np.allclose(ip, 1.0 if i == j else 0.0, atol=1e-12)

    def test_rotations_square_to_minus_projector(self, ctx1):
        i0, jhat = A.base_rotations(ctx1)
        proj = np.zeros((6, 6))
        proj[:4, :4] = np.eye(4)
        for endo in (i0.val, jhat.val):
            sq = np.einsum("zab,zbc->zac", endo, endo)
            assert np.max(np.abs(sq + proj)) < 1e-12


class TestGaugeScan:
    def test_twisted_residual_vanishes_only_at_default(self, ctx1):
        assert np.max(A.twisted_parallel_residual(ctx1, A.DEFAULT_GAUGE)) < 1e-13
        for other in ((0, 0), (-1, 0), (1, 1), (-2, -1)):
            assert np.max(A.twisted_parallel_residual(ctx1, other)) > 1e-3, other

    def test_search_recovers_default(self, ctx1):
        res = A.gauge_search(ctx1)
        assert res.gauge == A.DEFAULT_GAUGE
        assert res.conjugate is False
        assert res.residual < 1e-13
        assert len(res.table) == 50    # 5 x 5 gauges x {plain, conjugate}

    def test_batched_scan_matches_one_candidate_at_a_time(self, ctx1):
        ctx = EvalContext(ctx1.chart, ctx1.points, order=1)
        res = A.gauge_search(ctx)
        want = {(n1, n2, conj): float(np.max(A.twisted_parallel_residual(ctx, (n1, n2), conj)))
                for n1 in range(-2, 3) for n2 in range(-2, 3) for conj in (False, True)}
        assert list(res.table) == list(want)
        assert res.table == want  # the same arithmetic per point: bit-identical

    def test_conjugate_scan_is_distinct(self, ctx1):
        plain = np.max(A.twisted_parallel_residual(ctx1, A.DEFAULT_GAUGE, conjugate=False))
        conj = np.max(A.twisted_parallel_residual(ctx1, A.DEFAULT_GAUGE, conjugate=True))
        assert plain < 1e-13 and conj > 1e-3


class TestAssembly:
    def test_assemble_certifies(self, ansatz_bundle):
        assert "xi" in ansatz_bundle.chart.evaluators
        assert ansatz_bundle.meta["gauge"] == A.DEFAULT_GAUGE

    def test_printed_coefficients_degenerate(self):
        with pytest.raises(DegenerateMetricError):
            A.assemble(printed_coefficients=True)

    def test_bad_gauge_config(self):
        with pytest.raises(ConfigError):
            A.assemble(gauge=(0.5, 1))

    def test_nan_fiber_field_fails_certification(self):
        ch = A._build_chart(A.DEFAULT_GAUGE, False, (0, 0), False)
        ch.evaluators["xi"] = lambda ctx: J.jconst(
            ctx.space, np.full((ctx.nbatch, 6), np.nan))
        with pytest.raises(InvariantViolation, match="fiber_unit_length"):
            A._certify_chart(ch)

    def test_wrong_gauge_breaks_structure_not_algebra(self):
        b = A.assemble(gauge=(0, 0), certify=False)
        pts, rng = _points(b, 6, seed=23)
        ctx = EvalContext(b.chart, pts, order=1)
        res = NK.check_nearly_kahler(ctx)
        assert np.max(res["j_square"]) < 1e-12          # pointwise algebra intact
        assert np.max(res["nk_condition"]) > 0.1        # geometry broken
        alpha = NK.constant_type_samples(ctx, rng)
        assert np.max(alpha) - np.min(alpha) > 0.1

    def test_certification_dict(self, ansatz_bundle):
        ch = ansatz_bundle.chart
        pts, rng = _points(ansatz_bundle, 10, seed=24)
        ctx = EvalContext(ch, pts, order=1)
        assert np.max(NK.check_nearly_kahler(ctx)["nk_condition"]) < 1e-12
        assert abs(np.mean(NK.constant_type_samples(ctx, rng)) - 1.0) < 1e-12
        scal = NK.einstein_and_ricci_star_check(EvalContext(ch, pts[:3], order=3))["scal_value"]
        assert abs(np.mean(scal) - 30.0) < 1e-11
        fiber = R.verify_killing_unit(EvalContext(ch, pts[:5], order=2))
        assert np.max(fiber["unit_length"]) == 0.0
        assert np.max(fiber["killing"]) == 0.0
        assert np.max(A.twisted_parallel_residual(ctx, A.DEFAULT_GAUGE)) < 1e-13


class TestGaugeEquivalence:
    @pytest.mark.parametrize("shift", [(1, -1), (2, 1)])
    def test_shift_is_coordinate_change(self, ansatz_bundle, shift):
        res = A.gauge_equivalence_residual(ansatz_bundle, shift, samples=8, seed=25)
        assert res["metric"] < 1e-12
        assert res["J"] < 1e-12

    def test_shift_is_relative_to_the_reference(self):
        # the shifted side keeps the reference's gauge, conjugation and shift
        ref = A.assemble(gauge=(0, 1), conjugate=True, shift=(1, 0), certify=False)
        res = A.gauge_equivalence_residual(ref, (1, -1), samples=8, seed=25)
        assert res["metric"] < 1e-12
        assert res["J"] < 1e-12

    def test_shifted_model_still_certifies(self):
        b = A.assemble(shift=(1, -1))
        ctx = EvalContext(b.chart, _points(b, 6, seed=26)[0], order=1)
        assert np.max(NK.check_nearly_kahler(ctx)["nk_condition"]) < 1e-12
        assert np.max(A.twisted_parallel_residual(ctx, A.DEFAULT_GAUGE, shift=(1, -1))) < 1e-13


class TestReductionAgreement:
    def test_fiber_reduction_matches_homogeneous_invariants(self, ansatz_bundle, s3s3):
        ctx_a = EvalContext(ansatz_bundle.chart,
                            sample_points(ansatz_bundle.chart, 3,
                                          np.random.default_rng(27)), 3)
        ctx_h = EvalContext(s3s3.chart,
                            sample_points(s3s3.chart, 3,
                                          np.random.default_rng(28)), 3)
        na = R.norms_and_laplacian_checks(ctx_a)
        nh = R.norms_and_laplacian_checks(ctx_h)
        for key in ("norm_dzeta11", "norm_dzeta20", "norm_jhat", "norm_djzeta"):
            assert abs(np.mean(na[key]) - np.mean(nh[key])) < 1e-11, key
        pa = np.mean(R.kahler_projection_check(ctx_a)["psi_norm"])
        ph = np.mean(R.kahler_projection_check(ctx_h)["psi_norm"])
        assert abs(pa - ph) < 1e-11

    def test_zeta_prime_is_first_connection_form(self, ansatz_bundle):
        # the rescaled rotated dual recovers theta: d zeta' = -12 omega_I0
        ch = ansatz_bundle.chart
        ctx = EvalContext(ch, sample_points(ch, 4, np.random.default_rng(29)), 2)
        zp = R.zeta_prime(ctx)
        theta, _ = A.connection_forms(ctx)
        assert np.max(np.abs(zp.val - theta.val)) < 1e-12
