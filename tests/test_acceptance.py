"""End-to-end acceptance battery with pinned tolerances.

Each numbered test covers one acceptance item and prints a PASS/FAIL line
per verified component (visible with ``-s``, or in the captured output of
a failing test).  A test fails only if a component misses its pinned
tolerance, so every line of a criterion is evaluated and reported even
when an earlier one fails.
"""
import time

import numpy as np

from nklab import ansatz as A
from nklab import models as M
from nklab import nkcore as NK
from nklab import reduction as R
from nklab import report as REP
from nklab import suites
from nklab.chart import EvalContext, sample_points
from oracles import S6_ROTATIONS, with_xi

SAMPLES = 50          # cheap (order <= 2) checks
SAMPLES_DEEP = 12     # third-order contexts


class _Battery:
    """Collects component results; prints one line per component."""

    def __init__(self):
        self.rows = []

    def below(self, label, value, tol):
        value = float(np.max(value))     # over the points (and keys) given
        self._row(label, value, tol, value < tol, "<")

    def above(self, label, value, floor):
        value = float(np.max(value))
        self._row(label, value, floor, value > floor, ">")

    def _row(self, label, value, tol, ok, rel):
        print(f"{'PASS' if ok else 'FAIL'}: {label}  "
              f"value={value:.3e} {rel} {tol:.0e}")
        self.rows.append((ok, label, value, rel, tol))

    def finish(self):
        bad = [f"  {l}: {v:.3e} (wanted {r} {t:.0e})"
               for ok, l, v, r, t in self.rows if not ok]
        assert not bad, "missed tolerances:\n" + "\n".join(bad)


def _ctx(bundle, order, n, seed=0):
    pts = sample_points(bundle.chart, n, np.random.default_rng(seed))
    return EvalContext(bundle.chart, pts, order)


def test_01_curvature_anchors(s6, s2s2):
    b = _Battery()
    e = NK.einstein_and_ricci_star_check(_ctx(s6, 3, SAMPLES_DEEP))
    b.below("unit six-sphere is Einstein with constant 5", e["ricci"], 1e-6)
    b.below("unit six-sphere scalar curvature is 30",
            abs(np.mean(e["scal_value"]) - 30.0), 1e-6)
    base = R.base_kahler_check(_ctx(s2s2, 2, SAMPLES_DEEP, seed=1))
    b.below("small two-sphere product is Einstein with constant 12",
            base["einstein_12"], 1e-7)
    b.finish()


def test_02_torsion_identity_suite(s3s3, s6):
    b = _Battery()
    for bundle in (s3s3, s6):
        name = bundle.name
        ctx = _ctx(bundle, 2, SAMPLES)
        rng = np.random.default_rng(2)
        gray = NK.gray_identities_check(ctx)
        b.below(f"torsion identities 1-4 ({name})",
                [gray[k] for k in ("gray1", "gray2", "gray3", "gray4")],
                1e-8)
        b.below(f"second-order torsion identity 5 ({name})", gray["gray5"], 1e-6)
        ortho = NK.orthogonality_residuals(ctx, rng)
        b.below(f"torsion orthogonal to both arguments ({name})",
                ortho["torsion_orthogonality"], 1e-9)
        frame = NK.frame_expansion_check(
            EvalContext(bundle.chart, ctx.points[:6], 1), rng)
        b.below(f"adapted-frame expansion of the torsion 3-form ({name})",
                frame["psi"], 1e-7)
        b.below(f"adapted-frame expansion of its Hodge dual ({name})",
                frame["star_psi"], 1e-7)
        b.below(f"adapted-frame expansion of the fundamental form ({name})",
                frame["omega"], 1e-7)
        elem = NK.elementary_identity_check(ctx, rng)
        b.below(f"elementary identity list, all nine ({name})",
                list(elem.values()), 1e-8)
    b.finish()


def test_03_constant_type(s3s3, s6):
    b = _Battery()
    for bundle in (s3s3, s6):
        rng = np.random.default_rng(3)
        pts = sample_points(bundle.chart, 50, rng)
        alpha = NK.constant_type_samples(EvalContext(bundle.chart, pts, 1), rng)["alpha"]
        assert alpha.size == 200
        b.below(f"type constant alpha = 1 over 200 point/plane pairs "
                f"({bundle.name})", np.max(alpha) - np.min(alpha), 1e-7)
    worst = 0.0
    for factor in (0.5, 1.0, 2.0):
        sb = M.build_s3s3(scale=factor * M.S3S3_SCALE)
        rng = np.random.default_rng(4)
        pts = sample_points(sb.chart, 20, rng)
        alpha = NK.constant_type_samples(EvalContext(sb.chart, pts, 1), rng)["alpha"]
        worst = max(worst, float(np.max(np.abs(factor * alpha - 1.0))))
    b.below("alpha scales as the inverse metric factor across three scales",
            worst, 1e-8)
    b.finish()


def test_04_laplacian_anchors(s3s3):
    b = _Battery()
    ctx = _ctx(s3s3, 3, SAMPLES_DEEP)
    lap = NK.laplacian_omega_check(ctx)
    b.below("rough Laplacian of the fundamental form is 4 times the form",
            lap["rough_laplacian"], 1e-6)
    b.below("Hodge Laplacian of the fundamental form is 12 times the form",
            lap["hodge_laplacian"], 1e-6)
    norms = R.norms_and_laplacian_checks(ctx)
    b.below("Hodge Laplacian of the Killing covector is 10 times it",
            norms["laplacian_zeta"], 1e-5)
    b.below("Hodge Laplacian of the rotated covector is 18 times it",
            norms["laplacian_jzeta"], 1e-5)
    b.below("the rotated covector is co-closed",
            norms["codifferential_jzeta"], 1e-6)
    b.finish()


def test_05_reduction_invariants(s3s3):
    b = _Battery()
    ctx2 = _ctx(s3s3, 2, SAMPLES)
    ctx3 = _ctx(s3s3, 3, SAMPLES_DEEP)
    acs = R.acs_check(ctx2)
    b.below("transversal endomorphism algebra, all identities",
            list(acs.values()), 1e-8)
    tpar = R.transversal_parallel_check(ctx2)
    fol = R.foliation_checks(ctx2)
    b.below("transversal structures parallel along the flow",
            list(tpar.values()), 1e-6)
    b.below("vertical distribution behaviour under the flow",
            list(fol.values()), 1e-6)
    norms = R.norms_and_laplacian_checks(ctx3)
    b.below("invariant part of the Killing 2-form has square norm 8",
            norms["norm_dzeta11_dev"], 1e-6)
    b.below("anti-invariant part has square norm 2",
            norms["norm_dzeta20_dev"], 1e-6)
    b.below("transversal rotation has square norm 4",
            norms["norm_jhat_dev"], 1e-6)
    b.below("derivative of the rotated covector has square norm 36",
            norms["norm_djzeta_dev"], 1e-6)
    b.below("Killing 2-form is pointwise orthogonal to the fundamental form",
            [norms["ip_dzeta_omega"], norms["ip_dzeta11_omega"]], 1e-8)
    b.below("reduced metric eigenvalues are {1/2,1/2,1,1,3/2,3/2}",
            norms["g0_spectrum"], 1e-8)
    b.below("involution eigenvalues are {-1,-1,0,0,1,1}",
            norms["sigma_spectrum"], 1e-8)
    b.finish()


def test_06_flow_derivative_formulas(s3s3):
    b = _Battery()
    lie = R.lie_derivative_suite(_ctx(s3s3, 2, SAMPLES))
    b.below(f"flow-derivative identity suite, all {len(lie)} residuals",
            list(lie.values()), 1e-7)
    assert len(lie) >= 11
    b.finish()


def test_07_projected_kahler_structure(s3s3):
    b = _Battery()
    kah = R.kahler_projection_check(_ctx(s3s3, 3, SAMPLES_DEEP))
    b.below("reduced complex structure is parallel for the reduced metric",
            kah["i0_parallel"], 1e-6)
    b.below("anti-invariant rotation is parallel for the reduced metric",
            kah["k_parallel"], 1e-6)
    b.below("projected complex volume form is parallel",
            kah["psi_parallel"], 1e-6)
    b.below("phase transport of the volume form, both routes agreeing",
            kah["phase_equation"], 1e-6)
    b.below("curvature of the rescaled rotated covector",
            [kah["dzeta_prime_i0"], kah["dzeta_prime_omega_i"]], 1e-6)
    b.below("reduced rotation 2-form is half the Killing 2-form and closed",
            [kah["omega0_jhat_half_dzeta"], kah["omega0_jhat_closed"]],
            1e-6)
    b.finish()


def test_08_canonical_connection(s3s3):
    b = _Battery()
    canon = R.canonical_connection_checks(_ctx(s3s3, 3, SAMPLES_DEEP),
                                          rng=np.random.default_rng(8))
    b.below("canonical connection preserves the metric",
            canon["metric_parallel"], 1e-8)
    b.below("canonical connection preserves the almost complex structure",
            canon["j_parallel"], 1e-8)
    b.below("canonical derivative of the Killing field is (sigma+1) "
            "times the rotation", canon["xi_derivative"], 1e-7)
    b.below("involution is parallel transversally",
            canon["sigma_transversal_parallel"], 1e-6)
    b.below("eigendistribution projectors parallel, rotation swaps them",
            [canon["e_projector_parallel"], canon["splitting_parallel"],
             canon["j_maps_e_to_f"]], 1e-6)
    b.finish()


def test_09_base_curvature_identity(s2s2):
    b = _Battery()
    sek = R.sekigawa_terms_at(_ctx(s2s2, 4, SAMPLES_DEEP, seed=9),
                              np.random.default_rng(0))
    assert all(np.all(np.isfinite(v)) for v in sek.values())
    # the terms are per point; the lab reports their means
    mean = {k: float(np.mean(v)) for k, v in sek.items()}
    b.below("curvature-defect identity, left side", abs(mean["lhs"]), 1e-5)
    b.below("curvature-defect identity, right side", abs(mean["rhs"]), 1e-5)
    b.below("curvature-defect identity, residual",
            sek["identity_residual"], 1e-5)
    b.below("both scalar curvatures equal 48",
            max(abs(mean["scal"] - 48.0), abs(mean["sstar"] - 48.0)), 1e-5)
    b.finish()


def test_10_assembled_model(ansatz_bundle, s3s3):
    b = _Battery()
    ch = ansatz_bundle.chart
    rng = np.random.default_rng(10)
    pts = sample_points(ch, 20, rng)
    alpha = NK.constant_type_samples(EvalContext(ch, pts, 1), rng)["alpha"]
    b.below("assembled model: type constant is 1",
            max(abs(np.mean(alpha) - 1.0), np.max(alpha) - np.min(alpha)), 1e-5)
    scal = NK.einstein_and_ricci_star_check(EvalContext(ch, pts[:6], 3))["scal_value"]
    b.below("assembled model: scalar curvature is 30", abs(np.mean(scal) - 30.0), 1e-4)
    fiber = R.verify_killing_unit(EvalContext(ch, pts[:10], 2))
    b.below("assembled model: fiber field is a unit Killing field",
            [fiber["unit_length"], fiber["killing"]], 1e-6)

    ctx = _ctx(ansatz_bundle, 1, SAMPLES, seed=11)
    _, mu = A.connection_forms(ctx)
    zeta = R.zeta_form(ctx)
    b.below("assembled model: Killing covector equals the second potential",
            np.max(np.abs(zeta.val - mu.val)), 1e-6)

    eq = A.gauge_equivalence_residual(ansatz_bundle, (1, -1), samples=10, seed=12)
    b.below("gauge shift is a pure coordinate change",
            max(eq["metric"], eq["J"]), 1e-8)

    ctx_a = _ctx(ansatz_bundle, 3, SAMPLES_DEEP, seed=13)
    ctx_h = _ctx(s3s3, 3, SAMPLES_DEEP, seed=14)
    na = R.norms_and_laplacian_checks(ctx_a)
    nh = R.norms_and_laplacian_checks(ctx_h)
    diff = max(abs(np.mean(na[k]) - np.mean(nh[k])) for k in
               ("norm_dzeta11", "norm_dzeta20", "norm_jhat", "norm_djzeta"))
    diff = max(diff, abs(np.mean(R.kahler_projection_check(ctx_a)["psi_norm"])
                         - np.mean(R.kahler_projection_check(ctx_h)["psi_norm"])))
    b.below("reduced scalar invariants agree with the homogeneous model",
            diff, 1e-4)
    b.finish()


def test_11_negative_controls(s6, s3s3_product):
    b = _Battery()
    pts = sample_points(s6.chart, SAMPLES, np.random.default_rng(0))
    worst_dev = np.inf
    fields = {"rot01": s6.chart.evaluators["xi"],
              **{name: M._s6_rotation_evaluator(amat)
                 for name, amat in S6_ROTATIONS.items()}}
    for name, ev in fields.items():
        res = R.verify_killing_unit(EvalContext(with_xi(s6.chart, ev), pts, 2))
        b.below(f"six-sphere field '{name}' is Killing", res["killing"], 1e-8)
        worst_dev = min(worst_dev, np.max(res["unit_length"]))
    b.above("no six-sphere candidate has constant unit length",
            worst_dev, 0.05)
    nk = NK.check_nearly_kahler(_ctx(s3s3_product, 1, SAMPLES, seed=15))
    b.below("product structure is almost Hermitian", nk["j_square"], 1e-8)
    b.above("product structure fails the nearly Kahler condition",
            nk["nk_condition"], 0.1)
    b.finish()


def test_12_full_lab_within_budget():
    b = _Battery()
    t0 = time.perf_counter()
    results = suites.run(samples=50, seed=0)
    elapsed = time.perf_counter() - t0
    summary = REP.summarize(results)
    assert summary["ok"], REP.format_summary(results)
    b.below("complete lab run at 50 samples stays under one minute",
            elapsed, 60.0)
    assert summary["fail"] == 0 and summary["error"] == 0
    b.finish()
