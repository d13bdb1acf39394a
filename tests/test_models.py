"""Model construction oracles: group charts, embeddings, Killing fields."""
import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nklab import calculus as C
from nklab import jets as J
from nklab import models as M
from nklab import nkcore as NK
from nklab.chart import ConfigError, EvalContext, sample_points
from oracles import (S6_ROTATIONS, flat_kahler, generic_fields, generic_s3s3_frames,
                     left_translation_xi, with_xi)

small3 = st.lists(st.floats(min_value=-1.2, max_value=1.2), min_size=3, max_size=3)


class TestQuaternionOracles:
    @given(v=small3)
    @settings(max_examples=40, deadline=None)
    def test_exp_unit_norm(self, v):
        q = M.qexp_v(np.array(v))
        assert abs(np.linalg.norm(q) - 1.0) < 1e-12

    @given(v=small3)
    @settings(max_examples=40, deadline=None)
    def test_exp_log_roundtrip(self, v):
        v = np.array(v)
        if np.linalg.norm(v) >= np.pi - 0.05:   # stay on the principal branch
            v = v * (np.pi - 0.1) / np.linalg.norm(v)
        back = M.qlog_v(M.qexp_v(v))
        assert np.allclose(back, np.atleast_2d(v), atol=1e-12)

    def test_mul_is_associative(self, rng):
        a, b, c = (M.qexp_v(rng.normal(size=3)) for _ in range(3))
        lhs = M.qmul_v(M.qmul_v(a, b), c)
        rhs = M.qmul_v(a, M.qmul_v(b, c))
        assert np.allclose(lhs, rhs, atol=1e-14)

    def test_conj_reverses_products(self, rng):
        a, b = (M.qexp_v(rng.normal(size=3)) for _ in range(2))
        assert np.allclose(M.qconj_v(M.qmul_v(a, b)),
                           M.qmul_v(M.qconj_v(b), M.qconj_v(a)), atol=1e-14)


class TestOctonionOracle:
    def test_cross_norm_identity(self, rng):
        # |x cross y|^2 = |x|^2 |y|^2 - <x,y>^2
        c = M.octonion_cross_table()
        x = rng.normal(size=(20, 7))
        y = rng.normal(size=(20, 7))
        xy = np.einsum("kij,zi,zj->zk", c, x, y)
        lhs = np.sum(xy**2, axis=1)
        rhs = np.sum(x**2, 1) * np.sum(y**2, 1) - np.sum(x * y, 1) ** 2
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_cross_orthogonal_to_factors(self, rng):
        c = M.octonion_cross_table()
        x = rng.normal(size=(8, 7))
        y = rng.normal(size=(8, 7))
        xy = np.einsum("kij,zi,zj->zk", c, x, y)
        assert np.max(np.abs(np.sum(xy * x, 1))) < 1e-12
        assert np.max(np.abs(np.sum(xy * y, 1))) < 1e-12


class TestBundles:
    def test_registry_contents(self):
        for name in ("s3s3", "s6", "s2s2", "s3s3-product", "ansatz"):
            b = M.build_model(name)
            assert b.chart.has("metric")
        with pytest.raises(ConfigError):
            M.build_model("nope")

    def test_j_square_exact(self, s3s3, s6):
        for b in (s3s3, s6):
            for ch in b.charts:
                ctx = EvalContext(ch, sample_points(ch, 6, np.random.default_rng(0)), 0)
                jm = ctx.root("J").val
                res = np.einsum("zab,zbc->zac", jm, jm) + np.eye(6)
                assert np.max(np.abs(res)) < 1e-12, ch.name

    def test_s3s3_chart_overlap(self, s3s3):
        # scalar invariants agree at identified points of the two charts
        rng = np.random.default_rng(3)
        xa = rng.uniform(-0.25, 0.25, size=(4, 6))
        xb = M.transition_s3s3(s3s3, 0, 1, xa)
        assert np.all(s3s3.charts[1].contains(xb))
        from nklab import calculus as C

        sa = C.scalar_curvature(EvalContext(s3s3.charts[0], xa, 3)).val
        sb = C.scalar_curvature(EvalContext(s3s3.charts[1], xb, 3)).val
        assert np.max(np.abs(sa - sb)) < 1e-8
        assert np.max(np.abs(sa - 30.0)) < 1e-9

    def test_transition_roundtrip(self, s3s3):
        rng = np.random.default_rng(4)
        xa = rng.uniform(-0.3, 0.3, size=(5, 6))
        back = M.transition_s3s3(s3s3, 0, 1, xa)
        fwd = M.transition_s3s3(s3s3, 1, 0, back)
        assert np.max(np.abs(fwd - xa)) < 1e-12

    def test_s6_conformal_oracle(self, s6):
        # stereographic metric is 4/(1+|x|^2)^2 times flat in 6 coordinates
        ch = s6.charts[0]
        pts = sample_points(ch, 5, np.random.default_rng(5))
        g = EvalContext(ch, pts, 0).root("metric").val
        conf = 4.0 / (1.0 + np.sum(pts**2, axis=1)) ** 2
        want = conf[:, None, None] * np.eye(6)
        assert np.max(np.abs(g - want)) < 1e-13


_CLOSED_FORM_CHARTS = [("s3s3", 0), ("s3s3", 1), ("s6", 0), ("s6", 1), ("s3s3-product", 0)]


def _chart_ctx(name, index, order=3):
    ch = M.build_model(name).charts[index]
    return ch, EvalContext(ch, sample_points(ch, 9, np.random.default_rng(7 + index)), order)


def _assert_close(got, want, where, rtol=1e-13):
    assert got.space is want.space and got.c.shape == want.c.shape, where
    assert np.max(np.abs(got.c - want.c)) <= rtol * np.max(np.abs(want.c)), where


class TestClosedForms:
    """The chart fields in closed form against their generic constructions."""

    @pytest.mark.parametrize("name,index", _CLOSED_FORM_CHARTS)
    def test_each_field_equals_its_generic_construction(self, name, index):
        ch, ctx = _chart_ctx(name, index)
        want = generic_fields(ch, ctx)
        assert set(want) == set(ch.evaluators)
        for field, jet in want.items():
            _assert_close(ctx.root(field), jet, (ch.name, field))

    @pytest.mark.parametrize("index", [0, 1])
    @pytest.mark.parametrize("rotation", sorted(S6_ROTATIONS))
    def test_s6_rotations_off_the_pole_axis(self, index, rotation):
        # rot-mixed moves the pole (amat[:6, 6] != 0), so every term of the
        # polynomial form is exercised
        ch, ctx = _chart_ctx("s6", index)
        pole = 1.0 if index == 0 else -1.0
        amat = S6_ROTATIONS[rotation]
        got = M._s6_rotation_evaluator(pole, amat)(ctx)
        _assert_close(got, generic_fields(ch, ctx, amat)["xi"], (ch.name, rotation))

    @pytest.mark.parametrize("name,index", [("s3s3", 0), ("s3s3", 1), ("s3s3-product", 0)])
    def test_s3s3_frames(self, name, index):
        # T^-1 T = I and T^T T = V I + ((1 - V)/s) P, both exactly in jets
        ch, ctx = _chart_ctx(name, index)
        frames = M._s3s3_frames(ctx)
        for (t, tinv, gram), (gt, gtinv, ggram) in zip(frames, generic_s3s3_frames(ctx)):
            _assert_close(t, gt, ch.name)
            _assert_close(tinv, gtinv, ch.name)
            _assert_close(gram, ggram, ch.name)
            eye = J.jj("ab,bc->ac", tinv, t)
            eye.value_row[...] -= np.eye(3)[..., None]
            assert np.max(np.abs(eye.c)) <= 1e-13, ch.name
            _assert_close(gram, J.jj("ai,aj->ij", t, t), ch.name)
        x = ctx.coords[:3]
        s = J.jj("a,a->", x, x)
        v = J.jentire(s, J.VERSINE_RATIO)
        q = J.jentire(s, -J.VERSINE_RATIO[1:])
        want = J.jc("ad,->ad", np.eye(3), v) + J.jj(",ad->ad", q, J.jj("a,d->ad", x, x))
        _assert_close(frames[0][2], want, ch.name)

    def test_no_matrix_jet_is_inverted(self, monkeypatch):
        # no chart evaluator of s3s3, s6 or s3s3-product inverts a matrix jet
        # or reads the metric inverse; models.py names neither function
        tree = ast.parse(Path(M.__file__).read_text())
        names = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(tree)}
        names |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
        assert not names & {"jmatinv", "metric_inv"}

        def refuse(*args, **kwargs):
            raise AssertionError("a chart field inverted a matrix jet")

        monkeypatch.setattr(J, "jmatinv", refuse)
        monkeypatch.setattr(C, "metric_inv", refuse)
        for name, index in _CLOSED_FORM_CHARTS:
            ch, ctx = _chart_ctx(name, index, order=2)
            for field in ch.evaluators:
                ctx.root(field)


class TestKillingFields:
    @pytest.mark.parametrize("family", ["diag", "left"])
    def test_unit_killing_families(self, s3s3, family):
        from nklab import calculus as C

        ch = s3s3.charts[0]
        if family == "left":
            ch = with_xi(ch, left_translation_xi(s3s3))
        ctx = EvalContext(ch, sample_points(ch, 6, np.random.default_rng(6)), 2)
        xi = ctx.root("xi")
        g = C.metric(ctx)
        n2 = np.einsum("zi,zij,zj->z", xi.val, g.val, xi.val)
        assert np.max(np.abs(n2 - 1.0)) < 1e-12
        lg = C.lie_derivative(ctx, xi, g, "ll").val
        assert np.max(np.abs(lg)) < 1e-12

    def test_flat_control_has_no_torsion(self):
        b = flat_kahler()
        pts = sample_points(b.chart, 6, np.random.default_rng(0))
        res = NK.check_nearly_kahler(EvalContext(b.chart, pts, 1))
        assert np.max(res["torsion_scale"]) == 0.0
        assert np.max(res["j_square"]) < 1e-14


class TestOrientation:
    def test_nk6_charts_oriented_by_volume_form(self, s3s3, s6):
        # orientation was chosen so Omega^3/6 is +volume; verify directly
        from nklab import calculus as C
        from nklab.exterior import hodge, wedge

        for b in (s3s3, s6):
            ch = b.charts[0]
            ctx = EvalContext(ch, ch.center()[None, :], 0)
            g = ctx.root("metric").val
            jm = ctx.root("J").val
            om = np.einsum("bki,bkj->bij", jm, g)
            om3 = wedge(wedge(om, 2, om, 2), 4, om, 2)[0, 0, 1, 2, 3, 4, 5] / 6.0
            vol = ch.orientation * np.sqrt(np.linalg.det(g[0]))
            assert om3 * vol > 0

    def test_nk6_chart_orientations_pinned(self, s3s3, s6, s3s3_product, ansatz_bundle):
        # the orientation _fix_orientation_nk6 chose for every chart of every
        # nk6 model, second charts included; a wrong top-degree read flips one
        bundles = (s3s3, s6, s3s3_product, ansatz_bundle)
        got = {ch.name: ch.orientation for b in bundles for ch in b.charts}
        assert got == {"s3s3:a": 1.0, "s3s3:b": 1.0, "s6:north": 1.0, "s6:south": -1.0,
                       "s3s3-product:a": -1.0, "ansatz:main": -1.0}
