"""Exterior algebra and Hodge operators against textbook identities."""
import math
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nklab import calculus as C
from nklab import exterior as E
from nklab import jets as J
from nklab import nkcore as NK
from nklab.chart import ChartMap, EvalContext, sample_points
from oracles import dense_hodge


def _sign(perm):
    """Parity of a permutation of range(n), by its inversions."""
    return (-1) ** sum(perm[i] > perm[j] for i, j in combinations(range(len(perm)), 2))


def _alt(arr, p):
    """Antisymmetrize the first ``p`` axes (extra axes ride along): the sum
    over all p! permutations, the dense reference for d."""
    out = np.zeros_like(arr)
    extra = list(range(p, arr.ndim))
    for perm in permutations(range(p)):
        out += _sign(perm) * arr.transpose(list(perm) + extra)
    return out / math.factorial(p)


def _alt_batch(a, p):
    """``_alt`` on the p axes after the leading batch axis."""
    return np.moveaxis(_alt(np.moveaxis(a, 0, -1), p), -1, 0)


class TestWedgeAlgebra:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_graded_commutativity_1_2(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(3, 5))
        b = _alt_batch(rng.normal(size=(3, 5, 5)), 2)
        ab = E.wedge(a, 1, b, 2)
        ba = E.wedge(b, 2, a, 1)
        assert np.allclose(ab, ba)  # (-1)^{1*2} = +1

    def test_one_forms_anticommute(self, rng):
        a = rng.normal(size=(2, 4))
        b = rng.normal(size=(2, 4))
        assert np.allclose(E.wedge(a, 1, b, 1), -E.wedge(b, 1, a, 1))

    def test_associativity(self, rng):
        a = rng.normal(size=(2, 6))
        b = rng.normal(size=(2, 6))
        c = rng.normal(size=(2, 6))
        lhs = E.wedge(E.wedge(a, 1, b, 1), 2, c, 1)
        rhs = E.wedge(a, 1, E.wedge(b, 1, c, 1), 2)
        assert np.allclose(lhs, rhs)

    def test_interior_antiderivation(self, rng):
        # i_X(a ^ b) = (i_X a) ^ b - a ^ (i_X b) for 1-forms a, b
        x = rng.normal(size=(3, 5))
        a = rng.normal(size=(3, 5))
        b = rng.normal(size=(3, 5))
        ab = E.wedge(a, 1, b, 1)
        lhs = E.interior(x, ab)
        ia = np.einsum("zi,zi->z", x, a)
        ib = np.einsum("zi,zi->z", x, b)
        rhs = ia[:, None] * b - ib[:, None] * a
        assert np.allclose(lhs, rhs)


class TestHodge:
    @pytest.mark.parametrize("p", [0, 1, 2, 3])
    def test_double_star_euclidean(self, rng, p):
        d = 4
        g = np.broadcast_to(np.eye(d), (2, d, d)).copy()
        gi = g.copy()
        a = _alt_batch(rng.normal(size=(2,) + (d,) * p), p) if p else rng.normal(size=(2,))
        ss = E.hodge(E.hodge(a, p, g, gi), d - p, g, gi)
        sign = (-1.0) ** (p * (d - p))
        assert np.allclose(ss, sign * a, atol=1e-12)

    def test_norm_via_star(self, rng):
        # a ^ *a = |a|^2 vol for a 1-form on flat R^3
        d = 3
        g = np.broadcast_to(np.eye(d), (2, d, d)).copy()
        a = rng.normal(size=(2, d))
        top = E.wedge(a, 1, E.hodge(a, 1, g, g), 2)
        vol = E.hodge(np.ones(2), 0, g, g)
        n2 = E.form_norm2(a, 1, g)
        assert np.allclose(top, n2[:, None, None, None] * vol, atol=1e-12)

    def test_orientation_flips_sign(self, rng):
        d = 3
        g = np.broadcast_to(np.eye(d), (1, d, d)).copy()
        a = rng.normal(size=(1, d))
        plus = E.hodge(a, 1, g, g, orientation=1.0)
        minus = E.hodge(a, 1, g, g, orientation=-1.0)
        assert np.allclose(plus, -minus)


def _scalar_field_chart():
    def metric(ctx):
        return J.jconst(ctx.space, np.broadcast_to(np.eye(3), (ctx.nbatch, 3, 3)).copy())

    return ChartMap("flat3", [(-1.0, 1.0)] * 3, {"metric": metric})


def _form_jet(space, d, p, seed, nbatch=2):
    """A jet each of whose coefficients is an exactly antisymmetric p-tensor."""
    rng = np.random.default_rng(seed)
    c = np.zeros((d,) * p + (space.ncoef, nbatch))
    for idx in combinations(range(d), p):
        val = rng.normal(size=(space.ncoef, nbatch))
        for perm in permutations(range(p)):
            c[tuple(idx[k] for k in perm)] = _sign(perm) * val
    return J.Jet(space, c)


class TestDifferential:
    def test_d_squared_zero(self):
        ch = _scalar_field_chart()
        ctx = EvalContext(ch, np.array([[0.2, -0.1, 0.4]]), order=3)
        x, y, z = (ctx.coord(i) for i in range(3))
        f = J.jsin(x * y) + z * z * x
        df = E.d_form(f, 0)
        ddf = E.d_form(df, 1)
        assert np.max(np.abs(ddf.val)) < 1e-13

    def test_gradient_components(self):
        ch = _scalar_field_chart()
        p = np.array([[0.3, 0.5, -0.2]])
        ctx = EvalContext(ch, p, order=1)
        x, y, z = (ctx.coord(i) for i in range(3))
        f = x * y * z
        df = E.d_form(f, 0).val
        want = np.array([p[0, 1] * p[0, 2], p[0, 0] * p[0, 2], p[0, 0] * p[0, 1]])
        assert np.allclose(df[0], want)

    def test_codifferential_flat_divergence(self):
        # delta a = -div a on flat space
        ch = _scalar_field_chart()
        p = np.array([[0.1, 0.2, 0.3]])
        ctx = EvalContext(ch, p, order=2)
        x, y, z = (ctx.coord(i) for i in range(3))
        a = J.jassemble((3,), [(0, x * x), (1, y * z), (2, x * z)])
        div = 2 * p[0, 0] + p[0, 2] + p[0, 0]
        got = E.codifferential(ctx, a, 1).val
        assert np.allclose(got, -div, atol=1e-12)

    def test_form_laplacian_reads_the_memoized_covariant_derivative(self, s6, monkeypatch):
        # delta of the field is the trace of its memoized covariant
        # derivative, so a context that holds it computes only delta d w's;
        # bit for bit the Laplacian of codifferentials of the field's jet
        omega_field = NK.omega_field
        ctx = EvalContext(s6.chart, sample_points(s6.chart, 5, np.random.default_rng(3)), 2)
        w = omega_field(ctx)
        want = (E.d_form(E.codifferential(ctx, w, 2), 1)
                + E.codifferential(ctx, E.d_form(w, 2), 3))
        C.covd_field(ctx, omega_field, "ll", key="omega")
        kinds = []
        covd = E.covd
        monkeypatch.setattr(E, "covd", lambda c, t, k: kinds.append(k) or covd(c, t, k))
        got = E.form_laplacian_field(omega_field, 2, "omega")(ctx)
        assert kinds == ["lll"]
        assert np.array_equal(got.c, want.c)
        # and delta of the field stays memoized for its other readers
        delta = E.codifferential_field(ctx, omega_field, 2, "omega")
        assert kinds == ["lll"]
        assert np.array_equal(delta.c, E.codifferential(ctx, w, 2).c)

    @pytest.mark.parametrize("d", [4, 6])
    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("p", [0, 1, 2, 3])
    def test_matches_dense_alternating_sum(self, d, order, p):
        # d w = (p+1) Alt(grad w), summed over all (p+1)! permutations
        w = _form_jet(J.jetspace(d, order), d, p, seed=d * 100 + order * 10 + p)
        got = E.d_form(w, p)
        want = (p + 1) * _alt(J.jgrad(w).c, p + 1)
        assert got.space is J.jgrad(w).space
        assert np.max(np.abs(got.c - want)) < 1e-13
        # exactly antisymmetric: permuting the slots multiplies by the sign
        extra = list(range(p + 1, got.c.ndim))
        for perm in permutations(range(p + 1)):
            moved = got.c.transpose(list(perm) + extra)
            assert np.array_equal(moved, _sign(perm) * got.c), perm

    def test_wedge_jet_matches_value_wedge(self):
        ch = _scalar_field_chart()
        ctx = EvalContext(ch, np.array([[0.4, -0.3, 0.1]]), order=1)
        x, y, _ = (ctx.coord(i) for i in range(3))
        a = E.d_form(x * y, 0)
        b = E.d_form(y, 0)
        jet = E.wedge_jet(a, 1, b, 1).val
        val = E.wedge(a.val, 1, b.val, 1)
        assert np.allclose(jet, val)


# Dense reference: the outer-product-and-shuffle kernel the packed wedge
# replaced.  It sums every (p, q)-shuffle of the full d^(p+q) outer product.
def _dense_shuffle_sum(prod, p, q):
    """Shuffle sum over the first p + q axes of ``prod`` (extra axes ride along)."""
    out = np.zeros_like(prod)
    extra = list(range(p + q, prod.ndim))
    for chosen in combinations(range(p + q), p):
        sign = (-1) ** (sum(chosen) - p * (p - 1) // 2)
        perm = list(chosen) + [i for i in range(p + q) if i not in chosen]
        inv = [0] * (p + q)
        for pos, src in enumerate(perm):
            inv[src] = pos
        out += sign * prod.transpose(inv + extra)
    return out


def _dense_wedge(a, p, b, q):
    """Batch-first wedge through the full outer product."""
    av, bv = np.moveaxis(a, 0, -1), np.moveaxis(b, 0, -1)
    prod = av.reshape(av.shape[:p] + (1,) * q + av.shape[p:]) * bv
    return np.moveaxis(_dense_shuffle_sum(prod, p, q), -1, 0)


_FORMS = {}


def _form(d, p, seed):
    """A random antisymmetric batch of two p-forms on R^d (cached)."""
    key = (d, p, seed)
    if key not in _FORMS:
        raw = np.random.default_rng([d, p, seed]).normal(size=(2,) + (d,) * p)
        _FORMS[key] = _alt_batch(raw, p) if p > 1 else raw
    return _FORMS[key]


_DEGREES = [(d, p, q) for d in (3, 4, 6) for p in range(d + 1) for q in range(d + 1)
            if 1 <= p + q <= d]


class TestPackedWedge:
    @pytest.mark.parametrize("d,p,q", _DEGREES)
    def test_matches_dense_shuffle_kernel(self, d, p, q):
        a, b = _form(d, p, 0), _form(d, q, 1)
        got = E.wedge(a, p, b, q)
        want = _dense_wedge(a, p, b, q)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) < 1e-13
        # the packed columns are the increasing multi-indices, in order
        cols = [want[(slice(None),) + ix] for ix in combinations(range(d), p + q)]
        assert np.max(np.abs(E.wedge_packed(a, p, b, q) - np.stack(cols, axis=1))) < 1e-13

    @pytest.mark.parametrize("d,p,q", [(3, 2, 2), (3, 1, 3), (4, 2, 3), (4, 1, 4), (6, 3, 4)])
    def test_above_top_degree_is_zero(self, d, p, q):
        got = E.wedge(_form(d, p, 0), p, _form(d, q, 1), q)
        assert got.shape == (2,) + (d,) * (p + q)
        assert not np.any(got)

    @pytest.mark.parametrize("p,q", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_jet_matches_dense_shuffle_kernel(self, p, q):
        d = 4
        ch = ChartMap("flat4", [(-1.0, 1.0)] * d, {"metric": lambda c: J.jconst(
            c.space, np.broadcast_to(np.eye(d), (c.nbatch, d, d)).copy())})
        ctx = EvalContext(ch, np.array([[0.1, -0.2, 0.3, 0.05], [0.4, 0.2, -0.1, -0.3]]), order=2)
        x = [ctx.coord(i) for i in range(d)]
        a = E.d_form(J.jsin(x[0] * x[1]) + x[2] * x[3], 0)
        b = E.d_form(x[1] * x[1] * x[2] + J.jcos(x[3]), 0)
        if p == 2:
            a = E.d_form(J.jj(",c->c", x[3], a), 1)
        if q == 2:
            b = E.d_form(J.jj(",c->c", x[0], b), 1)
        letters = "cdef"
        prod = J.jj(f"{letters[:p]},{letters[p:p + q]}->{letters[:p + q]}", a, b)
        got = E.wedge_jet(a, p, b, q)
        assert got.space is prod.space
        assert np.max(np.abs(got.c - _dense_shuffle_sum(prod.c, p, q))) < 1e-13


def _packed_form(d, p, nbatch, rng):
    """A random batch-first p-form, exactly antisymmetric: unpacked from its
    increasing components, so every entry is +-1 times one of them."""
    packed = rng.normal(size=(math.comb(d, p), nbatch))
    return np.moveaxis(E._unpack(packed, d, p), -1, 0)


@pytest.fixture(scope="module", params=["s3s3", "s6"])
def chart_metric(request):
    """The metric and its inverse of a model's chart at 8 sampled points."""
    chart = request.getfixturevalue(request.param).chart
    pts = sample_points(chart, 8, np.random.default_rng(5))
    ctx = EvalContext(chart, pts, 1)
    return chart, C.metric(ctx).val, C.metric_inv(ctx).val


class TestPackedHodge:
    @pytest.mark.parametrize("p", range(7))
    def test_columns_of_the_full_star(self, chart_metric, p):
        chart, g, gi = chart_metric
        a = _packed_form(6, p, 8, np.random.default_rng(p)) if p else g[:, 0, 0]
        full = dense_hodge(a, p, g, gi, chart.orientation)
        cols = [full[(slice(None),) + ix] for ix in combinations(range(6), 6 - p)]
        want = np.stack(cols, axis=1)
        got = E.hodge_packed(a, p, g, gi, chart.orientation)
        assert got.shape == want.shape == (8, math.comb(6, p))
        if p <= 1:
            assert np.array_equal(got, want)
        else:   # the dense star sums p! equal terms and divides by p!
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_five_form_residuals_equal_the_full_arrays(self, chart_metric):
        # the two 5-form residuals of nkcore.elementary_identity_check, on
        # random forms: packed, and through the full (8, 6**5) arrays
        chart, g, gi = chart_metric
        rng = np.random.default_rng(11)
        x, jx = _packed_form(6, 1, 8, rng), _packed_form(6, 1, 8, rng)
        om, om_om = _packed_form(6, 2, 8, rng), _packed_form(6, 4, 8, rng)
        dom = _packed_form(6, 3, 8, rng)
        ori = chart.orientation
        packed = (E.hodge_packed(x, 1, g, gi, ori) - 0.5 * E.wedge_packed(jx, 1, om_om, 4),
                  E.wedge_packed(om, 2, dom, 3))
        full = (E.hodge(x, 1, g, gi, ori) - 0.5 * E.wedge(jx, 1, om_om, 4),
                E.wedge(om, 2, dom, 3))
        for got, want in zip(packed, full):
            assert got.shape == (8, 6) and want.shape == (8,) + (6,) * 5
            assert np.max(np.abs(got)) == np.max(np.abs(want)) > 0
