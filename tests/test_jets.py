"""Truncated Taylor arithmetic: algebra, calculus rules, and guards."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nklab import jets as J

finite = st.floats(min_value=-3.0, max_value=3.0,
                   allow_nan=False, allow_infinity=False)


def _scalar_pair(space, values):
    pts = np.asarray(values, dtype=float).reshape(-1, space.nvars)
    co = J.seed_coordinates(space, pts)
    return [co[i] for i in range(space.nvars)], pts


class TestAlgebra:
    def test_addition_and_scalar_ops(self):
        sp = J.jetspace(2, 2)
        (x, y), pts = _scalar_pair(sp, [[0.5, -1.0]])
        f = 2.0 * x - y / 4.0 + 1.5
        assert np.allclose(f.val, 2 * 0.5 - (-1.0) / 4 + 1.5)

    def test_product_rule(self):
        sp = J.jetspace(2, 3)
        (x, y), pts = _scalar_pair(sp, [[0.7, 0.2], [-0.4, 1.3]])
        f = x * y
        # d^2(xy)/dxdy == 1, d^2/dx^2 == 0
        assert np.allclose(f.c[sp.index[(1, 1)]], 1.0)
        assert np.allclose(f.c[sp.index[(2, 0)]], 0.0)

    @given(a=finite, b=finite)
    @settings(max_examples=25, deadline=None)
    def test_mul_commutes(self, a, b):
        sp = J.jetspace(2, 2)
        (x, y), _ = _scalar_pair(sp, [[a, b]])
        lhs = (x + 0.5) * (y - 1.0)
        rhs = (y - 1.0) * (x + 0.5)
        assert np.allclose(lhs.c, rhs.c, atol=1e-12)

    @given(a=st.floats(min_value=0.2, max_value=2.5))
    @settings(max_examples=25, deadline=None)
    def test_reciprocal_inverts(self, a):
        sp = J.jetspace(1, 4)
        (x,), _ = _scalar_pair(sp, [[a]])
        one = x * J.jrecip(x)
        target = np.zeros_like(one.c)
        target[0] = 1.0
        assert np.allclose(one.c, target, atol=1e-10)

    def test_ok_grade_decreases_under_partial(self):
        sp = J.jetspace(2, 3)
        (x, y), _ = _scalar_pair(sp, [[0.1, 0.2]])
        f = J.jsin(x * y)
        assert f.ok == 3
        assert J.jpartial(f, 0).ok == 2
        assert J.jpartial(J.jpartial(f, 0), 1).ok == 1


class TestTranscendental:
    @given(a=finite, b=finite)
    @settings(max_examples=30, deadline=None)
    def test_pythagoras(self, a, b):
        sp = J.jetspace(2, 3)
        (x, y), _ = _scalar_pair(sp, [[a, b]])
        u = x * y
        s, c = J.jsin(u), J.jcos(u)
        iden = s * s + c * c
        target = np.zeros_like(iden.c)
        target[0] = 1.0
        assert np.allclose(iden.c, target, atol=1e-12)

    def test_chain_rule_second_derivative(self):
        # f(x) = exp(sin x): f'' = f * (cos^2 x - sin x)
        sp = J.jetspace(1, 4)
        p = 0.37
        (x,), _ = _scalar_pair(sp, [[p]])
        f = J.jexp(J.jsin(x))
        d2 = 2.0 * f.c[sp.index[(2,)]]
        want = np.exp(np.sin(p)) * (np.cos(p) ** 2 - np.sin(p))
        assert abs(d2[0] - want) < 1e-12

    @given(a=st.floats(min_value=0.1, max_value=4.0))
    @settings(max_examples=25, deadline=None)
    def test_sqrt_squares_back(self, a):
        sp = J.jetspace(1, 3)
        (x,), _ = _scalar_pair(sp, [[a]])
        r = J.jsqrt(x)
        assert np.allclose((r * r).c, x.c, atol=1e-10)

    def test_log_exp_roundtrip(self):
        sp = J.jetspace(1, 4)
        (x,), _ = _scalar_pair(sp, [[0.8]])
        assert np.allclose(J.jlog(J.jexp(x)).c, x.c, atol=1e-12)


class TestEinsumBridge:
    def test_jj_matrix_vector(self):
        sp = J.jetspace(2, 1)
        pts = np.array([[0.2, 0.3]])
        x = J.seed_coordinates(sp, pts)[0]
        m = J.jassemble((2, 2), [((0, 0), x), ((1, 1), x)])
        v = J.jconst(sp, np.array([[1.0, 2.0]]))
        out = J.jj("ij,j->i", m, v)
        assert np.allclose(out.val[0], [0.2, 0.4])

    def test_reserved_letters_rejected(self):
        sp = J.jetspace(1, 1)
        a = J.jconst(sp, np.ones((1, 2)))
        with pytest.raises(Exception):
            J.jj("p,p->", a, a)

    def test_jmatinv(self):
        sp = J.jetspace(2, 2)
        pts = np.array([[0.1, -0.2], [0.6, 0.4]])
        x = J.seed_coordinates(sp, pts)[0]
        two = J.jconst(sp, np.full(2, 2.0))
        g = J.jassemble((2, 2), [((0, 0), two + x * x), ((1, 1), two), ((0, 1), x), ((1, 0), x)])
        gi = J.jmatinv(g)
        iden = J.jj("ij,jk->ik", g, gi)
        eye = np.eye(2)[:, :, None, None]
        target = np.zeros_like(iden.c)
        target[:, :, 0, :] = eye[:, :, 0, :]
        assert np.allclose(iden.c, target, atol=1e-10)


class TestConstAndBatch:
    def test_jconst_batch_conventions(self):
        sp = J.jetspace(2, 1)
        vals = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])  # (nb, 2)
        a = J.jconst(sp, vals)
        assert a.val.shape == (3, 2)
        assert np.allclose(a.val, vals)
        b = J.jconst(sp, vals.T, batch_last=True)
        assert np.allclose(b.val, vals)

    def test_transpose_moves_tensor_axes_only(self):
        sp = J.jetspace(1, 0)
        m = J.jconst(sp, np.arange(12.0).reshape(2, 2, 3))
        t = m.transpose(1, 0)
        assert np.allclose(t.val, np.swapaxes(m.val, 1, 2))


def _truncate(x, order):
    sp = J.jetspace(x.space.nvars, order)
    return J.Jet(sp, x.c[..., :sp.ncoef, :])


def _operands(a, b):
    """Order-3 scalar jets f, g and a 2x2 matrix jet m at the point (a, b)."""
    sp = J.jetspace(2, 3)
    (x, y), _ = _scalar_pair(sp, [[a, b], [b, -a]])
    f = J.jsin(x * y) + x
    g = J.jexp(y) - x * x
    two = J.jconst(sp, np.full(2, 2.0))
    m = J.jassemble((2, 2), [((0, 0), two + x * x), ((1, 1), two + y * y),
                             ((0, 1), x * y), ((1, 0), 0.5 * x)])
    return f, g, m


_TRUST_OPS = {
    "jj": lambda f, g, m: J.jj(",->", f, g),
    "jj-mixed": lambda f, g, m: J.jj("ab,->ab", m, g),
    "add": lambda f, g, m: f + g,
    "sub": lambda f, g, m: f - g,
    "jmatinv": lambda f, g, m: J.jmatinv(m),
    "jsin": lambda f, g, m: J.jsin(f),
}


class TestTrust:
    @pytest.mark.parametrize("op", sorted(_TRUST_OPS))
    @given(a=st.floats(min_value=-1.0, max_value=1.0), b=st.floats(min_value=-1.0, max_value=1.0))
    @settings(max_examples=15, deadline=None)
    def test_truncation_commutes_with_ops(self, op, a, b):
        full = _operands(a, b)
        # "jj-mixed" keeps the matrix at order 3: the result takes the lower order
        low = [x if (op == "jj-mixed" and i == 2) else _truncate(x, 2) for i, x in enumerate(full)]
        got = _TRUST_OPS[op](*low)
        want = _TRUST_OPS[op](*full)
        assert got.ok == 2
        assert np.array_equal(got.c, _truncate(want, 2).c)

    @pytest.mark.parametrize("n,k", [(2, 3), (3, 2), (4, 1)])
    def test_jgrad_drops_one_order(self, n, k):
        sp = J.jetspace(n, k)
        co = J.seed_coordinates(sp, np.full((2, n), 0.3))
        f = J.jsin(J.jj("a,a->", co, co))
        grad = J.jgrad(f)
        assert grad.c.shape[-2] == J.jetspace(n, k - 1).ncoef
        assert grad.ok == k - 1
        assert J.jpartial(f, 0).space is grad.space

    def test_value_past_budget_raises(self):
        sp = J.jetspace(2, 1)
        (x, y), _ = _scalar_pair(sp, [[0.1, 0.2]])
        once = J.jgrad(x * y)
        assert np.allclose(once.val, [[0.2, 0.1]])
        with pytest.raises(ValueError):
            J.jgrad(once).val

    def test_mismatched_coefficients_rejected(self):
        sp = J.jetspace(2, 2)
        with pytest.raises(ValueError):
            J.Jet(sp, np.zeros((J.jetspace(2, 1).ncoef, 1)))
