"""Truncated Taylor arithmetic: algebra, calculus rules, and guards."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nklab import jets as J
from oracles import COS_SQRT

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
        # f(x) = cos(sin x): f'' = sin(sin x) sin x - cos(sin x) cos^2 x
        sp = J.jetspace(1, 4)
        p = 0.37
        (x,), _ = _scalar_pair(sp, [[p]])
        f = J.jcos(J.jsin(x))
        d2 = 2.0 * f.c[sp.index[(2,)]]
        want = np.sin(np.sin(p)) * np.sin(p) - np.cos(np.sin(p)) * np.cos(p) ** 2
        assert abs(d2[0] - want) < 1e-12

    # jcompose with series whose derivatives do not cycle: the binomial
    # series of sqrt, and exp followed by log

    @given(a=st.floats(min_value=0.1, max_value=4.0))
    @settings(max_examples=25, deadline=None)
    def test_sqrt_squares_back(self, a):
        sp = J.jetspace(1, 3)
        (x,), _ = _scalar_pair(sp, [[a]])
        u0 = x.value_row
        coeffs = [np.sqrt(u0)]
        for k in range(1, 4):
            coeffs.append(coeffs[-1] * (0.5 - (k - 1)) / (k * u0))
        r = J.jcompose(x, coeffs)
        assert np.allclose((r * r).c, x.c, atol=1e-10)

    def test_log_exp_roundtrip(self):
        sp = J.jetspace(1, 4)
        (x,), _ = _scalar_pair(sp, [[0.8]])
        e = J.jcompose(x, [np.exp(x.value_row) / math.factorial(k) for k in range(5)])
        e0 = e.value_row
        log = J.jcompose(e, [np.log(e0)] + [(-1.0) ** (k + 1) * e0 ** (-k) / k for k in range(1, 5)])
        assert np.allclose(log.c, x.c, atol=1e-12)


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

    @pytest.mark.parametrize("spec", ["p,p->", "az,a->", "a,b->ap"])
    def test_reserved_letter_named_before_any_array_work(self, spec):
        # operands that are not jets: the spec must be refused before they are read
        letter = next(ch for ch in spec if ch in "pz")
        with pytest.raises(ValueError, match=f"'{letter}'"):
            J.jj(spec, None, None)

    @pytest.mark.parametrize("spec", ["aa,a->a", "ab,b->aa", "ab,b->c", "abc,b->a"])
    def test_malformed_spec_rejected(self, spec):
        sp = J.jetspace(1, 1)
        a = J.jconst(sp, np.ones((1, 2, 2)))
        b = J.jconst(sp, np.ones((1, 2)))
        with pytest.raises(ValueError):
            J.jj(spec, a, b)

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
    g = J.jcos(y) - x * x
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

    @pytest.mark.parametrize("fn", [
        J.jmatinv, J.jsin, J.jcos, J.jrecip,
        lambda u: J.jentire(u, J.SINC_SQRT),
        lambda u: J.jcompose(u, [np.ones(2), np.ones(2)]),
    ])
    def test_functions_of_an_empty_jet_raise_the_trust_error(self, fn):
        # a jet differentiated past its seeded order has no value row left
        sp = J.jetspace(2, 0)
        x = J.jconst(sp, np.full((2, 2, 2), 0.5) + np.eye(2))
        empty = J.jgrad(x if fn is J.jmatinv else x[0, 0])[0]
        assert empty.c.shape[-2] == 0
        with pytest.raises(ValueError, match="derivative orders"):
            fn(empty)

    def test_mismatched_coefficients_rejected(self):
        sp = J.jetspace(2, 2)
        with pytest.raises(ValueError):
            J.Jet(sp, np.zeros((J.jetspace(2, 1).ncoef, 1)))


def _reduceat_jj(spec, x, y):
    """Reference kernel: gather every coefficient pair, one einsum, reduceat.

    Builds its own pair table from the monomials, so it shares no index
    table with ``jj``.
    """
    sp = J._lower(x, y)
    pairs = sorted((sp.index[tuple(u + v for u, v in zip(ma, mb))], ia, ib)
                   for ia, ma in enumerate(sp.monomials)
                   for ib, mb in enumerate(sp.monomials)
                   if sum(ma) + sum(mb) <= sp.order)
    tgt, ia, ib = (np.array(col, dtype=np.int64) for col in zip(*pairs))
    lhs, rhs = spec.split("->")
    a, b = lhs.split(",")
    prod = np.einsum(f"{a}pz,{b}pz->{rhs}pz", x.c[..., ia, :], y.c[..., ib, :])
    return np.add.reduceat(prod, np.searchsorted(tgt, np.arange(sp.ncoef)), axis=-2)


# every spec class the lab uses, and a letter summed away; the tensor sizes
# differ per letter so that a transposed output cannot pass
_KERNEL_SPECS = {
    "ab,bc->ac": ((2, 3), (3, 2)),  # contraction
    "ai,i->a": ((3, 2), (2,)),
    "c,de->cde": ((2,), (3, 2)),  # outer product
    "ab,ab->": ((2, 3), (2, 3)),  # every letter contracted
    "iab,ib->ai": ((3, 2, 2), (3, 2)),  # i shared by both operands and the output
    ",->": ((), ()),  # scalar
    ",ai->ia": ((), (2, 3)),  # permuted output
    "mib,amc->iabc": ((2, 3, 2), (3, 2, 2)),  # 3-tensor contractions
    "mic,abm->iabc": ((2, 3, 2), (3, 2, 2)),
    "xac,ac->x": ((2, 3, 2), (3, 2)),
    "ab,bc->c": ((3, 2), (2, 3)),  # a summed away before the product
    "bj,ib->ij": ((2, 3), (4, 2)),  # swapped: the rows come from y
    "a,b->ba": ((2,), (3,)),
}

# each swapped spec, and the same product with its two output letters in the
# order that does not swap
_SWAPPED = {"bj,ib->ij": "bj,ib->ji", "a,b->ba": "a,b->ab"}


def _random_jet(rng, nvars, order, tshape, nbatch):
    sp = J.jetspace(nvars, order)
    return J.Jet(sp, rng.uniform(-1.0, 1.0, size=(*tshape, sp.ncoef, nbatch)))


class TestSegmentKernel:
    @pytest.mark.parametrize("spec", sorted(_KERNEL_SPECS))
    @pytest.mark.parametrize("nvars", [4, 6])
    @pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("nbatch", [1, 50])
    def test_matches_reduceat_kernel(self, spec, nvars, order, nbatch):
        rng = np.random.default_rng(order + 10 * nvars + nbatch)
        ta, tb = _KERNEL_SPECS[spec]
        x = _random_jet(rng, nvars, order, ta, nbatch)
        y = _random_jet(rng, nvars, order, tb, nbatch)
        # same order, and each operand in turn the higher-order one
        low_x = _truncate(x, max(order - 1, 0))
        low_y = _truncate(y, max(order - 1, 0))
        for u, v in ((x, y), (low_x, y), (x, low_y)):
            got = J.jj(spec, u, v)
            want = _reduceat_jj(spec, u, v)
            assert got.space is J._lower(u, v)
            assert got.c.shape == want.shape
            assert np.max(np.abs(got.c - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("spec", sorted(_SWAPPED))
    @pytest.mark.parametrize("order", [1, 3])
    def test_swap_carries_the_segment_tables(self, spec, order):
        # x keeps seg_a when the rows come from y, so each coefficient sums
        # the same pairs in the same order: equal bit for bit to the
        # product that does not swap
        rng = np.random.default_rng(order)
        ta, tb = _KERNEL_SPECS[spec]
        x = _random_jet(rng, 6, order, ta, 9)
        y = _random_jet(rng, 6, order, tb, 9)
        plain = _SWAPPED[spec]
        assert J._pair_layout(spec).swap and not J._pair_layout(plain).swap
        got = J.jj(spec, x, y).c
        want = J.jj(plain, x, y).c
        assert np.array_equal(got, want.swapaxes(0, 1))

    @pytest.mark.parametrize("nvars,order", [(1, 0), (2, 1), (4, 3), (6, 3), (4, 4)])
    def test_segment_table_lists_every_pair_once(self, nvars, order):
        sp = J.jetspace(nvars, order)
        real = sp.seg_a < sp.ncoef
        assert np.array_equal(real, sp.seg_b < sp.ncoef)
        assert sp.seg_a.shape == (sp.ncoef, real.sum(axis=1).max())
        mono = np.array(sp.monomials)
        target = np.broadcast_to(np.arange(sp.ncoef)[:, None], real.shape)[real]
        got = sorted(zip(target, sp.seg_a[real], sp.seg_b[real]))
        want = sorted((sp.index[tuple(mono[a] + mono[b])], a, b)
                      for a, b in zip(sp.mul_a, sp.mul_b))
        assert got == want


# ---------------------------------------------------------------------------
# order 0 is one einsum; constants enter products as arrays

# order-0 signatures the lab runs (spec: tensor shapes), plus a letter
# summed away before the product, which no lab spec has
_ORDER0_SPECS = {
    ",ad->ad": ((), (3, 3)),
    ",->": ((), ()),
    "i,j->ij": ((6,), (6,)),  # outer products
    "c,de->cde": ((6,), (6, 6)),
    "B,jC->BjC": ((7,), (6, 7)),
    "bm,am->ab": ((6, 6), (6, 6)),
    "ai,aj->ij": ((3, 3), (3, 3)),
    "kA,Aj->kj": ((6, 7), (7, 6)),
    "a,a->": ((3,), (3,)),
    "m,mab->ab": ((6,), (6, 6, 6)),
    "mia,mbc->iabc": ((6, 6, 6), (6, 6, 6)),
    "mic,abm->iabc": ((6, 6, 6), (6, 6, 6)),
    "mia,m->ia": ((4, 4, 4), (4,)),
    "ab,bc->c": ((3, 2), (2, 3)),
}


class TestOrderZero:
    @pytest.mark.parametrize("spec", sorted(_ORDER0_SPECS))
    @pytest.mark.parametrize("nbatch", [1, 37])
    def test_matches_segment_kernel(self, spec, nbatch):
        rng = np.random.default_rng(nbatch)
        ta, tb = _ORDER0_SPECS[spec]
        x = _random_jet(rng, 6, 0, ta, nbatch)
        y = _random_jet(rng, 6, 0, tb, nbatch)
        got = J.jj(spec, x, y)
        want = _reduceat_jj(spec, x, y)
        assert got.space is x.space
        assert got.c.shape == want.shape
        assert np.max(np.abs(got.c - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("spec", [",ad->ad", ",->", "c,de->cde", "bm,am->ab", "ab,bc->c"])
    def test_nan_reaches_the_same_entries(self, spec):
        rng = np.random.default_rng(3)
        ta, tb = _ORDER0_SPECS[spec]
        x = _random_jet(rng, 6, 0, ta, 5)
        y = _random_jet(rng, 6, 0, tb, 5)
        x.c[(0,) * len(ta) + (0, 1)] = np.nan
        y.c[(-1,) * len(tb) + (0, 3)] = np.nan
        got = J.jj(spec, x, y).c
        want = _reduceat_jj(spec, x, y)
        assert np.isnan(want).any() and not np.isnan(want).all()
        assert np.array_equal(np.isnan(got), np.isnan(want))
        fin = ~np.isnan(want)
        assert np.max(np.abs(got[fin] - want[fin])) <= 1e-13 * np.max(np.abs(want[fin]))


def _batched(spec):
    """``spec`` with a batch letter z leading both operands and the output."""
    lhs, rhs = spec.split("->")
    a, b = lhs.split(",")
    return f"z{a},z{b}->z{rhs}"


# specs beyond the order-0 jj ones, over plain arrays (z: the batch letter)
_PAIR_SPECS = {
    "zab,zc->zc": ((3, 4), (5,)),  # a and b summed away before the product
    "z,z->z": ((), ()),  # scalar operands
    "z,zab->zab": ((), (3, 4)),
    ",->": ((), ()),  # no batch at all
    "zij,zkj->kzi": ((3, 4), (5, 4)),  # the batch letter inside the output
    "ab,zbc->zac": ((3, 4), (4, 2)),  # an operand without the batch letter
}


def _pair_operands(spec, shapes, nbatch, dtype, rng):
    ops = []
    for term, shape in zip(spec.split("->")[0].split(","), shapes):
        full = (nbatch, *shape) if term.startswith("z") else shape
        op = rng.uniform(-1.0, 1.0, size=full)
        if dtype is complex:
            op = op + 1j * rng.uniform(-1.0, 1.0, size=full)
        ops.append(op)
    return ops


_ALL_PAIR_SPECS = {**{_batched(k): v for k, v in _ORDER0_SPECS.items()}, **_PAIR_SPECS}


class TestPairKernel:
    """``einsum2``: the one matmul kernel of plain arrays, which order-0
    ``jj``, ``jb`` and ``chart.contract`` run, on the layout plan that
    ``jj`` reads at every order."""

    @pytest.mark.parametrize("spec", sorted(_ALL_PAIR_SPECS))
    @pytest.mark.parametrize("nbatch", [1, 8, 37])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_matches_einsum(self, spec, nbatch, dtype):
        rng = np.random.default_rng(nbatch)
        x, y = _pair_operands(spec, _ALL_PAIR_SPECS[spec], nbatch, dtype, rng)
        want = np.einsum(spec, x, y)
        got = J.einsum2(spec, x, y)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-13 * np.max(np.abs(want))

    def test_a_complex_operand_with_a_real_one(self):
        rng = np.random.default_rng(0)
        x = _pair_operands("zab,zbc->zac", ((3, 4), (4, 2)), 5, complex, rng)[0]
        y = rng.uniform(-1.0, 1.0, size=(5, 4, 2))
        want = np.einsum("zab,zbc->zac", x, y)
        assert np.max(np.abs(J.einsum2("zab,zbc->zac", x, y) - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("spec,shapes", [("zab,zbc->zac", ((3, 4), (4, 2))),
                                             ("zbm,zam->zab", ((3, 4), (2, 4))),
                                             ("zab,zc->zc", ((3, 4), (5,))),
                                             ("z,zab->zab", ((), (3, 4)))])
    def test_nan_reaches_the_same_entries(self, spec, shapes):
        # a zero in the other operand does not stop a NaN, as in einsum
        rng = np.random.default_rng(3)
        x, y = _pair_operands(spec, shapes, 5, float, rng)
        x[(1,) * x.ndim] = np.nan
        y[(1,) * y.ndim] = 0.0
        y[(3,) + (0,) * (y.ndim - 1)] = np.nan
        want = np.einsum(spec, x, y)
        with np.errstate(invalid="ignore"):
            got = J.einsum2(spec, x, y)
        assert np.isnan(want).any() and not np.isnan(want).all()
        assert np.array_equal(np.isnan(got), np.isnan(want))

    @pytest.mark.parametrize("spec", sorted(_ORDER0_SPECS))
    def test_order0_jj_values_lead_with_the_batch(self, spec):
        # the product is the matmul result, batch-leading, as the checks read
        # it; C-contiguous unless the output interleaves the two operands'
        # letters ("mic,abm->iabc": i, c from one operand, a, b between)
        rng = np.random.default_rng(5)
        ta, tb = _ORDER0_SPECS[spec]
        got = J.jj(spec, _random_jet(rng, 6, 0, ta, 37), _random_jet(rng, 6, 0, tb, 37)).val
        assert got.strides[0] == got.itemsize * math.prod(got.shape[1:])
        assert got.flags.c_contiguous == (spec != "mic,abm->iabc")

    @pytest.mark.parametrize("spec,shapes", [("zab,zbc->zac", ((6, 6), (6, 6))),
                                             ("zmia,zmbc->ziabc", ((6, 6, 6), (6, 6, 6))),
                                             ("z,zab->zab", ((), (3, 4))),
                                             ("zai,zi->za", ((6, 6), (6,))),
                                             ("zbm,zam->zab", ((3, 4), (2, 4)))])
    def test_a_points_product_does_not_depend_on_its_chunk(self, spec, shapes):
        # 37 points at once and as the chunks [0:16], [16:37], bit for bit
        rng = np.random.default_rng(11)
        x, y = _pair_operands(spec, shapes, 37, float, rng)
        whole = J.einsum2(spec, x, y)
        parts = [J.einsum2(spec, x[rows], y[rows]) for rows in J.chunks(37, 16)]
        assert np.array_equal(whole, np.concatenate(parts))


def _neumann_matinv(g):
    """``jmatinv`` with I and g0^-1 as constant jets: order + 1 products."""
    sp = g.space
    d = g.tshape[-1]
    g0 = np.moveaxis(g.c[..., 0, :], -1, 0)
    inv0 = np.linalg.inv(g0)
    dg = g.c.copy()
    dg[..., 0, :] = 0.0
    n = J.jb("ab,bc->ac", inv0, J.Jet(sp, dg))
    eye = J.jconst(sp, np.broadcast_to(np.eye(d), g0.shape).copy())
    acc = term = eye
    for _ in range(sp.order):
        term = -J.jj("ab,bc->ac", term, n)
        acc = acc + term
    return J.jj("ab,bc->ac", acc, J.jconst(sp, inv0))


def _horner_compose(u, coeffs):
    """``jcompose`` with every coefficient as a constant jet."""
    sp = u.space
    du = u.c.copy()
    du[..., 0, :] = 0.0
    dU = J.Jet(sp, du)
    res = J.jconst(sp, coeffs[-1], batch_last=True)
    for k in range(len(coeffs) - 2, -1, -1):
        res = J.jj(",->", res, dU) + J.jconst(sp, coeffs[k], batch_last=True)
    return res


def _count_jj(monkeypatch):
    calls = []
    orig = J.jj

    def counted(spec, x, y):
        calls.append(spec)
        return orig(spec, x, y)

    monkeypatch.setattr(J, "jj", counted)
    return calls


def _matrix_jet(rng, order):
    """A 3x3 matrix jet whose value is well conditioned."""
    g = _random_jet(rng, 3, order, (3, 3), 4)
    g.c[..., 0, :] += 3.0 * np.eye(3)[..., None]
    return g


class TestConstantOperands:
    @pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
    def test_jmatinv_matches_neumann_form_and_inverse(self, order):
        g = _matrix_jet(np.random.default_rng(order), order)
        got = J.jmatinv(g)
        want = _neumann_matinv(g)
        assert got.space is g.space
        assert np.max(np.abs(got.c - want.c)) <= 1e-13 * np.max(np.abs(want.c))
        assert np.allclose(got.val, np.linalg.inv(g.val), rtol=1e-14, atol=0.0)
        iden = J.jj("ab,bc->ac", g, got).c
        iden[..., 0, :] -= np.eye(3)[..., None]
        assert np.max(np.abs(iden)) < 1e-13

    @pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
    def test_jcompose_matches_horner_form(self, order):
        rng = np.random.default_rng(order)
        u = _random_jet(rng, 3, order, (), 4)
        coeffs = list(rng.uniform(-1.0, 1.0, size=(order + 1, 4)))
        got = J.jcompose(u, coeffs)
        want = _horner_compose(u, coeffs)
        assert got.space is u.space
        assert np.max(np.abs(got.c - want.c)) <= 1e-13 * np.max(np.abs(want.c))

    @pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
    def test_products_only_of_two_jets(self, order, monkeypatch):
        rng = np.random.default_rng(order)
        g = _matrix_jet(rng, order)
        u = _random_jet(rng, 3, order, (), 4)
        coeffs = list(rng.uniform(-1.0, 1.0, size=(order + 1, 4)))
        calls = _count_jj(monkeypatch)
        J.jmatinv(g)
        assert len(calls) == max(order - 1, 0)
        calls.clear()
        J.jcompose(u, coeffs)
        assert len(calls) == max(len(coeffs) - 2, 0)


# ---------------------------------------------------------------------------
# functions of a jet against their reference forms

# jb signatures: (constant shape without the batch axis, jet tensor shape);
# the sizes differ per letter so that a transposed output cannot pass
_JB_SPECS = {
    "ab,bc->ac": ((2, 3), (3, 4)),  # jmatinv's two products
    "bc,ab->ac": ((3, 4), (2, 3)),
    "ab,b->a": ((2, 3), (3,)),
    "a,bc->cab": ((2,), (3, 4)),  # outer product, permuted output
    "ab,ab->": ((2, 3), (2, 3)),  # scalar output
    ",->": ((), ()),
    "iab,ib->ai": ((3, 2, 4), (3, 4)),  # i shared by both operands and the output
    "ab,bc->c": ((2, 3), (3, 4)),  # a summed away from the constant
    "ab,bcd->ac": ((2, 3), (3, 4, 2)),  # d summed away from the jet
}


def _maclaurin_sum(u, series):
    """sum_m a_m u^m, term by term, each power of u a jet product."""
    acc = J.Jet(u.space, np.zeros_like(u.c)) + series[0]
    pw = u
    for a in series[1:]:
        acc = acc + a * pw
        pw = pw * u
    return acc


class TestFunctionKernels:
    @pytest.mark.parametrize("spec", sorted(_JB_SPECS))
    @pytest.mark.parametrize("order", [0, 1, 3])
    @pytest.mark.parametrize("nbatch", [1, 7])
    def test_jb_matches_einsum(self, spec, order, nbatch):
        rng = np.random.default_rng(order + 10 * nbatch)
        tc, tx = _JB_SPECS[spec]
        const = rng.uniform(-1.0, 1.0, size=(nbatch, *tc))
        x = _random_jet(rng, 3, order, tx, nbatch)
        lhs, rhs = spec.split("->")
        a, b = lhs.split(",")
        want = np.einsum(f"{a}z,{b}pz->{rhs}pz", np.moveaxis(const, 0, -1), x.c)
        got = J.jb(spec, const, x)
        assert got.space is x.space
        assert got.c.shape == want.shape
        assert np.max(np.abs(got.c - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("spec", ["pa,ab->b", "ab,bz->a", "a,b->ap"])
    def test_jb_refuses_reserved_letters(self, spec):
        letter = next(ch for ch in spec if ch in "pz")
        with pytest.raises(ValueError, match=f"'{letter}'"):
            J.jb(spec, None, None)

    @pytest.mark.parametrize("name", ["SINC_SQRT", "COS_SQRT", "VERSINE_RATIO", "SINC_DEFECT"])
    @pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
    def test_jentire_matches_maclaurin_sum(self, name, order):
        series = COS_SQRT if name == "COS_SQRT" else getattr(J, name)
        rng = np.random.default_rng(order)
        # a square norm like the exponential chart's s = |x|^2, 4 s included
        x = _random_jet(rng, 3, order, (3,), 6)
        u = 2.0 * J.jj("a,a->", x, x)
        got = J.jentire(u, series)
        want = _maclaurin_sum(u, series)
        assert got.space is u.space
        assert np.max(np.abs(got.c - want.c)) <= 2e-15 * np.max(np.abs(want.c))

    @pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
    def test_stacked_series_compose_at_once(self, order):
        # F Maclaurin tables give the (F,)-jet of the F functions, each as
        # its own table gives it, in one Horner chain of "f,->f" products
        table = np.stack([J.SINC_SQRT, J.VERSINE_RATIO, COS_SQRT, -J.SINC_DEFECT])
        x = _random_jet(np.random.default_rng(order), 3, order, (3,), 6)
        u = 2.0 * J.jj("a,a->", x, x)
        got = J.jentire(u, table)
        assert got.space is u.space and got.tshape == (4,)
        for f, series in enumerate(table):
            want = _maclaurin_sum(u, series)
            assert np.max(np.abs(got[f].c - want.c)) <= 2e-15 * np.max(np.abs(want.c)), f

    @pytest.mark.parametrize("nvars,order", [(1, 0), (2, 1), (4, 3), (6, 2)])
    def test_jgrad_stacks_the_partials(self, nvars, order):
        x = _random_jet(np.random.default_rng(order), nvars, order, (2, 3), 5)
        got = J.jgrad(x)
        want = np.stack([J.jpartial(x, v).c for v in range(nvars)])
        assert got.space is J.jpartial(x, 0).space
        assert np.array_equal(got.c, want)
