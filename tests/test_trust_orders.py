"""Every jet product runs only to the order its result keeps.

A derivative lands one order below its argument, so a product added to a
derivative has to be computed in the derivative's space: computed one
order higher, its top order is thrown away by ``+``.  These tests spy on
``jets.jj`` to check that the calculus functions, the ansatz residual and
a whole lab run compute no coefficient that is then discarded, and they
compare each truncated function with its untruncated formula, kept here.
A product with a constant jet spends its pair work on zeros, so the lab
is also checked to multiply no jet built by ``jconst``.  Outside the
chart fields, each context inverts each metric field once, one order
below its own.  In exact mode a session evaluates each chart field once
per chunk, in its one context of the root order.
"""
import importlib
import pkgutil
import sys
import weakref
from collections import Counter

import numpy as np
import pytest

import nklab
from nklab import ansatz as A
from nklab import calculus as C
from nklab import exterior as E
from nklab import chart as CH
from nklab import jets as J
from nklab import models as M
from nklab import nkcore as NK
from nklab import suites
from nklab.chart import EvalContext, sample_points
from nklab.exterior import d_form, wedge_jet

ORDERS = [1, 2, 3, 4]
MODELS = ["s3s3", "s6"]


def _ctx(bundle, order):
    pts = sample_points(bundle.chart, 3, np.random.default_rng(order))
    return EvalContext(bundle.chart, pts, order)


def _nklab_modules():
    return [importlib.import_module(f"nklab.{m.name}")
            for m in pkgutil.iter_modules(nklab.__path__)]


def _wrap(monkeypatch, orig, after):
    """Bind, in every nklab namespace that holds ``orig``, a wrapper that
    calls ``after(out, *args)`` on each call's output."""

    def wrapper(*args, **kwargs):
        out = orig(*args, **kwargs)
        after(out, *args)
        return out

    for mod in _nklab_modules():
        for name, val in list(vars(mod).items()):
            if val is orig:
                monkeypatch.setattr(mod, name, wrapper)


def _wrap_jj(monkeypatch, after):
    _wrap(monkeypatch, J.jj, lambda out, spec, x, y: after(spec, x, y, out))


@pytest.fixture
def spy(monkeypatch):
    """The outputs of the ``jj`` calls made from here on."""
    outs = []
    _wrap_jj(monkeypatch, lambda spec, x, y, out: outs.append(out))
    return outs


def _assert_products_in(outs, space):
    assert outs, "no jet product was made"
    assert [o.space.order for o in outs] == [space.order] * len(outs)


def _assert_same(new, ref, *inputs, rel=1e-14):
    """``new`` equals ``ref`` to ``rel`` of the largest coefficient of ``ref``
    and of the ``inputs`` (a result that cancels to zero is rounding noise)."""
    assert new.space is ref.space
    scale = max(float(np.max(np.abs(x.c), initial=0.0)) for x in (ref, *inputs))
    assert float(np.max(np.abs(new.c - ref.c), initial=0.0)) <= rel * scale


# ---------------------------------------------------------------------------
# the untruncated formulas: operands at full order, cut only by + and -


def _covd_ref(ctx, t, kinds, gamma=None):
    gamma = C.christoffel(ctx) if gamma is None else gamma
    out = J.jgrad(t)
    letters = [chr(ord("a") + q) for q in range(len(kinds))]
    base = "".join(letters)
    for q, kind in enumerate(kinds):
        src = letters[q]
        rest = base.replace(src, "m")
        if kind == "u":
            out = out + J.jj(f"{src}im,{rest}->i{base}", gamma, t)
        else:
            out = out - J.jj(f"mi{src},{rest}->i{base}", gamma, t)
    return out


def _christoffel_ref(g):
    ginv = J.jmatinv(g)
    dg = J.jgrad(g)
    s = J.junary("ijl->lij", dg) + J.junary("jil->lij", dg) - J.junary("lij->lij", dg)
    return 0.5 * J.jj("kl,lij->kij", ginv, s)


def _riemann_ref(ctx):
    gam = C.christoffel(ctx)
    dgam = J.jgrad(gam)
    t1 = J.junary("iljk->lijk", dgam)
    t2 = J.junary("jlik->lijk", dgam)
    q1 = J.jj("lim,mjk->lijk", gam, gam)
    q2 = J.jj("ljm,mik->lijk", gam, gam)
    return t1 - t2 + q1 - q2


def _lie_ref(xfield, t, kinds):
    dX = J.jgrad(xfield)
    dT = J.jgrad(t)
    letters = [chr(ord("a") + q) for q in range(len(kinds))]
    base = "".join(letters)
    out = J.jj(f"m,m{base}->{base}", xfield, dT)
    for q, kind in enumerate(kinds):
        src = letters[q]
        rest = base.replace(src, "m")
        if kind == "l":
            out = out + J.jj(f"{src}m,{rest}->{base}", dX, t)
        else:
            out = out - J.jj(f"m{src},{rest}->{base}", dX, t)
    return out


def _twisted_ref(ctx, gauge, conjugate):
    re, im = A.tautological_pair(ctx, gauge, conjugate)
    theta, _ = A.connection_forms(ctx)
    res_re = d_form(re, 2) + wedge_jet(theta, 1, im, 2)
    res_im = d_form(im, 2) - wedge_jet(theta, 1, re, 2)
    return float(max(np.max(np.abs(res_re.val)), np.max(np.abs(res_im.val))))


# ---------------------------------------------------------------------------
# (a) products run in the result's space, (d) and match the formulas


def _covd_cases(ctx):
    cases = [(NK.j_field(ctx), "ul", None), (NK.omega_field(ctx), "ll", None)]
    if ctx.order >= 2:
        low = J.jetspace(ctx.space.nvars, ctx.order - 2)
        cases += [(NK.nabla_j(ctx), "lul", None),               # a derived tensor
                  (ctx.root("J"), "ul", C.christoffel(ctx).truncate(low))]  # a lower gamma
    return cases


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("model", MODELS)
def test_covd(request, model, order, monkeypatch):
    ctx = _ctx(request.getfixturevalue(model), order)
    for t, kinds, gamma in _covd_cases(ctx):
        outs = []
        with monkeypatch.context() as mp:
            _wrap_jj(mp, lambda spec, x, y, out: outs.append(out))
            new = C.covd(ctx, t, kinds, gamma=gamma)
        _assert_products_in(outs, new.space)
        _assert_same(new, _covd_ref(ctx, t, kinds, gamma), t)


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("model", MODELS)
def test_christoffel(request, model, order, monkeypatch):
    ctx = _ctx(request.getfixturevalue(model), order)
    g, ginv = C.metric(ctx), C.metric_inv(ctx)
    outs = []
    with monkeypatch.context() as mp:
        _wrap_jj(mp, lambda spec, x, y, out: outs.append(out))
        new = C._christoffel_from(g, ginv)
    _assert_products_in(outs, new.space)
    _assert_same(new, _christoffel_ref(g), g)
    _assert_same(C.christoffel(ctx), new, rel=0.0)


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("model", MODELS)
def test_riemann(request, model, order, spy):
    ctx = _ctx(request.getfixturevalue(model), order)
    C.christoffel(ctx)
    spy.clear()
    new = C.riemann(ctx)
    # (b) one Gamma.Gamma product: the other term is its transpose
    assert len(spy) == 1
    _assert_products_in(spy, new.space)
    _assert_same(new, _riemann_ref(ctx), C.christoffel(ctx))


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("model", MODELS)
def test_lie_derivative(request, model, order, monkeypatch):
    ctx = _ctx(request.getfixturevalue(model), order)
    xi = ctx.root("xi")
    cases = [(C.metric(ctx), "ll"), (NK.j_field(ctx), "ul")]
    if order >= 2:
        cases.append((NK.nabla_j(ctx), "lul"))  # lower than the field
    for t, kinds in cases:
        outs = []
        with monkeypatch.context() as mp:
            _wrap_jj(mp, lambda spec, x, y, out: outs.append(out))
            new = C.lie_derivative(ctx, xi, t, kinds)
        _assert_products_in(outs, new.space)
        _assert_same(new, _lie_ref(xi, t, kinds), t)


@pytest.mark.parametrize("order", ORDERS)
def test_twisted_parallel_residual(ansatz_bundle, order, monkeypatch):
    # a value: Phi is cut to order 1, so its products are values
    ctx = _ctx(ansatz_bundle, order)
    wedge_space = J.jetspace(ctx.space.nvars, 0)
    for gauge, conjugate in ((A.DEFAULT_GAUGE, False), ((0, 0), False), ((1, -2), True)):
        A.tautological_pair(ctx, gauge, conjugate)
        A.connection_forms(ctx)
        outs = []
        with monkeypatch.context() as mp:
            _wrap_jj(mp, lambda spec, x, y, out: outs.append(out))
            new = np.max(A.twisted_parallel_residual(ctx, gauge, conjugate))
        _assert_products_in(outs, wedge_space)
        ref = _twisted_ref(ctx, gauge, conjugate)
        assert abs(new - ref) <= 1e-14 * max(ref, 1.0)


# ---------------------------------------------------------------------------
# (c) the second covariant derivative reuses the memoized first one


@pytest.mark.parametrize("order", [2, 3])
@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("field,kinds", [pytest.param(NK.j_field, "ul", id="j_field-ul-J"),
                                         pytest.param(NK.omega_field, "ll", id="omega_field-ll-omega")])
def test_second_covd_reuses_covd_field(request, model, order, field, kinds, spy):
    ctx = _ctx(request.getfixturevalue(model), order)
    first = C.covd_field(ctx, field, kinds)
    field(ctx)
    spy.clear()
    new = C.second_covd_field(ctx, field, kinds)
    # only the outer derivative's slot corrections, one per slot of first
    assert len(spy) == len(kinds) + 1
    assert all(o.tshape == new.tshape for o in spy)
    _assert_same(new, _covd_ref(ctx, _covd_ref(ctx, field(ctx), kinds), "l" + kinds), first)
    assert first is C.covd_field(ctx, field, kinds)


# ---------------------------------------------------------------------------
# (e) a whole lab run computes no coefficient that a consumer throws away


class _Discarded:
    """Products (``jj`` and ``wedge_jet`` outputs) that a later ``jj``, ``+``
    or ``-`` truncates and that no context memo holds."""

    def __init__(self):
        self.live = {}      # id of a live product -> its token
        self.where = {}     # token -> the function that made it
        self.cut = set()
        self.held = set()

    def made(self, out):
        token = len(self.where)
        caller = sys._getframe(3).f_code  # made <- after <- wrapper <- caller
        self.where[token] = f"{caller.co_qualname} ({caller.co_filename.rsplit('/', 1)[-1]})"
        self.live[id(out)] = token
        weakref.finalize(out, self.live.pop, id(out), None)

    def consumed(self, operand, out):
        if isinstance(operand, J.Jet) and operand.space.order > out.space.order:
            token = self.live.get(id(operand))
            if token is not None:
                self.cut.add(token)

    def hold(self, value):
        for x in value if isinstance(value, tuple) else (value,):
            token = self.live.get(id(x))
            if token is not None:
                self.held.add(token)

    def count(self):
        return Counter(self.where[t] for t in self.cut - self.held)


def test_lab_computes_no_discarded_orders(monkeypatch):
    rec = _Discarded()

    def after_jj(out, spec, x, y):
        rec.consumed(x, out)
        rec.consumed(y, out)
        rec.made(out)

    _wrap(monkeypatch, J.jj, after_jj)
    _wrap(monkeypatch, E.wedge_jet, lambda out, *args: rec.made(out))

    def consumer(op):
        def wrapped(self, other):
            out = op(self, other)
            rec.consumed(self, out)
            rec.consumed(other, out)
            return out
        return wrapped

    def holder(get):
        def wrapped(self, *args):
            out = get(self, *args)
            rec.hold(out)
            return out
        return wrapped

    monkeypatch.setattr(J.Jet, "__add__", consumer(J.Jet.__add__))
    monkeypatch.setattr(J.Jet, "__sub__", consumer(J.Jet.__sub__))
    monkeypatch.setattr(EvalContext, "root", holder(EvalContext.root))
    monkeypatch.setattr(EvalContext, "memo", holder(EvalContext.memo))
    results = suites.run(samples=4, mode="exact")
    assert results and rec.where
    discarded = rec.count()
    assert not discarded, (f"{sum(discarded.values())} products computed above the "
                           f"order their consumer keeps: {dict(discarded)}")


# ---------------------------------------------------------------------------
# (f) a constant enters a product as an array, never as a jet built by jconst


def test_lab_multiplies_no_constant_jet(monkeypatch):
    """A jet from ``jconst`` carries only zero derivative coefficients, so
    a product with it above order 0 spends its pair work on zeros; the
    constant belongs in ``jc``/``jb`` or on the value row."""
    consts = {}
    where = Counter()

    def after_jj(out, spec, x, y):
        if out.space.order >= 1 and (id(x) in consts or id(y) in consts):
            caller = sys._getframe(2).f_code  # after <- wrapper <- caller
            where[f"{caller.co_qualname} ({spec})"] += 1

    def after_jconst(out, *args):
        consts[id(out)] = out  # held, so the id is not reused

    _wrap(monkeypatch, J.jj, after_jj)
    _wrap(monkeypatch, J.jconst, after_jconst)
    results = suites.run(samples=4, mode="exact")
    assert results and consts
    assert not where, f"{sum(where.values())} products by a constant jet: {dict(where)}"


# ---------------------------------------------------------------------------
# (g) each context inverts each metric field once, one order below its own


@pytest.mark.parametrize("mode", ["exact", "fd"])
def test_each_context_inverts_each_metric_once(monkeypatch, mode):
    """Every reader of a metric inverse meets a derivative of the metric
    first or reads its value, so a context of order k needs it at order
    max(k - 1, 0) alone.  A chart field that inverts a matrix (the
    ``ansatz`` J) is a root, evaluated at every order, and is not counted."""
    inverses = {}  # (context id, metric values) -> (context, orders built)

    def after_jmatinv(out, g):
        frame, ctx = sys._getframe(2), None  # after <- wrapper <- caller
        while frame is not None:
            if frame.f_code is EvalContext.root.__code__:
                return
            if ctx is None:
                ctx = next((v for v in frame.f_locals.values()
                            if isinstance(v, EvalContext)), None)
            frame = frame.f_back
        key = (id(ctx), hash(g.val.tobytes()))  # the context is held: ids are not reused
        inverses.setdefault(key, (ctx, []))[1].append(out.space.order)

    _wrap(monkeypatch, J.jmatinv, after_jmatinv)
    results = suites.run(samples=4, mode=mode)
    assert results and inverses
    assert all(ctx is not None for ctx, _ in inverses.values())
    bad = Counter((ctx.order, tuple(orders)) for ctx, orders in inverses.values()
                  if orders != [max(ctx.order - 1, 0)])
    assert not bad, f"(context order, inverse orders built) off the rule: {dict(bad)}"


# ---------------------------------------------------------------------------
# (h) an exact session evaluates each chart field once, at its root order


def _session_contexts(monkeypatch):
    """(model, context) for each context a session hands a source from now
    on; held, so ids are not reused."""
    made = []
    ctx = suites._Session.ctx

    def tracked(self, order):
        out = ctx(self, order)
        made.append((self.model, out))
        return out

    monkeypatch.setattr(suites._Session, "ctx", tracked)
    return made


def _spy_evaluators(monkeypatch):
    """(model, field, context) for each chart evaluator call of the bundles
    that ``build_model`` makes from now on."""
    calls = []
    build = M.build_model

    def spied(name):
        bundle = build(name)
        evaluators = bundle.chart.evaluators
        for field, fn in evaluators.items():
            def ev(ctx, fn=fn, field=field):
                calls.append((name, field, ctx))
                return fn(ctx)
            evaluators[field] = ev
        return bundle

    monkeypatch.setattr(M, "build_model", spied)
    return calls


def test_exact_session_evaluates_each_chart_field_once(monkeypatch):
    """Every source of a chunk reads the session's one context, so each
    chart field is evaluated there once, at the root order.  The contexts
    sources build for themselves (homothety, ``sek``'s order-4 contexts,
    the gauge scan and gauge equivalence) evaluate their own roots."""
    made = _session_contexts(monkeypatch)
    calls = _spy_evaluators(monkeypatch)
    results = suites.run(samples=4)
    assert results and calls
    session = {id(c) for _, c in made}
    runs = {}
    for model, field, ctx in calls:
        if id(ctx) in session:
            runs.setdefault((model, field), []).append((ctx.order, ctx.nbatch))
    assert {model for model, _ in runs} == set(suites.MODEL_NAMES)
    again = {k: v for k, v in runs.items() if len(v) > 1}
    assert not again, f"fields evaluated more than once (order, points): {again}"
    off = {k: v for k, v in runs.items()
           if any(order != suites._root_order(k[0]) for order, _ in v)}
    assert not off, f"fields evaluated off the root order (order, points): {off}"


def test_fd_session_contexts_build_their_own_roots(monkeypatch):
    """An fd jet cut to a lower order is not that order's fd jet (the
    Richardson step depends on the order), so fd contexts share no roots."""
    made = _session_contexts(monkeypatch)
    seen = []
    orig = CH.fd_jet

    def fd_jet(values, points, space):
        seen.append((points, space))   # held, so ids are not reused
        return orig(values, points, space)

    monkeypatch.setattr(CH, "fd_jet", fd_jet)
    results = suites.run(samples=4, mode="fd")
    assert results and made
    stencils = {(id(points), id(space)) for points, space in seen}
    missing = sorted({(model, c.order, c.nbatch) for model, c in made
                      if (id(c.points), id(c.space)) not in stencils})
    assert not missing, f"session contexts without their own fd roots: {missing}"
