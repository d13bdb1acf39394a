"""Check runner: how residuals are turned into verdicts, and sessions."""
import dataclasses
import gc
import math
import sys
import time
import tracemalloc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from nklab import jets as J
from nklab import models as M
from nklab import nkcore as NK
from nklab import suites
from nklab.chart import ConfigError, EvalContext


class TestExtract:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("keys", [("a", "b"), ("b", "a"), "b"])
    def test_non_finite_residual_fails(self, bad, keys):
        residual = suites._extract({"a": 1e-12, "b": bad}, keys)
        assert not residual <= 1e-8

    def test_largest_magnitude(self):
        assert suites._extract({"a": -3e-9, "b": 1e-9}, ("a", "b")) == 3e-9


def _row(results, check):
    (row,) = [r for r in results if r.check == check]
    return row


class TestNanFails:
    """A NaN in one sub-residual of a combined residual fails the row."""

    def test_homothety(self, monkeypatch):
        monkeypatch.setattr(NK, "constant_type_samples",
                            lambda ctx, rng: {"alpha": np.full((ctx.nbatch, 4), np.nan)})
        row = _row(suites.run(models=("s3s3",), suites=("nk-core",), samples=4),
                   "homothety")
        assert math.isnan(row.residual) and row.status == "fail"

    def test_torsion_orthogonality(self, monkeypatch):
        # the second of the four contractions of orthogonality_residuals
        seen = []
        contract = NK.contract

        def second_nan(spec, *ops):
            out = contract(spec, *ops)
            if spec == "zna,zab,znb->zn":
                seen.append(spec)
                if len(seen) == 2:
                    out = out * np.nan
            return out

        monkeypatch.setattr(NK, "contract", second_nan)
        row = _row(suites.run(models=("s3s3",), suites=("gray",), samples=4),
                   "torsion-orthogonality")
        assert len(seen) == 4
        assert math.isnan(row.residual) and row.status == "fail"


#: source -> its keys that are not per-point; the ``suites`` docstring
#: states each one's merge rule
_SCALAR_KEYS = {
    "ctype": ("constant_type_spread",),
    "gauge": ("search_residual", "equiv_metric", "equiv_j"),
    "sek": ("laplacian_sstar", "div_rho_nabla_omega", "norm_phi", "norm_nabla_omega",
            "norm_rough_omega", "norm_r_anti", "lhs", "rhs", "sstar", "sstar_48_dev"),
}


class TestPerPointContract:
    def test_scalar_keys_are_documented(self):
        for keys in _SCALAR_KEYS.values():
            for name in keys:
                assert f"``{name}``" in suites.__doc__, name

    def test_every_read_key_is_per_point_or_a_listed_scalar(self):
        for model in suites.MODEL_NAMES:
            s = suites._Session(model, 4, 0, "exact")
            specs = [spec for spec in suites.CHECKS if model in spec.models]
            s.compute(dict.fromkeys(spec.source for spec in specs))
            for spec in specs:
                order = suites._SOURCES[spec.source][0]
                # homothety evaluates on its own max(4, samples // 2) points
                n = s.ctx(order).nbatch if order is not None else max(4, s.samples // 2)
                s.release()
                keys = spec.key if isinstance(spec.key, tuple) else (spec.key,)
                scalars = _SCALAR_KEYS.get(spec.source, ())
                for key in keys + ((spec.value_key,) if spec.value_key else ()):
                    v = s.get(spec.source)[key]
                    where = (model, spec.source, key)
                    if key in scalars:
                        assert isinstance(v, float), where
                    else:
                        assert isinstance(v, np.ndarray), where
                        assert v.dtype == np.float64 and v.shape == (n,), where


def _lab_sources():
    """model -> the sources with a context that the default exact lab computes."""
    out = {}
    for suite, models in suites.SUITES.items():
        for model in models:
            out.setdefault(model, {}).update(
                (spec.source, None) for spec in suites.checks_for(suite, model)
                if suites._SOURCES[spec.source][0] is not None)
    return out


class TestMinimalOrders:
    """Each source's declared order is the lowest its reads trust, so no
    context computes coefficients that no check reads."""

    def test_each_declared_order_is_the_lowest(self):
        for model, sources in _lab_sources().items():
            s = suites._Session(model, 4, 0, "exact")
            for source in sources:
                order, fn = suites._SOURCES[source]
                at = fn(s, EvalContext(s.chart, s.pts, order))
                with pytest.raises(ValueError, match="derivative orders"):
                    fn(s, EvalContext(s.chart, s.pts, order - 1))
                # one order up, as an order-1 source reads the session's
                # order-2 context, the residuals agree to rounding
                above = fn(s, EvalContext(s.chart, s.pts, order + 1))
                # residuals are rounding-sized differences of O(1) terms
                scale = max(1.0, *(np.max(np.abs(v)) for v in above.values()))
                for key, v in above.items():
                    assert np.max(np.abs(at[key] - v)) <= 1e-13 * scale, (model, source, key)

    def test_sek_reads_order_4(self, monkeypatch):
        # sek builds its own contexts, outside the session's
        seen = []
        terms = suites.R.sekigawa_terms_at

        def spy(ctx, rng):
            seen.append(ctx)
            return terms(ctx, rng)

        monkeypatch.setattr(suites.R, "sekigawa_terms_at", spy)
        suites._Session("s2s2", 4, 0, "exact").get("sek")
        (ctx,) = seen
        assert ctx.order == 4
        with pytest.raises(ValueError, match="derivative orders"):
            terms(EvalContext(ctx.chart, ctx.points, 3), np.random.default_rng(0))


class TestSessions:
    def test_fewer_than_two_samples_are_refused(self):
        # a session does not raise the count silently: rows would record 2
        with pytest.raises(ConfigError, match="at least 2"):
            suites.run(samples=1)

    def test_mode_seed_and_samples_are_refused_in_one_message(self):
        # at the parent a bad mode gave 13 error rows, samples=2.7 ran on 2
        # points, and seed=-1 raised numpy's ValueError after the model build
        with pytest.raises(ConfigError) as info:
            suites.run(models=["s6"], suites=["gray"], samples=2.7, seed=-1, mode="FD")
        assert str(info.value) == ("samples must be an integer of at least 2, got 2.7; "
                                   "seed must be an integer of at least 0, got -1; "
                                   "unknown derivative mode 'FD'")
        for bad in (dict(mode="FD"), dict(samples=2.7), dict(seed=-1), dict(seed=0.0)):
            with pytest.raises(ConfigError):
                suites.run(models=["s6"], suites=["gray"], **{"samples": 4, **bad})
        rows = suites.run(models=["s6"], suites=["gray"], samples=np.int64(4), seed=np.int32(1))
        assert rows and all(r.status == "pass" for r in rows)

    def test_a_bool_samples_or_seed_is_refused(self):
        # bool counts as an integer: at the parent run(seed=True) ran seed 1
        # and wrote "seed": 1 to every row
        with pytest.raises(ConfigError) as info:
            suites.run(models=["s6"], suites=["gray"], samples=True, seed=True)
        assert str(info.value) == ("samples must be an integer of at least 2, got True; "
                                   "seed must be an integer of at least 0, got True")
        for bad in (dict(seed=True), dict(seed=False), dict(samples=np.int64(4), seed=True)):
            with pytest.raises(ConfigError, match="seed must be"):
                suites.run(models=["s6"], suites=["gray"], **{"samples": 4, **bad})

    def test_a_misspelt_check_is_refused_when_its_source_is_made(self):
        with pytest.raises(AttributeError, match="no_such_check"):
            suites._check(NK, "no_such_check")
        with pytest.raises(AttributeError, match="orthogonality_residual"):
            suites._check(NK, "orthogonality_residual", 1)

    def test_a_repeated_model_or_suite_runs_once(self):
        once = suites.run(models=["s3s3"], suites=["gray"], samples=4)
        again = suites.run(models=["s3s3", "s3s3"], suites=["gray", "gray"], samples=4)
        assert len(once) == 13
        assert _fields(again) == _fields(once)

    @pytest.mark.parametrize("models, suite_names", [(["s3s33"], None),
                                                     (["s3s3", "s3s33"], ["gray"]),
                                                     (None, ["grey"]),
                                                     (["s7", "s3s3", "s3s33"], ["grey", "gray"])])
    def test_an_unknown_model_or_suite_raises(self, models, suite_names):
        # one error names every unknown name
        with pytest.raises(ConfigError, match="unknown") as info:
            suites.run(models=models, suites=suite_names, samples=4)
        unknown = {*(models or ()), *(suite_names or ())} - {*suites.MODEL_NAMES, *suites.SUITES}
        assert all(name in str(info.value) for name in unknown)

    def test_an_override_no_row_can_fail_or_an_unknown_check_is_refused(self):
        # at tolerance inf, nk-condition on the product structure read xpass,
        # and the unknown check was ignored
        with pytest.raises(ConfigError) as info:
            suites.run(models=["s3s3-product"], suites=["nk-core"], samples=4,
                       tol_overrides={"nk-condition": math.inf, "no-such-check": 1e-3})
        assert str(info.value) == ("unknown check(s) in tolerance override: no-such-check; "
                                   "tolerance for 'nk-condition' must be finite and positive, "
                                   "got inf")

    def test_fd_run_evaluates_no_exact_derivatives(self, monkeypatch):
        # every context of order >= 1 whose roots a fd run evaluates is in fd
        # mode; order-0 contexts (chart validation, orientation, fd stencils)
        # need no derivatives
        seen = set()
        root = EvalContext.root

        def spy(ctx, name):
            seen.add((ctx.chart.name, ctx.order, ctx.mode))
            return root(ctx, name)

        monkeypatch.setattr(EvalContext, "root", spy)
        results = suites.run(mode="fd", samples=4)
        assert results
        exact = sorted((c, o) for c, o, m in seen if o >= 1 and m != "fd")
        assert not exact, f"exact contexts in a fd run: {exact}"
        declared = {order for order, _ in suites._SOURCES.values() if order is not None}
        assert {o for _, o, _ in seen} >= declared | {4}   # and sek's own contexts

    def test_every_evaluator_of_each_lab_chart_is_read(self, monkeypatch):
        # a field that no row reads is dead weight, and the fd backend still
        # evaluates every field of a chart on each stencil
        read = set()
        root = EvalContext.root

        def spy(ctx, name):
            read.add((ctx.chart.name, name))
            return root(ctx, name)

        monkeypatch.setattr(EvalContext, "root", spy)
        suites.run(samples=8)
        charts = [M.build_model(model).chart for model in suites.MODEL_NAMES]
        unread = [f"{ch.name}/{name}" for ch in charts for name in ch.evaluators
                  if (ch.name, name) not in read]
        assert unread == []

    def test_run_releases_its_sessions(self, monkeypatch):
        # with the cycle collector off, only reference counts can free the
        # sessions: a reference cycle would keep a session of the run, and
        # all its contexts, alive
        made = []
        init = suites._Session.__init__

        def tracked(self, *args, **kwargs):
            init(self, *args, **kwargs)
            made.append(weakref.ref(self))

        monkeypatch.setattr(suites._Session, "__init__", tracked)
        contexts = _track_contexts(monkeypatch)
        gc.collect()
        gc.disable()
        try:
            results = suites.run(models=("s6", "ansatz"), suites=("nk-core", "ansatz"),
                                 samples=4)
            alive = [ref() is not None for ref in made]
            alive_contexts = _alive(contexts)
        finally:
            gc.enable()
        assert {r.model for r in results} == {"s6", "ansatz"}
        assert len(made) == 2   # one session per model
        assert not any(alive)
        assert _models(contexts) == {"s6", "ansatz"}
        assert not alive_contexts

    def test_sek_frames_follow_the_seed(self, monkeypatch):
        # the Sekigawa frame seeds are the probes of a generator seeded
        # seed + 8: different at another seed, the same at the same one
        drawn = []

        def terms(ctx, rng):
            drawn.append(rng.standard_normal((ctx.nbatch, 2, 4)))
            return {"sstar": np.zeros(ctx.nbatch), "identity_residual": np.zeros(ctx.nbatch)}

        monkeypatch.setattr(suites.R, "sekigawa_terms_at", terms)

        def frames(seed):
            drawn.clear()
            suites._Session("s2s2", 32, seed, "exact").get("sek")
            return np.concatenate(drawn)

        for seed in (0, 1):
            want = np.random.default_rng(seed + 8).standard_normal((8, 2, 4))
            assert np.array_equal(frames(seed), want), seed
        assert np.array_equal(frames(1), frames(1))
        assert not np.array_equal(frames(0), frames(1))


def _track_contexts(monkeypatch):
    """(model, order, weakref, chunk start) for every context a session
    hands to a source from now on, once per context."""
    made = []
    ctx = suites._Session.ctx

    def tracked(self, order):
        # a weak reference, so the held context can be dropped
        held = None if self._ctx is None else weakref.ref(self._ctx)
        out = ctx(self, order)
        if held is None or held() is not out:
            made.append((self.model, out.order, weakref.ref(out), self._chunk.start))
        return out

    monkeypatch.setattr(suites._Session, "ctx", tracked)
    return made


def _alive(made):
    return sorted({model for model, _, ref, _ in made if ref() is not None})


def _models(made):
    return {model for model, *_ in made}


def _spy_sources(monkeypatch, before=None):
    """Wrap every ``_SOURCES`` function from now on.  Returns ``calls``, one
    (model, source, chunk start, order, points) per call (order and points
    of the context handed, None for a context-free source).
    ``before(session, source)`` runs before each call."""
    calls = []
    for name, (key, fn) in list(suites._SOURCES.items()):
        def spied(s, *ctx, name=name, fn=fn):
            if before is not None:
                before(s, name)
            calls.append((s.model, name, s._chunk.start,
                          *((ctx[0].order, ctx[0].nbatch) if ctx else (None, None))))
            return fn(s, *ctx)

        monkeypatch.setitem(suites._SOURCES, name, (key, spied))
    return calls


def _track_computes(monkeypatch, made):
    """Models of every source computation from now on (one per chunk for a
    source with a context), and the strays: each (model, source, models with
    live contexts) computed while a context of another model was alive."""
    computed, strays = [], []

    def before(s, source):
        computed.append(s.model)
        alive = _alive(made)
        if set(alive) - {s.model}:
            strays.append((s.model, source, alive))

    _spy_sources(monkeypatch, before)
    return computed, strays


def _suite_major(models, suite_names, samples, mode):
    """The rows of the suites run one after the other, one session per model."""
    sessions = {m: suites._Session(m, samples, 0, mode) for m in suites.MODEL_NAMES}
    rows = []
    for suite in suite_names or suites.SUITES:
        targets = suites.SUITES[suite] if models is None else [
            m for m in models if suites.checks_for(suite, m)]
        for model in targets:
            rows += suites.run_suite(model, suite, sessions[model])
    return rows


def _fields(rows):
    return [dataclasses.replace(r, seconds=0.0) for r in rows]


class TestModelMajor:
    def test_only_the_current_model_has_contexts(self, monkeypatch):
        # with the cycle collector off, reference counts alone must free a
        # model's contexts once its last suite is done
        made = _track_contexts(monkeypatch)
        computed, strays = _track_computes(monkeypatch, made)
        gc.collect()
        gc.disable()
        try:
            results = suites.run(samples=4)
            alive = _alive(made)
        finally:
            gc.enable()
        assert len(results) == 210
        assert not strays
        assert not alive
        assert set(computed) == set(suites.MODEL_NAMES)
        assert _models(made) == set(suites.MODEL_NAMES)

    @pytest.mark.parametrize("models, suite_names, mode", [
        (None, None, "exact"),
        (None, None, "fd"),
        (("ansatz", "s2s2", "s6", "s3s3"), ("ansatz", "canonical", "base", "gray"),
         "exact"),
    ])
    def test_rows_in_suite_order(self, models, suite_names, mode):
        want = _suite_major(models, suite_names, 4, mode)
        got = suites.run(models=models, suites=suite_names, samples=4, mode=mode)
        assert _fields(got) == _fields(want)

    def test_memory_follows_the_largest_model(self):
        # warm up first, so the lru and contraction-plan caches are filled
        suites.run(samples=8)
        peaks = {}
        tracemalloc.start()
        try:
            for model in (None, *suites.MODEL_NAMES):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                suites.run(models=None if model is None else [model], samples=8)
                peaks[model] = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        full = peaks.pop(None)
        assert full <= 1.2 * max(peaks.values()), (full, peaks)


class TestSchedule:
    @pytest.mark.parametrize("models, suite_names, mode, chunk, samples", [
        pytest.param(None, None, "exact", 64, 4, id="None-exact"),
        pytest.param(None, None, "fd", 64, 4, id="None-fd"),
        pytest.param(("ansatz",), None, "exact", 64, 4, id="models2-exact"),
        # the chunks [0:8] and [8:20]
        pytest.param(None, None, "exact", 8, 20, id="None-exact-two-chunks"),
        pytest.param(None, None, "fd", 8, 20, id="None-fd-two-chunks"),
        # ansatz, the ansatz suite's model, runs before the reduction suite's
        pytest.param(None, ("ansatz", "reduction"), "exact", 64, 4,
                     id="ansatz-reduction-exact"),
    ])
    def test_one_context_alive_each_built_once(self, monkeypatch, models, suite_names,
                                               mode, chunk, samples):
        # per chunk: each context is built once, on the whole chunk, with no
        # other context alive
        monkeypatch.setattr(suites, "CHUNK", chunk)
        made = _track_contexts(monkeypatch)
        calls = _spy_sources(monkeypatch)
        asked, built, crowded, building = [], [], [], []
        ctx, compute, make = suites._Session.ctx, suites._Session.compute, suites.EvalContext

        def spied_ctx(self, order):
            # compute hands each source its own order's context; a source
            # asks for none itself
            if sys._getframe(1).f_code is not compute.__code__:
                asked.append(order)
            building.append(self)
            try:
                return ctx(self, order)
            finally:
                building.pop()

        def spied_make(chart, points, order, **kwargs):
            if building:   # a session context, built inside ctx
                s = building[-1]
                built.append((s.model, s._chunk.start, order))
                if _alive(made):
                    crowded.append((s.model, s._chunk.start, order, _alive(made)))
            return make(chart, points, order, **kwargs)

        monkeypatch.setattr(suites._Session, "ctx", spied_ctx)
        monkeypatch.setattr(suites, "EvalContext", spied_make)
        gc.collect()
        gc.disable()
        try:
            results = suites.run(models=models, suites=suite_names, samples=samples,
                                 mode=mode)
        finally:
            gc.enable()
        assert results and not any(r.status == "error" for r in results)
        assert not asked, f"contexts asked for outside compute: {asked}"
        assert not crowded, f"contexts built while another was alive: {crowded}"
        chunks = J.chunks(samples, chunk)
        assert len(chunks) == (2 if chunk == 8 else 1)
        for model, source, start, order, points in calls:
            declared = suites._SOURCES[source][0]
            if declared is None:
                continue
            (rows,) = [c for c in chunks if c.start == start]
            # an exact chunk's one context is of the model's root order
            want = suites._root_order(model) if mode == "exact" else declared
            assert order == want, (model, source, start)
            # each keyed source's context holds the whole chunk
            assert points == rows.stop - rows.start, (model, source, start)
        # each source once per chunk
        per_chunk = {(model, source, start) for model, source, start, *_ in calls}
        assert len(per_chunk) == len(calls), calls
        assert len(built) == len(set(built)), built

    @pytest.mark.parametrize("mode", ["exact", "fd"])
    def test_exact_builds_one_context_per_chunk_fd_one_per_order(self, monkeypatch, mode):
        # every context a session builds, on the chunks [0:8] and [8:20]:
        # exact, one per chunk, of the root order; fd, one per declared
        # order, by ascending order.  At the parent an exact chunk built a
        # root context and, beside it, one context per declared order.
        monkeypatch.setattr(suites, "CHUNK", 8)
        make = suites.EvalContext
        for model, sources in _lab_sources().items():
            built, crowded = [], []

            def spied(chart, points, order, **kwargs):
                live = [(n, o) for n, o, ref in built if ref() is not None]
                if live:
                    crowded.append((len(points), order, live))
                out = make(chart, points, order, **kwargs)
                built.append((len(points), order, weakref.ref(out)))
                return out

            monkeypatch.setattr(suites, "EvalContext", spied)
            s = suites._Session(model, 20, 0, mode)
            gc.collect()
            gc.disable()
            try:
                s.compute(sources)
                alive = [(n, o) for n, o, ref in built if ref() is not None]
            finally:
                gc.enable()
            assert not crowded, (model, crowded)
            assert not alive, (model, alive)
            orders = ([suites._root_order(model)] if mode == "exact" else
                      sorted({suites._SOURCES[source][0] for source in sources}))
            want = [(n, o) for n in (8, 12) for o in orders]
            assert [(n, o) for n, o, _ in built] == want, model

    def test_error_rows_read_one_cached_error(self, monkeypatch):
        calls = []

        def broken(s, ctx):
            calls.append(s.model)
            try:
                raise ValueError(ctx.order)   # its traceback holds ctx
            except ValueError as e:
                raise RuntimeError(f"no norms on {s.model}") from e

        monkeypatch.setitem(suites._SOURCES, "norms", (suites._SOURCES["norms"][0], broken))
        made = _track_contexts(monkeypatch)
        gc.collect()
        gc.disable()
        try:
            results = suites.run(models=("s3s3", "ansatz"), suites=("reduction", "ansatz"),
                                 samples=4)
            alive = _alive(made)
        finally:
            gc.enable()
        readers = {spec.check for spec in suites.CHECKS if spec.source == "norms"}
        errors = [r for r in results if r.status == "error"]
        assert {r.check for r in errors} == readers
        assert len(errors) == len([r for r in results if r.check in readers])
        for r in errors:
            assert r.detail == f"RuntimeError: no norms on {r.model}", r
            assert math.isnan(r.residual)
        assert sorted(calls) == ["ansatz", "s3s3"]
        assert not alive   # a cached error holds no context

    def test_compute_time_goes_to_the_first_reader(self, monkeypatch):
        order, ctype = suites._SOURCES["ctype"]

        def slow(s, ctx):
            time.sleep(0.05)
            return ctype(s, ctx)

        monkeypatch.setitem(suites._SOURCES, "ctype", (order, slow))
        results = suites.run(models=("s6",), suites=("nk-core",), samples=4)
        readers = [r for r in results if r.check.startswith("constant-type")]
        assert [r.check for r in readers] == ["constant-type", "constant-type-spread"]
        assert readers[0].seconds >= 0.05
        assert readers[1].seconds == 0.0


class TestQuantiles:
    def test_only_constant_type_rows_carry_quantiles(self):
        results = suites.run(models=("s6", "ansatz"), suites=("nk-core", "ansatz"),
                             samples=4)
        ctype = {"constant-type", "constant-type-spread", "ansatz-constant-type"}
        assert ctype <= {r.check for r in results}
        for r in results:
            if r.check not in ctype:
                assert r.quantiles is None, r.check
                continue
            q = r.quantiles
            assert set(q) == {"q25", "q50", "q75", "max", "pairs"}, r.check
            assert 0.0 <= q["q25"] <= q["q50"] <= q["q75"] <= q["max"]
            assert q["pairs"] > 0
            if r.check != "constant-type-spread":
                assert q["max"] == r.residual


# ---------------------------------------------------------------------------
# chunks


class TestChunks:
    @pytest.mark.parametrize("n", [2, 7, 8, 63, 64, 65, 71, 72, 100, 128, 135, 136, 1000])
    def test_chunks_cover_every_point_once_in_order(self, n):
        chunks = J.chunks(n, suites.CHUNK)
        assert [i for rows in chunks for i in range(n)[rows]] == list(range(n))
        sizes = [rows.stop - rows.start for rows in chunks]
        assert min(sizes) >= min(n, J.MIN_CHUNK), sizes
        assert max(sizes) < suites.CHUNK + J.MIN_CHUNK, sizes
        # a chunk starts where a whole batch has whole SIMD blocks
        assert all(rows.start % J.MIN_CHUNK == 0 for rows in chunks)

    def test_a_small_remainder_takes_points_from_the_chunk_before(self):
        assert J.chunks(130, 64) == [slice(0, 64), slice(64, 120), slice(120, 130)]
        # with 8-point chunks, moving down reaches the start before: it goes
        assert J.chunks(20, 8) == [slice(0, 8), slice(8, 20)]
        assert J.chunks(24, 8) == [slice(0, 8), slice(8, 16), slice(16, 24)]
        assert J.chunks(5, 8) == [slice(0, 5)]

    def test_no_keys_part_of_a_chunk_is_small(self, monkeypatch):
        # a session context holds a whole chunk of the session's points, and
        # sek's contexts a whole chunk of its own, which are whole 8-point
        # blocks of the session's or all of them: no chunk is small
        seen = []

        def chunked(fn, chart, pts, *args):
            seen.append(len(pts))
            return {"sstar": np.zeros(1), "identity_residual": np.zeros(1)}

        monkeypatch.setattr(suites, "_chunked", chunked)
        for samples in [*range(2, 300), 1000, 1027, 4099, 10_000]:
            suites._src_sek(SimpleNamespace(samples=samples, seed=0, chart=None,
                                            mode="exact", pts=np.zeros((samples, 1))))
            k = seen.pop()
            assert k == samples or k % J.MIN_CHUNK == 0, (samples, k)
            for n in (samples, k):
                chunks = J.chunks(n, suites.CHUNK)
                assert [i for rows in chunks for i in range(n)[rows]] == list(range(n))
                sizes = [rows.stop - rows.start for rows in chunks]
                assert min(sizes) >= min(n, J.MIN_CHUNK), (n, sizes)
                assert max(sizes) <= suites.CHUNK + J.MIN_CHUNK, (n, sizes)
                assert all(rows.start % J.MIN_CHUNK == 0 for rows in chunks), n


def _computed(monkeypatch, chunk, model, mode, samples, sources):
    monkeypatch.setattr(suites, "CHUNK", chunk)
    s = suites._Session(model, samples, 0, mode)
    s.compute(sources)
    return {source: s.get(source) for source in sources}


def _assert_same(a, b, where):
    assert a.keys() == b.keys(), where
    for key, v in a.items():
        if isinstance(v, np.ndarray):
            assert v.shape == b[key].shape and np.array_equal(v, b[key]), (where, key)
        else:
            assert v == b[key], (where, key)


@pytest.mark.parametrize("mode", ["exact", "fd"])
@pytest.mark.parametrize("model", suites.MODEL_NAMES)
def test_a_points_results_do_not_depend_on_its_chunk(monkeypatch, model, mode):
    # each source with a context, on 16 points as one chunk and as the
    # chunks [0:8] and [8:16]: its probes are drawn for all its points at once
    sources = list(_lab_sources()[model])
    whole = _computed(monkeypatch, 64, model, mode, 16, sources)
    split = _computed(monkeypatch, 8, model, mode, 16, sources)
    for source in sources:
        _assert_same(whole[source], split[source], (model, mode, source))


@pytest.mark.parametrize("mode", ["exact", "fd"])
def test_homothety_does_not_depend_on_its_chunks(monkeypatch, mode):
    # the sources that take points of their own, 16 each, as one chunk and
    # as two: homothety's max(4, samples // 2) at 32 samples, and sek's
    # first quarter at 64
    for model, source, samples, key in (("s3s3", "homothety", 32, "scaled_spread"),
                                        ("s2s2", "sek", 64, "identity_residual")):
        whole = _computed(monkeypatch, 64, model, mode, samples, [source])
        split = _computed(monkeypatch, 8, model, mode, samples, [source])
        assert whole[source][key].shape == (16,), source
        _assert_same(whole[source], split[source], (mode, source))


@pytest.mark.parametrize("mode", ["exact", "fd"])
def test_chunked_rows_equal_one_chunk(monkeypatch, mode):
    # every model at 20 samples, as one chunk and as the chunks [0:8], [8:20]:
    # status, residual, value and quantiles bit for bit
    want = suites.run(samples=20, mode=mode)
    monkeypatch.setattr(suites, "CHUNK", 8)
    got = suites.run(samples=20, mode=mode)
    assert {r.model for r in got} == set(suites.MODEL_NAMES)
    assert _fields(got) == _fields(want)


@pytest.mark.parametrize("model", suites.MODEL_NAMES)
def test_memory_does_not_grow_with_the_samples(monkeypatch, model):
    # with 8-point chunks, 64 samples peak as 16 do: one chunk's contexts,
    # plus the per-point arrays
    monkeypatch.setattr(suites, "CHUNK", 8)
    suites.run(models=(model,), samples=16)
    peaks = {}
    tracemalloc.start()
    try:
        for samples in (16, 64):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            suites.run(models=(model,), samples=samples)
            peaks[samples] = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peaks[64] <= 1.2 * peaks[16], peaks


def test_the_gauge_scan_does_not_set_the_peak(monkeypatch):
    # the 50-candidate scan runs in batches of at most 64 points, so it
    # peaks no higher than the ansatz suite's other sources
    run = dict(models=("ansatz",), suites=("ansatz",), samples=8)
    suites.run(**run)
    peaks = {}
    for name, (key, fn) in list(suites._SOURCES.items()):
        def measured(s, *ctx, name=name, fn=fn):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                return fn(s, *ctx)
            finally:
                peak = tracemalloc.get_traced_memory()[1] - base
                peaks[name] = max(peaks.get(name, 0), peak)

        monkeypatch.setitem(suites._SOURCES, name, (key, measured))
    tracemalloc.start()
    try:
        suites.run(**run)
    finally:
        tracemalloc.stop()
    gauge = peaks.pop("gauge")
    assert gauge <= max(peaks.values()), (gauge, peaks)
