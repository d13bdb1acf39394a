"""Check runner: how residuals are turned into verdicts, and sessions."""
import dataclasses
import gc
import math
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from nklab import nkcore as NK
from nklab import suites
from nklab.chart import EvalContext


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
                            lambda ctx, rng: np.full((ctx.nbatch, 4), np.nan))
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


#: source -> its keys that are not per-point (None: all of them); the
#: ``suites`` docstring states each one's merge rule
_SCALAR_KEYS = {
    "ctype": ("constant_type_spread",),
    "gauge": ("search_residual", "equiv_metric", "equiv_j"),
    "agree": None,
    "sek": ("laplacian_sstar", "div_rho_nabla_omega", "norm_phi", "norm_nabla_omega",
            "norm_rough_omega", "norm_r_anti", "lhs", "rhs", "sstar", "sstar_48_dev"),
}


class TestPerPointContract:
    def test_scalar_keys_are_documented(self):
        for source, keys in _SCALAR_KEYS.items():
            for name in keys or (source,):
                assert f"``{name}``" in suites.__doc__, name

    def test_every_read_key_is_per_point_or_a_listed_scalar(self):
        sessions = suites._Sessions(4, 0, "exact")
        for model in suites.MODEL_NAMES:
            s = sessions[model]
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
                    if scalars is None or key in scalars:
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
        sessions = suites._Sessions(4, 0, "exact")
        for model, sources in _lab_sources().items():
            s = sessions[model]
            for source in sources:
                (order, share), fn = suites._SOURCES[source]
                at = fn(s, s.ctx((order, share)))
                with pytest.raises(ValueError, match="derivative orders"):
                    fn(s, s.ctx((order - 1, share)))
                if source in ("einstein", "elem"):
                    above = fn(s, s.ctx((order + 1, share)))
                    # residuals are rounding-sized differences of O(1) terms
                    scale = max(1.0, *(np.max(np.abs(v)) for v in above.values()))
                    for key, v in above.items():
                        assert np.max(np.abs(at[key] - v)) <= 1e-13 * scale, (model, key)
            s.release()


class TestSessions:
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
        declared = {key[0] for key, _ in suites._SOURCES.values() if key is not None}
        assert {o for _, o, _ in seen} >= declared

    def test_run_releases_its_sessions(self, monkeypatch):
        # with the cycle collector off, only reference counts can free the
        # sessions: a reference cycle through the session table would keep
        # every session of the run, and all its contexts, alive
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
        assert len(made) == 3   # and s3s3, for the ansatz agreement check
        assert not any(alive)
        assert _models(contexts, "root") == {"s6", "ansatz", "s3s3"}
        assert not alive_contexts


def _track_contexts(monkeypatch):
    """(model, kind, weakref) for every context a session builds from now on:
    kind "root" for a session's root context, "work" for the contexts it
    hands to sources."""
    made = []
    ctx, roots = suites._Session.ctx, suites._Session.roots

    def tracked(self, order):
        fresh = order not in self._ctx
        out = ctx(self, order)
        if fresh:
            made.append((self.model, "work", weakref.ref(out)))
        return out

    def tracked_roots(self):
        fresh = self._roots is None
        out = roots(self)
        if fresh:
            made.append((self.model, "root", weakref.ref(out)))
        return out

    monkeypatch.setattr(suites._Session, "ctx", tracked)
    monkeypatch.setattr(suites._Session, "roots", tracked_roots)
    return made


def _alive(made, kinds=("work", "root")):
    return sorted({model for model, kind, ref in made
                   if kind in kinds and ref() is not None})


def _models(made, kind):
    return {model for model, k, _ in made if k == kind}


def _track_computes(monkeypatch, made):
    """Models of every source computed from now on, and the strays: each
    (model, source, models with live contexts) computed while a context of
    another model was alive."""
    computed, strays = [], []
    get = suites._Session.get

    def checked(self, source):
        if source not in self._cache:
            computed.append(self.model)
            alive = _alive(made)
            if set(alive) - {self.model}:
                strays.append((self.model, source, alive))
        return get(self, source)

    monkeypatch.setattr(suites._Session, "get", checked)
    return computed, strays


def _suite_major(models, suite_names, samples, mode):
    """The rows of the suites run one after the other on one session table."""
    sessions = suites._Sessions(samples, 0, mode)
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
        # model's contexts, its root context too, once its last suite is done
        made = _track_contexts(monkeypatch)
        computed, strays = _track_computes(monkeypatch, made)
        gc.collect()
        gc.disable()
        try:
            results = suites.run(samples=4)
            alive = _alive(made)
        finally:
            gc.enable()
        assert len(results) == 212
        assert not strays
        assert not alive
        assert set(computed) == set(suites.MODEL_NAMES)
        assert _models(made, "work") == set(suites.MODEL_NAMES)
        assert _models(made, "root") == set(suites.MODEL_NAMES)

    def test_peer_contexts_are_released_with_the_requester(self, monkeypatch):
        # an ansatz-only run builds the s3s3 session just for ansatz-agreement;
        # with the run's session table held, neither session keeps a context
        made = _track_contexts(monkeypatch)
        tables = []
        init = suites._Sessions.__init__

        def kept(self, *args):
            init(self, *args)
            tables.append(self)

        monkeypatch.setattr(suites._Sessions, "__init__", kept)
        gc.collect()
        gc.disable()
        try:
            results = suites.run(suites=["ansatz"], samples=4)
            alive = _alive(made)
        finally:
            gc.enable()
        assert {r.model for r in results} == {"ansatz"}
        assert sorted(tables[0]) == ["ansatz", "s3s3"]
        assert _models(made, "work") == _models(made, "root") == {"ansatz", "s3s3"}
        assert not alive
        assert {"norms", "kahler"} <= set(tables[0]["s3s3"]._cache)

    def test_peer_sources_run_after_the_requester_is_released(self, monkeypatch):
        # ansatz-agreement is ansatz's last source; the s3s3 session it
        # builds in an ansatz-only run computes with no ansatz context alive
        made = _track_contexts(monkeypatch)
        computed, strays = _track_computes(monkeypatch, made)
        gc.collect()
        gc.disable()
        try:
            results = suites.run(models=["ansatz"], samples=4)
        finally:
            gc.enable()
        assert {r.model for r in results} == {"ansatz"}
        assert "s3s3" in computed
        assert not strays

    @pytest.mark.parametrize("models, suite_names, mode", [
        (None, None, "exact"),
        (None, None, "fd"),
        (("ansatz", "s2s2", "s6", "s3s3"), ("ansatz", "canonical", "base", "gray"),
         "exact"),
    ])
    def test_rows_in_suite_order(self, models, suite_names, mode):
        # the last case runs ansatz first, so s3s3 is first built as its peer
        # and built again when its own suites run
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

    def test_ansatz_alone_peaks_no_higher_than_the_full_lab(self, monkeypatch):
        # the s3s3 session that ansatz-agreement builds in an ansatz-only run
        # computes after every ansatz context is gone, so it adds only its
        # own context's working set
        suites.run(samples=8)
        made = _track_contexts(monkeypatch)
        order, agree = suites._SOURCES["agree"]
        seen = {}

        def watched(s):
            seen["alive"] = _alive(made)
            return agree(s)

        monkeypatch.setitem(suites._SOURCES, "agree", (order, watched))
        peaks, alive = {}, {}
        tracemalloc.start()
        try:
            for models in (None, ("ansatz",)):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                suites.run(models=models, samples=8)
                peaks[models] = tracemalloc.get_traced_memory()[1] - base
                alive[models] = seen["alive"]
        finally:
            tracemalloc.stop()
        assert peaks[("ansatz",)] <= peaks[None], peaks
        assert "ansatz" not in alive[("ansatz",)], alive


class TestSchedule:
    @pytest.mark.parametrize("models, mode", [
        (None, "exact"),
        (None, "fd"),
        (("ansatz",), "exact"),
    ])
    def test_one_context_alive_each_built_once(self, monkeypatch, models, mode):
        made = _track_contexts(monkeypatch)
        asked, built, crowded, computing = [], [], [], []
        ctx, get = suites._Session.ctx, suites._Session.get

        def spied_ctx(self, order):
            asked.append((computing[-1], order))
            if order not in self._ctx:
                built.append((self.model, order))
                # the model's own root context may be alive, for a context
                # that reads it; nothing else
                roots = set(_alive(made, ("root",)))
                if order[0] <= self.root_order:
                    roots.discard(self.model)
                if _alive(made, ("work",)) or roots:
                    crowded.append((self.model, order, _alive(made)))
            return ctx(self, order)

        def spied_get(self, source):
            computing.append(source)
            try:
                return get(self, source)
            finally:
                computing.pop()

        monkeypatch.setattr(suites._Session, "ctx", spied_ctx)
        monkeypatch.setattr(suites._Session, "get", spied_get)
        gc.collect()
        gc.disable()
        try:
            results = suites.run(models=models, samples=4, mode=mode)
        finally:
            gc.enable()
        assert results and not any(r.status == "error" for r in results)
        wrong = sorted({(src, o) for src, o in asked if suites._SOURCES[src][0] != o})
        assert not wrong, f"sources asking for another order: {wrong}"
        assert not crowded, f"contexts built while another was alive: {crowded}"
        if models is None:
            # in an ansatz-only run, agree builds ansatz's order-3 context a
            # second time for its inputs norms and kahler, which no row reads
            assert len(built) == len(set(built)), built

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
        readers.add("ansatz-agreement")   # agree reads the model's norms first
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
