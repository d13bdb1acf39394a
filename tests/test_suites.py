"""Check runner: how residuals are turned into verdicts, and sessions."""
import gc
import math
import weakref

import pytest

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
        assert {o for _, o, _ in seen} >= {1, 2, 3, 4}

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
        gc.collect()
        gc.disable()
        try:
            results = suites.run(models=("s6", "ansatz"), suites=("nk-core", "ansatz"),
                                 samples=4)
            alive = [ref() is not None for ref in made]
        finally:
            gc.enable()
        assert {r.model for r in results} == {"s6", "ansatz"}
        assert len(made) == 3   # and s3s3, for the ansatz agreement check
        assert not any(alive)


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
