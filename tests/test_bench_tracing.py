"""The benchmark tracer's targets must exist in the package.

``perfbench/tracing.py`` wraps nklab functions by name and reads a few Jet
attributes; a rename or a dead-code sweep here would otherwise only show
up when the traced benchmark runs.
"""
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import numpy as np
import pytest

from nklab import jets as J

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _targets(tracing):
    yield from (("jets", f) for f in tracing.JETS)
    yield from (("calculus", f) for f in tracing.CALCULUS)
    yield from (("exterior", f) for f in tracing.EXTERIOR)
    for mod, names in tracing.CHECKS.items():
        yield from ((mod, f) for f in names)


def test_traced_names_are_nklab_functions(tracing):
    missing = [f"{mod}.{name}" for mod, name in _targets(tracing)
               if not callable(getattr(importlib.import_module(f"nklab.{mod}"), name, None))]
    assert not missing


def test_jet_attributes_the_tracer_reads():
    sp = J.jetspace(2, 3)
    x = J.jgrad(J.seed_coordinates(sp, np.zeros((1, 2))))
    assert x.space is J.jetspace(2, 2)
    assert x.c.shape[-2] == x.space.ncoef
    assert x.ok == x.space.order


@pytest.mark.parametrize("nvars", [4, 6])
@pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
def test_pair_count_the_tracer_sizes_jj_by(tracing, nvars, order):
    # perfbench/run.py --self-check asserts the same equality
    assert len(J.jetspace(nvars, order).mul_a) == tracing.trusted_pairs(nvars, order, order)


#: Targets a lab run does not call: ``jpartial`` is read only by the tracer.
_UNCALLED = {"jets.jpartial"}


@pytest.mark.parametrize("mode", ["exact", "fd"])
def test_tracer_reaches_every_target(tracing, mode):
    """A binding the tracer cannot reach records nothing and raises
    nothing, so every per-layer metric of a traced target must see a call."""
    import nklab
    from nklab import chart, suites

    names = [m.name for m in pkgutil.iter_modules(nklab.__path__)]
    nk = {n: importlib.import_module(f"nklab.{n}") for n in names}
    saved = {n: dict(vars(m)) for n, m in nk.items()}
    ctx_cls = chart.EvalContext
    methods = {k: vars(ctx_cls)[k] for k in ("root", "memo")}
    tracer = tracing.Tracer()
    try:
        tracing.install(nk, tracer)
        suites.run(samples=4, mode=mode)
    finally:
        for n, m in nk.items():
            for k, v in saved[n].items():
                setattr(m, k, v)
        for k, v in methods.items():
            setattr(ctx_cls, k, v)
    _, _, calls = tracer.self_and_incl()
    calls["jets.jj"] = sum(calls[f"jets.jj.{s}"] for s in tracing.JJ_SPLITS)
    missed = [f"{mod}.{name}" for mod, name in _targets(tracing)
              if f"{mod}.{name}" not in _UNCALLED and not calls[f"{mod}.{name}"]]
    assert not missed
    assert all(vars(m)[k] is v for n, m in nk.items() for k, v in saved[n].items())
