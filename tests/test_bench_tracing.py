"""The benchmark tracer's targets must exist in the package.

``perfbench/tracing.py`` wraps nklab functions by name and reads a few Jet
attributes; a rename or a dead-code sweep here would otherwise only show
up when the traced benchmark runs.
"""
import importlib
import importlib.util
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
