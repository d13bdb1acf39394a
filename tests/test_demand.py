"""Every order >= 1 jet product must feed a derivative.

A jet carries Taylor coefficients past its value only for a later
``jets.jgrad`` to read; a product of order >= 1 that no derivative reads
computes them for nothing, where an order-0 product, one ``einsum2`` of
the values, would do.  :class:`Demand` finds such products in a lab run.
It wraps every ``nklab`` function and the ``Jet`` methods, links each jet
a call returns to the jets passed in and to the jets made inside the call,
and marks every ancestor of a ``jgrad`` argument; an order >= 1 ``jj``
result never marked is a product whose derivative coefficients no one
reads.
"""
import importlib
import inspect
import pkgutil
from collections import Counter

import numpy as np
import pytest

import nklab
from nklab import chart
from nklab import jets as J
from nklab import suites

#: Jet methods that take or return jets.
_METHODS = ("truncate", "__getitem__", "__add__", "__radd__", "__sub__", "__neg__",
            "__mul__", "__rmul__", "__truediv__", "transpose")


def _jets(values, depth=2):
    """The jets among ``values``, and inside their tuples, lists and dicts."""
    out = []
    for v in values:
        if isinstance(v, J.Jet):
            out.append(v)
        elif depth and isinstance(v, (tuple, list)):
            out += _jets(v, depth - 1)
        elif depth and isinstance(v, dict):
            out += _jets(v.values(), depth - 1)
    return out


class Demand:
    """Jet provenance of a run: see the module docstring.

    ``products`` lists each order >= 1 ``jj`` result as ``(id, site)``,
    a site being ``(source, caller, spec)``: the ``suites`` source that
    ran it, the chain of non-``jets`` calls that led to it, and its spec.
    Every jet seen is kept alive, so no id is reused during the run.
    """

    def __init__(self):
        self.parents = {}
        self.alive = {}
        self.made = [[]]  # per open call: the jets its inner calls returned
        self.calls = []  # names of the open calls
        self.grad_args = []
        self.products = []
        self.source = None

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            self.made.append([])
            self.calls.append(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                inner = self.made.pop()
                self.calls.pop()
            ins = _jets((*args, *kwargs.values()))
            outs = _jets((out,))
            for x in ins + inner + outs:
                self.alive[id(x)] = x
            for r in outs:
                self.parents.setdefault(id(r), set()).update(
                    id(x) for x in ins + inner if x is not r)
            if name == "jets.jgrad":
                self.grad_args += [id(x) for x in ins]
            elif name == "jets.jj" and out.space.order >= 1:
                caller = " > ".join(c for c in self.calls
                                    if not c.startswith(("jets.", "Jet.")))
                self.products.append((id(out), (self.source, caller, args[0])))
            self.made[-1] += outs
            return out

        return traced

    def wrap_source(self, name, fn):
        def traced(*args):
            self.source = name
            try:
                return fn(*args)
            finally:
                self.source = None

        return traced

    def marked(self) -> set:
        """Ids of every ancestor of a ``jgrad`` argument, the arguments too."""
        seen, todo = set(), list(self.grad_args)
        while todo:
            i = todo.pop()
            if i not in seen:
                seen.add(i)
                todo += self.parents.get(i, ())
        return seen

    def unread(self) -> list:
        """Sites of the order >= 1 ``jj`` results no ``jgrad`` reads."""
        marked = self.marked()
        return [site for i, site in self.products if i not in marked]


def traced_run(**kwargs) -> Demand:
    """``suites.run(**kwargs)`` under a :class:`Demand`, every patched
    attribute restored afterwards."""
    demand = Demand()
    mods = [importlib.import_module(f"nklab.{m.name}")
            for m in pkgutil.iter_modules(nklab.__path__)]
    saved = {m: dict(vars(m)) for m in mods}
    methods = {k: vars(J.Jet)[k] for k in _METHODS}
    root = vars(chart.EvalContext)["root"]
    sources = dict(suites._SOURCES)
    try:
        wrapped = {}  # one wrapper per function, so memo keys match across modules
        for m in mods:
            for k, v in saved[m].items():
                if inspect.isfunction(v) and v.__module__.startswith("nklab."):
                    if v not in wrapped:
                        wrapped[v] = demand.wrap(f"{v.__module__[6:]}.{v.__name__}", v)
                    setattr(m, k, wrapped[v])
        for k, v in methods.items():
            setattr(J.Jet, k, demand.wrap(f"Jet.{k}", v))
        chart.EvalContext.root = demand.wrap("chart.EvalContext.root", root)
        for k, (order, fn) in sources.items():
            suites._SOURCES[k] = (order, demand.wrap_source(k, fn))
        suites.run(**kwargs)
    finally:
        for m in mods:
            for k, v in saved[m].items():
                setattr(m, k, v)
        for k, v in methods.items():
            setattr(J.Jet, k, v)
        chart.EvalContext.root = root
        suites._SOURCES.update(sources)
    assert all(vars(m)[k] is v for m in mods for k, v in saved[m].items())
    assert all(vars(J.Jet)[k] is v for k, v in methods.items())
    assert vars(chart.EvalContext)["root"] is root and suites._SOURCES == sources
    return demand


#: The order >= 1 products a lab run at seed 0 may leave unread: none.  A
#: chunk has one context in either mode, in which ``jzeta_form``, read as
#: a value by ``reduction.pi_h``, is also differentiated.
LEFT = 0


def _sites(unread) -> str:
    return "\n".join(f"{n} x source {src!r}, caller {caller!r}, spec {spec!r}"
                     for (src, caller, spec), n in Counter(unread).items())


@pytest.mark.parametrize("mode", ["exact", "fd"])
def test_every_order_one_product_feeds_a_derivative(mode):
    demand = traced_run(samples=8, seed=0, mode=mode)
    assert demand.products and demand.grad_args  # it reached jj and jgrad
    unread = demand.unread()
    assert len(unread) <= LEFT, _sites(unread)


def test_the_tracker_tells_a_read_product_from_an_unread_one():
    demand = Demand()
    jj, jgrad = demand.wrap("jets.jj", J.jj), demand.wrap("jets.jgrad", J.jgrad)
    add = demand.wrap("Jet.__add__", J.Jet.__add__)
    x = J.seed_coordinates(J.jetspace(2, 2), np.zeros((1, 2)))
    jgrad(add(jj("a,b->ab", x, x), 1.0))  # read through a sum
    jj("a,a->", x, x)
    jj("a,a->", J.jconst(J.jetspace(2, 0), np.ones((1, 2))), x)  # order 0
    assert demand.unread() == [(None, "", "a,a->")]
    assert len(demand.products) == 2
