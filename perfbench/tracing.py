"""Per-layer tracing for the nklab benchmark.

The tracer wraps public ``nklab`` functions from the outside: the package
itself is not modified.  Because the package binds names with
``from .x import y`` (``exterior`` binds ``covd``, ``chart`` binds
``fd_jet``, ``nkcore`` and ``reduction`` bind ``d_form`` ...), every
module namespace that holds the original function object gets the
wrapper, not only the home module.  A target that no namespace binds is an error, so a rename
in ``nklab`` breaks the traced run instead of silently dropping a layer.

Each wrapped call records a span ``[name, start, end, parent]`` in
memory; spans are written out when the run ends.  A span's self time is
its duration minus the time its direct child spans cover (the run is
single-threaded, so children nest and never overlap).  Exact counters
(calls, multiply-adds, computed bytes, stencil evaluations, memo hits)
are kept next to the spans.
"""
from __future__ import annotations

import json
import math
import resource
import time
from collections import Counter, defaultdict

JETS = ("jj", "jc", "jb", "junary", "jgrad", "jpartial", "jmatinv", "jcompose")
JJ_SPLITS = ("o3k3", "o3k2", "o3k1", "o2k2", "o2k1", "other")
CALCULUS = ("christoffel", "riemann", "covd", "lie_derivative")
EXTERIOR = ("d_form", "hodge", "codifferential", "wedge_jet")

#: The public check functions that ``suites._SOURCES`` calls.
CHECKS = {
    "nkcore": ("check_nearly_kahler", "gray_identities_check",
               "orthogonality_residuals", "type_tensor_check",
               "frame_expansion_check", "elementary_identity_check",
               "einstein_and_ricci_star_check", "laplacian_omega_check",
               "constant_type_samples"),
    "reduction": ("verify_killing_unit", "foliation_checks", "acs_check",
                  "transversal_parallel_check", "norms_and_laplacian_checks",
                  "djxi_check", "lie_derivative_suite", "g0_connection_check",
                  "kahler_projection_check", "canonical_connection_checks",
                  "base_kahler_check", "sekigawa_terms_at"),
    "ansatz": ("connection_residuals", "twisted_parallel_residual",
               "gauge_search", "gauge_equivalence_residual"),
}


def metric_units(model_names, suite_names) -> dict:
    """Every per-layer metric name the traced run emits, with its unit."""
    m = {}
    for f in JETS:
        m[f"jets.{f}.self_s"] = "s"
        m[f"jets.{f}.calls"] = "count"
    for split in JJ_SPLITS:
        m[f"jets.jj.{split}.self_s"] = "s"
    m["jets.jj.madds"] = "count"
    m["jets.jj.bytes"] = "B-computed"
    m["jets.jj.trusted_frac"] = "ratio"
    m["jets.jj.us_per_call"] = "us"
    m["chart.EvalContext.root.self_s"] = "s"
    m["chart.EvalContext.root.calls"] = "count"
    m["chart.memo.hit_ratio"] = "ratio"
    m["findiff.fd_jet.self_s"] = "s"
    m["findiff.fd_jet.incl_s"] = "s"
    m["findiff.fd_jet.calls"] = "count"
    m["findiff.stencil_evals"] = "count"
    for f in CALCULUS:
        m[f"calculus.{f}.self_s"] = "s"
    for f in EXTERIOR:
        m[f"exterior.{f}.self_s"] = "s"
    for mod, names in CHECKS.items():
        for f in names:
            m[f"{mod}.{f}.incl_s"] = "s"
            m[f"{mod}.{f}.rss_rise_mb"] = "MB"
    for model in model_names:
        m[f"models.build_model.{model}.s"] = "s"
    for suite in suite_names:
        m[f"suites.run_suite.{suite}.incl_s"] = "s"
    m["trace.lab_s"] = "s"
    m["trace.untraced_lab_s"] = "s"
    m["trace.overhead_s"] = "s"
    return m


def trusted_pairs(nvars: int, ok: int, order: int) -> int:
    """Pair count of ``jetspace(nvars, ok)``, capped at the context order.

    Pairs of monomials in ``nvars`` variables with total degree <= k are
    monomials of degree <= k in ``2 * nvars`` variables: C(k + 2n, 2n).
    """
    k = min(ok, order)
    return math.comb(k + 2 * nvars, 2 * nvars) if k >= 0 else 0


def jj_cost(spec, x, y) -> tuple:
    """Span name, multiply-adds, trusted multiply-adds and bytes of one jj."""
    sp = x.space
    ok = min(x.ok, y.ok)
    split = f"o{sp.order}k{ok}"
    lhs, rhs = spec.split("->")
    a, b = lhs.split(",")
    size = dict(zip(a, x.c.shape[:-2]))
    size.update(zip(b, y.c.shape[:-2]))
    nb = x.c.shape[-1]
    pairs = len(sp.mul_a)
    outer = math.prod(size.values())
    out_t = math.prod(size[ch] for ch in rhs)
    # Each array jj reads or writes, once: operands, the two gathered
    # pair arrays (written, then read by einsum), the product (written,
    # then read by reduceat) and the output.
    ga = x.c.size // sp.ncoef * pairs
    gb = y.c.size // sp.ncoef * pairs
    words = x.c.size + y.c.size + 2 * (ga + gb + out_t * pairs * nb) + out_t * sp.ncoef * nb
    return (f"jets.jj.{split if split in JJ_SPLITS else 'other'}",
            outer * pairs * nb,
            outer * trusted_pairs(sp.nvars, ok, sp.order) * nb,
            words * x.c.itemsize)


class Tracer:
    """Spans and exact counters of one traced phase."""

    def __init__(self):
        self.jj_costs: dict = {}
        self.reset()

    def reset(self):
        self.spans: list = []
        self.stack: list = []
        self.counts: Counter = Counter()
        self.rss_rise: defaultdict = defaultdict(float)

    def take(self) -> "Tracer":
        """Hand over what was recorded so far and start afresh."""
        done = Tracer()
        done.spans, done.counts, done.rss_rise = self.spans, self.counts, self.rss_rise
        self.reset()
        return done

    # -- recording -------------------------------------------------------

    def call(self, name, fn, args, kwargs, rss_key=None):
        spans, stack = self.spans, self.stack
        i = len(spans)
        parent = stack[-1] if stack else -1
        spans.append(None)
        stack.append(i)
        if rss_key is not None:
            rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            # A tuple of atoms: the garbage collector stops tracking it.
            spans[i] = (name, t0, time.perf_counter(), parent)
            stack.pop()
            if rss_key is not None:
                rise = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss0
                self.rss_rise[rss_key] += rise / 1024.0

    def count_jj(self, spec, x, y) -> str:
        """Add one jj's exact counts; return its span name."""
        key = (spec, x.space, x.c.shape, y.c.shape, x.ok, y.ok, x.c.itemsize)
        cost = self.jj_costs.get(key)
        if cost is None:
            cost = self.jj_costs[key] = jj_cost(spec, x, y)
        name, madds, trusted, nbytes = cost
        c = self.counts
        c["jj.madds"] += madds
        c["jj.trusted_madds"] += trusted
        c["jj.bytes"] += nbytes
        return name

    # -- results ---------------------------------------------------------

    def self_and_incl(self):
        """Per-name self and inclusive seconds, and call counts."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_s, incl_s, calls = defaultdict(float), defaultdict(float), Counter()
        for (name, t0, t1, _), ch in zip(self.spans, child):
            self_s[name] += (t1 - t0) - ch
            incl_s[name] += t1 - t0
            calls[name] += 1
        return self_s, incl_s, calls

    def write(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names,
                       "spans": [[index[n], t0, t1, p] for n, t0, t1, p in self.spans]},
                      fh, separators=(",", ":"))


def _rebind(modules, home, attr, wrapper) -> int:
    """Bind ``wrapper`` wherever ``home.attr`` is bound; return the count."""
    orig = getattr(home, attr, None)
    if not callable(orig):
        raise LookupError(f"{home.__name__}.{attr} is not a function")
    n = 0
    for mod in modules:
        for key, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, key, wrapper)
                n += 1
    if n == 0:
        raise LookupError(f"{home.__name__}.{attr} is bound nowhere")
    return n


def install(nk, tracer: Tracer) -> dict:
    """Wrap every traced function of the loaded package ``nk``.

    ``nk`` maps short module names (``jets``, ``chart``, ...) to modules.
    Returns ``{target: number of namespaces rebound}``.  Raises LookupError
    when a target is missing, so renamed functions fail loudly.
    """
    modules = list(nk.values())
    bound = {}

    def plain(mod, attr, rss=False):
        fn = getattr(nk[mod], attr, None)
        label = f"{mod}.{attr}"
        key = label if rss else None

        def wrapper(*args, **kwargs):
            return tracer.call(label, fn, args, kwargs, key)

        bound[label] = _rebind(modules, nk[mod], attr, wrapper)

    for f in JETS:
        if f != "jj":
            plain("jets", f)
    jj = nk["jets"].jj

    def jj_wrapper(spec, x, y):
        return tracer.call(tracer.count_jj(spec, x, y), jj, (spec, x, y), {})

    bound["jets.jj"] = _rebind(modules, nk["jets"], "jj", jj_wrapper)

    fd_jet = nk["findiff"].fd_jet

    def fd_wrapper(f, points, *args, **kwargs):
        def counted(pts):
            tracer.counts["findiff.stencil_evals"] += len(pts)
            return f(pts)

        return tracer.call("findiff.fd_jet", fd_jet, (counted, points, *args), kwargs)

    bound["findiff.fd_jet"] = _rebind(modules, nk["findiff"], "fd_jet", fd_wrapper)

    for f in CALCULUS:
        plain("calculus", f)
    for f in EXTERIOR:
        plain("exterior", f)
    for mod, names in CHECKS.items():
        for f in names:
            plain(mod, f, rss=True)

    build_model = nk["models"].build_model

    def build_wrapper(name, *args, **kwargs):
        return tracer.call(f"models.build_model.{name}", build_model,
                           (name, *args), kwargs)

    bound["models.build_model"] = _rebind(modules, nk["models"], "build_model", build_wrapper)

    run_suite = nk["suites"].run_suite

    def suite_wrapper(model, suite, *args, **kwargs):
        return tracer.call(f"suites.run_suite.{suite}", run_suite,
                           (model, suite, *args), kwargs)

    bound["suites.run_suite"] = _rebind(modules, nk["suites"], "run_suite", suite_wrapper)

    ctx_cls = nk["chart"].EvalContext
    root, memo = ctx_cls.root, ctx_cls.memo

    def root_wrapper(self, name):
        return tracer.call("chart.EvalContext.root", root, (self, name), {})

    def memo_wrapper(self, key, make):
        built = []

        def build(ctx):
            built.append(True)
            return make(ctx)

        out = memo(self, key, build)
        tracer.counts["memo.lookups"] += 1
        tracer.counts["memo.hits"] += not built
        return out

    bound["chart.EvalContext.root"] = _rebind([ctx_cls], ctx_cls, "root", root_wrapper)
    bound["chart.EvalContext.memo"] = _rebind([ctx_cls], ctx_cls, "memo", memo_wrapper)
    return bound


def layer_metrics(tracer: Tracer, setup: Tracer, model_names, suite_names) -> dict:
    """Per-layer metric values, keyed like :func:`metric_units`.

    ``tracer`` holds the traced pass and ``setup`` the traced set-up, which
    the ``models.build_model`` metrics come from.
    """
    self_s, incl_s, calls = tracer.self_and_incl()
    c = tracer.counts
    m = {}
    for f in JETS:
        if f == "jj":
            names = [f"jets.jj.{s}" for s in JJ_SPLITS]
            m["jets.jj.self_s"] = sum(self_s[n] for n in names)
            m["jets.jj.calls"] = sum(calls[n] for n in names)
        else:
            m[f"jets.{f}.self_s"] = self_s[f"jets.{f}"]
            m[f"jets.{f}.calls"] = calls[f"jets.{f}"]
    for split in JJ_SPLITS:
        m[f"jets.jj.{split}.self_s"] = self_s[f"jets.jj.{split}"]
    m["jets.jj.madds"] = c["jj.madds"]
    m["jets.jj.bytes"] = c["jj.bytes"]
    m["jets.jj.trusted_frac"] = c["jj.trusted_madds"] / c["jj.madds"] if c["jj.madds"] else 0.0
    m["jets.jj.us_per_call"] = (1e6 * m["jets.jj.self_s"] / m["jets.jj.calls"]
                                if m["jets.jj.calls"] else 0.0)
    m["chart.EvalContext.root.self_s"] = self_s["chart.EvalContext.root"]
    m["chart.EvalContext.root.calls"] = calls["chart.EvalContext.root"]
    m["chart.memo.hit_ratio"] = (c["memo.hits"] / c["memo.lookups"]
                                 if c["memo.lookups"] else 0.0)
    m["findiff.fd_jet.self_s"] = self_s["findiff.fd_jet"]
    m["findiff.fd_jet.incl_s"] = incl_s["findiff.fd_jet"]
    m["findiff.fd_jet.calls"] = calls["findiff.fd_jet"]
    m["findiff.stencil_evals"] = c["findiff.stencil_evals"]
    for f in CALCULUS:
        m[f"calculus.{f}.self_s"] = self_s[f"calculus.{f}"]
    for f in EXTERIOR:
        m[f"exterior.{f}.self_s"] = self_s[f"exterior.{f}"]
    for mod, names in CHECKS.items():
        for f in names:
            m[f"{mod}.{f}.incl_s"] = incl_s[f"{mod}.{f}"]
            m[f"{mod}.{f}.rss_rise_mb"] = tracer.rss_rise[f"{mod}.{f}"]
    setup_incl = setup.self_and_incl()[1]
    for model in model_names:
        m[f"models.build_model.{model}.s"] = setup_incl[f"models.build_model.{model}"]
    for suite in suite_names:
        m[f"suites.run_suite.{suite}.incl_s"] = incl_s[f"suites.run_suite.{suite}"]
    return m
