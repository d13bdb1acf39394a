"""Check registry and suite runner.

Every verification exposed by the library is registered here as a named
check: a kebab-case identifier, the suite it belongs to, the models it
applies to (the suite's own models from :data:`SUITES` unless the entry
narrows them), a default tolerance, and a recipe extracting its residual
from one of the shared computations.  The runner executes the selected
(model, suite) pairs, reusing contexts and intermediate results within a
model, and emits one :class:`~nklab.report.CheckResult` per check.

The run goes model by model, and each model's session walks its points
chunk by chunk.  The session's points are cut into consecutive chunks of
:data:`CHUNK` points, in order, by the batch rule of
:func:`~nklab.jets.chunks`: every chunk starts at a multiple of 8, and
none holds fewer than 8 points unless the whole session does, so every
source's per-point arrays agree bit for bit with one large batch.
Measured: a chunk starting at 60, 65 or 68 of 260 points changes exact
rows.  The loop is chunk-major.  For each chunk, the model computes the
shared sources its selected checks read on that chunk's points, in check
order, in the chunk's one context, which is released, with all its
memoized jets, at the chunk's end.  So one context on one chunk is alive
at a time, and peak memory follows it, not the sample count.  Each
source returns per-point arrays for a chunk, which are written to
their rows of the source's arrays for all the points.  After the last
chunk, its finishing step (:data:`_FINISH`, if it has one) computes its
scalar keys from those, once.  A multi-chunk run thus computes the same
arrays as one batch, and every scalar by the same formula.  The
context-free sources run last, once every source with a context is
finished and cached, with no context alive.  The rows are then read from
the cached results and emitted in suite order, as if the suites had run
one after the other; a source that raised on any chunk is cached as its
error, and every row that reads it reports that error.  A session keeps
only its source results, and is let go once its model's rows are out.

Each model of a run gets one session, which reads only that model.  Its
``ctx()`` is the one place that decides where a check looks: every
source with a context is handed the session's one context on the whole
current chunk of the session's chart, so all of them read every point
of the run.  The chart is the model's, or its
:func:`~nklab.findiff.fd_chart` in ``mode`` "fd" (:meth:`_Session.backend`);
the mode does nothing else.  A source's order is the lowest one whose
jets its reads still trust: every check reads values only, so a source
that differentiates its chart fields k times declares order k, and one
order lower it raises ``ValueError``.

One context per chunk, in both modes, of the model's root order
(:func:`_root_order`; 2, and 1 for ``s3s3-product``): truncation of a
Taylor jet is exact, and an fd coefficient takes the Richardson step of
its degree whatever the order (:func:`~nklab.findiff.default_step`), so
the context holds all that a lower order reads, and a derivative read
only as a value takes its argument cut to order 1
(:func:`~nklab.calculus.cut`).  The root order follows from the tables,
not from the sources a run selects, so every run rounds the jets alike.

Most sources only call one check on the session's context; each of those
is one :data:`_SOURCES` entry made by :func:`_check`, which names the
check's module and function, and the seed offset of its probes if it
draws any.

A point's residuals do not depend on its chunk.  The sources with random
probes (``ortho``, ``type``, ``frame``, ``elem`` and ``ctype``) draw them
through :meth:`_Session.probes`: each draw is made once, from the session's
seed plus the source's own offset and in the source's order, for all the
session's points, and each chunk reads its rows.  With one chunk these are
the generator's own draws.  ``canon``'s three probe directions are the same
at every point, drawn from the same seed per chunk.

Two context-free sources take points of their own, and evaluate them
chunk by chunk by the same rule in contexts of their own (:func:`_chunked`),
with probes drawn for all their points at once.  ``homothety`` reads
rescaled copies of ``s3s3`` on its own ``max(4, samples // 2)`` points.
``sek`` reads the first quarter of the session's points, in whole 8-point
blocks (16 at 50 samples, 8 at 20), with jets of order 4 and frame seeds
drawn from its own generator.  It alone keeps a quarter: on every point
its order-4 contexts raised the exact lab's peak RSS at 50 samples by
15% (56.3 to 64.5 MB) and its pass time by a quarter, while the order-2
sources cost little once they share the order-2 context and its memo.
The gauge scan of ``gauge`` reads the first 6 points and no root field,
and ``gauge`` compares the session's ``ansatz`` with a gauge-shifted copy
by values only, in exact contexts of its own.

Residuals are reduced here and nowhere else.  For each key a check reads,
a source returns a float array of shape ``(nbatch,)``: the max of |residual|
at each point it evaluated.  :func:`_extract` takes a row's residual as the
``np.max`` over points and keys, which propagates NaN; a row's ``value`` is
the ``np.mean`` of its ``value_key`` array.  The scalar keys, each computed
once from the per-point arrays of its source over all its points:

* ``constant_type_spread``: max - min of the type constant over all pairs,
  with the ``ctype`` quantiles and pair count;
* ``search_residual``: a selection over gauges, on its own 6 points;
* ``equiv_metric``, ``equiv_j``: gauge-equivalence maxima on their own 8 points;
* ``sek``'s Sekigawa mean terms ``laplacian_sstar``, ``div_rho_nabla_omega``,
  ``norm_phi``, ``norm_nabla_omega``, ``norm_rough_omega``, ``norm_r_anti``,
  ``lhs``, ``rhs``, ``sstar`` and ``sstar_48_dev`` (|``sstar`` - 48|).

Expected failures are declared in :data:`XFAIL`: those are checks whose
residual is *supposed* to exceed the tolerance on a particular model
(negative controls).  An expected failure that passes is reported as
``xpass`` and treated as a failure of the run.
"""
from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass

import numpy as np

from . import ansatz as A
from . import jets as J
from . import models as M
from . import nkcore as NK
from . import reduction as R
from .chart import ConfigError, EvalContext, sample_points
from .findiff import fd_chart
from .report import CheckResult

__all__ = [
    "CheckSpec",
    "CHECKS",
    "SUITES",
    "XFAIL",
    "MODEL_NAMES",
    "MODES",
    "checks_for",
    "run_suite",
    "run",
]

MODEL_NAMES = tuple(M.MODEL_BUILDERS)

MODES = ("exact", "fd")  #: derivative backends: exact jets, or fd root jets (``findiff``)

#: suite name -> models it covers by default
SUITES = {
    "gray": ("s3s3", "s6"),
    "nk-core": ("s3s3", "s6", "s3s3-product"),
    "reduction": ("s3s3", "ansatz", "s6"),
    "lie": ("s3s3", "ansatz"),
    "canonical": ("s3s3", "ansatz"),
    "base": ("s2s2",),
    "ansatz": ("ansatz",),
}

#: (suite, model, check) -> reason.  Residuals here must *exceed* tol.
XFAIL = {
    ("nk-core", "s3s3-product", "nk-condition"):
        "product metric: the almost complex structure is not nearly Kahler",
    ("reduction", "s6", "killing-unit"):
        "rotation generator is Killing but nowhere unit on the round six-sphere",
}


@dataclass(frozen=True)
class CheckSpec:
    check: str
    suite: str
    source: str
    key: object                 # str or tuple of str (max over keys)
    tol: float
    models: tuple               # the models the check runs on
    value_key: str | None = None


def _spec(check, suite, source, key, tol, value_key=None, models=None) -> CheckSpec:
    """A registry entry; ``models`` defaults to the suite's own models."""
    return CheckSpec(check, suite, source, key, tol,
                     SUITES[suite] if models is None else models, value_key)


CHECKS: list[CheckSpec] = [
    # -- torsion identities (gray) ---------------------------------------
    _spec("gray-1", "gray", "gray", "gray1", 1e-8),
    _spec("gray-2", "gray", "gray", "gray2", 1e-8),
    _spec("gray-3", "gray", "gray", "gray3", 1e-8),
    _spec("gray-4", "gray", "gray", "gray4", 1e-8),
    _spec("gray-5", "gray", "gray", "gray5", 1e-6),
    _spec("torsion-orthogonality", "gray", "ortho", "torsion_orthogonality", 1e-9),
    _spec("four-argument-identity", "gray", "type", "four_argument", 1e-8),
    _spec("square-norm", "gray", "type", "square_minus_norm", 1e-8),
    _spec("rough-contraction", "gray", "type", "rough_laplacian", 1e-8),
    _spec("adapted-frame-omega", "gray", "frame", "omega", 1e-8),
    _spec("adapted-frame-psi", "gray", "frame", "psi", 1e-7),
    _spec("adapted-frame-star-psi", "gray", "frame", "star_psi", 1e-7),
    _spec("elementary-identities", "gray", "elem",
          ("volume", "star_one_form", "star_omega", "norm_omega",
           "interior_omega", "interior_star_omega", "interior_d_omega",
           "omega_wedge_d_omega", "codifferential_omega"), 1e-8),
    # -- defining conditions and curvature (nk-core) ---------------------
    _spec("acs-square", "nk-core", "nk", "j_square", 1e-8),
    _spec("metric-compat", "nk-core", "nk", "compatible", 1e-8),
    _spec("nk-condition", "nk-core", "nk", "nk_condition", 1e-8),
    _spec("einstein-ricci", "nk-core", "einstein", "ricci", 1e-6,
          models=("s3s3", "s6")),
    _spec("scal-30", "nk-core", "einstein", "scal", 1e-6,
          value_key="scal_value", models=("s3s3", "s6")),
    _spec("ricci-star", "nk-core", "einstein", "ricci_star", 1e-6,
          models=("s3s3", "s6")),
    _spec("ricci-star-operator", "nk-core", "einstein",
          "ricci_star_operator_route", 1e-6, models=("s3s3", "s6")),
    _spec("constant-type", "nk-core", "ctype", "constant_type", 1e-7,
          models=("s3s3", "s6")),
    _spec("constant-type-spread", "nk-core", "ctype", "constant_type_spread",
          1e-7, models=("s3s3", "s6")),
    _spec("homothety", "nk-core", "homothety", "scaled_spread", 1e-8,
          models=("s3s3",)),
    _spec("laplacian-omega-rough", "nk-core", "lapom", "rough_laplacian",
          1e-6, models=("s3s3", "s6")),
    _spec("laplacian-omega", "nk-core", "lapom", "hodge_laplacian", 1e-6,
          models=("s3s3", "s6")),
    _spec("weitzenboeck", "nk-core", "lapom", "weitzenboeck", 1e-6,
          models=("s3s3", "s6")),
    # -- unit Killing reduction ------------------------------------------
    _spec("killing-unit", "reduction", "killing", "unit_length", 1e-6),
    _spec("killing-field", "reduction", "killing", "killing", 1e-6),
    _spec("killing-preserves-structure", "reduction", "killing",
          ("preserves_j", "preserves_omega", "preserves_d_omega"), 1e-6,
          models=("s3s3", "ansatz")),
    _spec("foliation", "reduction", "foliation",
          ("acc_xi_xi", "acc_jxi_xi", "acc_xi_jxi", "acc_jxi_jxi",
           "commutator", "interior_xi_dzeta", "interior_jxi_dzeta"), 1e-6,
          models=("s3s3", "ansatz")),
    _spec("vertical-kill", "reduction", "acs", "kills_vertical", 1e-8,
          models=("s3s3", "ansatz")),
    _spec("transversal-algebra", "reduction", "acs",
          ("i_square", "k_square", "jhat_square", "sigma_square", "k_is_ij",
           "ij_anticommute", "ik_anticommute", "jk_anticommute",
           "jhat_commutes_i", "jhat_commutes_k", "jhat_commutes_j",
           "skew_i", "skew_k", "skew_jhat"), 1e-8,
          models=("s3s3", "ansatz")),
    _spec("dzeta-split", "reduction", "acs",
          ("dzeta_invariant_part", "dzeta_anti_part"), 1e-6,
          models=("s3s3", "ansatz")),
    _spec("acs-nablaj", "reduction", "acs", "a_is_2_nabla_xi", 1e-6,
          models=("s3s3", "ansatz")),
    _spec("torsion-route", "reduction", "acs", "torsion_via_ik", 1e-6,
          models=("s3s3", "ansatz")),
    _spec("transversal-parallel", "reduction", "tpar",
          ("parallel_i", "parallel_k"), 1e-6, models=("s3s3", "ansatz")),
    _spec("lemma-norm-dzeta11", "reduction", "norms", "norm_dzeta11_dev",
          1e-6, value_key="norm_dzeta11", models=("s3s3", "ansatz")),
    _spec("lemma-norm-dzeta20", "reduction", "norms", "norm_dzeta20_dev",
          1e-6, value_key="norm_dzeta20", models=("s3s3", "ansatz")),
    _spec("lemma-norm-jhat", "reduction", "norms", "norm_jhat_dev",
          1e-6, value_key="norm_jhat", models=("s3s3", "ansatz")),
    _spec("lemma-norm-djzeta", "reduction", "norms", "norm_djzeta_dev",
          1e-6, value_key="norm_djzeta", models=("s3s3", "ansatz")),
    _spec("dzeta-omega-ip", "reduction", "norms",
          ("ip_dzeta_omega", "ip_dzeta11_omega"), 1e-8,
          models=("s3s3", "ansatz")),
    _spec("djzeta-omega-i", "reduction", "norms", "djzeta_is_m3_omega_i",
          1e-6, models=("s3s3", "ansatz")),
    _spec("interior-domega", "reduction", "norms",
          ("interior_xi_domega", "interior_jxi_domega"), 1e-6,
          models=("s3s3", "ansatz")),
    _spec("laplacian-zeta", "reduction", "norms", "laplacian_zeta", 1e-5,
          models=("s3s3", "ansatz")),
    _spec("laplacian-jzeta", "reduction", "norms", "laplacian_jzeta", 1e-5,
          models=("s3s3", "ansatz")),
    _spec("dstar-jzeta", "reduction", "norms", "codifferential_jzeta", 1e-6,
          models=("s3s3", "ansatz")),
    _spec("nabla-omega-xi", "reduction", "norms", "nabla_omega_nabla_xi",
          1e-6, models=("s3s3", "ansatz")),
    _spec("g0-spectrum", "reduction", "norms", "g0_spectrum", 1e-8,
          models=("s3s3", "ansatz")),
    _spec("sigma-trace", "reduction", "norms", "sigma_trace", 1e-8,
          models=("s3s3", "ansatz")),
    _spec("sigma-spectrum", "reduction", "norms", "sigma_spectrum", 1e-8,
          models=("s3s3", "ansatz")),
    _spec("g-from-g0", "reduction", "norms", "g_from_g0", 1e-6,
          models=("s3s3", "ansatz")),
    _spec("djxi", "reduction", "djxi", "d_interior_jxi_domega", 1e-6,
          models=("s3s3", "ansatz")),
    # -- Lie derivatives along the rotated Killing direction -------------
    _spec("lie-metric", "lie", "lie", "metric", 1e-7),
    _spec("lie-dzeta", "lie", "lie", "dzeta", 1e-7),
    _spec("lie-djzeta", "lie", "lie", "djzeta", 1e-7),
    _spec("lie-omega", "lie", "lie", "omega", 1e-7),
    _spec("lie-omega-cartan-route", "lie", "lie", "omega_cartan_route", 1e-7),
    _spec("lie-j-endo", "lie", "lie", "j_endo", 1e-7),
    _spec("lie-omega-k", "lie", "lie", "omega_k", 1e-7),
    _spec("lie-k-endo", "lie", "lie", "k_endo", 1e-7),
    _spec("lie-omega-jhat", "lie", "lie", "omega_jhat", 1e-7),
    _spec("lie-jhat-endo", "lie", "lie", "jhat_endo", 1e-7),
    _spec("lie-omega-i", "lie", "lie", "omega_i", 1e-7),
    _spec("lie-i-endo", "lie", "lie", "i_endo", 1e-7),
    _spec("lie-two-omega-jhat", "lie", "lie", "two_omega_jhat", 1e-7),
    _spec("lie-sigma-flat", "lie", "lie", "sigma_flat", 1e-7),
    _spec("lie-g0", "lie", "lie", "g0", 1e-7),
    _spec("lie-transport-i", "lie", "lie", "transport_i", 1e-7),
    _spec("lie-transport-jhat", "lie", "lie", "transport_jhat", 1e-7),
    _spec("lie-transport-k", "lie", "lie", "transport_k", 1e-7),
    _spec("lie-xi-invariance", "lie", "lie", "xi_invariance", 1e-7),
    # -- reduced Kahler data and the canonical connection ----------------
    _spec("g0-connection-two-route", "canonical", "g0conn",
          "difference_tensor", 1e-6),
    _spec("g0-projector-algebra", "canonical", "g0conn",
          "projector_algebra", 1e-8),
    _spec("kahler-i0-square", "canonical", "kahler", "i0_square", 1e-8),
    _spec("kahler-i0-compatible", "canonical", "kahler", "i0_compatible", 1e-8),
    _spec("omega-i-via-i0", "canonical", "kahler", "omega_i_via_i0", 1e-6),
    _spec("omega0-jhat-half-dzeta", "canonical", "kahler",
          "omega0_jhat_half_dzeta", 1e-6),
    _spec("omega0-jhat-closed", "canonical", "kahler",
          "omega0_jhat_closed", 1e-6),
    _spec("omega-k-split", "canonical", "kahler",
          ("omega_k_invariant_part", "omega_k_anti_part"), 1e-6),
    _spec("omega-j-anti", "canonical", "kahler", "omega_j_anti_invariant", 1e-6),
    _spec("psi-type", "canonical", "kahler", "psi_type", 1e-6),
    _spec("psi-route-j", "canonical", "kahler", "psi_intermediate_j", 1e-6),
    _spec("psi-route-k", "canonical", "kahler", "psi_intermediate_k", 1e-6),
    _spec("psi-via-k", "canonical", "kahler", "psi_via_k", 1e-6),
    _spec("psi-norm", "canonical", "kahler", "psi_norm_dev", 1e-6,
          value_key="psi_norm"),
    _spec("kahler-i0-parallel", "canonical", "kahler", "i0_parallel", 1e-6),
    _spec("kahler-k-parallel", "canonical", "kahler", "k_parallel", 1e-6),
    _spec("kahler-psi-parallel", "canonical", "kahler", "psi_parallel", 1e-6),
    _spec("zeta-prime-pairing", "canonical", "kahler",
          "zeta_prime_pairing", 1e-8),
    _spec("dzeta-prime", "canonical", "kahler",
          ("dzeta_prime_omega_i", "dzeta_prime_i0"), 1e-6),
    _spec("phase-equation", "canonical", "kahler", "phase_equation", 1e-6),
    _spec("connection-metric-parallel", "canonical", "canon",
          "metric_parallel", 1e-8),
    _spec("connection-j-parallel", "canonical", "canon", "j_parallel", 1e-8),
    _spec("connection-xi-derivative", "canonical", "canon",
          "xi_derivative", 1e-7),
    _spec("sigma-parallel", "canonical", "canon",
          "sigma_transversal_parallel", 1e-6),
    _spec("ef-splitting", "canonical", "canon",
          ("j_maps_e_to_f", "e_projector_parallel", "splitting_parallel"),
          1e-6),
    # -- the four-dimensional base ---------------------------------------
    _spec("base-einstein", "base", "base", "einstein_12", 1e-7),
    _spec("base-structure-algebra", "base", "base",
          ("i0_square", "i0_compatible", "jhat_square", "jhat_compatible",
           "i0_jhat_commute"), 1e-8),
    _spec("base-kahler-parallel", "base", "base",
          ("i0_parallel", "jhat_parallel", "i0_form_closed",
           "jhat_form_closed"), 1e-6),
    _spec("sekigawa-identity", "base", "sek", "identity_residual", 1e-5),
    _spec("sekigawa-terms", "base", "sek",
          ("laplacian_sstar", "div_rho_nabla_omega", "norm_phi",
           "norm_nabla_omega", "norm_rough_omega", "norm_r_anti",
           "lhs", "rhs"), 1e-5),
    _spec("base-sstar", "base", "sek", "sstar_48_dev", 1e-6,
          value_key="sstar"),
    # -- the assembled torus-bundle model --------------------------------
    _spec("ansatz-connection", "ansatz", "conn",
          ("dtheta_plus_12_omega_i0", "dmu_minus_2_omega_jhat"), 1e-8),
    _spec("ansatz-twisted-parallel", "ansatz", "conn", "twisted_parallel", 1e-8),
    _spec("ansatz-gauge-search", "ansatz", "gauge", "search_residual", 1e-8),
    _spec("ansatz-gauge-equivalence", "ansatz", "gauge",
          ("equiv_metric", "equiv_j"), 1e-8),
    _spec("ansatz-acs-square", "ansatz", "nk", "j_square", 1e-8),
    _spec("ansatz-nk-condition", "ansatz", "nk", "nk_condition", 1e-8),
    _spec("ansatz-constant-type", "ansatz", "ctype", "constant_type", 1e-5),
    _spec("ansatz-scal", "ansatz", "einstein", "scal", 1e-4,
          value_key="scal_value"),
]


def checks_for(suite: str, model: str) -> list[CheckSpec]:
    return [spec for spec in CHECKS if spec.suite == suite and model in spec.models]


# ---------------------------------------------------------------------------
# shared per-model computations


#: Points per chunk: a session, and :func:`_chunked`, evaluate their points
#: this many at a time.
CHUNK = 64


def _stripped(e: Exception) -> Exception:
    """``e`` with its tracebacks, and those of its causes, dropped, so a
    cached error keeps no context alive."""
    err = e
    while err is not None:
        err.__traceback__ = None
        err = err.__cause__ or err.__context__
    return e


class _Probes:
    """The random probes of a source, for the points of one chunk.

    A check draws its probes as from an rng, with ``standard_normal``, each
    draw with the points on its first axis.  Each draw is made once, on
    its first request, for all ``n`` points of the source, from ``rng`` in
    the order the check asks, and kept in ``draws``; the k-th request of a
    chunk reads its ``rows`` of the k-th draw.
    """

    def __init__(self, draws: list, rng, n: int, rows: slice):
        self._draws, self._rng, self._n, self._rows = draws, rng, n, rows
        self._k = 0

    def standard_normal(self, shape):
        if self._k == len(self._draws):
            self._draws.append(self._rng.standard_normal((self._n, *shape[1:])))
        out = self._draws[self._k][self._rows]
        self._k += 1
        if out.shape != tuple(shape):
            raise ValueError(f"a probe draw of shape {tuple(shape)} is not "
                             f"the chunk's rows {out.shape}")
        return out


class _Session:
    """Builds each intermediate computation once per (model, run).

    The one context of the current chunk, ``_ctx``, is built on demand by
    :meth:`ctx` and dropped by :meth:`release`; the source results in
    ``_cache`` live as long as the session, which ``run`` lets go once the
    model's rows are out.  A session reads only its own model.
    """

    def __init__(self, model: str, samples: int, seed: int, mode: str):
        self.model = model
        self.samples = int(samples)
        self.seed = int(seed)
        self.mode = mode
        self.bundle = M.build_model(model)
        self.chart = self.backend(self.bundle.chart)
        self.pts = sample_points(self.chart, self.samples,
                                 np.random.default_rng(seed))
        self._cache: dict = {}
        self._unbilled: dict = {}
        self._ctx: EvalContext | None = None
        self._draws: dict = {}
        self.root_order = _root_order(model)
        # the chunk being computed; all the points outside ``compute``
        self._chunk = slice(0, self.samples)

    def backend(self, chart):
        """``chart``, or its fd chart in an fd session."""
        return chart if self.mode == "exact" else fd_chart(chart)

    def ctx(self) -> EvalContext:
        """The context of the current chunk: jets of the root order."""
        if self._ctx is None:
            self._ctx = EvalContext(self.chart, self.pts[self._chunk], self.root_order)
        return self._ctx

    def probes(self, offset: int) -> _Probes:
        """The probes of seed offset ``offset`` at the current chunk's
        points: draws of a generator seeded ``seed + offset``, each made
        once for all the session's points (:class:`_Probes`) and kept
        until :meth:`compute` has walked its chunks."""
        draws = self._draws.setdefault(offset, ([], np.random.default_rng(self.seed + offset)))
        return _Probes(*draws, self.samples, self._chunk)

    def release(self) -> None:
        """Drop the context and its jets; cached source results stay."""
        self._ctx = None

    def get(self, source: str) -> dict:
        """The result of ``source``, computed on first use.

        A source that raised is cached as its error, raised again to every
        reader with no traceback.
        """
        if source not in self._cache:
            self.compute((source,))
        out = self._cache[source]
        if isinstance(out, Exception):
            raise out.with_traceback(None)
        return out

    def bill(self, source: str) -> float:
        """Compute seconds of ``source``: its first reader gets them, later ones 0."""
        return self._unbilled.pop(source, 0.0)

    def compute(self, sources) -> None:
        """Compute those of ``sources`` not computed yet, chunk-major.

        For each chunk, the sources with a context run as listed, all on
        :meth:`ctx`, dropped at the chunk's end.  A source's per-point
        arrays for a chunk go to their rows of its arrays for all the
        points, made on its first chunk; after the last chunk they are
        finished and cached.  The context-free sources run last, with no
        context alive, and the probe draws are dropped before them.  A
        source that raises on a chunk skips the later ones and is cached
        as its error.
        """
        todo = [name for name in dict.fromkeys(sources) if name not in self._cache]
        keyed = [name for name in todo if _SOURCES[name][0] is not None]
        merged = dict.fromkeys(keyed)   # None, then the arrays, or the error
        clock = dict.fromkeys(todo, 0.0)
        try:
            for self._chunk in J.chunks(self.samples, CHUNK):
                for name in keyed:
                    if isinstance(merged[name], Exception):
                        continue
                    fn = _SOURCES[name][1]
                    t0 = time.perf_counter()
                    try:
                        merged[name] = _stored(merged[name], fn(self, self.ctx()),
                                               self._chunk, self.samples)
                    except Exception as e:
                        merged[name] = _stripped(e)
                    clock[name] += time.perf_counter() - t0
                self.release()
        finally:
            self.release()
            self._draws.clear()
            self._chunk = slice(0, self.samples)
        for name in [*keyed, *(name for name in todo if name not in merged)]:
            t0 = time.perf_counter()
            try:
                if name not in merged:
                    out = _SOURCES[name][1](self)
                else:
                    out = merged.pop(name)
                    if name in _FINISH and not isinstance(out, Exception):
                        out = _FINISH[name](out)
            except Exception as e:
                out = _stripped(e)
            self._cache[name] = out
            self._unbilled[name] = clock[name] + time.perf_counter() - t0


def _stored(out: dict | None, part: dict, rows: slice, n: int) -> dict:
    """``out``, a source's per-point arrays for all its ``n`` points (None
    before its first chunk), with a chunk's arrays ``part`` written to
    their ``rows``.  Made on the first chunk, they keep no per-chunk arrays
    alive between the later chunks' temporaries."""
    if out is None:
        out = {k: np.empty((n, *v.shape[1:]), v.dtype) for k, v in part.items()}
    for k, v in part.items():
        out[k][rows] = v
    return out


def _finish_ctype(out):
    dev = np.abs(out["alpha"] - 1.0)
    quantiles = {**{f"q{q}": float(np.quantile(dev, q / 100)) for q in (25, 50, 75)},
                 "max": float(np.max(dev)), "pairs": int(dev.size)}
    return {"constant_type": dev.max(axis=1),
            "constant_type_spread": float(np.max(out["alpha"]) - np.min(out["alpha"])),
            "quantiles": quantiles}


def _chunked(fn, chart, pts, order, rng) -> dict:
    """The per-point arrays of ``fn(ctx, probes)`` on all of ``pts``, chunk
    by chunk as a session takes its points: a context of ``order`` per
    chunk, and probes drawn from ``rng`` once for all the points."""
    n, draws, out = len(pts), [], None
    for rows in J.chunks(n, CHUNK):
        ctx = EvalContext(chart, pts[rows], order)
        out = _stored(out, fn(ctx, _Probes(draws, rng, n, rows)), rows, n)
    return out


def _src_homothety(s):
    """alpha scales inversely with the metric: c * alpha(c * c0) == 1, per
    point, on ``max(4, samples // 2)`` points of each rescaled chart."""
    n = max(4, s.samples // 2)
    per_scale = []
    for factor in (0.5, 1.0, 2.0):
        chart = s.backend(M.build_s3s3(scale=factor * M.S3S3_SCALE).chart)
        rng = np.random.default_rng(s.seed + 6)
        pts = sample_points(chart, n, rng)   # the probes follow the points
        alpha = _chunked(NK.constant_type_samples, chart, pts, 1, rng)["alpha"]
        per_scale.append(np.abs(factor * alpha - 1.0).max(axis=1))
    return {"scaled_spread": np.max(per_scale, axis=0)}


def _src_canon(s, ctx):
    return R.canonical_connection_checks(ctx, rng=np.random.default_rng(s.seed + 7))


def _src_sek(s):
    """The Sekigawa terms on the first quarter of the session's points, in
    whole 8-point blocks."""
    n = min(s.samples, J.MIN_CHUNK * -(-s.samples // (4 * J.MIN_CHUNK)))
    out = _chunked(R.sekigawa_terms_at, s.chart, s.pts[:n], 4, np.random.default_rng(s.seed + 8))
    means = {k: float(np.mean(v)) for k, v in out.items() if k != "identity_residual"}
    return {**means, "identity_residual": out["identity_residual"],
            "sstar_48_dev": abs(means["sstar"] - 48.0)}


def _src_gauge(s):
    # 6 points: the 50-gauge scan takes 8 ms there and 64 ms at 50 points
    # (2-vCPU Xeon); at seeds 0-3 the best wrong gauge still reads > 0.15
    found = A.gauge_search(EvalContext(s.chart, s.pts[:6], 1))
    ok = found.gauge == A.DEFAULT_GAUGE and not found.conjugate
    eq = A.gauge_equivalence_residual(s.bundle, (1, -1),
                                      samples=min(8, s.samples), seed=s.seed)
    return {
        "search_residual": found.residual if ok else 1.0 + found.residual,
        "equiv_metric": eq["metric"],
        "equiv_j": eq["J"],
    }


def _check(module, name: str, probes: int | None = None):
    """The source that calls the check ``module.name`` on the session's
    context, handing it the session's probes of seed offset ``probes``
    (:meth:`_Session.probes`) as its second argument if given.

    The check is looked up through its module at each call: the benchmark
    tracer wraps a check by rebinding the module attributes that hold it,
    so a source holding the check function itself would keep calling the
    unwrapped one, and the per-layer ``nkcore.*``, ``reduction.*`` and
    ``ansatz.*`` metrics would read zero without any error.  A name the
    module does not have raises ``AttributeError`` here, when the table is
    built.
    """
    getattr(module, name)
    if probes is None:
        return lambda s, ctx: getattr(module, name)(ctx)
    return lambda s, ctx: getattr(module, name)(ctx, s.probes(probes))


#: source name -> (context order, function).  A source's order k, the lowest
#: whose jets its reads trust, bounds its model's root order; it is called
#: once per chunk as ``fn(session, session.ctx())`` and returns per-point
#: arrays; one of order None takes no session context and is called once as
#: ``fn(session)``.
#: A source that only calls one check is made by :func:`_check`.
_SOURCES = {
    "nk": (1, _check(NK, "check_nearly_kahler")),
    "gray": (2, _check(NK, "gray_identities_check")),
    "ortho": (1, _check(NK, "orthogonality_residuals", 1)),
    "type": (2, _check(NK, "type_tensor_check", 2)),
    "frame": (1, _check(NK, "frame_expansion_check", 3)),
    "elem": (1, _check(NK, "elementary_identity_check", 4)),
    "einstein": (2, _check(NK, "einstein_and_ricci_star_check")),
    "lapom": (2, _check(NK, "laplacian_omega_check")),
    "ctype": (1, _check(NK, "constant_type_samples", 5)),
    "homothety": (None, _src_homothety),
    "killing": (2, _check(R, "verify_killing_unit")),
    "foliation": (1, _check(R, "foliation_checks")),
    "acs": (1, _check(R, "acs_check")),
    "tpar": (2, _check(R, "transversal_parallel_check")),
    "norms": (2, _check(R, "norms_and_laplacian_checks")),
    "djxi": (2, _check(R, "djxi_check")),
    "lie": (2, _check(R, "lie_derivative_suite")),
    "g0conn": (2, _check(R, "g0_connection_check")),
    "kahler": (2, _check(R, "kahler_projection_check")),
    "canon": (2, _src_canon),
    "base": (2, _check(R, "base_kahler_check")),
    "sek": (None, _src_sek),
    "conn": (1, _check(A, "connection_residuals")),
    "gauge": (None, _src_gauge),
}


#: source name -> its finishing step: it maps the source's merged per-point
#: arrays to its result, computing the scalar keys.  Without one, the merged
#: arrays are the result.
_FINISH = {"ctype": _finish_ctype}


def _root_order(model: str) -> int:
    """Order of the context of each chunk of ``model``'s sessions:
    the highest context order of the sources its checks read, whichever
    checks a run selects."""
    orders = {_SOURCES[spec.source][0] for spec in CHECKS if model in spec.models}
    return max(orders - {None}, default=0)


# ---------------------------------------------------------------------------
# runner


def _extract(data: dict, key) -> float:
    """Largest |residual| over the points and over ``key`` (a name or a
    tuple of names); a residual is a per-point array or a scalar.

    The max propagates NaN whatever its position, so a non-finite
    residual always fails the ``residual <= tol`` comparison.
    """
    keys = key if isinstance(key, tuple) else (key,)
    return float(np.abs(np.hstack([data[k] for k in keys])).max())


def run_suite(model: str, suite: str, s: _Session,
              tol_overrides: dict | None = None) -> list[CheckResult]:
    """The rows of every check of ``suite`` applicable to ``model`` in session ``s``.

    ``run`` has computed the sources already, so this only reads results; a
    source still missing is computed here.  Each row's ``seconds`` is its
    source's compute time if it is the source's first reader, else 0.
    """
    tol_overrides = tol_overrides or {}
    results = []
    for spec in checks_for(suite, model):
        tol = float(tol_overrides.get(spec.check, spec.tol))
        try:
            data = s.get(spec.source)
            residual = _extract(data, spec.key)
            value = (float(np.mean(data[spec.value_key]))
                     if spec.value_key is not None else None)
            quant = data.get("quantiles")
            detail = ""
            status = "pass" if residual <= tol else "fail"
        except Exception as e:
            residual, value, quant = float("nan"), None, None
            status, detail = "error", f"{type(e).__name__}: {e}"
        reason = XFAIL.get((suite, model, spec.check))
        if reason is not None and status in ("pass", "fail"):
            status = "xfail" if status == "fail" else "xpass"
            detail = reason
        results.append(CheckResult(
            check=spec.check, suite=suite, model=model, status=status,
            residual=residual, tolerance=tol, value=value, quantiles=quant,
            samples=s.samples, seed=s.seed, seconds=round(s.bill(spec.source), 4),
            detail=detail))
    return results


def run(models=None, suites=None, samples: int = 20, seed: int = 0,
        tol_overrides: dict | None = None, mode: str = "exact") -> list[CheckResult]:
    """Execute the selected suites over the selected models.

    With no explicit model list, each suite runs over its default models;
    with an explicit one, only the intersection runs.  The models run in
    order of first appearance, each in a session of its own: it computes
    the sources its checks read, chunk by chunk (:meth:`_Session.compute`),
    and emits its rows; the next model's session replaces it.
    The rows come back in suite order, as if the suites had run one after
    the other.  A model or suite named twice runs once.

    Before any work, :class:`~nklab.chart.ConfigError` refuses, in one
    message, a ``samples`` that is not an integer of at least 2, a ``seed``
    that is not one of at least 0 (a ``bool`` is neither), an unknown
    derivative ``mode``, every
    unknown suite, model and override check, and every override that is
    not finite and positive: a tolerance of inf passes any finite
    residual, and one of 0 or NaN fails every row.
    """
    problems = [f"{name} must be an integer of at least {low}, got {value!r}"
                for name, value, low in (("samples", samples, 2), ("seed", seed, 0))
                if not (isinstance(value, numbers.Integral) and not isinstance(value, bool)
                        and value >= low)]
    if mode not in MODES:
        problems.append(f"unknown derivative mode '{mode}'")
    tol_overrides = tol_overrides or {}
    suite_names = list(dict.fromkeys(SUITES if suites is None else suites))
    models = None if models is None else list(dict.fromkeys(models))
    unknown = (("suite(s)", set(suite_names) - set(SUITES)),
               ("model(s)", set(models or ()) - set(MODEL_NAMES)),
               ("check(s) in tolerance override", set(tol_overrides) - {c.check for c in CHECKS}))
    problems += [f"unknown {kind}: {', '.join(sorted(bad))}" for kind, bad in unknown if bad]
    problems += [f"tolerance for '{check}' must be finite and positive, got {tol!r}"
                 for check, tol in sorted(tol_overrides.items())
                 if not (math.isfinite(tol) and tol > 0)]
    if problems:
        raise ConfigError("; ".join(problems))
    pairs = []
    for suite in suite_names:
        targets = SUITES[suite] if models is None else [
            m for m in models if checks_for(suite, m)]
        pairs += [(suite, model) for model in targets]
    rows = [None] * len(pairs)
    for model in dict.fromkeys(model for _, model in pairs):
        session = _Session(model, samples, seed, mode)
        session.compute(dict.fromkeys(
            spec.source for suite, m in pairs if m == model
            for spec in checks_for(suite, m)))
        for i, (suite, m) in enumerate(pairs):
            if m == model:
                rows[i] = run_suite(model, suite, session, tol_overrides)
    return [r for block in rows for r in block]
