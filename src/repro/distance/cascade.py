"""Cascaded bound evaluation — cheap dominated tiers ahead of the exact bound.

The hot cost of every search path is the per-candidate ``query_bound`` call
(Dist_LB's projection, CHEBY's reconstruction).
A :class:`BoundCascade` puts a *cheapest-first* tier in front of it: an O(1)
norm-difference bound that is **dominated** by the method's own bound —
never above the value ``query_bound`` would return — so a candidate whose
cheap tier already exceeds the pruning threshold can be skipped with the
exact same outcome the full evaluation would have had.  Results therefore
stay bit-identical to the uncascaded search: the cascade only ever avoids
work whose conclusion is already forced.

Tier per query bound (the one cheap tier each bound admits):

====================  ==================================================
bound                 cheap dominated tier (``<=`` the bound)
====================  ==================================================
``lb``                ``max(0, ||C-check|| - ||Q||)`` — projection onto
                      C's windows contracts the query norm, so
                      ``Dist_LB >= ||C-check|| - ||P_C Q|| >= ||C-check|| - ||Q||``.
``aligned``           ``| ||Q-check|| - ||C-check|| |`` — reverse triangle
                      inequality on the reconstruction distance, which the
                      aligned Dist_S sums are exactly.
``triangle``          ``max(0, | ||Q-check|| - ||C-check|| | - res_Q - res_C)``.
``mindist``           none — SAX MINDIST has no norm form; the cascade
                      reports itself unsupported and callers fall back.
====================  ==================================================

Floating-point contract: cheap tiers are computed through *different*
arithmetic than the exact bounds, so a mathematical ``cheap <= bound`` could
be violated by rounding.  Every cheap key is therefore **deflated** by
``CANCEL_REL`` of its operand scale (plus ``GUARD_ABS``), a margin four
orders of magnitude above double rounding error; comparisons against
thresholds then stay the search's ordinary strict ``>`` with no special
cases.  Skips only ever happen when the exact bound would certainly have
been above the threshold too.

Reconstruction norms are cached directly on representation objects
(``LinearSegmentation`` is a plain class; ``ChebyshevRepresentation`` is a
frozen dataclass without ``__slots__``), so they are computed once per
stored series across all queries, snapshots and worker forks.

:func:`make_pairwise_accel` packages the same norm tier for the DBCH-tree's
*build-time* distance scans (branch picking, hull recomputation, split
seeding), where the pairwise representation distance is the unit of work.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .. import obs
from ..core.linefit import SeriesStats
from ..core.segment import LinearSegmentation
from .dist_lb import dist_lb

__all__ = [
    "CANCEL_REL",
    "GUARD_ABS",
    "BoundCascade",
    "QueryCascade",
    "PairwiseAccel",
    "make_pairwise_accel",
    "reconstruction_norm",
]

#: relative deflation applied to every cheap key, as a fraction of the
#: operand scale (sum of the norms entering the subtraction).  Double
#: rounding drift across the different arithmetic routes is ~1e-13 of the
#: operand scale; 1e-9 leaves four orders of magnitude of safety.
CANCEL_REL = 1e-9

#: absolute deflation floor, for operands near zero.
GUARD_ABS = 1e-12

#: distance-suite modes that admit a cheap dominated tier.
_SUPPORTED_MODES = ("lb", "aligned", "triangle")

#: modes whose pairwise distance (Dist_PAR, or the aligned Dist_S sum) is
#: the reconstruction L2 distance — a pseudometric, so triangle-inequality
#: *upper* bounds are valid too.
_RECON_PAIRWISE_MODES = ("lb", "aligned")


def _segmentation_norm(rep: LinearSegmentation) -> float:
    """``||C-check||`` in closed form: sum of per-segment Dist_S against 0."""
    total = 0.0
    for seg in rep:
        l = seg.length
        a = seg.a
        b = seg.b
        total += l * (l - 1) * (2 * l - 1) / 6.0 * a * a + l * (l - 1) * a * b + l * b * b
    return math.sqrt(max(total, 0.0))


def reconstruction_norm(rep, reducer=None) -> float:
    """The L2 norm of ``rep``'s reconstruction, cached on the object.

    Segment representations use the Dist_S closed form; anything else
    (Chebyshev) reconstructs through ``reducer`` once and caches both the
    reconstruction and its norm.
    """
    cached = getattr(rep, "_cascade_norm", None)
    if cached is not None:
        return cached
    if isinstance(rep, LinearSegmentation):
        value = _segmentation_norm(rep)
        rep._cascade_norm = value
        return value
    recon = cached_reconstruction(rep, reducer)
    value = float(np.linalg.norm(recon))
    object.__setattr__(rep, "_cascade_norm", value)
    return value


def cached_reconstruction(rep, reducer) -> np.ndarray:
    """``rep``'s reconstruction through ``reducer``, cached on the object."""
    recon = getattr(rep, "_cascade_recon", None)
    if recon is None:
        recon = np.asarray(reducer.reconstruct(rep), dtype=float)
        object.__setattr__(rep, "_cascade_recon", recon)
    return recon


def _deflate(value: float, scale: float) -> float:
    """A certainly-not-above-the-exact-bound version of ``value``."""
    return max(0.0, value - CANCEL_REL * scale - GUARD_ABS)


class _Collection:
    """Per-collection arrays for the vectorised cheap tier."""

    __slots__ = ("sids", "norms", "residuals")

    def __init__(self, sids, norms, residuals):
        self.sids = sids
        self.norms = norms
        self.residuals = residuals


class BoundCascade:
    """Cheapest-first bound evaluation for one distance suite.

    One instance per database; hand out a :class:`QueryCascade` per query
    via :meth:`for_query`.  ``supported`` is ``False`` for methods with no
    dominated cheap tier (SAX) — callers then keep their uncascaded path.
    """

    def __init__(self, suite, reducer):
        self.suite = suite
        self.reducer = reducer
        self.mode = suite.mode
        self.supported = suite.mode in _SUPPORTED_MODES
        #: ``(cache_key, _Collection)`` for the current entry set
        self._collection = None

    # ------------------------------------------------------------------
    def rep_norm(self, rep) -> float:
        """Cached reconstruction norm of a stored representation."""
        return reconstruction_norm(rep, self.reducer)

    def collection(self, db) -> "Optional[_Collection]":
        """Norm (and residual) arrays over ``db.entries``, cached per version.

        The cache key is the database generation plus the entry count, both
        stable while a snapshot is pinned; per-representation norms are
        additionally cached on the representations themselves, so a rebuild
        after a mutation only pays for the new entries.
        """
        if not self.supported:
            return None
        entries = db.entries
        key = (getattr(db, "generation", None), len(entries))
        cached = self._collection
        if cached is not None and cached[0] == key:
            return cached[1]
        norms = np.empty(len(entries), dtype=float)
        residuals = None
        if self.mode == "triangle":
            residuals = np.empty(len(entries), dtype=float)
            for i, entry in enumerate(entries):
                norms[i] = self.rep_norm(entry.representation)
                residuals[i] = float(entry.representation.residual_norm)
        else:
            for i, entry in enumerate(entries):
                norms[i] = self.rep_norm(entry.representation)
        sids = np.array([e.series_id for e in entries], dtype=np.int64)
        collection = _Collection(sids, norms, residuals)
        self._collection = (key, collection)
        return collection

    def for_query(self, ctx) -> "Optional[QueryCascade]":
        """A per-query cascade, or ``None`` when the method has no tier."""
        if not self.supported:
            return None
        return QueryCascade(self, ctx)


class QueryCascade:
    """One query's cascade: cheap tiers, exact refinement, and counters.

    Invariant (the whole point): every value :meth:`cheap` or
    :meth:`cheap_keys` returns is ``<=`` the value the exact evaluation
    (:meth:`refine`) returns *as floating point*, thanks to the deflation
    margin.  Search code may therefore compare cheap keys against
    thresholds exactly as it compares exact keys.

    Counter increments accumulate in plain ints and flush once per query
    (:meth:`flush`), keeping the hot path free of registry lookups.
    """

    __slots__ = (
        "cascade",
        "ctx",
        "mode",
        "n_cheap",
        "n_refine",
        "_q_norm",
        "_q_residual",
        "_q_stats",
    )

    def __init__(self, cascade: BoundCascade, ctx):
        self.cascade = cascade
        self.ctx = ctx
        self.mode = cascade.mode
        self.n_cheap = 0
        self.n_refine = 0
        self._q_residual = 0.0
        if self.mode == "lb":
            self._q_norm = float(np.linalg.norm(np.asarray(ctx.series, dtype=float)))
        elif self.mode == "triangle":
            self._q_norm = cascade.rep_norm(ctx.representation)
            self._q_residual = float(ctx.representation.residual_norm)
        else:  # aligned
            self._q_norm = cascade.rep_norm(ctx.representation)
        #: lazily-built SeriesStats for Dist_LB refinement
        self._q_stats = None

    # -- cheap tier -----------------------------------------------------
    def cheap(self, rep) -> float:
        """Deflated cheap lower tier for one candidate representation."""
        self.n_cheap += 1
        qn = self._q_norm
        cn = self.cascade.rep_norm(rep)
        if self.mode == "lb":
            return _deflate(cn - qn, cn + qn)
        if self.mode == "triangle":
            residuals = self._q_residual + float(rep.residual_norm)
            return _deflate(abs(qn - cn) - residuals, qn + cn + residuals)
        return _deflate(abs(qn - cn), qn + cn)

    def cheap_keys(self, collection: _Collection) -> np.ndarray:
        """Vectorised :meth:`cheap` over a whole collection."""
        self.n_cheap += len(collection.norms)
        qn = self._q_norm
        cn = collection.norms
        if self.mode == "lb":
            raw = cn - qn
            scale = cn + qn
        elif self.mode == "triangle":
            residuals = self._q_residual + collection.residuals
            raw = np.abs(qn - cn) - residuals
            scale = qn + cn + residuals
        else:
            raw = np.abs(qn - cn)
            scale = qn + cn
        return np.maximum(raw - CANCEL_REL * scale - GUARD_ABS, 0.0)

    # -- exact tier -----------------------------------------------------
    def refine(self, rep) -> float:
        """The method's exact ``query_bound``, bit-identical to the suite's.

        Dist_LB reuses the query's :class:`SeriesStats` across candidates —
        the projection arithmetic is unchanged, only the prefix-sum build is
        amortised — every other mode calls the suite's bound directly.
        """
        self.n_refine += 1
        if self.mode == "lb":
            if self._q_stats is None:
                self._q_stats = SeriesStats(np.asarray(self.ctx.series, dtype=float))
            return dist_lb(self.ctx.series, rep, stats=self._q_stats)
        return self.cascade.suite.query_bound(self.ctx, rep)

    # -- accounting -----------------------------------------------------
    def flush(self) -> None:
        """Record this query's cascade counters (once, at finalisation)."""
        if not obs.is_enabled():
            return
        obs.count("cascade.queries")
        obs.count("cascade.cheap_bounds", self.n_cheap)
        obs.count("cascade.refines", self.n_refine)
        obs.count("cascade.entries_skipped", max(self.n_cheap - self.n_refine, 0))


class PairwiseAccel:
    """Norm tier for DBCH build-time pairwise distance scans.

    ``lower(a, b)`` is a deflated lower bound of ``distance(a, b)``;
    ``metric`` marks reconstruction-distance modes where triangle-inequality
    *upper* bounds through a shared anchor are also valid (``d(i, j) <=
    d(i, 0) + d(0, j)``), enabling the max-scan skips in hull recomputation
    and split seeding.
    """

    __slots__ = ("cascade", "metric")

    def __init__(self, cascade: BoundCascade, metric: bool):
        self.cascade = cascade
        self.metric = metric

    def lower(self, rep_a, rep_b) -> float:
        """Deflated lower bound of the suite's pairwise distance."""
        na = self.cascade.rep_norm(rep_a)
        nb = self.cascade.rep_norm(rep_b)
        if self.cascade.mode == "triangle":
            residuals = float(rep_a.residual_norm) + float(rep_b.residual_norm)
            return _deflate(abs(na - nb) - residuals, na + nb + residuals)
        return _deflate(abs(na - nb), na + nb)

    def upper(self, rep_a, rep_b) -> float:
        """Triangle upper bound of the pairwise distance through the zero
        anchor: ``d(a, b) <= d(a, 0) + d(0, b)``, where ``d(x, 0)`` is the
        representation norm (plus the residual slack in triangle mode).
        Valid only when :attr:`metric`; callers must feed it through
        :meth:`certainly_not_above`, which supplies the floating-point
        margin.
        """
        na = self.cascade.rep_norm(rep_a)
        nb = self.cascade.rep_norm(rep_b)
        if self.cascade.mode == "triangle":
            return na + nb + float(rep_a.residual_norm) + float(rep_b.residual_norm)
        return na + nb

    @staticmethod
    def certainly_not_above(upper: float, best: float) -> bool:
        """Whether a triangle upper bound proves ``d <= best`` with margin."""
        return upper * (1.0 + CANCEL_REL) + GUARD_ABS <= best


def make_pairwise_accel(suite, reducer) -> "Optional[PairwiseAccel]":
    """A :class:`PairwiseAccel` for ``suite``, or ``None`` (SAX)."""
    if suite.mode not in _SUPPORTED_MODES:
        return None
    cascade = BoundCascade(suite, reducer)
    return PairwiseAccel(cascade, metric=suite.mode in _RECON_PAIRWISE_MODES)
