"""Typed constructor vocabulary: index kinds, adaptive distance modes and
the one integer check that series ids and neighbour counts pass.

``IndexKind`` names the index structures the paper evaluates and
``DistanceMode`` the adaptive-method query bounds (paper Sec. 6).  Both are
``str`` subclasses whose values are what ``config.json``, ``sharding.json``
and the CLI carry, so a value read back from any of them converts with the
enum's own constructor — ``IndexKind(value)`` / ``DistanceMode(value)`` —
which raises ``ValueError`` on a typo at construction time instead of
failing mid-query.  :func:`require_int` refuses a ``bool`` or a float where
an id or a count belongs, which ``int()`` would truncate instead.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

__all__ = ["IndexKind", "DistanceMode", "suite_distance_mode", "require_int"]


class IndexKind(str, Enum):
    """Index structure backing a :class:`repro.index.SeriesDatabase`.

    ``DBCH`` is the paper's distance-based covering tree, ``RTREE`` the
    Guttman baseline, and ``NONE`` the tree-less GEMINI filtered scan.
    """

    DBCH = "dbch"
    RTREE = "rtree"
    NONE = "none"

    def __str__(self) -> str:  # keep f-strings printing 'dbch', not the member
        return self.value


class DistanceMode(str, Enum):
    """Adaptive-method query-bound mode (see :func:`repro.distance.make_suite`).

    ``PAR`` is Dist_PAR (the paper's tight measure), ``LB`` is Dist_LB (the
    unconditional lower bound) and ``AE`` is Dist_AE (tight but not
    lower-bounding).  Equal-length and symbolic methods ignore the mode.
    """

    PAR = "par"
    LB = "lb"
    AE = "ae"

    def __str__(self) -> str:
        return self.value


def suite_distance_mode(reported) -> DistanceMode:
    """The :class:`DistanceMode` that rebuilds a suite reporting ``reported``.

    A suite's ``mode`` is what gets saved in configs and manifests;
    non-adaptive suites report ``'aligned'`` etc. and ignore the argument,
    so anything that is not a ``DistanceMode`` value maps to the default.
    """
    try:
        return DistanceMode(reported)
    except ValueError:
        return DistanceMode.PAR


def require_int(value, name: str) -> int:
    """``value`` as an ``int`` if it is an integer (a NumPy integer too).

    Raises ``TypeError`` for a ``bool``, a float (``2.0`` included) or
    anything else, so ``delete(2.9)`` or ``k=2.5`` is refused rather than
    truncated to a different id or count.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, not {value!r}")
    return int(value)
