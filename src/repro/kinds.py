"""Typed constructor vocabulary: index kinds, the adaptive query bound and
the one integer check that series ids and neighbour counts pass.

``IndexKind`` names the index structures the paper evaluates.  It is a
``str`` subclass whose values are what ``config.json``, ``sharding.json``
and the CLI carry, so a value read back from any of them converts with the
enum's own constructor — ``IndexKind(value)`` — which raises ``ValueError``
on a typo at construction time instead of failing mid-query.
``DistanceMode`` has one member, ``LB``: Dist_LB is the only query bound of
the adaptive methods.  :func:`require_int` refuses a ``bool`` or a float
where an id or a count belongs, which ``int()`` would truncate instead.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

__all__ = ["IndexKind", "DistanceMode", "require_int"]


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
    """The adaptive-method query bound: Dist_LB, the only one there is.

    Dist_PAR (the paper's Def. 5.1) is not a lower bound for adaptive
    layouts, so it serves as the DBCH pairwise metric only (see
    :func:`repro.distance.make_suite`).  The one member remains so that a
    :class:`repro.index.SeriesDatabase` built with ``DistanceMode.LB``
    keeps working; it refuses any other value with ``ValueError``.
    """

    LB = "lb"

    def __str__(self) -> str:
        return self.value


def require_int(value, name: str) -> int:
    """``value`` as an ``int`` if it is an integer (a NumPy integer too).

    Raises ``TypeError`` for a ``bool``, a float (``2.0`` included) or
    anything else, so ``delete(2.9)`` or ``k=2.5`` is refused rather than
    truncated to a different id or count.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, not {value!r}")
    return int(value)
