"""Typed constructor vocabulary: index kinds and adaptive distance modes.

Historically :class:`repro.index.SeriesDatabase` took stringly-typed
``index="dbch"`` / ``distance_mode="par"`` arguments, and a typo surfaced only
deep inside the first query.  The enums here are the typed replacements:
``IndexKind`` names the index structures the paper evaluates and
``DistanceMode`` the adaptive-method query bounds (paper Sec. 6).  Both are
``str`` subclasses, so existing comparisons against the old literals keep
working and the values serialise unchanged into ``config.json``.

Plain strings are still accepted everywhere — the coercers below translate
them eagerly (raising on unknown values instead of failing mid-query) and
emit a :class:`DeprecationWarning` steering callers to the enums.
"""

from __future__ import annotations

import warnings
from enum import Enum
from typing import Optional, Union

__all__ = [
    "IndexKind",
    "DistanceMode",
    "coerce_index_kind",
    "coerce_distance_mode",
    "suite_distance_mode",
]


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


def coerce_index_kind(value: "Union[IndexKind, str, None]") -> "Optional[IndexKind]":
    """Normalise an index argument to an :class:`IndexKind` (or ``None``).

    ``None`` and ``IndexKind.NONE`` both mean "no tree" and normalise to
    ``None``.  Plain strings are accepted for backwards compatibility but
    emit a :class:`DeprecationWarning`; unknown values raise ``ValueError``
    immediately instead of at query time.
    """
    if value is None:
        return None
    if isinstance(value, IndexKind):
        return None if value is IndexKind.NONE else value
    if isinstance(value, str):
        try:
            kind = IndexKind(value)
        except ValueError:
            raise ValueError(
                f"unknown index kind: {value!r} (expected one of "
                f"{[k.value for k in IndexKind]} or None)"
            ) from None
        warnings.warn(
            f"passing index={value!r} as a string is deprecated; "
            f"use repro.IndexKind.{kind.name}",
            DeprecationWarning,
            stacklevel=3,
        )
        return None if kind is IndexKind.NONE else kind
    raise ValueError(f"unknown index kind: {value!r}")


def coerce_distance_mode(value: "Union[DistanceMode, str]") -> DistanceMode:
    """Normalise a distance-mode argument to a :class:`DistanceMode`.

    Plain strings are accepted but deprecated; unknown values raise
    ``ValueError`` eagerly so a typo cannot survive until the first
    adaptive-method query.
    """
    if isinstance(value, DistanceMode):
        return value
    if isinstance(value, str):
        try:
            mode = DistanceMode(value)
        except ValueError:
            raise ValueError(
                f"unknown adaptive distance mode: {value!r} (expected one of "
                f"{[m.value for m in DistanceMode]})"
            ) from None
        warnings.warn(
            f"passing distance_mode={value!r} as a string is deprecated; "
            f"use repro.DistanceMode.{mode.name}",
            DeprecationWarning,
            stacklevel=3,
        )
        return mode
    raise ValueError(f"unknown adaptive distance mode: {value!r}")


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
