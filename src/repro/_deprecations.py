"""Single-shot deprecation warnings for legacy entry points.

The public API accreted generations of entry points (the free
``knn(...)`` function, direct ``QueryEngine`` construction, string-typed
kinds).  They keep working — routed through the :mod:`repro.client`
facade — but each warns exactly once per process so a tight loop over a legacy call site does not flood
stderr.  Tests reset the memory with :func:`reset_warned`.
"""

from __future__ import annotations

import warnings

__all__ = ["warn_once", "reset_warned"]

#: keys that already warned this process (one key per legacy entry point)
_WARNED: "set[str]" = set()


def warn_once(key: str, message: str, stacklevel: int = 3) -> None:
    """Emit ``DeprecationWarning`` for ``key`` at most once per process."""
    if key in _WARNED:
        return
    _WARNED.add(key)
    warnings.warn(message, DeprecationWarning, stacklevel=stacklevel)


def reset_warned() -> None:
    """Forget which keys have warned (test isolation helper)."""
    _WARNED.clear()
