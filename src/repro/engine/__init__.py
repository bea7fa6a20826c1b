"""repro.engine — batched k-NN query execution with a typed surface.

The engine answers many queries per call: per-query index frontiers advance
in lockstep while candidate verification is vectorised across the whole
batch (one NumPy matrix operation per round).
:meth:`repro.index.SeriesDatabase.knn` is a batch-of-one wrapper over the
same code path, so single and batched answers are byte-identical.  See
``docs/query_engine.md`` for semantics and caveats.
"""

from .engine import QueryEngine
from .options import BatchResult, ExecutionMode, QueryOptions

__all__ = ["BatchResult", "ExecutionMode", "QueryEngine", "QueryOptions"]
