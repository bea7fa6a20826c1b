"""Lint: every instrumented call site must use a catalogued metric name.

Walks ``src/repro`` (including the ``repro.lifecycle`` durability layer),
``benchmarks`` and ``scripts`` with ``ast``, finds calls to the
observability helpers
(``obs.count`` / ``obs.gauge_set`` / ``obs.observe`` / ``obs.span`` and
their bare-imported forms, plus ``registry.counter/gauge/histogram`` and
``recorder.span``), and checks every *literal* first argument against the
canonical catalogue in ``repro.obs.catalog`` — including the kind (a span
name passed to ``count`` is as wrong as a typo).  Non-literal names are
reported only with ``--strict`` (dynamic selection is expected to go
through catalogued tables like ``PRUNED_METRICS``).

The reverse direction is linted for the experiment service's, bound
cascade's, batched-storage, serving, continuous and reduction namespaces:
every ``experiments.*`` / ``cascade.*`` / ``pages.*`` / ``columns.*`` /
``server.*`` / ``shard.*`` / ``continuous.*`` / ``reduce.*`` name declared
in the catalogue must be *used* by at least one literal call site, so the
catalogue cannot accumulate dead metrics.

Exit status 0 = clean, 1 = violations found.  Run from the repo root:

    python scripts/check_metric_names.py
"""

from __future__ import annotations

import ast
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.obs.catalog import CATALOG, SPAN  # noqa: E402

#: helper name -> the kind its first argument must be declared as
#: (None = any catalogued kind; the registry method itself re-checks)
HELPER_KINDS = {
    "count": "counter",
    "gauge_set": "gauge",
    "observe": "histogram",
    "span": SPAN,
    "counter": "counter",
    "gauge": "gauge",
    "histogram": "histogram",
}

#: files whose calls define rather than use the helpers
SKIP = {ROOT / "src" / "repro" / "obs"}


def helper_name(call: ast.Call) -> "str | None":
    """The observability helper this call targets, if any."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id if func.id in HELPER_KINDS else None
    if isinstance(func, ast.Attribute) and func.attr in HELPER_KINDS:
        return func.attr
    return None


def check_file(path: pathlib.Path, used: "set[str]") -> "list[str]":
    violations: "list[str]" = []
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        helper = helper_name(node)
        if helper is None:
            continue
        first = node.args[0]
        if not (isinstance(first, ast.Constant) and isinstance(first.value, str)):
            if "--strict" in sys.argv:
                violations.append(
                    f"{path.relative_to(ROOT)}:{node.lineno}: non-literal metric "
                    f"name passed to {helper}()"
                )
            continue
        name = first.value
        used.add(name)
        declared = CATALOG.get(name)
        if declared is None:
            violations.append(
                f"{path.relative_to(ROOT)}:{node.lineno}: {helper}({name!r}) "
                "uses a name missing from repro.obs.catalog.CATALOG"
            )
        elif declared[0] != HELPER_KINDS[helper]:
            violations.append(
                f"{path.relative_to(ROOT)}:{node.lineno}: {helper}({name!r}) "
                f"but {name!r} is declared as a {declared[0]}"
            )
    return violations


#: directory trees the lint walks (benchmarks emit engine.* names, and the
#: crash-matrix harness under scripts/ emits recovery.* names)
WALKED = (ROOT / "src" / "repro", ROOT / "benchmarks", ROOT / "scripts")


def main() -> int:
    violations: "list[str]" = []
    used: "set[str]" = set()
    for base in WALKED:
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*.py")):
            if any(skip in path.parents for skip in SKIP):
                continue
            violations.extend(check_file(path, used))
    # reverse check: every catalogued name in the fully-literal namespaces
    # must have a caller
    reverse_prefixes = (
        "experiments.",
        "cascade.",
        "pages.",
        "columns.",
        "server.",
        "shard.",
        "continuous.",
        "reduce.",
    )
    for name in sorted(CATALOG):
        if name.startswith(reverse_prefixes) and name not in used:
            violations.append(
                f"repro.obs.catalog declares {name!r} but no literal call "
                "site under the walked trees records it"
            )
    if violations:
        print(f"{len(violations)} metric-name violation(s):")
        for line in violations:
            print(f"  {line}")
        return 1
    print("metric names OK: every instrumented call site is catalogued")
    return 0


if __name__ == "__main__":
    sys.exit(main())
