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

A conditional between two literals (``"a" if x else "b"``) is read as
both names, and so is a variable that the file only ever assigns such
literals to.  The reverse direction is linted too: every name declared in
the catalogue must be *used* by at least one literal call site or be a
value of ``PRUNED_METRICS``, so the catalogue cannot accumulate dead
metrics.

Exit status 0 = clean, 1 = violations found.  Run from the repo root:

    python scripts/check_metric_names.py
"""

from __future__ import annotations

import ast
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.obs.catalog import CATALOG, PRUNED_METRICS, SPAN  # noqa: E402

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
    bindings = literal_bindings(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        helper = helper_name(node)
        if helper is None:
            continue
        names = literal_names(node.args[0], bindings)
        if names is None:
            if "--strict" in sys.argv:
                violations.append(
                    f"{path.relative_to(ROOT)}:{node.lineno}: non-literal metric "
                    f"name passed to {helper}()"
                )
            continue
        for name in names:
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


def literal_names(node: ast.expr, bindings: "dict[str, list[str]]") -> "list[str] | None":
    """The metric names an argument can take, or None if it is neither a
    string literal, a conditional between literals, nor a variable in
    ``bindings``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if isinstance(node, ast.Name):
        return bindings.get(node.id)
    if isinstance(node, ast.IfExp):
        body = literal_names(node.body, bindings)
        orelse = literal_names(node.orelse, bindings)
        if body is not None and orelse is not None:
            return body + orelse
    return None


def literal_bindings(tree: ast.Module) -> "dict[str, list[str]]":
    """Variables that every assignment in the file binds to literal names."""
    bindings: "dict[str, list[str]]" = {}
    other: "set[str]" = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names = literal_names(node.value, {})
                    if names is None:
                        other.add(target.id)
                    else:
                        bindings.setdefault(target.id, []).extend(names)
    return {name: names for name, names in bindings.items() if name not in other}


#: directory trees the lint walks: a name a benchmark or script records
#: counts as used, and must be catalogued like any other
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
    # reverse check: every catalogued name must have a caller
    used.update(PRUNED_METRICS.values())
    for name in sorted(set(CATALOG) - used):
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
