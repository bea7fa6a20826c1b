"""Lint: every module under ``src/repro`` is reached from an entry point.

The roots are the surfaces the project serves: ``repro.cli`` and
``repro.__main__``, the ``repro.client``, ``repro.serving`` and
``repro.experiments`` packages, and every top-level script in ``perf/``,
``benchmarks/``, ``examples/`` and ``scripts/``.  Tests are not roots: a
module that only its own tests import is dead weight.  There is no
allowlist; delete an unreached module, or move a test oracle into
``tests/``.

Reachability is read statically with ``ast``:

* a reached file reaches every ``repro`` module it imports (at any depth,
  so lazy imports inside functions count) and every name it imports;
* ``alias.attr`` chains (``exp.evaluate_gates``) reach that attribute;
* reaching a name of a package reaches the module its ``__init__``
  re-exports it from;
* a package ``__init__`` that is not itself a root reaches only the
  imported names its own code uses (``REDUCERS = {... PAALM ...}``); a
  name that appears only in its imports and ``__all__`` reaches nothing.

Dynamic imports (``importlib``, a PEP 562 ``__getattr__``) are not
followed: a module reached only that way is reported.

Exit status 0 = every module reached, 1 = the unreached ones are listed.
Run from anywhere:

    python scripts/check_reachable.py
"""

from __future__ import annotations

import ast
import pathlib
import sys
from typing import Dict, List, Optional, Sequence, Set, Tuple

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = "repro"

#: modules and packages whose whole surface is an entry point
ROOT_MODULES = ("repro.cli", "repro.__main__", "repro.client", "repro.serving", "repro.experiments")

#: directories whose every top-level ``*.py`` is an entry point
ROOT_DIRS = ("perf", "benchmarks", "examples", "scripts")

#: what a reference resolves to: (module, None) runs the module,
#: (module, name) uses one attribute of it
Target = Tuple[str, Optional[str]]


def in_package(name: str) -> bool:
    """Whether a dotted import name lies inside ``repro``."""
    return name == PACKAGE or name.startswith(PACKAGE + ".")


def module_index(src: pathlib.Path) -> Dict[str, pathlib.Path]:
    """Every module under ``src/repro``: dotted name -> file."""
    modules = {}
    for path in sorted((src / PACKAGE).rglob("*.py")):
        parts = path.relative_to(src).with_suffix("").parts
        modules[".".join(parts[:-1] if parts[-1] == "__init__" else parts)] = path
    return modules


class FileScan:
    """The ``repro`` imports and the name uses of one file."""

    def __init__(self, path: pathlib.Path, name: Optional[str], modules: Dict[str, pathlib.Path]):
        self.modules = modules
        self.is_init = path.name == "__init__.py"
        self.package = None
        if name is not None:
            self.package = name if self.is_init else name.rpartition(".")[0]
        #: local name -> target, for module-level imports
        self.top: Dict[str, Target] = {}
        #: reached whenever the file runs: imports inside functions and
        #: classes, and the module an unaliased ``import a.b`` runs
        self.always: List[Target] = []
        #: local name -> target, for every import in the file
        self.bindings: Dict[str, Target] = {}
        self.used: Set[str] = set()
        self.chains: Set[Tuple[str, ...]] = set()
        tree = ast.parse(path.read_text(), filename=str(path))
        in_defs = {
            id(inner)
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            for inner in ast.walk(node)
        }
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                self._bind(node, nested=id(node) in in_defs)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                self.used.add(node.id)
            elif isinstance(node, ast.Attribute):
                chain = [node.attr]
                value = node.value
                while isinstance(value, ast.Attribute):
                    chain.append(value.attr)
                    value = value.value
                if isinstance(value, ast.Name):
                    self.chains.add((value.id, *reversed(chain)))

    def _base(self, node: ast.ImportFrom) -> Optional[str]:
        if not node.level:
            return node.module
        if self.package is None:
            return None
        parts = self.package.split(".")
        if node.level > 1:
            parts = parts[: 1 - node.level]
        return ".".join(parts + ([node.module] if node.module else []))

    def _bind(self, node: "ast.Import | ast.ImportFrom", nested: bool) -> None:
        found: List[Tuple[str, Target]] = []
        if isinstance(node, ast.Import):
            for alias in node.names:
                if not in_package(alias.name):
                    continue
                if alias.asname:
                    found.append((alias.asname, (alias.name, None)))
                else:
                    found.append((PACKAGE, (PACKAGE, None)))
                    self.always.append((alias.name, None))
        else:
            base = self._base(node)
            if base is None or not in_package(base):
                return
            for alias in node.names:
                sub = f"{base}.{alias.name}"
                target = (sub, None) if sub in self.modules else (base, alias.name)
                found.append((alias.asname or alias.name, target))
        for local, target in found:
            self.bindings[local] = target
            if nested:
                self.always.append(target)
            else:
                self.top[local] = target

    def reaches(self, whole: bool) -> List[Target]:
        """What running this file reaches.  ``whole`` counts every import;
        otherwise (a package ``__init__``) only the names its code uses."""
        targets = self.always + [t for local, t in self.top.items() if whole or local in self.used]
        for base, *attrs in self.chains:
            target = self.bindings.get(base)
            if target is None or target[1] is not None:
                continue
            module = target[0]
            for attr in attrs:
                if f"{module}.{attr}" not in self.modules:
                    targets.append((module, attr))
                    break
                module = f"{module}.{attr}"
            else:
                targets.append((module, None))
        return targets


def find_unreached(
    src: pathlib.Path, root_modules: Sequence[str], root_scripts: Sequence[pathlib.Path]
) -> List[str]:
    """Modules under ``src/repro`` that neither a root module nor a root
    script reaches, sorted."""
    modules = module_index(src)
    scans = {name: FileScan(path, name, modules) for name, path in modules.items()}
    reached: Set[str] = set()
    seen: Set[Target] = set()
    pending: List[Target] = [(name, None) for name in root_modules]
    for script in root_scripts:
        pending += FileScan(script, None, modules).reaches(whole=True)
    while pending:
        item = pending.pop()
        if item in seen or item[0] not in scans:
            continue
        seen.add(item)
        module, attr = item
        scan = scans[module]
        if attr is None:
            reached.add(module)
            parent = module.rpartition(".")[0]
            if parent:
                pending.append((parent, None))
            pending += scan.reaches(whole=module in root_modules or not scan.is_init)
        else:
            pending.append((module, None))
            if attr in scan.top:
                pending.append(scan.top[attr])
    return sorted(set(modules) - reached)


def main() -> int:
    scripts = [p for d in ROOT_DIRS for p in sorted((ROOT / d).glob("*.py"))]
    unreached = find_unreached(ROOT / "src", ROOT_MODULES, scripts)
    for name in unreached:
        print(f"unreached: {name} (no entry point imports it or any of its names)")
    if unreached:
        return 1
    print(f"check_reachable: every {PACKAGE} module is reached from an entry point")
    return 0


if __name__ == "__main__":
    sys.exit(main())
