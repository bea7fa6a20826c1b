"""Reachability gate: no module under ``src/repro`` that only tests import.

Runs ``scripts/check_reachable.py`` over the real tree, and over a small
synthetic package that exercises each rule the script reads imports by.
"""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_reachable", ROOT / "scripts" / "check_reachable.py"
    )
    checker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checker)
    return checker


def test_every_module_is_reached_from_an_entry_point(capsys):
    assert load_checker().main() == 0, capsys.readouterr().out


def write_tree(base, files):
    for relative, text in files.items():
        path = base / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def test_unreached_modules_are_reported(tmp_path):
    write_tree(
        tmp_path,
        {
            "src/repro/__init__.py": "from .tools import helper\n",
            "src/repro/cli.py": (
                "from . import tools as t\n\n\ndef run():\n    return t.helper()\n"
            ),
            # orphan is re-exported but never used: an import plus __all__
            # reaches nothing; Plug is reached through the registry's code
            "src/repro/tools/__init__.py": (
                "from .helpers import helper\n"
                "from .orphan import unused\n"
                "from .plugins import Plug\n\n"
                "REGISTRY = {cls.__name__: cls for cls in (Plug,)}\n"
                '__all__ = ["helper", "unused", "REGISTRY"]\n'
            ),
            "src/repro/tools/helpers.py": "def helper():\n    return 1\n",
            "src/repro/tools/orphan.py": "def unused():\n    return 2\n",
            "src/repro/tools/plugins.py": "class Plug:\n    pass\n",
            "src/repro/lonely.py": "X = 1\n",
            "examples/demo.py": "from repro.cli import run\n",
            "tests/test_lonely.py": "from repro.lonely import X\n",
        },
    )
    unreached = load_checker().find_unreached(
        tmp_path / "src", ("repro.cli",), [tmp_path / "examples" / "demo.py"]
    )
    assert unreached == ["repro.lonely", "repro.tools.orphan"]
