"""Every example script must run to completion as a real process."""

import pathlib
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parents[2]
EXAMPLES_DIR = REPO / "examples"
SCRIPTS = sorted(EXAMPLES_DIR.glob("*.py"))


def readme_examples():
    """The scripts README's "Runnable examples" table names."""
    text = (REPO / "README.md").read_text()
    table = text[text.index("Runnable examples"):].split("\n\n")[1]
    return {line.split("`")[1] for line in table.splitlines() if line.startswith("| `")}


def test_examples_match_the_readme_table():
    listed = readme_examples()
    assert listed
    assert {script.name for script in SCRIPTS} == listed


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_example_runs(script):
    result = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip(), "example produced no output"
