"""Puts ``perf/`` on ``sys.path`` so the tests import the benchmark's modules.

Run with ``python -m pytest perf/tests -q``; tier-1's ``testpaths`` does not
include this directory.
"""

import pathlib
import sys

PERF = pathlib.Path(__file__).resolve().parents[1]
if str(PERF) not in sys.path:
    sys.path.insert(0, str(PERF))
