"""Test set-up for the benchmark's own tests (``python3 -m pytest benchmarks``).

Puts the repository's ``src`` and this directory on ``sys.path`` and pins
the thread counts the benchmark uses, before numpy is imported.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

run.pin_threads()
sys.path.insert(0, run.SRC)
