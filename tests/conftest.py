"""Command-line tests start `python -m lacunary.cli` in subprocesses; they must
import the same package as the tests, installed or not (pyproject.toml puts
src/ on the tests' sys.path only)."""

import os
from pathlib import Path

import lacunary


def pytest_configure(config):
    src = str(Path(lacunary.__file__).resolve().parents[1])
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
