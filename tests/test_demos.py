"""The demos run against the current API.

Demos 01-04 and 06 run to completion as subprocesses; demo 05 (the full
desk-scale benchmark, several seconds) only has its imports resolved.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
RUN = [d for d in DEMOS if not d.name.startswith("05_")]


def test_every_demo_is_covered():
    assert [d.name[:2] for d in DEMOS] == ["01", "02", "03", "04", "05", "06"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_imports_resolve(demo):
    for node in ast.walk(ast.parse(demo.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "driftfed":
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{node.module}.{alias.name}"


@pytest.mark.parametrize("demo", RUN, ids=lambda d: d.stem)
def test_demo_runs(demo, tmp_path):
    src = str(ROOT / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
