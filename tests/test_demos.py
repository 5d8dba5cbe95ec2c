"""Smoke test: every script in demos/ runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import treedom

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    src = os.path.dirname(os.path.dirname(treedom.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    r = subprocess.run(
        [sys.executable, str(script)], capture_output=True, env=env, timeout=120,
    )
    assert r.returncode == 0, r.stderr.decode()
    assert b"Traceback" not in r.stderr
