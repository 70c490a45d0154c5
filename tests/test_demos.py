"""Each demo script runs to completion against the current package."""

import os
import subprocess
import sys

import pytest

from tests.conftest import ROOT

DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_five_demos_present():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_zero(demo):
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
