"""The quick demos run to completion against the package in ``src``.

Demos 05 and 06 train models and take seconds each, so only 01-04 run here.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
QUICK_DEMOS = sorted((ROOT / "demos").glob("0[1-4]_*.py"))


def test_the_quick_demos_are_found():
    assert [p.name[:2] for p in QUICK_DEMOS] == ["01", "02", "03", "04"]


@pytest.mark.parametrize("demo", QUICK_DEMOS, ids=[p.stem for p in QUICK_DEMOS])
def test_demo_exits_zero(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
