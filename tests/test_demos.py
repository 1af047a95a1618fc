"""Every demo script runs to completion against the package in ``src/``.

Each demo runs in its own interpreter with ``TMPDIR`` inside the test's
temporary directory, so files a demo leaves behind go away with it.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 7


def run_demo(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    run_demo(demo, tmp_path)


def test_interval_demo_widens_with_eps_and_proves_the_point(tmp_path):
    out = run_demo(ROOT / "demos" / "04_interval_bounds.py", tmp_path)
    found = re.findall(r"^eps=(\d+): max logit spread (\d+), 2000 samples inside: (\w+)$",
                       out, re.MULTILINE)
    assert [eps for eps, _, _ in found] == ["1", "2", "4"]
    assert all(inside == "True" for _, _, inside in found)
    spreads = [int(spread) for _, spread, _ in found]
    assert 0 < spreads[0] < spreads[1] < spreads[2]
    assert "point box is exact: True" in out.splitlines()
    assert "eps=0 verdict: verified" in out.splitlines()
