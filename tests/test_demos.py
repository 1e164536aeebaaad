"""Smoke test for the walkthrough scripts in `demos/`: every script compiles,
and the quick ones run to completion against the package as it is.

Demos 03-05 train a policy and take 9-28 s each, so they are only compiled.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
QUICK = ("01_world_and_expert.py", "02_trajectory_vocabulary.py", "06_safety_creeping.py")


def test_every_demo_compiles():
    assert len(DEMOS) == 6
    for path in DEMOS:
        compile(path.read_text(), str(path), "exec")


@pytest.mark.parametrize("name", QUICK)
def test_quick_demo_runs(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    run = subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=tmp_path,
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
