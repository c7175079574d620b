"""Every README demo runs to completion."""

import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_readme_demos_are_found():
    readme = (ROOT / "README.md").read_text()
    listed = re.findall(r"python (demos/\S+\.py)", readme)
    assert len(listed) == 5
    assert sorted(listed) == [f"demos/{p.name}" for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stderr
    if demo.name == "05_verification_suites.py":
        passed = re.search(r"^(\d+)/(\d+) suites passed$", proc.stdout, re.MULTILINE)
        assert passed and passed.group(1) == passed.group(2), proc.stdout[-2000:]
