"""The example scripts in ``demos/`` and README's Quick start run to
completion against this package."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gpexperts

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_child(argv, cwd):
    # the child imports the package from where this process found it
    src = str(Path(gpexperts.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        check=False,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    run_child([str(demo)], tmp_path)


def test_readme_quick_start_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Quick start\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```", section, re.S | re.M)
    assert len(blocks) == 1, "Quick start should hold one python block"
    run_child(["-c", blocks[0]], tmp_path)
