"""The example scripts in ``demos/`` and README's Quick start run to
completion against this package, and README's Benchmark CLI section names
only options the CLI has."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import gpexperts
from gpexperts import bench

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_child(argv, cwd):
    # The child imports the package from where this process found it.  It
    # fails on any RuntimeWarning: pyproject's warning filters stop at pytest.
    src = str(Path(gpexperts.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", *argv],
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


def readme_blocks(title, language):
    """README's section ``title`` and the ``language`` code blocks in it."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]
    return section, re.findall(rf"^```{language}\n(.*?)^```", section, re.S | re.M)


def test_readme_quick_start_runs(tmp_path):
    _, blocks = readme_blocks("Quick start", "python")
    assert len(blocks) == 1, "Quick start should hold one python block"
    run_child(["-c", blocks[0]], tmp_path)


def test_readme_benchmark_cli_names_only_real_options():
    section, blocks = readme_blocks("Benchmark CLI", "sh")
    assert len(blocks) == 1, "Benchmark CLI should hold one sh block"
    parser = bench._build_parser()
    prog, *argv = shlex.split(blocks[0].replace("\\\n", " "))
    assert prog == parser.prog
    bench._config(parser.parse_args(argv))  # validates the config, runs nothing
    options = {flag for action in parser._actions for flag in action.option_strings}
    flags = set(re.findall(r"`(--[a-z][a-z-]*)", section))
    assert len(flags) > 5
    assert flags <= options, f"README names unknown flags {sorted(flags - options)}"
