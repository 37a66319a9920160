"""The experiment scripts in scripts/ import and parse their arguments; the
bias-variance sweep also runs end to end at a tiny size, and so does the
README's library quick start."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def test_scripts_are_found():
    assert len(SCRIPTS) >= 3


def run_script(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, str(script), *args], env=env,
                          capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_help_exits_0(script):
    proc = run_script(script, "--help")
    assert proc.returncode == 0, proc.stderr
    assert "usage:" in proc.stdout


def test_bias_variance_sweep_script_runs():
    proc = run_script(ROOT / "scripts" / "bias_variance_sweep.py",
                      "--R", "3", "--grid", "0.5:1:3", "--K", "2", "20")
    assert proc.returncode == 0, proc.stderr
    assert "largest bias^2 share" in proc.stdout
    bad = run_script(ROOT / "scripts" / "bias_variance_sweep.py", "--grid", "0.5:1")
    assert bad.returncode == 2
    assert "--grid: grid must be 'lo:hi:count'" in bad.stderr


def test_readme_library_quick_start_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quick start (library)", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    proc = run_script("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert "raw lambda:" in proc.stdout
