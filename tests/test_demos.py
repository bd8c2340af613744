"""Every demo, Python or shell, runs to completion in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_cleanly(demo):
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=_env(),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_cli_walkthrough_exits_cleanly(tmp_path):
    # The walkthrough calls `prodcsp`; a shim on PATH runs this checkout's CLI.
    shim = tmp_path / "prodcsp"
    shim.write_text('#!/bin/sh\nexec "$PYTHON" -m prodcsp.cli "$@"\n')
    shim.chmod(0o755)
    env = _env()
    env["PYTHON"] = sys.executable
    env["PATH"] = os.pathsep.join((str(tmp_path), env.get("PATH", "")))
    proc = subprocess.run(
        ["sh", str(ROOT / "demos" / "05_cli_walkthrough.sh")], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
