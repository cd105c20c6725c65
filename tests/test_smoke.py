"""The console pins of tests/smoke.sh, run up to its slow pins through
``python -m chibound.cli`` on this checkout's source, with no install.  The
slow pins (the K_{2x1100} colorings under HammerFree and C5Free and the
colorings of the 300- and 400-copy joins) run on CI only."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_fast_console_pins(tmp_path):
    # The script calls `chibound` and `python`; both resolve to this
    # interpreter, with the package read from src.
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    for name, command in (("python", ""), ("chibound", " -m chibound.cli")):
        shim = bin_dir / name
        shim.write_text(f'#!/bin/sh\nexec "{sys.executable}"{command} "$@"\n')
        shim.chmod(0o755)
    env = dict(
        os.environ,
        PATH=f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}",
        PYTHONPATH=str(ROOT / "src"),
    )
    work = tmp_path / "work"
    work.mkdir()
    run = subprocess.run(
        ["bash", "-x", str(ROOT / "tests" / "smoke.sh"), "--fast"],
        cwd=work, env=env, capture_output=True, text=True, timeout=300,
    )
    # The tail of the trace on stderr ends at the check that failed.
    assert run.returncode == 0, run.stderr[-3000:]
