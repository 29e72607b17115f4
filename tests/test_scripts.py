"""Smoke tests for the scripts under scripts/: each runs with small arguments
in a fresh interpreter and exits 0."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(script, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_nonuniformity_table_orbits_match_the_formula():
    out = _run("nonuniformity_table.py", "--max-prime", "7", "--orbit-primes", "3", "5")
    for kind in ("orbit", "ideals"):
        lines = [line for line in out.splitlines() if f": {kind} [" in line]
        assert [line.split(":")[0].strip() for line in lines] == ["p=3", "p=5"], out
        assert all(" == " in line for line in lines), out


def test_asymptotics_demo_runs():
    out = _run("asymptotics_demo.py", "--bound", "1000")
    assert "rank-2 abelian" in out and "Heisenberg subrings" in out
