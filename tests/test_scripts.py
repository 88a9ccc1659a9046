"""The scripts under ``scripts/`` still run against the package.

No other test imports them, so a public name they use could be removed
without any failure. ``fleet_report.py`` is run in full (well under a
second); ``stage_times.py`` is only loaded, so its imports resolve but
nothing is timed.
"""

import os
import runpy
import subprocess
import sys
from pathlib import Path

import prymdim

_ROOT = Path(__file__).resolve().parents[1]
_SRC = str(Path(prymdim.__file__).resolve().parents[1])


def test_fleet_report_runs_and_matches():
    proc = subprocess.run(
        [sys.executable, str(_ROOT / "scripts" / "fleet_report.py")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": _SRC},
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "all presets match"


def test_stage_times_imports_resolve():
    module = runpy.run_path(str(_ROOT / "scripts" / "stage_times.py"), run_name="stage_times")
    assert callable(module["main"])
