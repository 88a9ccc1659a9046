"""The scripts under ``scripts/`` still run against the package.

No other test imports them, so a public name they use could be removed
without any failure. ``fleet_report.py`` is run in full (well under a
second). ``stage_times.py`` is loaded, so its imports resolve, and its
warm stages run on W(A1), so the calls they time do too; its cold
stages and processes are not run; each warm stage reports its wall and
its CPU seconds.
"""

import os
import runpy
import subprocess
import sys
from pathlib import Path

import prymdim
from prymdim import chartable, exactla
from prymdim.weyl import weyl_group

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


def test_stage_times_warm_stages_run_on_a_tiny_group(monkeypatch):
    """The warm stages time the calls validate makes: of them only the
    candidate-free `solve` stage runs an elimination, once per call."""
    module = runpy.run_path(str(_ROOT / "scripts" / "stage_times.py"), run_name="stage_times")
    forward = exactla._forward
    passes = []

    def counted(m, n):
        passes.append(n)
        return forward(m, n)

    W = weyl_group("A", 1)
    module["validate"](module["hitchin_preset"](W, 2))  # fill the caches first
    monkeypatch.setattr(exactla, "_forward", counted)
    stages = module["_warm_stages"](W)
    names = ["warm_validate", "quotient_genera", "closed_form", "closed_form_check", "solve"]
    assert sorted(stages) == sorted(names + [f"{k}_cpu" for k in names])
    assert all(v > 0 for v in stages.values())
    assert len(passes) == module["REPEATS"] * module["WARM_CALLS"]


def test_stage_times_split_input_and_oracles_run_on_a_small_group():
    """The `table_split` stage replays the split on the class matrices it
    consumed, which give the split of the full stream; the `oracle` and
    `oracle_warm` tuples verify on one group."""
    module = runpy.run_path(str(_ROOT / "scripts" / "stage_times.py"), run_name="stage_times")
    G = weyl_group("B", 3).group
    n, used, p = module["_split_input"](G)
    assert 0 < len(used) < n - 1
    stream = chartable._class_matrices(G, G.conjugacy_classes())
    assert chartable._central_characters(n, used, p) == chartable._central_characters(n, stream, p)
    module["_oracle"](G, 0, "B3")
    module["_oracle"](G, 1, "B3")
