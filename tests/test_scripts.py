"""The scripts under ``scripts/`` still run against the package.

No other test imports them, so a public name they use could be removed
without any failure. ``fleet_report.py`` is run in full (well under a
second), and refuses an out-of-regime genus or degD before any row.
``stage_times.py`` is loaded, so its imports resolve, its warm
stages run on W(A1) and one cold pass on W(B3), so the calls they time
do too, and its `closed_form_check` stage, a plain product, accepts its
candidate with no elimination on W(A1) and W(B3); its full report (every cold stage and
process on five groups) is not made; each warm stage reports its wall
and its CPU seconds. Its paired mode runs against HEAD on the closure stage of its five groups, in a temporary
git worktree that it removes, parses the process stages and refuses
`--stages` without `--against`, and a revision whose own script lacks
`--pass` or a chosen stage; its ratio is the median of the per-pair
ratios, not the ratio of the two sides' medians; one process of that mode times two warm
stages, and one, run in-process with W(A1) as its only group, the
`cli_cold` process stage. ``bench_pairs.py`` runs one short pair of
spec-sweep, HEAD against HEAD, prints one JSON line in its schema, and
removes its `git archive` copies, also when a workload or a revision is
refused.
"""

import json
import os
import runpy
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("args", [["--genus", "1"], ["--degD", "-3"], ["--genus", "0"]],
                         ids=lambda a: " ".join(a))
def test_fleet_report_refuses_out_of_regime_values(args):
    """An out-of-regime genus or degD ends in one error line, before any
    row (the header included) and with no traceback."""
    proc = subprocess.run(
        [sys.executable, str(_ROOT / "scripts" / "fleet_report.py"), *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": _SRC},
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: OutOfRegime: ") and proc.stderr.count("\n") == 1


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


def test_stage_times_closed_form_check_accepts_its_candidate(monkeypatch):
    """The `closed_form_check` stage passes the report's quotient genera,
    a tuple, with its dimensions over d = 1: solve accepts the candidate
    on every call with no elimination, so the stage times the check and
    not a solve."""
    module = runpy.run_path(str(_ROOT / "scripts" / "stage_times.py"), run_name="stage_times")
    forward = exactla._forward
    passes = []

    def counted(m, n):
        passes.append(n)
        return forward(m, n)

    monkeypatch.setattr(exactla, "_forward", counted)
    monkeypatch.setitem(module["_warm_figures"].__globals__, "WARM_CALLS", 5)
    for W in (weyl_group("A", 1), weyl_group("B", 3)):
        module["validate"](module["hitchin_preset"](W, 2))  # fill the caches first
        passes.clear()
        figures = module["_warm_figures"](W, ["closed_form_check"])
        assert list(figures) == ["closed_form_check"]
        assert passes == []


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


def test_stage_times_cold_pass_runs_on_a_small_group():
    """One cold pass on W(B3) times every cold stage, so each call it
    makes resolves, the `coset_actions` stage's right rows and their
    cycles included."""
    module = runpy.run_path(str(_ROOT / "scripts" / "stage_times.py"), run_name="stage_times")
    times = module["_cold_pass"](weyl_group("B", 3), [[1, 2, 3, 4]])
    assert tuple(times) == module["COLD_STAGES"]
    assert all(wall >= 0 and cpu >= 0 for wall, cpu in times.values())


def _worktrees():
    done = subprocess.run(["git", "-C", str(_ROOT), "worktree", "list", "--porcelain"],
                          capture_output=True, text=True)
    return done.stdout if done.returncode == 0 else None


def _remove_new_worktrees(before):
    """Remove every worktree not listed in ``before``: a killed script never
    reaches its own clean-up."""
    for line in _worktrees().splitlines():
        if line.startswith("worktree ") and line not in before.splitlines():
            subprocess.run(["git", "-C", str(_ROOT), "worktree", "remove", "--force",
                            line.removeprefix("worktree ")], capture_output=True)
    subprocess.run(["git", "-C", str(_ROOT), "worktree", "prune"], capture_output=True)


@pytest.mark.skipif(shutil.which("git") is None or _worktrees() is None,
                    reason="paired mode needs a git work tree")
def test_stage_times_pairs_against_head_and_removes_its_worktree():
    before = _worktrees()
    try:
        proc = subprocess.run(
            [sys.executable, str(_ROOT / "scripts" / "stage_times.py"), "--against", "HEAD",
             "--stages", "closure"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": _SRC},
            timeout=300,
        )
        after = _worktrees()
    finally:
        _remove_new_worktrees(before)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert (report["against"], report["pairs"]) == ("HEAD", 10)
    assert list(report["groups"]) == ["D5", "F4", "B5", "A6", "A7"]
    for rows in report["groups"].values():
        assert list(rows) == ["closure"]
        row = rows["closure"]
        assert sorted(row) == sorted(["rev", "this", "ratio", "rev_cpu", "this_cpu", "ratio_cpu",
                                      "ratio_q1", "ratio_q3", "ratio_q1_cpu", "ratio_q3_cpu"])
        assert all(v > 0 for v in row.values())
        assert row["ratio_q1"] <= row["ratio"] <= row["ratio_q3"]
        assert row["ratio_q1_cpu"] <= row["ratio_cpu"] <= row["ratio_q3_cpu"]
    assert after == before


def test_stage_times_ratio_is_the_median_of_the_per_pair_ratios():
    """Five pairs whose per-pair ratios this / rev are 1, 1, 2, 1, 1, with
    median 1 and quartiles 1 and 1.5, while the two sides' medians, 1 and
    2, give 2, outside those quartiles: the reported ratio is the paired
    one, for wall and CPU seconds alike. A pair whose REV figure is 0 is
    left out."""
    module = runpy.run_path(str(_ROOT / "scripts" / "stage_times.py"), run_name="stage_times")
    summary = module["_summary"]

    def row(rev, this):
        def passes(figures):
            return [{"D5": {"warm_validate": [t, 3 * t]}} for t in figures]

        runs = {"rev": passes(rev), "this": passes(this)}
        return summary(runs, ["warm_validate"])["D5"]["warm_validate"]

    paired = row([1.0, 1.0, 1.0, 2.0, 2.0], [1.0, 1.0, 2.0, 2.0, 2.0])
    assert (paired["rev"], paired["this"], paired["rev_cpu"], paired["this_cpu"]) == (1, 2, 3, 6)
    for suffix in ("", "_cpu"):
        assert (paired[f"ratio{suffix}"], paired[f"ratio_q1{suffix}"],
                paired[f"ratio_q3{suffix}"]) == (1.0, 1.0, 1.5)
    zero = row([0.0, 1.0], [1.0, 3.0])
    assert (zero["ratio"], zero["ratio_q1"], zero["ratio_q3"]) == (3.0, None, None)


# Two scripts a revision may hold in place of the paired mode's own: one
# from before `--pass`, and one whose `--pass` knows no `closure` stage.
_OLD_SCRIPTS = {
    "no --pass": "import argparse\nargparse.ArgumentParser().parse_args()\n",
    "no closure stage": textwrap.dedent("""\
        import argparse
        ap = argparse.ArgumentParser()
        ap.add_argument("--pass", action="store_true")
        ap.add_argument("--stages")
        args = ap.parse_args()
        unknown = sorted(set(args.stages.split(",")) - {"table"})
        if unknown:
            ap.error(f"unknown stages {unknown}")
        """),
}


@pytest.mark.skipif(shutil.which("git") is None, reason="paired mode needs git")
@pytest.mark.parametrize("old", sorted(_OLD_SCRIPTS))
def test_stage_times_refuses_a_revision_whose_script_cannot_pass(tmp_path, old):
    """Paired mode runs each tree's own script: against a revision of a
    scratch repository whose script lacks `--pass`, or lacks the stage
    asked for, it prints one `error:` line naming the refusal, exits 2
    with no traceback and removes its worktree."""
    repo = tmp_path / "repo"
    (repo / "scripts").mkdir(parents=True)
    script = repo / "scripts" / "stage_times.py"
    script.write_text(_OLD_SCRIPTS[old])
    env = {**os.environ, "GIT_AUTHOR_NAME": "t", "GIT_AUTHOR_EMAIL": "t@example.org",
           "GIT_COMMITTER_NAME": "t", "GIT_COMMITTER_EMAIL": "t@example.org"}
    for argv in (["init", "--quiet"], ["add", "."], ["commit", "--quiet", "-m", "old"]):
        subprocess.run(["git", "-C", str(repo), *argv], check=True, env=env)
    shutil.copy(_ROOT / "scripts" / "stage_times.py", script)
    proc = subprocess.run(
        [sys.executable, str(script), "--against", "HEAD", "--stages", "closure"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": _SRC},
        timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: stage_times.py --pass of HEAD exited 2: ")
    assert proc.stderr.count("\n") == 1
    assert ("unrecognized arguments: --pass" if old == "no --pass"
            else "unknown stages ['closure']") in proc.stderr
    listed = subprocess.run(["git", "-C", str(repo), "worktree", "list", "--porcelain"],
                            capture_output=True, text=True, check=True).stdout
    assert listed.count("worktree ") == 1


def test_stage_times_pass_times_the_chosen_warm_stages():
    """One process of the paired mode on warm stages alone: each group
    reports [wall, cpu] per call for the stages chosen, in their order."""
    proc = subprocess.run(
        [sys.executable, str(_ROOT / "scripts" / "stage_times.py"), "--pass",
         "--stages", "warm_validate,closed_form_check"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": _SRC},
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert list(report) == ["D5", "F4", "B5", "A6", "A7"]
    for rows in report.values():
        assert list(rows) == ["warm_validate", "closed_form_check"]
        for wall, cpu in rows.values():
            assert 0 < wall < 0.01 and 0 < cpu < 0.01


def test_stage_times_parses_the_process_stages(capsys):
    """`cli_cold` and `verify_cold` are stages of the paired mode, in the
    order given, beside cold in-process and warm ones; like them they are
    refused without `--against`, and an unknown stage names them."""
    module = runpy.run_path(str(_ROOT / "scripts" / "stage_times.py"), run_name="stage_times")
    parse = module["_parse"]
    assert module["PROCESS_STAGES"] == ("cli_cold", "verify_cold")
    args = parse(["--against", "HEAD", "--stages", "verify_cold,closure,cli_cold,solve"])
    assert args.stages == ["verify_cold", "closure", "cli_cold", "solve"]
    assert parse(["--pass", "--stages", "cli_cold"]).stages == ["cli_cold"]
    for argv, text in ((["--stages", "cli_cold"], "--stages applies only with --against"),
                       (["--pass", "--stages", "cli_warm"], "cli_cold, verify_cold")):
        with pytest.raises(SystemExit) as exit_info:
            parse(argv)
        assert exit_info.value.code == 2
        assert text in capsys.readouterr().err


def test_stage_times_pass_times_a_process_stage(monkeypatch, capsys):
    """One process of the paired mode on `cli_cold` alone, with W(A1) as
    its only group: the best of REPEATS fresh preset processes on this
    tree, as [wall, cpu]."""
    module = runpy.run_path(str(_ROOT / "scripts" / "stage_times.py"), run_name="stage_times")
    main = module["main"]
    monkeypatch.setitem(main.__globals__, "GROUPS", [("A", 1)])
    assert main(["--pass", "--stages", "cli_cold"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert list(report) == ["A1"] and list(report["A1"]) == ["cli_cold"]
    wall, cpu = report["A1"]["cli_cold"]
    assert 0 < wall < 30 and 0 < cpu < 30


def test_stage_times_refuses_stages_without_against(capsys):
    module = runpy.run_path(str(_ROOT / "scripts" / "stage_times.py"), run_name="stage_times")
    with pytest.raises(SystemExit) as exit_info:
        module["main"](["--stages", "table"])
    assert exit_info.value.code == 2
    assert "--stages applies only with --against" in capsys.readouterr().err


def _is_git_repository():
    if shutil.which("git") is None:
        return False
    done = subprocess.run(["git", "-C", str(_ROOT), "rev-parse", "--verify", "HEAD"],
                          capture_output=True)
    return done.returncode == 0


def _bench_pairs(tmp_path, *argv):
    """One run of scripts/bench_pairs.py with its temporary copies under
    ``tmp_path``/tmp, which must be empty again once it exits."""
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    proc = subprocess.run(
        [sys.executable, str(_ROOT / "scripts" / "bench_pairs.py"), *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "TMPDIR": str(scratch)},
        timeout=300,
    )
    assert list(scratch.iterdir()) == []
    return proc


@pytest.mark.skipif(not _is_git_repository(), reason="bench_pairs.py archives git commits")
def test_bench_pairs_runs_one_pair_and_removes_its_copies(tmp_path):
    """One short pair of spec-sweep, HEAD against HEAD: one JSON line with
    every field, each side's end-to-end metrics, and no copy left."""
    proc = _bench_pairs(tmp_path, "HEAD", "spec-sweep", "--pairs", "1", "--seconds", "0.2",
                        "--seed", "3")
    assert proc.returncode == 0, proc.stderr
    (line,) = proc.stdout.splitlines()
    doc = json.loads(line)
    head = subprocess.run(["git", "-C", str(_ROOT), "rev-parse", "HEAD"], capture_output=True,
                          text=True, check=True).stdout.strip()
    assert sorted(doc) == sorted(["workload", "rev", "rev_commit", "head_commit", "seconds",
                                  "seeds", "first", "pairs", "failed", "median", "q1", "q3",
                                  "change", "moved"])
    assert (doc["workload"], doc["rev"], doc["seconds"]) == ("spec-sweep", "HEAD", 0.2)
    assert doc["rev_commit"] == doc["head_commit"] == head
    assert (doc["seeds"], doc["first"], doc["failed"]) == ([3], ["rev"], {"rev": 0, "head": 0})
    metrics = ["query_s.p50", "query_s.p90", "throughput_per_s", "setup_s", "peak_rss_mib"]
    (pair,) = doc["pairs"]
    assert (pair["seed"], pair["first"]) == (3, "rev")
    for side in ("rev", "head"):
        assert sorted(pair[side]) == sorted(metrics)
        assert all(v > 0 for v in pair[side].values())
        for key in ("median", "q1", "q3"):
            assert doc[key][side] == pair[side]
    assert sorted(doc["change"]) == sorted(doc["moved"]) == sorted(metrics)
    assert all(sum(m.values()) == 1 for m in doc["moved"].values())


@pytest.mark.skipif(not _is_git_repository(), reason="bench_pairs.py archives git commits")
@pytest.mark.parametrize("argv, text", [
    (["HEAD", "no-such-workload", "--pairs", "1", "--seconds", "0.2"],
     "bench/run.py of rev on no-such-workload seed 1 exited 2: "),
    (["no-such-revision", "spec-sweep"], "git rev-parse --verify no-such-revision"),
], ids=["workload", "revision"])
def test_bench_pairs_fails_with_one_line_and_removes_its_copies(tmp_path, argv, text):
    proc = _bench_pairs(tmp_path, *argv)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith(f"error: {text}") and proc.stderr.count("\n") == 1


def test_bench_pairs_summary_counts_the_moves_of_each_pair():
    """Medians and quartiles per side; a pair counts once, as lower,
    higher or the same, by HEAD's figure against REV's."""
    module = runpy.run_path(str(_ROOT / "scripts" / "bench_pairs.py"), run_name="bench_pairs")
    pairs = [{"rev": {"m": r}, "head": {"m": h}}
             for r, h in ((1.0, 0.5), (2.0, 1.0), (3.0, 3.0), (4.0, 5.0), (5.0, 2.0))]
    out = module["summary"](pairs)
    assert out["median"] == {"rev": {"m": 3.0}, "head": {"m": 2.0}}
    assert out["q1"]["rev"]["m"] == 1.5 and out["q3"]["rev"]["m"] == 4.5
    assert out["change"] == {"m": 2.0 / 3.0 - 1}
    assert out["moved"] == {"m": {"lower": 3, "higher": 1, "same": 1}}
