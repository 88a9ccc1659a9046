#!/usr/bin/env python3
"""Time each cold stage of the dimension pipeline on five Weyl groups.

For W(D5), W(F4), W(B5), W(A6) and W(A7) it prints, as one JSON object,
the best of three wall-clock seconds for: the group closure, the
classification pass (conjugacy classes, rationality, cyclic classes),
the character table, and two of its sub-stages timed apart on the same
group: the eigenspace split (`table_split`, `_central_characters` on
the class matrices it consumes, built beforehand) and the row
orthogonality check (`table_orthogonality`); then the fixed-dimension
matrix with its determinant, the double-coset matrix, the coset action
of every cyclic subgroup, the monodromy oracle on those built actions
(`oracle`: `monodromy.sample_tuple` of a genus-1 tuple with two branch
points, then `verify_tuple`, on the fresh group, so it pays for the
rows its walks build once per group, the Schreier tree that its
left-multiplication rows are read off included), a second seeded tuple
on the same group (`oracle_warm`), the generation test
(`PermGroup.generates` on 100 seeded sets of 4 random elements, the
question `BranchTuple.is_valid` asks), and, on a warm hitchin genus-2
spec, one `rhprym.validate`, all n quotient genera (`genus_quotient`),
the closed form for every irrep (`prym_dim_formula`), one
`exactla.solve` of the fixed-dim system on the spec's quotient genera
with those dimensions, doubled over d = 2, as its candidate
(`closed_form_check`, the one product A (2x) == 2 genera by which
`validate` accepts the closed form) and one `exactla.solve` without a
candidate (`solve`, the one elimination of the reference route, which
`validate` takes only when that check fails). Every repetition of the
cold stages rebuilds the group from `W.group.generators`, so each of
them starts cold. Those are the generators `weyl_group` closed the
group from: the pair {Coxeter element, s_(r-2)} where it generates W
(all types here but F4), else the simple reflections. A warm stage
takes well under a millisecond, so one call would be mostly timer
noise: its figure is the mean of WARM_CALLS back-to-back calls, best of
REPEATS. The `cli_cold` stage is one fresh `python -m prymdim preset
hitchin <type> <rank> --format json` process on the same source tree,
interpreter start and imports included, and the `verify_cold` stage one
fresh `python -m prymdim verify --weyl <label> --format json` process,
the whole invariant suite with the monodromy oracle. Beside the groups,
the top-level `cli_import` stage is the best of REPEATS fresh `python
-c "import prymdim.cli"` processes: interpreter start and the CLI's
imports, with no group built.

Schema of the printed object:

    git, python, machine     revision (`git describe --always --dirty`),
                             Python version, architecture and CPU count
    repeats, warm_calls      REPEATS and WARM_CALLS
    unit                     how the figures are taken
    loadavg_start,           `os.getloadavg()` (1-, 5- and 15-minute)
      loadavg_end            before the first stage and after the last
    cli_import, cli_import_cpu
    groups                   {label: {order, class_count, STAGE,
                             STAGE_cpu, ...}} for every stage above

Every figure is in seconds. STAGE is the wall-clock figure and
STAGE_cpu the CPU seconds of the same run (the best one by wall
clock): `time.process_time()` for a stage run in this process, and the
children's user plus system time from `resource.getrusage` for a fresh
process. A CPU figure well below its wall figure means the run waited,
for example on a loaded machine; the load averages say how loaded.

Cold processes read bytecode from `__pycache__` when it is there and
recompile every module when it is not (as under PYTHONDONTWRITEBYTECODE),
so compare two trees only in the same bytecode state.

Usage (write elsewhere first: redirecting into the tracked file would
record the revision as dirty):

    PYTHONPATH=src python3 scripts/stage_times.py > stages.json
    mv stages.json BENCH_stages.json

Paired mode compares this tree with a git revision REV on chosen cold
in-process stages (closure through generation above), on the five groups:

    PYTHONPATH=src python3 scripts/stage_times.py --against HEAD \
        --stages table,table_split

REV is checked out into a temporary `git worktree`, removed afterwards.
Each of PAIRS pairs runs one fresh process of this script on each tree,
the order alternating from pair to pair; a process imports its tree's
`src` and, REPEATS times on each group, runs the cold stages in order up
to the last one chosen, reporting the best run of each chosen stage. So
both trees are timed by this script's code, and REV must have the
package names it imports. `--stages` (default: every cold in-process
stage) is refused without `--against`. The printed object:

    git, against, python,    this tree's revision, REV as given, then
      machine                as above
    pairs, repeats           PAIRS and REPEATS
    unit                     how the figures are taken
    groups                   {label: {STAGE: {rev, this, ratio,
                             rev_cpu, this_cpu, ratio_cpu}}}

where rev and this are the median over the pairs of each tree's wall
seconds, rev_cpu and this_cpu the same for CPU seconds, and each ratio
this / rev, so a ratio below 1 means this tree is faster.
"""

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import prymdim
from prymdim import exactla
from prymdim.chartable import (
    _central_characters,
    _class_matrices,
    _dixon_prime,
    _verify_orthogonality,
    character_table,
    fixed_dim_matrix,
)
from prymdim.monodromy import sample_tuple, verify_tuple
from prymdim.permgroup import PermGroup
from prymdim.rhprym import genus_quotient, prym_dim_formula, validate
from prymdim.weyl import hitchin_preset, weyl_group

GROUPS = [("D", 5), ("F", 4), ("B", 5), ("A", 6), ("A", 7)]
COLD_STAGES = (
    "closure", "classes", "table", "table_split", "table_orthogonality",
    "fixed_dim_matrix", "double_coset_matrix", "coset_actions", "oracle",
    "oracle_warm", "generation",
)
REPEATS = 3
PAIRS = 10
SEED_SETS = 100
WARM_CALLS = 200


def _git_revision() -> str:
    try:
        done = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return done.stdout.strip()


def _timed(fn):
    """(wall seconds, CPU seconds of this process, fn())."""
    w0, c0 = time.perf_counter(), time.process_time()
    result = fn()
    return time.perf_counter() - w0, time.process_time() - c0, result


def _best(runs) -> tuple[float, float]:
    """The (wall, cpu) pair of the run with the least wall time."""
    return min((wall, cpu) for wall, cpu, *_ in runs)


def _warm(fn) -> tuple[float, float]:
    """(wall, cpu) seconds per call of fn: the mean of WARM_CALLS calls,
    best of REPEATS."""
    calls = range(WARM_CALLS)
    wall, cpu = _best(_timed(lambda: [fn() for _ in calls]) for _ in range(REPEATS))
    return wall / WARM_CALLS, cpu / WARM_CALLS


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _fresh(*args: str) -> tuple[float, float]:
    """(wall, cpu) seconds for one fresh ``python ARGS`` process on this
    source tree, the cpu its own user plus system time."""
    env = {**os.environ, "PYTHONPATH": str(Path(prymdim.__file__).resolve().parents[1])}
    argv = [sys.executable, *args]
    c0 = _children_cpu()
    seconds, _, done = _timed(lambda: subprocess.run(argv, env=env, capture_output=True))
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[1:])} exited {done.returncode}")
    return seconds, _children_cpu() - c0


def _cold(*args: str) -> tuple[float, float]:
    """(wall, cpu) seconds for one fresh ``python -m prymdim ARGS --format json`` process."""
    return _fresh("-m", "prymdim", *args, "--format", "json")


def _pairs(figures: dict[str, tuple[float, float]]) -> dict[str, float]:
    """{STAGE: wall, STAGE_cpu: cpu}, each rounded to the microsecond."""
    out = {}
    for k, (wall, cpu) in figures.items():
        out[k], out[f"{k}_cpu"] = round(wall, 6), round(cpu, 6)
    return out


def _warm_stages(W) -> dict[str, float]:
    """The warm stages on W's hitchin genus-2 spec, caches filled first,
    as {STAGE: wall, STAGE_cpu: cpu} seconds per call."""
    spec = hitchin_preset(W, 2)
    report = validate(spec)
    genera, twice = report.quotient_genera, [2 * v for v in report.dims]
    fdm = fixed_dim_matrix(W.group)
    n = len(W.group.cyclic_subgroup_classes())
    warm = {
        "warm_validate": lambda: validate(spec),
        "quotient_genera": lambda: [genus_quotient(spec, i) for i in range(n)],
        "closed_form": lambda: [prym_dim_formula(spec, j) for j in range(n)],
        "closed_form_check": lambda: exactla.solve(fdm, genera, (twice, 2)),
        "solve": lambda: exactla.solve(fdm, genera),
    }
    return _pairs({k: _warm(fn) for k, fn in warm.items()})


def _split_input(G):
    """(n, the class matrices the split consumes, p) for a classified G."""
    classes = G.conjugacy_classes()
    p = _dixon_prime(G.order)
    used = []

    def stream():
        for M in _class_matrices(G, classes):
            used.append(M)
            yield M

    _central_characters(len(classes), stream(), p)
    return len(classes), used, p


def _oracle(G, seed: int, label: str):
    ver = verify_tuple(sample_tuple(G, 1, 2, random.Random(seed)))
    if not ver.ok:
        raise RuntimeError(f"{label}: oracle and formula genera differ at {ver.mismatches}")


class _PassDone(Exception):
    """Raised by a cold pass after the last stage it was asked for."""


def _cold_pass(W, seed_sets, last=COLD_STAGES[-1]) -> dict[str, tuple[float, float]]:
    """{STAGE: (wall, cpu)} for one run of the COLD_STAGES, in order, up to
    and including ``last``, on a group rebuilt from W's generators."""
    times = {}

    def stage(name, fn):
        wall, cpu, result = _timed(fn)
        times[name] = (wall, cpu)
        if name == last:
            raise _PassDone
        return result

    try:
        G = stage("closure", lambda: PermGroup(W.group.generators))
        stage("classes", G.conjugacy_classes)
        table = stage("table", lambda: character_table(G)).table
        n, used, p = _split_input(G)
        stage("table_split", lambda: _central_characters(n, used, p))
        sizes = [cl.size for cl in G.conjugacy_classes()]
        stage("table_orthogonality", lambda: _verify_orthogonality(G.order, sizes, table))
        stage("fixed_dim_matrix", lambda: fixed_dim_matrix(G))
        stage("double_coset_matrix", G.double_coset_matrix)
        stage("coset_actions", lambda: [
            G.coset_action(K.subgroup_elements) for K in G.cyclic_subgroup_classes()
        ])
        stage("oracle", lambda: _oracle(G, 0, W.label))
        stage("oracle_warm", lambda: _oracle(G, 1, W.label))
        stage("generation", lambda: [G.generates(s) for s in seed_sets])
    except _PassDone:
        pass
    return times


def _cold_best(W, last=COLD_STAGES[-1]) -> dict[str, tuple[float, float]]:
    """The best (wall, cpu) of REPEATS cold passes up to ``last``, per stage."""
    rng = random.Random(0)
    seed_sets = [rng.sample(range(W.group.order), 4) for _ in range(SEED_SETS)]
    passes = [_cold_pass(W, seed_sets, last) for _ in range(REPEATS)]
    return {k: _best(run[k] for run in passes) for k in passes[0]}


def _stages(W) -> dict[str, float]:
    best = _cold_best(W)
    cold = {
        "cli_cold": ("preset", "hitchin", W.letter, str(W.rank)),
        "verify_cold": ("verify", "--weyl", W.label),
    }
    for k, args in cold.items():
        best[k] = _best(_cold(*args) for _ in range(REPEATS))
    return {**_pairs(best), **_warm_stages(W)}


def _pass_report(stages) -> dict:
    """{label: {STAGE: [wall, cpu]}}: the chosen stages' best cold runs."""
    last = max(stages, key=COLD_STAGES.index)
    report = {}
    for letter, rank in GROUPS:
        W = weyl_group(letter, rank)
        best = _cold_best(W, last)
        report[W.label] = {k: best[k] for k in stages}
    return report


def _paired(rev: str, stages) -> dict:
    """Medians and ratios of the chosen stages, this tree against REV."""
    here = Path(prymdim.__file__).resolve().parents[1]
    tmp = Path(tempfile.mkdtemp(prefix="stage-times-"))
    tree = tmp / "tree"
    git = ["git", "-C", str(Path(__file__).resolve().parent)]
    runs: dict[str, list] = {"rev": [], "this": []}
    try:
        subprocess.run([*git, "worktree", "add", "--detach", "--quiet", str(tree), rev],
                       check=True)
        sides = [("rev", tree / "src"), ("this", here)]
        for i in range(PAIRS):
            for side, src in sides if i % 2 == 0 else sides[::-1]:
                argv = [sys.executable, __file__, "--pass", "--stages", ",".join(stages)]
                done = subprocess.run(argv, env={**os.environ, "PYTHONPATH": str(src)},
                                      capture_output=True, text=True)
                if done.returncode != 0:
                    raise RuntimeError(f"{side} pass exited {done.returncode}:\n{done.stderr}")
                runs[side].append(json.loads(done.stdout))
    finally:
        subprocess.run([*git, "worktree", "remove", "--force", str(tree)], check=False)
        shutil.rmtree(tmp, ignore_errors=True)

    def median(side, label, k, i):
        return statistics.median(run[label][k][i] for run in runs[side])

    groups = {}
    for label in runs["this"][0]:
        groups[label] = {}
        for k in stages:
            row = {}
            for suffix, i in (("", 0), ("_cpu", 1)):
                old = round(median("rev", label, k, i), 6)
                new = round(median("this", label, k, i), 6)
                row[f"rev{suffix}"], row[f"this{suffix}"] = old, new
                row[f"ratio{suffix}"] = round(new / old, 3) if old else None
            groups[label][k] = row
    return {
        "git": _git_revision(),
        "against": rev,
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} logical CPUs",
        "pairs": PAIRS,
        "repeats": REPEATS,
        "unit": "s, median over pairs of each tree's best of repeats by wall clock,"
        " with the CPU s of the same run; ratio = this / rev",
        "groups": groups,
    }


def _parse(argv):
    ap = argparse.ArgumentParser(description="Time each cold stage of the pipeline.")
    ap.add_argument("--against", metavar="REV",
                    help="compare this tree with git revision REV, in pairs")
    ap.add_argument("--stages",
                    help="paired mode: comma-separated cold stages (default: all)")
    ap.add_argument("--pass", dest="one_pass", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.stages is None:
        args.stages = list(COLD_STAGES)
    elif not (args.against or args.one_pass):
        ap.error("--stages applies only with --against")
    else:
        args.stages = args.stages.split(",")
    unknown = sorted(set(args.stages) - set(COLD_STAGES))
    if unknown:
        ap.error(f"unknown stages {unknown}; choose from {', '.join(COLD_STAGES)}")
    return args


def _full_report() -> dict:
    report = {
        "git": _git_revision(),
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} logical CPUs",
        "repeats": REPEATS,
        "warm_calls": WARM_CALLS,
        "unit": "s, best of repeats by wall clock, each with the CPU s of the same run;"
        " warm stages the mean of warm_calls calls",
        "loadavg_start": [round(v, 2) for v in os.getloadavg()],
        **_pairs({"cli_import": _best(_fresh("-c", "import prymdim.cli") for _ in range(REPEATS))}),
        "groups": {},
    }
    for letter, rank in GROUPS:
        W = weyl_group(letter, rank)
        report["groups"][W.label] = {
            "order": W.group.order,
            "class_count": len(W.group.conjugacy_classes()),
            **_stages(W),
        }
    report["loadavg_end"] = [round(v, 2) for v in os.getloadavg()]
    return report


def main(argv=None) -> int:
    args = _parse(argv)
    if args.one_pass:
        report = _pass_report(args.stages)
    elif args.against:
        report = _paired(args.against, args.stages)
    else:
        report = _full_report()
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
