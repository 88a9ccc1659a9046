#!/usr/bin/env python3
"""Time each cold stage of the dimension pipeline on five Weyl groups.

For W(D5), W(F4), W(B5), W(A6) and W(A7) it prints, as one JSON object,
the best of three wall-clock seconds for: the group closure, the
classification pass (conjugacy classes, rationality, cyclic classes),
the character table, and two of its sub-stages timed apart on the same
group: the eigenspace split (`table_split`, `_central_characters` on
the class matrices it consumes, built beforehand) and the row
orthogonality check (`table_orthogonality`); then the fixed-dimension
matrix with its determinant, the double-coset matrix, what the oracle
builds once per cyclic class (`coset_actions`: the right-multiplication
row of the class's generator and its cycles, the left cosets, by
`PermGroup.cyclic_cosets`), the monodromy oracle on those built rows
(`oracle`: `monodromy.sample_tuple` of a genus-1 tuple with two branch
points, then `verify_tuple`, on the fresh group, so it pays for the
Schreier tree, built once per group, that its left-multiplication rows
are read off, and for the rows and right cosets it builds once per
tuple), a second seeded tuple on the same group (`oracle_warm`), the
generation test
(`PermGroup.generates` on 100 seeded sets of 4 random elements, the
question `BranchTuple.is_valid` asks), and, on a warm hitchin genus-2
spec, one `rhprym.validate`, all n quotient genera (`genus_quotient`),
the closed form for every irrep (`prym_dim_formula`), one
`exactla.solve` of the fixed-dim system on the spec's quotient genera
with those dimensions over d = 1 as its candidate (`closed_form_check`,
the plain product A x == genera, one dot product per row, which
`validate` no longer makes per spec since each group's identities are
certified once, each of them a check of this kind) and one
`exactla.solve` without a candidate
(`solve`, the one elimination of the reference route, which `verify`
takes on every sampled spec). Every repetition of the
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

Every figure is in seconds, to the nanosecond. STAGE is the wall-clock
figure and STAGE_cpu the CPU seconds of the same run (the best one by
wall clock): `time.process_time()` for a stage run in this process, and
the children's user plus system time from `resource.getrusage` for a
fresh process. A CPU figure well below its wall figure means the run waited,
for example on a loaded machine; the load averages say how loaded.

Cold processes read bytecode from `__pycache__` when it is there and
recompile every module when it is not (as under PYTHONDONTWRITEBYTECODE),
so compare two trees only in the same bytecode state.

Usage (write elsewhere first: redirecting into the tracked file would
record the revision as dirty):

    PYTHONPATH=src python3 scripts/stage_times.py > stages.json
    mv stages.json BENCH_stages.json

Paired mode compares this tree with a git revision REV on chosen cold
in-process stages (closure through generation above), process stages
(`cli_cold` and `verify_cold`) and warm stages (warm_validate through
solve), on the five groups:

    PYTHONPATH=src python3 scripts/stage_times.py --against HEAD \
        --stages table,table_split,warm_validate

REV is checked out into a temporary `git worktree`, removed afterwards.
Each of PAIRS pairs runs one fresh `scripts/stage_times.py --pass`
process of each tree, its own script on its own `src`, the order
alternating from pair to pair; a process, on each group, runs the cold
stages REPEATS times in order up to the last one chosen, reporting the
best run of each chosen stage, then the best of REPEATS fresh processes
of each chosen process stage on that tree, then times each chosen warm
stage as above. So each tree times its own definition of every stage. A
REV whose script lacks `--pass` or a chosen stage, or a pass that fails
on either tree, ends the run with one `error:` line and exit 2.
`--stages` (default: every cold in-process stage) is refused without
`--against`. The printed object:

    git, against, python,    this tree's revision, REV as given, then
      machine                as above
    pairs, repeats,          PAIRS, REPEATS and WARM_CALLS
      warm_calls
    unit                     how the figures are taken
    groups                   {label: {STAGE: {rev, this, ratio,
                             ratio_q1, ratio_q3, rev_cpu, this_cpu,
                             ratio_cpu, ratio_q1_cpu, ratio_q3_cpu}}}

where rev and this are the median over the pairs of each tree's wall
seconds, to the nanosecond, rev_cpu and this_cpu the same for CPU
seconds. ratio is the median of the PAIRS per-pair ratios this / rev,
so a ratio below 1 means this tree is faster, and ratio_q1 and ratio_q3
are their lower and upper quartiles (`statistics.quantiles`); the _cpu
ones are the same for CPU seconds. The ratio is taken pair by pair, not
as the ratio of the two medians, which load shared by the two processes
of a pair can push outside the quartiles. A stage whose quartiles
straddle 1 did not move beyond the noise of its pairs.
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
WARM_STAGES = ("warm_validate", "quotient_genera", "closed_form", "closed_form_check", "solve")
PROCESS_STAGES = ("cli_cold", "verify_cold")
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
    """{STAGE: wall, STAGE_cpu: cpu}, each rounded to the nanosecond (a
    warm stage takes some microseconds)."""
    out = {}
    for k, (wall, cpu) in figures.items():
        out[k], out[f"{k}_cpu"] = round(wall, 9), round(cpu, 9)
    return out


def _warm_stages(W) -> dict[str, float]:
    """The warm stages on W's hitchin genus-2 spec, caches filled first,
    as {STAGE: wall, STAGE_cpu: cpu} seconds per call."""
    return _pairs(_warm_figures(W, WARM_STAGES))


def _warm_figures(W, stages) -> dict[str, tuple[float, float]]:
    """{STAGE: (wall, cpu)} seconds per call for the chosen warm stages on
    W's hitchin genus-2 spec, caches filled first."""
    spec = hitchin_preset(W, 2)
    report = validate(spec)
    genera, dims = report.quotient_genera, report.dims
    fdm = fixed_dim_matrix(W.group)
    n = len(W.group.cyclic_subgroup_classes())
    warm = {
        "warm_validate": lambda: validate(spec),
        "quotient_genera": lambda: [genus_quotient(spec, i) for i in range(n)],
        "closed_form": lambda: [prym_dim_formula(spec, j) for j in range(n)],
        "closed_form_check": lambda: exactla.solve(fdm, genera, (dims, 1)),
        "solve": lambda: exactla.solve(fdm, genera),
    }
    return {k: _warm(warm[k]) for k in stages}


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


class _Refused(Exception):
    """A paired run that cannot go on, with the reason for its error line."""


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
            G.cyclic_cosets(K.generator) for K in G.cyclic_subgroup_classes()
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


def _process_figures(W, stages) -> dict[str, tuple[float, float]]:
    """{STAGE: (wall, cpu)} for the chosen PROCESS_STAGES on W, each the
    best of REPEATS fresh processes on this source tree."""
    args = {
        "cli_cold": ("preset", "hitchin", W.letter, str(W.rank)),
        "verify_cold": ("verify", "--weyl", W.label),
    }
    return {k: _best(_cold(*args[k]) for _ in range(REPEATS)) for k in stages}


def _stages(W) -> dict[str, float]:
    best = {**_cold_best(W), **_process_figures(W, PROCESS_STAGES)}
    return {**_pairs(best), **_warm_stages(W)}


def _pass_report(stages) -> dict:
    """{label: {STAGE: [wall, cpu]}}: the chosen cold stages' best runs,
    the chosen process stages' best processes and the chosen warm stages'
    figures."""
    cold = [k for k in stages if k in COLD_STAGES]
    warm = [k for k in stages if k in WARM_STAGES]
    report = {}
    for letter, rank in GROUPS:
        W = weyl_group(letter, rank)
        best = _cold_best(W, max(cold, key=COLD_STAGES.index)) if cold else {}
        best.update(_process_figures(W, [k for k in stages if k in PROCESS_STAGES]))
        if warm:
            best.update(_warm_figures(W, warm))
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
        added = subprocess.run([*git, "worktree", "add", "--detach", "--quiet", str(tree), rev],
                               capture_output=True, text=True)
        if added.returncode != 0:
            raise _Refused(f"cannot check out {rev}: {_last_line(added.stderr)}")
        sides = [("rev", tree / "scripts" / "stage_times.py", tree / "src"),
                 ("this", Path(__file__).resolve(), here)]
        for i in range(PAIRS):
            for side, script, src in sides if i % 2 == 0 else sides[::-1]:
                name = rev if side == "rev" else "this tree"
                argv = [sys.executable, str(script), "--pass", "--stages", ",".join(stages)]
                done = subprocess.run(argv, env={**os.environ, "PYTHONPATH": str(src)},
                                      capture_output=True, text=True)
                if done.returncode != 0:
                    raise _Refused(f"stage_times.py --pass of {name} exited {done.returncode}:"
                                   f" {_last_line(done.stderr)}")
                report = json.loads(done.stdout)
                missing = [k for k in stages if any(k not in rows for rows in report.values())]
                if missing:
                    raise _Refused(f"stage_times.py --pass of {name} reported no {missing}")
                runs[side].append(report)
    finally:
        subprocess.run([*git, "worktree", "remove", "--force", str(tree)], capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)
    return {
        "git": _git_revision(),
        "against": rev,
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} logical CPUs",
        "pairs": PAIRS,
        "repeats": REPEATS,
        "warm_calls": WARM_CALLS,
        "unit": "s, median over pairs of each tree's best of repeats by wall clock"
        " (warm stages: the mean of warm_calls calls), with the CPU s of the same run;"
        " ratio the median and ratio_q1 and ratio_q3 the quartiles of the per-pair"
        " ratios this / rev",
        "groups": _summary(runs, stages),
    }


def _summary(runs: dict[str, list], stages) -> dict:
    """{label: {STAGE: row}} from the paired passes ``runs`` ({"rev": [...],
    "this": [...]}, pair i of each side a --pass report): each side's
    median seconds and the median and quartiles of the per-pair ratios
    this / rev, wall and CPU."""
    groups = {}
    for label in runs["this"][0]:
        groups[label] = {}
        for k in stages:
            row = {}
            for suffix, i in (("", 0), ("_cpu", 1)):
                for side in ("rev", "this"):
                    # to the nanosecond: a warm stage takes some microseconds
                    row[f"{side}{suffix}"] = round(
                        statistics.median(run[label][k][i] for run in runs[side]), 9)
                ratios = [new[label][k][i] / old[label][k][i]
                          for old, new in zip(runs["rev"], runs["this"]) if old[label][k][i]]
                row[f"ratio{suffix}"] = round(statistics.median(ratios), 3) if ratios else None
                q1 = q3 = None
                if len(ratios) >= 2:
                    q1, _, q3 = (round(q, 3) for q in statistics.quantiles(ratios, n=4))
                row[f"ratio_q1{suffix}"], row[f"ratio_q3{suffix}"] = q1, q3
            groups[label][k] = row
    return groups


def _last_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else "no message"


def _parse(argv):
    ap = argparse.ArgumentParser(description="Time each cold stage of the pipeline.")
    ap.add_argument("--against", metavar="REV",
                    help="compare this tree with git revision REV, in pairs")
    ap.add_argument("--stages",
                    help="paired mode: comma-separated cold in-process, process or warm"
                    " stages (default: every cold in-process stage)")
    ap.add_argument("--pass", dest="one_pass", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.stages is None:
        args.stages = list(COLD_STAGES)
    elif not (args.against or args.one_pass):
        ap.error("--stages applies only with --against")
    else:
        args.stages = args.stages.split(",")
    known = COLD_STAGES + PROCESS_STAGES + WARM_STAGES
    unknown = sorted(set(args.stages) - set(known))
    if unknown:
        ap.error(f"unknown stages {unknown}; choose from {', '.join(known)}")
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
        try:
            report = _paired(args.against, args.stages)
        except _Refused as exc:
            sys.stderr.write(f"error: {exc}\n")
            return 2
    else:
        report = _full_report()
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
