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
rows its walks build once per group), a second seeded tuple on the same
group (`oracle_warm`), the generation test (`PermGroup.generates` on
100 seeded sets of 4 random elements, the question
`BranchTuple.is_valid` asks), and, on a warm hitchin genus-2 spec, one
`rhprym.validate`, all n quotient genera (`genus_quotient`), the closed
form for every irrep (`prym_dim_formula`), one `exactla.solve` of the
fixed-dim system on the spec's quotient genera with those dimensions,
doubled over d = 2, as its candidate (`closed_form_check`, the one
product A (2x) == 2 genera by which `validate` accepts the closed form)
and one `exactla.solve` without a candidate (`solve`, the one
elimination of the reference route, which `validate` takes only when
that check fails). Every repetition of the cold stages rebuilds the
group from `W.group.generators`, so each of them starts cold. Those are
the generators `weyl_group` closed the group from: the pair
{Coxeter element, s_(r-2)} where it generates W (all types here but
F4), else the simple reflections. A warm stage takes well under a
millisecond, so one call would be mostly timer noise: its figure is the
mean of WARM_CALLS back-to-back calls, best of REPEATS. The `cli_cold`
stage is one fresh `python -m prymdim preset hitchin <type> <rank>
--format json` process on the same source tree, interpreter start and
imports included, and the `verify_cold` stage one fresh `python -m
prymdim verify --weyl <label> --format json` process, the whole
invariant suite with the monodromy oracle. Beside the groups, the
top-level `cli_import` stage is the best of REPEATS fresh
`python -c "import prymdim.cli"` processes: interpreter start and the
CLI's imports, with no group built.

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
"""

import json
import os
import platform
import random
import resource
import subprocess
import sys
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
REPEATS = 3
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


def _stages(W) -> dict[str, float]:
    gens = W.group.generators
    rng = random.Random(0)
    seed_sets = [rng.sample(range(W.group.order), 4) for _ in range(SEED_SETS)]
    runs: dict[str, list[tuple[float, float]]] = {}

    def stage(name, fn):
        wall, cpu, result = _timed(fn)
        runs.setdefault(name, []).append((wall, cpu))
        return result

    for _ in range(REPEATS):
        G = stage("closure", lambda: PermGroup(gens))
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
    best = {k: _best(v) for k, v in runs.items()}
    cold = {
        "cli_cold": ("preset", "hitchin", W.letter, str(W.rank)),
        "verify_cold": ("verify", "--weyl", W.label),
    }
    for k, args in cold.items():
        best[k] = _best(_cold(*args) for _ in range(REPEATS))
    return {**_pairs(best), **_warm_stages(W)}


def main() -> int:
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
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
