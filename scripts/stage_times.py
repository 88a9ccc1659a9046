#!/usr/bin/env python3
"""Time each cold stage of the dimension pipeline on five Weyl groups.

For W(D5), W(F4), W(B5), W(A6) and W(A7) it prints, as one JSON object,
the best of three wall-clock seconds for: the group closure, the
classification pass (conjugacy classes, rationality, cyclic classes),
the character table, the fixed-dimension matrix with its determinant, the
double-coset matrix, the coset action of every cyclic subgroup, the
monodromy oracle on those built actions (`monodromy.sample_tuple` of a
genus-1 tuple with two branch points, then `verify_tuple`), the
generation test (`PermGroup.generates` on 100 seeded sets of 4 random
elements, the question `BranchTuple.is_valid` asks), and, on a
warm hitchin genus-2 spec, one `rhprym.validate`, all n quotient genera
(`genus_quotient`), the closed form for every irrep (`prym_dim_formula`),
one `exactla.solve` of the fixed-dim system on the spec's quotient genera
with those dimensions, doubled over d = 2, as its candidate
(`closed_form_check`, the one product A (2x) == 2 genera by which
`validate` accepts the closed form) and one `exactla.solve` without a
candidate (`solve`, the one elimination of the reference route, which
`validate` takes only when that check fails). Every repetition of the
cold stages rebuilds the group from `W.group.generators`, so each of
them starts cold. Those are the
generators `weyl_group` closed the group from: the pair
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
CLI's imports, with no group built. The object also records the git
revision, the Python version and the machine
(architecture and CPU count).

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
import subprocess
import sys
import time
from pathlib import Path

import prymdim
from prymdim import exactla
from prymdim.chartable import character_table, fixed_dim_matrix
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
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


def _warm(fn) -> float:
    """Seconds per call of fn: the mean of WARM_CALLS calls, best of REPEATS."""
    calls = range(WARM_CALLS)
    return min(_timed(lambda: [fn() for _ in calls])[0] for _ in range(REPEATS)) / WARM_CALLS


def _fresh(*args: str) -> float:
    """Seconds for one fresh ``python ARGS`` process on this source tree."""
    env = {**os.environ, "PYTHONPATH": str(Path(prymdim.__file__).resolve().parents[1])}
    argv = [sys.executable, *args]
    seconds, done = _timed(lambda: subprocess.run(argv, env=env, capture_output=True))
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[1:])} exited {done.returncode}")
    return seconds


def _cold(*args: str) -> float:
    """Seconds for one fresh ``python -m prymdim ARGS --format json`` process."""
    return _fresh("-m", "prymdim", *args, "--format", "json")


def _warm_stages(W) -> dict[str, float]:
    """The warm stages on W's hitchin genus-2 spec, caches filled first."""
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
    return {k: _warm(fn) for k, fn in warm.items()}


def _stages(W) -> dict[str, float]:
    gens = W.group.generators
    rng = random.Random(0)
    seed_sets = [rng.sample(range(W.group.order), 4) for _ in range(SEED_SETS)]
    best: dict[str, float] = {}
    for _ in range(REPEATS):
        t = {}
        t["closure"], G = _timed(lambda: PermGroup(gens))
        t["classes"], _ = _timed(G.conjugacy_classes)
        t["table"], _ = _timed(lambda: character_table(G))
        t["fixed_dim_matrix"], _ = _timed(lambda: fixed_dim_matrix(G))
        t["double_coset_matrix"], _ = _timed(G.double_coset_matrix)
        t["coset_actions"], _ = _timed(
            lambda: [G.coset_action(K.subgroup_elements) for K in G.cyclic_subgroup_classes()]
        )
        t["oracle"], ver = _timed(lambda: verify_tuple(sample_tuple(G, 1, 2, random.Random(0))))
        if not ver.ok:
            raise RuntimeError(f"{W.label}: oracle and formula genera differ at {ver.mismatches}")
        t["generation"], _ = _timed(lambda: [G.generates(s) for s in seed_sets])
        for k, v in t.items():
            best[k] = min(v, best.get(k, v))
    best.update(_warm_stages(W))
    cold = {
        "cli_cold": ("preset", "hitchin", W.letter, str(W.rank)),
        "verify_cold": ("verify", "--weyl", W.label),
    }
    for k, args in cold.items():
        best[k] = min(_cold(*args) for _ in range(REPEATS))
    return {k: round(v, 6) for k, v in best.items()}


def main() -> int:
    report = {
        "git": _git_revision(),
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} logical CPUs",
        "repeats": REPEATS,
        "warm_calls": WARM_CALLS,
        "unit": "s, best of repeats; warm stages the mean of warm_calls calls",
        "cli_import": round(min(_fresh("-c", "import prymdim.cli") for _ in range(REPEATS)), 6),
        "groups": {},
    }
    for letter, rank in GROUPS:
        W = weyl_group(letter, rank)
        report["groups"][W.label] = {
            "order": W.group.order,
            "class_count": len(W.group.conjugacy_classes()),
            **_stages(W),
        }
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
