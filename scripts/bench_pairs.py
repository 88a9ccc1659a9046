#!/usr/bin/env python3
"""Alternating pairs of benchmark runs: a git revision REV against HEAD.

    python3 scripts/bench_pairs.py REV WORKLOAD... [--pairs N] [--seconds S] [--seed K]

Each side runs its own `bench/run.py` from a `git archive` copy of its
commit (REV, and HEAD: committed files only), made in one temporary
directory that is removed afterwards, on failure too. For each workload,
one warm-up run per side (`--seconds 1`, its figures dropped) lets each
copy compile its bytecode first; then pair i (0-based) runs seed K + i
on both sides, REV first when i is even and HEAD first when it is odd,
each run for S seconds.

One JSON line per workload is printed:

    workload, rev, seconds   as given
    rev_commit, head_commit  the two commits, in full
    seeds                    the seed of each pair
    first                    "rev" or "head": the side that ran first
    pairs                    per pair: {seed, first, rev: {metric: value},
                             head: {metric: value}}, the end-to-end
                             metrics of bench/run.py
    failed                   {rev, head}: queries that failed, summed
    median, q1, q3           {rev: {metric: value}, head: {...}}, over the
                             pairs (`statistics.quantiles`, n=4)
    change                   {metric: head median / rev median - 1}
    moved                    {metric: {lower, higher, same}}: the pairs in
                             which HEAD's figure was below, above or equal
                             to REV's

A run that exits with neither 0 nor 1 (bench/run.py exits 1 when a query
failed) or prints no JSON result ends the script with one `error:` line
and exit 2.
"""

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WARM_UP_SECONDS = 1


class Failure(Exception):
    """A step that ends the script with one error line."""


def _git(*argv: str) -> bytes:
    done = subprocess.run(["git", "-C", str(ROOT), *argv], capture_output=True)
    if done.returncode != 0:
        raise Failure(f"git {' '.join(argv)}: {done.stderr.decode(errors='replace').strip()}")
    return done.stdout


def _copy(commit: str, where: Path) -> Path:
    """The committed files of ``commit``, unpacked under ``where``."""
    where.mkdir()
    with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", commit))) as tar:
        tar.extractall(where, filter="data")
    return where


def _run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last stdout line of one `bench/run.py` run of ``tree``, as JSON."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable, str(tree / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=tree)
    lines = done.stdout.strip().splitlines()
    try:
        if done.returncode not in (0, 1):
            raise ValueError
        return json.loads(lines[-1])
    except (ValueError, IndexError):
        tail = (done.stderr.strip().splitlines() or ["no output"])[-1]
        raise Failure(f"bench/run.py of {tree.name} on {workload} seed {seed} exited "
                      f"{done.returncode}: {tail}") from None


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summary(pairs: list[dict]) -> dict:
    """The medians, quartiles, change and per-pair moves of ``pairs``."""
    names = [name for name in pairs[0]["rev"] if all(name in p["head"] for p in pairs)]
    out = {"median": {}, "q1": {}, "q3": {}}
    for side in ("rev", "head"):
        for key in out:
            out[key][side] = {}
        for name in names:
            q1, q2, q3 = _quartiles([p[side][name] for p in pairs])
            out["q1"][side][name], out["median"][side][name], out["q3"][side][name] = q1, q2, q3
    out["change"] = {name: out["median"]["head"][name] / out["median"]["rev"][name] - 1
                     for name in names if out["median"]["rev"][name]}
    out["moved"] = {
        name: {
            "lower": sum(p["head"][name] < p["rev"][name] for p in pairs),
            "higher": sum(p["head"][name] > p["rev"][name] for p in pairs),
            "same": sum(p["head"][name] == p["rev"][name] for p in pairs),
        }
        for name in names
    }
    return out


def _workload(trees: dict, commits: dict, args, workload: str) -> dict:
    for side in ("rev", "head"):
        _run(trees[side], workload, args.seed, WARM_UP_SECONDS)
    pairs, failed = [], {"rev": 0, "head": 0}
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("rev", "head") if i % 2 == 0 else ("head", "rev")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            result = _run(trees[side], workload, seed, args.seconds)
            failed[side] += result["failed"]
            pair[side] = {name: m["value"] for name, m in result["metrics"].items()}
        pairs.append(pair)
    return {
        "workload": workload,
        "rev": args.rev,
        "rev_commit": commits["rev"],
        "head_commit": commits["head"],
        "seconds": args.seconds,
        "seeds": [p["seed"] for p in pairs],
        "first": [p["first"] for p in pairs],
        "pairs": pairs,
        "failed": failed,
        **summary(pairs),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rev", help="the git revision to pair HEAD against")
    ap.add_argument("workloads", nargs="+", metavar="WORKLOAD")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = ap.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        ap.error("--pairs must be at least 1 and --seconds positive")
    scratch = Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    try:
        commits = {side: _git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
                   for side, rev in (("rev", args.rev), ("head", "HEAD"))}
        trees = {side: _copy(commits[side], scratch / side) for side in ("rev", "head")}
        for workload in args.workloads:
            print(json.dumps(_workload(trees, commits, args, workload)), flush=True)
    except Failure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
