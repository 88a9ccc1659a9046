"""prymdim benchmark: one command, three workloads, every answer checked.

    python3 bench/run.py --workload cli-cold --seed 1 --seconds 12 --trace 0

Workloads (closed loop, one client, one process at a time):

  cli-cold       fixed preset queries plus seeded ``dims SPECFILE``
                 queries, each a fresh ``python3 -m prymdim`` process
  spec-sweep     seeded branch data through ``rhprym.validate`` on warm
                 W(B5) and W(F4)
  oracle-verify  seeded ``monodromy.sample_tuple`` + ``verify_tuple`` on
                 warm W(F4) and W(D5)

With ``--trace 0`` the run measures for ``--seconds`` and prints the
end-to-end metrics, times in the reference seconds of ``calib.py`` with
the raw wall figures beside them; with ``--trace 1`` it runs a fixed
query count once
untraced and once traced and prints the per-layer metrics and the
tracing overhead. Human-readable lines come first; the last line of
stdout is the JSON result. The exit code is 0 only when every answer
passed its check. See bench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
import calib  # noqa: E402
import gen  # noqa: E402
import tracer  # noqa: E402

PY = sys.executable
WORK = ROOT / ".bench_work"
CHILD_TIMEOUT_S = 150  # no single child may outlive the 180 s run limit
TICK_S = 0.05  # reference-kernel interval while a cli-cold child runs
SETUP_REPEATS = 3  # set-ups per warm run; setup_s is their median
MIN_ROUNDS = 3  # cli-cold rounds per run; every query of every round is a sample
TRACE_COUNTS = {"spec-sweep": 240, "oracle-verify": 40}  # queries per traced pass

END_TO_END = {
    "query_s.p50": "s",
    "query_s.p90": "s",
    "throughput_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


def _per_layer_units() -> dict[str, str]:
    units = {}
    for name in tracer.NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({
        "permgroup.mul.calls": "count",
        "monodromy.is_valid.calls": "count",
        "permgroup.coset_action.build_ratio": "ratio",
        "permgroup.double_coset_count.distinct_ratio": "ratio",
        "monodromy.sample_tuple.accept_ratio": "ratio",
        "cli.import_s": "s",
        "trace.untraced_s": "s",
        "trace.traced_s": "s",
        "trace.overhead_s": "s",
    })
    return units


PER_LAYER = _per_layer_units()


# -- child processes ---------------------------------------------------------------


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(cmd: list[str], out_path: Path, tick=None) -> tuple[int, float, float, bytes, bytes]:
    """Run one child to completion: (exit code, wall s, peak RSS MiB, stdout, stderr).

    The child's own rusage comes from wait4, so its peak RSS is its alone.
    ``tick``, if given, is called every TICK_S while the child runs.
    """
    err_path = out_path.with_suffix(".err")
    with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
        t = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=fo, stderr=fe, env=_env(), cwd=ROOT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            if tick is not None:
                fd = os.pidfd_open(proc.pid)  # readable once the child has exited
                try:
                    while not select.select([fd], [], [], TICK_S)[0]:
                        tick()
                finally:
                    os.close(fd)
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024, out_path.read_bytes(), err_path.read_bytes()


IMPORT_PROBE = [PY, "-c", "import prymdim.cli"]  # interpreter start + import


def import_s(work: Path) -> float:
    """Wall time of a fresh interpreter importing prymdim.cli, fastest of five."""
    walls = []
    for _ in range(5):
        code, wall, _, _, err = spawn(IMPORT_PROBE, work / "import.out")
        if code != 0:
            raise RuntimeError(f"import prymdim failed: {err.decode(errors='replace')}")
        walls.append(wall)
    return min(walls)


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


class Result:
    """What one run attempted, what failed, and why."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.notes: list[str] = []

    def record(self, err: str | None) -> None:
        self.attempted += 1
        if err is not None:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(err)


# -- cli-cold -------------------------------------------------------------------------


def _query_key(q: dict) -> str:
    if "spec" not in q:
        return q["id"]
    text = gen.spec_text(q["spec"])
    return f"{q['id']} {hashlib.sha256(text.encode()).hexdigest()[:16]}"


def cli_round(seed: int, work: Path) -> list[dict]:
    """The seeded query list, with spec files written into ``work``."""
    queries = gen.cli_queries(seed)
    for q in queries:
        if "spec" in q:
            path = work / (q["id"].replace(" ", "-") + ".json")
            path.write_text(gen.spec_text(q["spec"]), encoding="utf-8")
            q["argv"] = ["dims", str(path)]
        q["key"] = _query_key(q)
    return queries


def check_cli(q: dict, code: int, out: bytes, err: bytes, digests: dict) -> str | None:
    """None if the query's output passes every check, else the reason."""
    where = q["id"]
    if code != 0 or b"Traceback" in err:
        return f"{where}: exit {code}: {err.decode(errors='replace')[-300:]}"
    digest = hashlib.sha256(out).hexdigest()
    want = digests.get(q["key"])
    if want is not None and want != digest:
        return f"{where}: JSON stdout differs from the stored digest"
    digests.setdefault(q["key"], digest)  # later rounds must repeat it byte for byte
    try:
        return _check_cli_doc(q, json.loads(out))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"{where}: malformed report: {type(exc).__name__}: {exc}"


def _check_cli_doc(q: dict, doc: dict) -> str | None:
    where = q["id"]
    if doc["diagnostics"] or doc["method_agreement"] is not True:
        return f"{where}: diagnostics {doc['diagnostics']}"
    if "spec" not in q:
        return None if doc["preset"]["match"] is True else f"{where}: preset MISMATCH"
    dims = doc["dimensions"]
    g_x = q["g_total"]
    if doc["group"]["order"] != q["group_order"]:
        return f"{where}: group order {doc['group']['order']} != {q['group_order']}"
    if doc["genera"]["total"] != g_x:
        return f"{where}: g_X {doc['genera']['total']} != Riemann-Hurwitz {g_x}"
    if sum(d["degree"] * d["dim"] for d in dims) != g_x:
        return f"{where}: sum deg_j dim_j != g_X {g_x}"
    if dims[0]["degree"] != 1 or dims[0]["dim"] != q["spec"]["base_genus"]:
        return f"{where}: trivial dimension != base genus"
    return None


def load_digests() -> dict:
    return json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))


class Clock:
    """Times children in wall seconds and in calib's reference seconds.

    The kernel runs in this process, pinned to the child's core, right
    before and after each child and every TICK_S while it runs (taking
    about 2 % of the core from the child), so that a speed change in the
    middle of a long child is seen. The median kernel time scales the
    child's wall time; the median ignores a kernel run that the child
    preempted.
    """

    def __init__(self):
        self.k = calib.speed()

    def spawn(self, cmd: list[str], out_path: Path):
        ks = [self.k]
        code, wall, mib, out, err = spawn(cmd, out_path, tick=lambda: ks.append(calib.kernel()))
        self.k = calib.speed()
        ks.append(self.k)
        ref = wall * calib.REF_S / statistics.median(ks)
        return code, wall, ref, mib, out, err


def cli_cold(args, work: Path, res: Result) -> tuple[dict, int]:
    queries = cli_round(args.seed, work)
    stored = load_digests()
    digests = dict(stored)
    res.notes.append("stored digests: "
                     f"{sum(q['key'] in stored for q in queries)}/{len(queries)} queries of this seed")
    clock = Clock()
    raw, ref, rss, probes = [], [], [], []
    rounds = 0
    start = time.perf_counter()
    while rounds < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
        for i, q in enumerate(queries):
            code, wall, wall_ref, mib, out, err = clock.spawn(
                [PY, "-m", "prymdim", *q["argv"], "--format", "json"], work / f"q{i}.out")
            res.record(check_cli(q, code, out, err, digests))
            raw.append(wall)
            ref.append(wall_ref)
            rss.append(mib)
            if i % 2:  # set-up probes spread over the run
                code, _, probe_ref, _, _, err = clock.spawn(IMPORT_PROBE, work / "import.out")
                if code != 0:
                    res.record(f"import prymdim failed: {err.decode(errors='replace')[-300:]}")
                probes.append(probe_ref)
        rounds += 1
    timed = time.perf_counter() - start
    res.notes.append(f"{rounds} rounds; raw wall: p50 {statistics.median(raw):.4g} s, "
                     f"p90 {p90(raw):.4g} s, max {max(raw):.4g} s, "
                     f"{len(raw) / timed:.4g} queries/s; query_s.max {max(ref):.4g} s")
    return {
        "query_s.p50": statistics.median(ref),
        "query_s.p90": p90(ref),
        # the queries run back to back, so the timed phase without the
        # set-up probes is the sum of the query children's times
        "throughput_per_s": len(ref) / sum(ref),
        "setup_s": statistics.median(probes),
        "peak_rss_mib": max(rss),
    }, len(ref)


def cli_cold_trace(args, work: Path, res: Result) -> dict:
    queries = cli_round(args.seed, work)
    digests = load_digests()
    untraced = traced = 0.0
    summaries = []
    for i, q in enumerate(queries):
        code, wall, _, out, err = spawn([PY, "-m", "prymdim", *q["argv"], "--format", "json"],
                                        work / f"q{i}.out")
        res.record(check_cli(q, code, out, err, digests))
        untraced += wall
        spans, summary = work / f"q{i}.spans.jsonl", work / f"q{i}.summary.json"
        cmd = [PY, str(BENCH / "cli_child.py"), f"q{i}", str(spans), str(summary), "--",
               *q["argv"], "--format", "json"]
        code, wall, _, out, err = spawn(cmd, work / f"q{i}.traced.out")
        res.record(check_cli(q, code, out, err, digests))
        traced += wall
        if summary.exists():
            summaries.append(json.loads(summary.read_text(encoding="utf-8")))
    return layer_metrics(summaries, untraced, traced, import_s(work))


# -- warm workloads -------------------------------------------------------------------


def _worker(args, work: Path, name: str, extra: list[str]) -> tuple[dict | None, float]:
    cmd = [PY, str(BENCH / "worker.py"), "--workload", args.workload, "--seed", str(args.seed), *extra]
    code, wall, _, out, err = spawn(cmd, work / f"{name}.out")
    lines = out.decode(errors="replace").strip().splitlines()
    if code != 0 or not lines:
        return None, wall
    try:
        return json.loads(lines[-1]), wall
    except json.JSONDecodeError:
        return None, wall


def _collect(doc: dict | None, res: Result, what: str) -> bool:
    if doc is None:
        res.record(f"{what}: worker crashed")
        return False
    for _ in range(doc["attempted"] - doc["failed"]):
        res.record(None)
    for i in range(doc["failed"]):
        res.record(doc["errors"][i] if i < len(doc["errors"]) else f"{what}: failed query")
    if doc.get("exhausted"):
        res.notes.append(f"{what}: {doc['exhausted']} samples exhausted (an outcome, not a failure)")
    return True


def warm(args, work: Path, res: Result) -> tuple[dict | None, int]:
    main, _ = _worker(args, work, "main", ["--seconds", str(args.seconds)])
    if not _collect(main, res, "timed worker"):
        return None, 0
    setups, raw_setups = [main["setup_ref_s"]], [main["setup_s"]]
    for i in range(SETUP_REPEATS - 1):
        doc, _ = _worker(args, work, f"setup{i}", ["--setup-only"])
        if doc is None:
            res.record(f"set-up worker {i} crashed")
            return None, 0
        setups.append(doc["setup_ref_s"])
        raw_setups.append(doc["setup_s"])
    raw, ref = main["latencies"], main["latencies_ref"]
    res.notes.append(f"raw wall: p50 {statistics.median(raw):.4g} s, p90 {p90(raw):.4g} s, "
                     f"{len(raw) / main['timed_s']:.4g} queries/s, "
                     f"set-up {statistics.median(raw_setups):.4g} s")
    return {
        "query_s.p50": statistics.median(ref),
        "query_s.p90": p90(ref),
        "throughput_per_s": main["attempted"] / main["busy_ref_s"],
        "setup_s": statistics.median(setups),
        "peak_rss_mib": main["peak_rss_mib"],
    }, len(ref)


def warm_trace(args, work: Path, res: Result) -> dict | None:
    count = ["--count", str(TRACE_COUNTS[args.workload])]
    untraced_doc, untraced = _worker(args, work, "untraced", count)
    spans = work / "spans.jsonl"
    traced_doc, traced = _worker(args, work, "traced", count + ["--trace", str(spans)])
    ok = _collect(untraced_doc, res, "untraced worker") & _collect(traced_doc, res, "traced worker")
    if not ok:
        return None
    return layer_metrics([traced_doc["trace"]], untraced, traced, import_s(work))


# -- per-layer metrics ----------------------------------------------------------------


def layer_metrics(summaries: list[dict], untraced: float, traced: float, import_s: float) -> dict:
    """Sum traced processes' summaries into the per-layer metrics."""
    calls = [0] * len(tracer.NAMES)
    self_s = [0.0] * len(tracer.NAMES)
    counts: dict[str, int] = {}
    coset = dcc = returned = 0
    for s in summaries:
        for i, (c, t) in enumerate(s["layers"]):
            calls[i] += c
            self_s[i] += t
        for k, v in s["counts"].items():
            counts[k] = counts.get(k, 0) + v
        coset += s["coset_distinct"]
        dcc += s["dcc_distinct"]
        returned += s["samples_returned"]
    idx = {n: i for i, n in enumerate(tracer.NAMES)}
    m: dict[str, float] = {}
    for i, name in enumerate(tracer.NAMES):
        m[f"{name}.calls"] = calls[i]
        m[f"{name}.self_s"] = self_s[i]

    def ratio(a, b):
        return a / b if b else 0.0

    is_valid = counts.get("monodromy.is_valid", 0)
    m.update({
        "permgroup.mul.calls": counts.get("permgroup.mul", 0),
        "monodromy.is_valid.calls": is_valid,
        "permgroup.coset_action.build_ratio": ratio(coset, calls[idx["permgroup.coset_action"]]),
        "permgroup.double_coset_count.distinct_ratio":
            ratio(dcc, calls[idx["permgroup.double_coset_count"]]),
        "monodromy.sample_tuple.accept_ratio": ratio(returned, is_valid),
        "cli.import_s": import_s,
        "trace.untraced_s": untraced,
        "trace.traced_s": traced,
        "trace.overhead_s": traced - untraced,
    })
    return m


# -- entry point ------------------------------------------------------------------------

WORKLOADS = {
    "cli-cold": (cli_cold, cli_cold_trace),
    "spec-sweep": (warm, warm_trace),
    "oracle-verify": (warm, warm_trace),
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="prymdim benchmark")
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "prymdim" / "__init__.py").is_file():
        print(f"error: no prymdim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # byte-compile first, so that no measured process pays for it
    if not compileall.compile_dir(str(ROOT / "src" / "prymdim"), quiet=1):
        print("error: prymdim does not compile", file=sys.stderr)
        return 2

    # one core for every process of the run, so that the reference kernel
    # and the work it calibrates share the core's speed (see calib.py)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    work = WORK / f"{args.workload}-{args.seed}-{'trace' if args.trace else 'e2e'}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    res = Result()
    plain, traced = WORKLOADS[args.workload]
    if args.trace:
        metrics, samples = traced(args, work, res), None
        units = PER_LAYER
    else:
        metrics, samples = plain(args, work, res)
        units = END_TO_END
    if metrics is None or res.attempted == 0:
        res.record("the run produced no metrics")
        metrics = {}

    for name, unit in units.items():
        if name in metrics:
            note = f"  ({samples} queries)" if name.startswith("query_s") and samples else ""
            print(f"{name:48s} {metrics[name]:.6g} {unit}{note}")
    print(f"{'fail_ratio':48s} {res.failed / max(res.attempted, 1):.6g}  "
          f"({res.failed} of {res.attempted} queries)")
    for line in res.notes + res.errors:
        print(line)
    correct = res.failed == 0 and set(metrics) == set(units)
    print(json.dumps({
        "correct": correct,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items() if n in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
