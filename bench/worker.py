"""One warm-workload process: set-up, then a closed loop of queries.

    python3 bench/worker.py --workload spec-sweep --seed 1 --seconds 12
    python3 bench/worker.py --workload oracle-verify --seed 1 --count 40 --trace SPANS

Set-up imports prymdim, builds the workload's groups and fills every
lazy cache the queries read. The loop then runs the seeded inputs of
``gen`` one at a time until ``--seconds`` have passed (or exactly
``--count`` of them), times each query in wall seconds and in the
reference seconds of ``calib``, and checks every answer independently.
It also times each whole loop step (input, query and check, without
the reference kernel) for the throughput over the timed phase.
With ``--setup-only`` the process stops after set-up. With ``--trace``
the whole process is traced and the spans are written to the given path
at the end. The last line of stdout is a JSON summary.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import random
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import calib  # noqa: E402
import gen  # noqa: E402
from tracer import Tracer  # noqa: E402


def _groups(labels):
    from prymdim import weyl

    out = {}
    for label in labels:
        G = weyl.weyl_group(label[0], int(label[1:])).group
        n = len(G.cyclic_subgroup_classes())
        if n != gen.CYCLIC_CLASSES[label]:
            raise RuntimeError(f"{label} has {n} cyclic classes, the generator expects "
                               f"{gen.CYCLIC_CLASSES[label]}")
        out[label] = G
    return out


def _all_classes_spec(G):
    from prymdim import rhprym

    n = len(G.cyclic_subgroup_classes())
    return rhprym.CoverSpec(G, 1, rhprym.RamificationSpec({k: 2 for k in range(1, n)}))


class SpecSweep:
    """rhprym.validate on seeded branch data over B5 and F4."""

    def __init__(self, seed: int):
        from prymdim import chartable, rhprym

        self.seed = seed
        self.groups = _groups(("B5", "F4"))
        self.data = {}
        for label, G in self.groups.items():
            # one spec that branches over every cyclic class fills the
            # double-coset cache for every (class, quotient) pair
            warm = rhprym.validate(_all_classes_spec(G))
            if warm.diagnostics:
                raise RuntimeError(f"warm-up spec on {label}: {warm.diagnostics}")
            degrees = chartable.character_table(G).degrees
            if len(degrees) != gen.CYCLIC_CLASSES[label] or sum(d * d for d in degrees) != G.order:
                raise RuntimeError(f"{label}: the character degrees do not fit |G| = {G.order}")
            # each cyclic class's order from its generator's cycle type,
            # not from the program's subgroup_order
            orders = [gen.perm_order(list(G.elements[K.generator].images))
                      for K in G.cyclic_subgroup_classes()]
            self.data[label] = (degrees, orders)

    def query(self, i: int):
        from prymdim import rhprym

        label, genus, counts = gen.sweep_spec(self.seed, i)
        G = self.groups[label]
        spec = rhprym.CoverSpec(G, genus, rhprym.RamificationSpec(counts))
        t = time.perf_counter()
        rep = rhprym.validate(spec)
        dt = time.perf_counter() - t
        return dt, self._check(label, genus, counts, rep)

    def _check(self, label, genus, counts, rep) -> str | None:
        degrees, orders = self.data[label]
        order = self.groups[label].order
        if rep.diagnostics or not rep.method_agreement or rep.dims != rep.dims_closed_form:
            return f"{label} {counts}: diagnostics {rep.diagnostics}"
        g_x = 1 + order * (genus - 1) + sum((order - order // orders[k]) * r
                                            for k, r in counts.items()) // 2
        if rep.g_total != g_x:
            return f"{label} {counts}: g_X {rep.g_total} != Riemann-Hurwitz {g_x}"
        if sum(d * v for d, v in zip(degrees, rep.dims)) != g_x:
            return f"{label} {counts}: sum deg_j dim_j != g_X {g_x}"
        if degrees[0] != 1 or rep.dims[0] != genus:
            return f"{label} {counts}: trivial dimension {rep.dims[0]} != base genus {genus}"
        return None


class OracleVerify:
    """monodromy.sample_tuple + verify_tuple on seeded shapes over F4 and D5."""

    def __init__(self, seed: int):
        from prymdim import rhprym

        self.seed = seed
        self.groups = _groups(("F4", "D5"))
        self.exhausted = 0
        for G in self.groups.values():
            # builds the coset action of every cyclic subgroup and fills
            # the double-coset cache the formula genera read
            spec = _all_classes_spec(G)
            for i in range(len(G.cyclic_subgroup_classes())):
                rhprym.genus_quotient(spec, i)

    def query(self, i: int):
        from prymdim import monodromy
        from prymdim.errors import SamplingExhausted

        label, genus, branches, rng_seed = gen.oracle_input(self.seed, i)
        G = self.groups[label]
        t = time.perf_counter()
        try:
            tup = monodromy.sample_tuple(G, genus, branches, random.Random(rng_seed))
        except SamplingExhausted:
            self.exhausted += 1  # an outcome of the sampler, not a wrong answer
            return time.perf_counter() - t, None
        ver = monodromy.verify_tuple(tup)
        dt = time.perf_counter() - t
        if ver.mismatches or len(ver.oracle) != gen.CYCLIC_CLASSES[label]:
            return dt, f"{label} g={genus} b={branches}: mismatches at {ver.mismatches}"
        return dt, None


WORKLOADS = {"spec-sweep": SpecSweep, "oracle-verify": OracleVerify}
# the reference kernel of each workload's queries (see calib.py); every
# set-up builds groups, classes and coset actions, so it uses "perm"
KERNEL = {"spec-sweep": "frac", "oracle-verify": "perm"}


def run(args, tracer: Tracer | None, t0: float, k_start: float) -> dict:
    workload = WORKLOADS[args.workload](args.seed)
    setup_s = time.perf_counter() - t0
    out = {"setup_s": setup_s, "setup_ref_s": calib.scale(setup_s, k_start, calib.speed())}
    if args.setup_only:
        return out
    raw, ref, errors = [], [], []
    failed = 0
    busy_ref = 0.0  # the timed phase without the kernel runs, in reference seconds
    kind = KERNEL[args.workload]
    k_prev = calib.kernel(kind)
    start = time.perf_counter()
    while True:
        i = len(raw)
        if tracer is not None:
            tracer.query = f"q{i}"
        step = time.perf_counter()
        try:
            dt, err = workload.query(i)
        except Exception as exc:  # a crash in the program is a failed query, not a stop
            dt, err = None, f"query {i}: {type(exc).__name__}: {exc}"
        step = time.perf_counter() - step
        k_next = calib.kernel(kind)
        busy_ref += calib.scale(step, k_prev, k_next)
        if err is not None:
            failed += 1
            if len(errors) < 5:
                errors.append(err)
        raw.append(dt)
        if dt is not None:
            ref.append(calib.scale(dt, k_prev, k_next))
        k_prev = k_next
        if args.count:
            if len(raw) >= args.count:
                break
        elif time.perf_counter() - start >= args.seconds:
            break
    out.update(
        attempted=len(raw),
        failed=failed,
        errors=errors,
        latencies=[t for t in raw if t is not None],
        latencies_ref=ref,
        busy_ref_s=busy_ref,
        timed_s=time.perf_counter() - start,
        exhausted=getattr(workload, "exhausted", 0),
    )
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--count", type=int, default=0, help="run exactly this many inputs")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", metavar="SPANS", help="trace the process; write spans here")
    args = ap.parse_args(argv)

    k_start = calib.speed()
    t0 = time.perf_counter()  # set-up is timed from before the program is imported
    tracer = Tracer() if args.trace else None
    with tracer.installed() if tracer else contextlib.nullcontext():
        out = run(args, tracer, t0, k_start)
    out["wall_s"] = time.perf_counter() - t0
    out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.write_spans(args.trace)
        out["trace"] = tracer.summary()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
