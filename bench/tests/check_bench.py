"""The benchmark's own tests, kept out of the package test suite.

    python3 -m pytest -q bench/tests/check_bench.py

The file name does not match pytest's ``test_*.py`` pattern on purpose:
a plain ``pytest`` at the repository root does not collect it, so the
smoke runs (about two minutes) stay out of the package suite.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


# -- seeded inputs -------------------------------------------------------------------


def test_generator_is_deterministic_per_seed():
    for seed in (0, 7):
        assert gen.cli_queries(seed) == gen.cli_queries(seed)
        assert [gen.sweep_spec(seed, i) for i in range(60)] == [gen.sweep_spec(seed, i) for i in range(60)]
        assert [gen.oracle_input(seed, i) for i in range(60)] == [gen.oracle_input(seed, i) for i in range(60)]
    assert gen.cli_queries(0) != gen.cli_queries(1)
    assert [gen.sweep_spec(0, i) for i in range(9)] != [gen.sweep_spec(1, i) for i in range(9)]
    assert [gen.oracle_input(0, i) for i in range(9)] != [gen.oracle_input(1, i) for i in range(9)]


def test_generated_branch_data_is_clean_by_construction():
    for seed in range(20):
        for q in gen.cli_queries(seed):
            if "spec" in q:
                assert q["spec"]["base_genus"] >= 1
                assert all(e["count"] % 2 == 0 and e["count"] > 0 for e in q["spec"]["ramification"])
        for i in range(30):
            label, genus, counts = gen.sweep_spec(seed, i)
            assert genus >= 1 and counts
            assert all(c % 2 == 0 and c > 0 for c in counts.values())
            assert all(1 <= k < gen.CYCLIC_CLASSES[label] for k in counts)


def test_sampled_elements_lie_in_their_groups():
    from prymdim import Permutation, group_from_generators, parse_generators, weyl

    for name, (group, order, sample) in gen.DIMS_GROUPS.items():
        if "weyl" in group:
            G = weyl.weyl_group(group["weyl"]["type"], group["weyl"]["rank"]).group
        else:
            texts = [g if isinstance(g, str) else " ".join(map(str, g)) for g in group["generators"]]
            G = group_from_generators(parse_generators(texts))
        assert G.order == order, name
        rng = random.Random(name)
        for _ in range(20):
            img = sample(rng)
            assert Permutation.from_cycles(gen.cycle_str(img) or "()", G.degree) in G
            assert G.element_order(G.index_of(Permutation(tuple(img)))) == gen.perm_order(img)


# -- tracing ---------------------------------------------------------------------------


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 10] with children [1, 4] and [5, 6]; [1, 4] has child [2, 3]
    spans = [
        (0, 0.0, 10.0, -1, "q0"),
        (1, 1.0, 4.0, 0, "q0"),
        (2, 2.0, 3.0, 1, "q0"),
        (1, 5.0, 6.0, 0, "q0"),
        (0, 20.0, 21.5, -1, "q1"),
    ]
    assert tracer.self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0, 1.5])
    assert tracer.layer_totals(spans, 3) == [[2, pytest.approx(7.5)], [2, pytest.approx(3.0)],
                                             [1, pytest.approx(1.0)]]


def test_self_time_merges_overlapping_and_clips_stray_children():
    spans = [
        (0, 0.0, 10.0, -1, "q"),
        (1, 1.0, 5.0, 0, "q"),
        (1, 4.0, 6.0, 0, "q"),  # overlaps the previous child
        (1, 9.0, 12.0, 0, "q"),  # runs past its parent's end
    ]
    assert tracer.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def _bindings():
    """Every attribute of every prymdim module and class, by identity."""
    import prymdim
    import prymdim.cli  # noqa: F401

    out = {}
    for mod in tracer._prymdim_modules():
        for k, v in vars(mod).items():
            out[(mod.__name__, k)] = v
            if isinstance(v, type) and v.__module__.startswith("prymdim"):
                for ck, cv in vars(v).items():
                    out[(mod.__name__, k, ck)] = cv
    assert prymdim.validate is out[("prymdim", "validate")]
    return out


def _traced_work():
    from prymdim import CoverSpec, RamificationSpec, monodromy, rhprym, weyl

    G = weyl.weyl_group("A", 3).group
    rhprym.validate(CoverSpec(G, 1, RamificationSpec({1: 2, 2: 2})))
    monodromy.verify_tuple(monodromy.sample_tuple(G, 1, 2, random.Random(0)))


def test_every_wrapper_is_removed_after_a_traced_run():
    before = _bindings()
    t = tracer.Tracer()
    with t.installed():
        import prymdim.monodromy
        import prymdim.rhprym

        assert hasattr(prymdim.rhprym.validate, "__bench_wrapped__")
        assert hasattr(prymdim.monodromy.genus_quotient, "__bench_wrapped__")
        assert hasattr(prymdim.rhprym.character_table, "__bench_wrapped__")
        _traced_work()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert not any(hasattr(v, "__bench_wrapped__") for v in after.values())
    calls = {n: c for n, (c, _) in zip(tracer.NAMES, t.summary()["layers"])}
    for name in ("rhprym.validate", "rhprym.genus_quotient", "monodromy.sample_tuple",
                 "monodromy.verify_tuple", "monodromy.oracle_genus", "exactla.solve"):
        assert calls[name] >= 1, name
    assert t.counts["permgroup.mul"] > 0


def test_wrappers_are_removed_when_the_traced_block_raises():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with tracer.Tracer().installed():
            raise RuntimeError("boom")
    after = _bindings()
    assert all(after[k] is before[k] for k in before)


# -- the contract ----------------------------------------------------------------------


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == ["cli-cold", "spec-sweep", "oracle-verify"]


def test_refuses_to_run_without_the_program():
    bare = run.WORK / "bare-checkout"  # only BENCHMARK.json and the benchmark's files
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run([sys.executable, "bench/run.py", "--workload", "cli-cold", "--seed", "1",
                        "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True,
                       timeout=60)
    shutil.rmtree(bare)
    assert p.returncode != 0
    assert p.stdout == b""


def _run(workload: str, trace: int) -> dict:
    p = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
                        "--seconds", "0.01", "--trace", str(trace)], cwd=ROOT, capture_output=True,
                       timeout=170)
    assert p.returncode == 0, p.stdout.decode()[-2000:] + p.stderr.decode()[-2000:]
    return json.loads(p.stdout.decode().strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["cli-cold", "spec-sweep", "oracle-verify"])
def test_smoke_run_passes_its_output_checks(workload):
    res = _run(workload, 0)
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_smoke_traced_run_reports_every_layer_metric():
    res = _run("oracle-verify", 1)
    assert res["correct"] is True and res["failed"] == 0
    assert set(res["metrics"]) == set(run.PER_LAYER)
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert m["monodromy.verify_tuple.calls"] == run.TRACE_COUNTS["oracle-verify"]
    assert m["permgroup.mul.calls"] > 0 and m["trace.traced_s"] > 0
