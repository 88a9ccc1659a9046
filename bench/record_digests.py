"""Record the stored digests of the cli-cold queries.

    python3 bench/record_digests.py

Runs every cli-cold query of seeds 0..SEEDS-1 once, checks its output with
the same checks as the benchmark, and writes the sha256 of each JSON
stdout to bench/digests.json, keyed by the query (the preset argv, or
the dims group and the hash of its spec file). The benchmark then
requires byte-identical output for every stored query. Rerun only when
an output change is intended, and say so in the change that does it.
"""

from __future__ import annotations

import json
import shutil

import run

SEEDS = 32  # dims queries of seeds 0-31 have a stored digest; presets of every seed do


def main() -> int:
    work = run.WORK / "record-digests"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    digests: dict[str, str] = {}
    for seed in range(SEEDS):
        for i, q in enumerate(run.cli_round(seed, work)):
            if q["key"] in digests:
                continue
            code, _, _, out, err = run.spawn(
                [run.PY, "-m", "prymdim", *q["argv"], "--format", "json"], work / f"q{i}.out")
            err_msg = run.check_cli(q, code, out, err, digests)
            if err_msg is not None:
                raise SystemExit(f"seed {seed}: {err_msg}")
    path = run.BENCH / "digests.json"
    path.write_text(json.dumps(digests, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    print(f"{len(digests)} digests written to {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
