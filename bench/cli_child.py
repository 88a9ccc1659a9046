"""One traced cold CLI query in a fresh process.

    python3 bench/cli_child.py QUERY_ID SPANS SUMMARY -- preset toda D 5 --format json

Runs ``prymdim.cli.main`` on the arguments after ``--`` with the
tracer installed, so stdout and the exit code are the CLI's own. The
spans go to SPANS and the per-layer summary to SUMMARY.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracer import Tracer  # noqa: E402


def main() -> int:
    query, spans_path, summary_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: cli_child.py QUERY_ID SPANS SUMMARY -- ARGS...")
    tracer = Tracer()
    tracer.query = query
    with tracer.installed():
        import prymdim.cli

        code = prymdim.cli.main(argv)
    sys.stdout.flush()
    tracer.write_spans(spans_path)
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.summary(), fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
