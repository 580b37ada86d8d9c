"""qrewind benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: mc-protocol, identity-suite, ladder-analytics (see
bench/qbench/jobs.py for what each holds). Run from the repository root; the
program is imported from ./src. Human-readable metrics go to stdout first;
the last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. The run record (environment, job list for replay,
per-job times, check results, spans) is written under bench/out/.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
MAX_SECONDS = 60

sys.path.insert(0, HERE)
from qbench.record import THREAD_VARS  # noqa: E402  (stdlib-only module)

# One thread per BLAS/OpenMP pool: set before numpy is first imported.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

from qbench.jobs import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qrewind benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= MAX_SECONDS:
        print(f"error: --seconds must lie in (0, {MAX_SECONDS}]", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SRC, "qrewind", "cli.py")):
        print(f"error: no qrewind sources under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import qrewind
    if not os.path.abspath(qrewind.__file__).startswith(SRC + os.sep):
        print(f"error: imported qrewind from {qrewind.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from qbench import runner

    rec = runner.run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                              ROOT, OUT_DIR)
    path = runner.write_record(rec, OUT_DIR)
    print("\n".join(runner.summary_lines(rec)))
    print(f"record: {os.path.relpath(path, ROOT)}")
    print(json.dumps(runner.result_line(rec)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
