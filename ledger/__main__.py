"""``python -m ledger``: run the ledger, or compare two of its result files.

::

    python -m ledger [--workload NAME] [--seed 7] [--repeats 5 | --seconds S]
                     [--trace 0|1] [--out FILE] [--record] [--pin] [--tiny]
    python -m ledger compare A.json B.json

With one ``--workload`` the last line of standard output is the JSON object
the benchmark driver reads (``--trace 0``: the end-to-end metrics, ``--trace
1``: the per-layer metrics).  The exit code is 1 when any correctness check
failed and 2 when a child process crashed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from ledger import runner
from ledger.compare import compare, format_rows
from ledger.workloads import BY_NAME, WORKLOADS


def _compare(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="python -m ledger compare")
    parser.add_argument("a", type=Path, help="baseline result file")
    parser.add_argument("b", type=Path, help="result file of the change")
    args = parser.parse_args(argv)
    with open(args.a) as fh_a, open(args.b) as fh_b:
        rows, code = compare(json.load(fh_a), json.load(fh_b))
    print("\n".join(format_rows(rows)))
    return code


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        return _compare(argv[1:])
    parser = argparse.ArgumentParser(prog="python -m ledger", description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=sorted(BY_NAME), default=None,
                        help="run one workload (default: all five, interleaved)")
    parser.add_argument("--seed", type=int, default=runner.PIN_SEED)
    parser.add_argument("--repeats", type=int, default=5,
                        help="untraced repeats per workload (default 5)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="time-box the untraced repeats instead (at least "
                             f"{runner.MIN_REPEATS} run)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add a traced repeat and report the per-layer metrics")
    parser.add_argument("--out", type=Path, default=runner.OUT / "results.json")
    parser.add_argument("--record", action="store_true",
                        help="append the medians to ledger/history.jsonl")
    parser.add_argument("--pin", action="store_true",
                        help="freeze this run's simulated statistics in expected.json")
    parser.add_argument("--tiny", action="store_true",
                        help="6-node scale of ledger/tests (not a measurement)")
    args = parser.parse_args(argv)

    names = [args.workload] if args.workload else [w.name for w in WORKLOADS]
    try:
        document = runner.run_ledger(
            names, seed=args.seed, scale="tiny" if args.tiny else "full",
            repeats=args.repeats, seconds=args.seconds, traced=bool(args.trace),
            pins=runner.no_pins() if args.pin else None,
            log=lambda line: print(line, file=sys.stderr, flush=True),
        )
    except runner.ChildFailed as exc:
        print(f"ledger: {exc}", file=sys.stderr)
        return 2
    runner.write_document(document, args.out)
    runner.write_traces(document)
    failed = sum(entry["ops_failed"] for entry in document["workloads"].values())
    if args.pin and not failed:
        runner.pin(document)
    if args.record:
        runner.record(document)
    print("\n".join(runner.format_report(document)))
    if args.workload:
        print(runner.contract_line(document["workloads"][args.workload], bool(args.trace)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
