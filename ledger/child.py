"""Child-process entry: one request on stdin, one JSON report on stdout.

Every (workload, repeat) runs in a fresh interpreter started by
:mod:`ledger.runner`, so no repeat inherits warm caches, a grown heap or a
peak RSS from another.  The import of the adapters (and with it ``repro``)
happens inside ``main`` so that it can be timed and kept out of ``wall_s``.
"""

from __future__ import annotations

import json
import sys
import time


def main() -> int:
    started = time.perf_counter()
    from ledger import adapters

    import_s = time.perf_counter() - started
    request = json.loads(sys.stdin.read())
    if request["role"] == "reference":
        report = adapters.reference(request["workload"], request["seed"])
    else:
        report = adapters.measure(request, import_s)
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
