"""Set-up probe: a fresh interpreter that runs one cold op of a workload.

    python3 perfbench/probe.py <workload> <seed> <workdir>

Prints one JSON line: the monotonic clock when the op completed, the seconds
spent generating its input (which set-up time excludes), and the op's check.
``run.py`` times set-up from just before it spawns this interpreter.
"""

import json
import sys
import time
from pathlib import Path


def main() -> int:
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    from workloads import WORKLOADS  # imports sinkhorn_nms, numpy and scipy

    w = WORKLOADS[name]
    start = time.monotonic()
    item = w.make_inputs(seed, 1, workdir)[0]
    gen = time.monotonic() - start
    out = w.op(item)
    done = time.monotonic()
    checked = w.check(item, out)
    print(json.dumps({"done": done, "gen": gen, "ok": checked.ok, "reason": checked.reason}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
