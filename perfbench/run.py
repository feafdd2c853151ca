"""Run one benchmark workload and print its result line.

    python3 perfbench/run.py --workload paper-fig6 --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  See
``perfbench/README.md`` for what each workload does and measures.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from perfbench import common  # noqa: E402

WORKLOADS = ("paper-fig6", "mempool-monitor", "service-wire")

#: String-hash randomization changes set and dict iteration orders
#: inside the program, which moved throughput by about 10% between
#: processes running identical inputs.  Runs use one fixed layout (the
#: served program inherits it), so they compare like with like.
HASH_SEED = "0"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # Every process of a run (the served program and the peak-RSS
    # replay too) shares one CPU, so the probes around each operation
    # measure the CPU the operation runs on: on the 2-vCPU host this
    # benchmark was written on, each vCPU switched between two speeds
    # about 1.7x apart several times a second, independently of the
    # other.  Unpinned, service-wire's server ran on whichever vCPU was
    # free and its timings drifted past what the client's probe saw.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  dict(os.environ, PYTHONHASHSEED=HASH_SEED))
    common.import_program()
    if args.workload == "paper-fig6":
        from perfbench import fig6 as workload
    elif args.workload == "mempool-monitor":
        from perfbench import mempool as workload
    else:
        from perfbench import wire as workload
    result = workload.run(args.seed, args.seconds, bool(args.trace))
    common.emit(**result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
