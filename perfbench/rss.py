"""Peak RSS of a process that holds only the program.

    python3 perfbench/rss.py REPLAY.pickle

REPLAY holds ``(module, args, ops)``.  The process builds
``perfbench.<module>.Program(*args)`` from the pickled relational images
and battery, replays *ops* on it and prints its peak resident set size
in MB as the last line of standard output.  That is ``VmHWM``, the
peak of the process's own address space: ``ru_maxrss`` would carry the
parent's peak over the ``exec`` that started it.  The
in-process workloads take ``peak_rss_mb`` from here, so the generated
datasets, the oracle's state and the load generator do not count;
``service-wire`` reads the server's peak instead.
"""

from __future__ import annotations

import importlib
import os
import pathlib
import pickle
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from perfbench import common  # noqa: E402


def main(path: str) -> int:
    common.import_program()
    with open(path, "rb") as replay:
        module, args, ops = pickle.load(replay)
    importlib.import_module(f"perfbench.{module}").Program(*args).replay(ops)
    print(common.process_peak_rss_mb(os.getpid()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
