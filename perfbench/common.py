"""Shared plumbing: locating the program, timing, percentiles, results."""

from __future__ import annotations

import gc
import json
import math
import os
import pathlib
import pickle
import random
import shutil
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: A workload's set-up is repeated this many times per run and the
#: median reported, so one slow set-up does not move ``setup_s``.
SETUP_REPEATS = 9

#: The host's speed drifts.  On the shared 2-vCPU machine this benchmark
#: was written on, each vCPU switched between two speeds about 1.7x
#: apart several times a second, with no steal time reported, and 25-s
#: runs of unchanged code spread by 15-25%.  So a fixed probe runs just
#: before and just after every timed operation and set-up piece (outside
#: its timer), and each timing is scaled by ``PROBE_REFERENCE_S / mean of
#: its probes``: timings read as at one reference speed.  Raw figures are
#: printed beside the corrected ones.
PROBE_REFERENCE_S = 300e-6


def import_program() -> None:
    """Put the program's sources on ``sys.path`` or exit non-zero.

    The benchmark builds nothing: the program is pure Python under
    ``src/``.  Without it there is nothing to measure, and the run must
    fail rather than print a result.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program sources under {SRC}\n")
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def now() -> float:
    return time.perf_counter()


_PROBE_KEYS = list(range(4096))
random.Random(0).shuffle(_PROBE_KEYS)
_PROBE_TABLE = {key: key & 127 for key in _PROBE_KEYS}


def probe() -> float:
    """Seconds for a fixed bit of dict-lookup work.  It allocates
    nothing (only cached small ints), so it never triggers a garbage
    collection left pending by the operation before it."""
    started = time.perf_counter()
    acc = 0
    for key in _PROBE_KEYS:
        acc ^= _PROBE_TABLE[key]
    return time.perf_counter() - started


def speed_factor(probes: list[float]) -> float:
    """Scale that brings timings taken alongside *probes* to the
    reference speed."""
    return PROBE_REFERENCE_S / statistics.fmean(probes)


class SetupClock:
    """Times one set-up piece by piece.  Each piece is corrected for host
    speed by probes taken just before and after it, as each timed
    operation is: a set-up lasts long enough for the CPU's speed to
    change within it, and probes around the whole set-up alone left
    single set-ups of paper-fig6 spread from 1.05 to 1.83 s."""

    def __init__(self):
        self.seconds = 0.0  # corrected
        self.stages: dict = {"relational_image": 0.0, "build": 0.0, "warm": 0.0}  # raw

    def piece(self, stage: str, fn, *args, **kwargs):
        probes = [probe() for _ in range(3)]
        started = now()
        result = fn(*args, **kwargs)
        elapsed = now() - started
        probes += [probe() for _ in range(3)]
        self.seconds += elapsed * speed_factor(probes)
        self.stages[stage] += elapsed
        return result


def timed_setups(set_up, tear_down) -> tuple[list[float], dict]:
    """Run ``set_up(clock)`` SETUP_REPEATS times, with the untimed
    ``tear_down()`` of the previous one in between, so no two set-ups'
    state is alive at once; return the corrected set-up times and the
    last run's stage split (raw seconds per stage).  Each starts from a
    collected heap, so a cyclic-GC pass left over from input generation
    or an earlier set-up does not land in one repetition's timer."""
    times = []
    for attempt in range(SETUP_REPEATS):
        if attempt:
            tear_down()
        gc.collect()
        clock = SetupClock()
        set_up(clock)
        times.append(clock.seconds)
    gc.collect()
    return times, clock.stages


def tail_percentile(count: int) -> int:
    """The highest whole percentile (at most 99) with at least ten of
    *count* samples beyond it.  Fractional percentiles are not used: on
    service-wire's 12000-22000 samples the 11th-largest fell on a few
    host or server stalls of cached reads rather than on the
    mutation-driven re-solves, and read 8.7-16 ms across ten runs."""
    return next(pct for pct in range(99, 0, -1) if count * (100 - pct) >= 1000)


def latency_summary(samples: list[float]) -> dict:
    """Median and tail of per-operation seconds, in milliseconds."""
    if len(samples) < 40:
        raise RuntimeError(
            f"only {len(samples)} operations measured; the tail needs 40"
        )
    ordered = sorted(samples)
    pct = tail_percentile(len(ordered))
    return {
        "p50_ms": statistics.median(ordered) * 1000.0,
        # Nearest rank: the smallest sample with pct% of them at or below it.
        "tail_ms": ordered[math.ceil(len(ordered) * pct / 100) - 1] * 1000.0,
        "tail_pct": pct,
        "samples": len(ordered),
    }


def program_peak_rss_mb(module: str, args: tuple, ops: list) -> float:
    """Peak RSS of a fresh process that builds
    ``perfbench.<module>.Program(*args)`` and replays *ops* on it
    (``perfbench/rss.py``): the program's own figure, without the
    generated datasets, the oracle's state and the earlier set-ups that
    share the benchmark's process."""
    workdir = scratch_dir(f"rss-{module}")
    path = workdir / "replay.pickle"
    try:
        with open(path, "wb") as out:
            pickle.dump((module, args, ops), out, protocol=pickle.HIGHEST_PROTOCOL)
        proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "rss.py"), str(path)],
                              cwd=str(ROOT), capture_output=True, text=True, timeout=60)
    finally:
        remove_scratch(workdir)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench/rss.py exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return float(proc.stdout.split()[-1])


def process_peak_rss_mb(pid: int) -> float:
    """``VmHWM``, the peak resident set of *pid*'s address space."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def declared_metrics(section: str, values: dict) -> dict:
    """The metrics ``BENCHMARK.json`` declares under *section*
    (``end_to_end`` or ``per_layer``), with their units, from *values*
    (name -> number).  A per-layer metric a workload does not supply is
    a layer it bypasses and reads 0; every end-to-end metric must be
    supplied.  A name ``BENCHMARK.json`` does not declare is an error."""
    units = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[section]}
    undeclared = sorted(set(values) - set(units))
    missing = sorted(set(units) - set(values)) if section == "end_to_end" else []
    if undeclared or missing:
        raise RuntimeError(f"{section} metrics: undeclared {undeclared}, missing {missing}")
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit} for name, unit in units.items()}


def end_to_end(setup_times: list[float], phase: "Phase", peak_rss_mb: float) -> dict:
    latencies, busy = phase.corrected()
    summary = latency_summary(latencies)
    raw = latency_summary(phase.raw_latencies())
    note("set-ups (s): " + " ".join(f"{t:.4f}" for t in setup_times))
    note(f"tail = p{summary['tail_pct']} of {summary['samples']} samples; "
         f"host speed factor {phase.mean_factor():.3f}; raw p50 {raw['p50_ms']:.4f} ms, "
         f"tail {raw['tail_ms']:.4f} ms, throughput {len(latencies) / phase.busy:.2f}/s")
    return declared_metrics("end_to_end", {
        "setup_s": statistics.median(setup_times),
        "latency_p50_ms": summary["p50_ms"],
        "latency_tail_ms": summary["tail_ms"],
        "throughput_per_s": len(latencies) / busy,
        "peak_rss_mb": peak_rss_mb,
    })


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    """The result line: always the last line of standard output."""
    sys.stdout.flush()
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }), flush=True)


def note(message: str) -> None:
    """Human-readable progress, on stdout before the result line."""
    print(message, flush=True)


def scratch_dir(workload: str) -> pathlib.Path:
    """A per-process directory inside the checkout for files the
    program must read (the served database)."""
    path = ROOT / ".perfbench_work" / f"{workload}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def remove_scratch(path: pathlib.Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        path.parent.rmdir()
    except OSError:
        pass  # another run is using it


class Phase:
    """Operations measured in one phase of a run.

    Run each timed operation through :meth:`time` and then
    :meth:`record` its outcome.
    """

    def __init__(self):
        self.ops: list[tuple[float, float, bool]] = []  # raw seconds, speed factor, counts as a latency
        self.busy = 0.0  # raw seconds
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self._factor = 1.0

    def time(self, fn, *args, **kwargs):
        """Call ``fn`` between two probes; return its result and its raw
        seconds.  Scaling each operation by its own probes, rather than
        a round of them by their mean, halved the p10-p90 width of
        service-wire's cached reads."""
        before = probe()
        started = now()
        result = fn(*args, **kwargs)
        elapsed = now() - started
        self._factor = speed_factor([before, probe()])
        return result, elapsed

    def record(self, elapsed: float, outcome: str, label: str) -> None:
        """The outcome of the operation :meth:`time` just ran: ``ok``,
        ``failed`` (a named program fault, kept out of the latency
        samples) or ``wrong`` (an incorrect output)."""
        self.busy += elapsed
        self.attempted += 1
        if outcome == "failed":
            self.failed += 1
        elif outcome == "wrong":
            self.wrong.append(label)
        self.ops.append((elapsed, self._factor, outcome != "failed"))

    def corrected(self) -> tuple[list[float], float]:
        """Latencies of the operations that did not fail, and the busy
        time of all, at the reference host speed."""
        latencies = [elapsed * factor for elapsed, factor, ok in self.ops if ok]
        return latencies, sum(elapsed * factor for elapsed, factor, _ in self.ops)

    def raw_latencies(self) -> list[float]:
        return [elapsed for elapsed, _, ok in self.ops if ok]

    def mean_factor(self) -> float:
        return statistics.fmean(factor for _, factor, _ in self.ops)

    def throughput(self) -> float:
        latencies, busy = self.corrected()
        return len(latencies) / busy if busy else 0.0

    def merge(self, other: "Phase") -> "Phase":
        merged = Phase()
        for phase in (self, other):
            merged.ops += phase.ops
            merged.busy += phase.busy
            merged.attempted += phase.attempted
            merged.failed += phase.failed
            merged.wrong += phase.wrong
        return merged

    def result(self, metrics: dict) -> dict:
        if self.wrong:
            note(f"WRONG outputs: {sorted(set(self.wrong))}")
        return {"correct": not self.wrong, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}
