"""The traced run: per-layer time and counts, recorded from outside.

Each public layer function is wrapped where the program looks it up
(``get_maximal`` is imported by name into ``core.naive``, so it is
wrapped there, and so on), never edited.  A wrapper records calls, busy
time (inclusive) and self time (busy minus time in nested wrapped
layers).  Counters are taken at the same boundaries.  Tracing is paused
while the benchmark verifies outputs, so only the program's work is
attributed.
"""

from __future__ import annotations

import collections
import functools
import time

from perfbench import common


class Layer:
    __slots__ = ("calls", "busy", "self")

    def __init__(self):
        self.calls, self.busy, self.self = 0, 0.0, 0.0


class LayerTrace:
    def __init__(self):
        self.layers: dict[str, Layer] = collections.defaultdict(Layer)
        self.counters: collections.Counter = collections.Counter()
        self.active = False
        self._stack: list[list] = []
        self._patches: list[tuple] = []

    # -- recording ------------------------------------------------------

    def _enter(self, name: str) -> list:
        frame = [name, 0.0, time.perf_counter()]
        self._stack.append(frame)
        return frame

    def _leave(self, frame: list) -> None:
        elapsed = time.perf_counter() - frame[2]
        self._stack.pop()
        layer = self.layers[frame[0]]
        layer.busy += elapsed
        layer.self += elapsed - frame[1]
        if self._stack:
            self._stack[-1][1] += elapsed

    def within(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    def patch(self, owner, attr: str, name: str, after=None, before=None) -> None:
        original = getattr(owner, attr)
        trace = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not trace.active:
                return original(*args, **kwargs)
            token = before(args, kwargs) if before else None
            frame = trace._enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                trace._leave(frame)
            trace.layers[name].calls += 1
            if after:
                after(result, args, kwargs, token)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def patch_generator(self, owner, attr: str, name: str, counter: str) -> None:
        """Wrap a generator function: each resumption is timed."""
        original = getattr(owner, attr)
        trace = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not trace.active:
                return original(*args, **kwargs)
            trace.layers[name].calls += 1
            return trace._timed_iter(original(*args, **kwargs), name, counter)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def _timed_iter(self, iterator, name, counter):
        while True:
            frame = self._enter(name)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self._leave(frame)
            self.counters[counter] += 1
            yield item

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- the program's layers ---------------------------------------------

    def install_program(self) -> None:
        """Wrap every in-process layer the benchmark reports on."""
        import repro.core.batch as batch
        import repro.core.monitor as monitor
        import repro.core.naive as naive
        import repro.core.opt as opt
        from repro.core.bitset import BitsetFdGraph
        from repro.core.checker import DCSatChecker
        from repro.core.engine import BatchedEngine, SyncEngine
        from repro.core.fd_graph import FdTransactionGraph
        from repro.core.incremental import VerdictLedger
        import repro.core.incremental as incremental
        from repro.storage.memory import MemoryBackend
        from repro.storage.sqlite_backend import SqliteBackend

        counters = self.counters

        def decided(result, args, kwargs, token):
            counters["fast_paths.decided"] += result is not None

        self.patch(DCSatChecker, "fast_paths", "checker.fast_paths", after=decided)
        for op in ("issue", "commit", "forget", "absorb"):
            self.patch(DCSatChecker, op, "checker.maintain")

        def components_before(args, kwargs):
            stats = kwargs.get("stats")
            return stats, (stats.components_total if stats is not None else 0)

        def components_after(result, args, kwargs, token):
            stats, before = token
            counters["opt.components_surviving"] += len(result)
            if stats is not None:
                counters["opt.components_total"] += stats.components_total - before

        for module in (opt, monitor):
            self.patch(module, "component_survivors", "opt.component_survivors",
                       before=components_before, after=components_after)

        for graph in (FdTransactionGraph, BitsetFdGraph):
            self.patch_generator(graph, "maximal_cliques", "fd_graph.maximal_cliques",
                                 "fd_graph.cliques_yielded")

        def built(result, args, kwargs, token):
            counters["worlds.built"] += 1
            if self.within("batch.sweep"):
                counters["batch.worlds"] += 1

        for module in (naive, batch, incremental):
            self.patch(module, "get_maximal", "worlds.get_maximal", after=built)

        for engine in (SyncEngine, BatchedEngine):
            self.patch(engine, "evaluate", "engine.evaluate")
            self.patch(engine, "sweep", "engine.evaluate")

        def evaluated(result, args, kwargs, token):
            if not self.within("checker.fast_paths"):
                counters["engine.worlds_evaluated"] += 1

        for backend in (MemoryBackend, SqliteBackend):
            self.patch(backend, "evaluate", "storage.evaluate", after=evaluated)

        self.patch(batch, "batch_dcsat", "batch.sweep")
        self.patch(VerdictLedger, "plan", "ledger.plan")

        def invalidated(result, args, kwargs, token):
            counters["monitor.events"] += 1
            counters["monitor.invalidated"] += len(result)

        for op in ("issue", "commit", "forget", "absorb"):
            self.patch(monitor.ConstraintMonitor, op, "monitor.maintain", after=invalidated)

    # -- reporting -------------------------------------------------------

    def table(self, ops: int, op_seconds: float) -> str:
        """Calls, busy and self time per layer, and the share of the
        operations' wall time the wrapped layers cover."""
        lines = [f"{'layer':<28}{'calls':>10}{'busy_s':>12}{'self_s':>12}{'self%':>8}"]
        covered = 0.0
        for name in sorted(self.layers):
            layer = self.layers[name]
            covered += layer.self
            share = 100.0 * layer.self / op_seconds if op_seconds else 0.0
            lines.append(
                f"{name:<28}{layer.calls:>10}{layer.busy:>12.4f}{layer.self:>12.4f}{share:>7.1f}%"
            )
        share = 100.0 * covered / op_seconds if op_seconds else 0.0
        lines.append(f"wrapped layers cover {share:.1f}% of {op_seconds:.3f} s over {ops} operations")
        return "\n".join(lines)

    def busy(self, name: str) -> float:
        return self.layers[name].busy if name in self.layers else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def in_process_metrics(trace: LayerTrace, plain, traced, setup_stages: dict) -> dict:
    """Per-layer metrics of an in-process workload, per traced
    operation.  The wire and pool layers, which it never runs, are not
    supplied and read zero."""
    c = trace.counters
    fast_calls = trace.layers["checker.fast_paths"].calls
    per_op = traced.attempted or 1
    reused, swept = c["ledger.reused"], c["ledger.swept"]
    hits, checks = c["monitor.cache_hits"], c["monitor.checks_run"]
    return common.declared_metrics("per_layer", {
        "setup.relational_image_s": setup_stages["relational_image"],
        "setup.build_s": setup_stages["build"],
        "setup.warm_s": setup_stages["warm"],
        "checker.fast_paths_s": trace.busy("checker.fast_paths") / per_op,
        "checker.fast_paths_calls": fast_calls / per_op,
        "checker.fast_path_decided_ratio": ratio(c["fast_paths.decided"], fast_calls),
        "checker.maintain_s": trace.busy("checker.maintain") / per_op,
        "opt.component_survivors_s": trace.busy("opt.component_survivors") / per_op,
        "opt.components_total": c["opt.components_total"] / per_op,
        "opt.components_surviving": c["opt.components_surviving"] / per_op,
        "fd_graph.maximal_cliques_s": trace.busy("fd_graph.maximal_cliques") / per_op,
        "fd_graph.cliques_yielded": c["fd_graph.cliques_yielded"] / per_op,
        "worlds.get_maximal_s": trace.busy("worlds.get_maximal") / per_op,
        "worlds.built": c["worlds.built"] / per_op,
        # The engine's sweep consumes the plan generator, so world
        # construction and enumeration run inside it; they are not
        # evaluation.  What is left is its own loop plus the backend.
        "engine.evaluate_s": (_self(trace, "engine.evaluate") + trace.busy("storage.evaluate")) / per_op,
        "engine.worlds_evaluated": c["engine.worlds_evaluated"] / per_op,
        "engine.evaluated_per_built": ratio(c["engine.worlds_evaluated"], c["worlds.built"]),
        "storage.evaluate_s": trace.busy("storage.evaluate") / per_op,
        "batch.sweep_s": trace.busy("batch.sweep") / per_op,
        "batch.worlds": c["batch.worlds"] / per_op,
        "monitor.invalidated_per_event": ratio(c["monitor.invalidated"], c["monitor.events"]),
        "monitor.cache_hit_ratio": ratio(hits, hits + checks),
        "monitor.checks_run": checks / per_op,
        "ledger.plan_s": trace.busy("ledger.plan") / per_op,
        "ledger.reuse_ratio": ratio(reused, reused + swept),
        "ledger.swept": swept / per_op,
        "trace.overhead_ratio": overhead(plain, traced),
    })


def overhead(plain, traced) -> float:
    """Traced over untraced throughput, from interleaved phases."""
    value = ratio(traced.throughput(), plain.throughput())
    print(f"tracing overhead: traced/untraced throughput = {value:.3f}", flush=True)
    return value


def _self(trace: LayerTrace, name: str) -> float:
    return trace.layers[name].self if name in trace.layers else 0.0

