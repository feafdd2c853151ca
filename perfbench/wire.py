"""``service-wire``: one client against ``repro serve`` in its default
configuration (solver pool of min(cpus, 8) workers, memory backend, sync
engine), closed loop.

Each round is one mutation of the churn trace (issue, commit or forget),
a ``status`` on every constraint that mutation invalidated (the
re-solves), then ``CACHED_READS`` cache-hit ``status`` reads on seeded
constraints.  With 40 reads per 9 re-solves and one write, the median
falls on cached reads and the tail (p99) inside the re-solves after
arrivals and evictions: the commits and the re-solves after them, which
cost up to twice as much, are 0.6% of requests, so p99 does not sit on
their edge (with 20 reads they were 1.0%, and p99 swung between the two
classes).  A gain for reads that costs writes shows.  The work sits in protocol,
queue, executor hop and pool dispatch, with little solver work.
"""

from __future__ import annotations

import os
import re
import signal
import statistics
import subprocess
import sys

from perfbench import common, layers
from perfbench.churn import Churn
from perfbench.common import Phase

CACHED_READS = 40
READY = re.compile(r"listening on ([\d.]+):(\d+)")
METRIC = re.compile(r'^(repro_[a-z_]+)(?:\{event="([a-z_]+)"\})? ([-0-9.e+]+)$', re.M)


class Verdict:
    """A wire verdict in the shape the churn checks read."""

    def __init__(self, payload: dict):
        self.satisfied = bool(payload["satisfied"])
        witness = payload.get("witness")
        self.witness = frozenset(witness) if witness is not None else None


class Server:
    """``repro serve`` as a child process in its own process group."""

    def __init__(self, database: str, workdir):
        env = dict(os.environ, PYTHONPATH=str(common.SRC))
        self.log = open(workdir / f"server-{len(os.listdir(workdir))}.log", "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve", database, "--port", "0"],
            stdout=subprocess.PIPE, stderr=self.log, text=True, env=env,
            cwd=str(common.ROOT), start_new_session=True,
        )
        for line in self.proc.stdout:
            match = READY.search(line)
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
                return
        self.stop()
        raise RuntimeError("repro serve exited before it was ready")

    def stop(self) -> None:
        try:
            self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait(timeout=20)
        finally:
            self.proc.stdout.close()
            self.log.close()


class Wire(Churn):
    def __init__(self, seed: int):
        from repro import serialize

        # Without the long sweeps: over the wire every constraint takes
        # the ledger's OptDCSat path, where the 3-path and 3-star re-sweep
        # components holding a trace-dependent set of double spends after
        # each commit (60-125 worlds, 0.3-0.8 s).  That would swamp the
        # wire path this workload is for.  The aggregate is not monotone
        # under ``repro serve``'s defaults.
        super().__init__(seed, long_sweeps=False)
        self.workdir = common.scratch_dir("service-wire")
        self.database = str(self.workdir / "chain.json")
        serialize.dump(self.initial_db(), self.database)
        self.server = self.client = None

    def set_up(self, clock: common.SetupClock) -> None:
        """Start a server, register the battery and take the first
        verdict pass.  The server loads its file and builds checker and
        pool before it listens; from outside, that is the relational
        image stage."""
        from repro.service.client import ServiceClient

        self.server = clock.piece("relational_image", Server, self.database, self.workdir)
        self.client = clock.piece("relational_image", ServiceClient, self.server.host, self.server.port)
        for name, query, kwargs, _ in self.battery:
            clock.piece("build", self.client.register, name, str(query), **kwargs)
        self.verdicts = {name: Verdict(clock.piece("warm", self.client.status, name)) for name in self.queries}

    def shut_down(self) -> None:
        from repro.errors import ServiceError

        try:
            if self.client is not None:
                try:
                    self.client.shutdown_server()
                except (ServiceError, OSError):
                    pass  # already gone; stop() kills what is left
                self.client.close()
        finally:
            if self.server is not None:
                self.server.stop()
            self.server = self.client = None

    def metric_counts(self) -> dict:
        counts = {}
        for name, event, value in METRIC.findall(self.client.metrics_text()):
            counts[f"{name}:{event}" if event else name] = float(value)
        return counts


def _spans_by_name(spans) -> dict:
    out: dict = {}
    for span in spans or ():
        out.setdefault(span["name"], []).append(span)
    return out


class WireTrace:
    """Server-side layer numbers from the spans the server exports."""

    def __init__(self):
        self.sums: dict = {}  # per-layer metric -> total over traced requests
        self.decided = 0
        self.reads: list[float] = []
        self.writes: list[float] = []
        self.invalidated: list[int] = []

    def add(self, key: str, value: float) -> None:
        self.sums[key] = self.sums.get(key, 0.0) + value

    def record(self, op: str, elapsed: float, spans) -> None:
        by = _spans_by_name(spans)
        (self.reads if op == "status" else self.writes).append(elapsed)
        dur = lambda name: sum(s["duration"] or 0.0 for s in by.get(name, ()))  # noqa: E731
        self.add("server.queue_wait_s", dur("queue_wait"))
        self.add("server.solve_s", dur("solve"))
        self.add("wire.overhead_s", elapsed - dur("request"))
        if op != "status":
            self.add("checker.maintain_s", dur("solve"))
        self.add("checker.fast_paths_s", dur("fast_paths"))
        self.add("checker.fast_paths_calls", len(by.get("fast_paths", ())))
        self.decided += sum(1 for s in by.get("fast_paths", ()) if s["attributes"].get("decided"))
        self.add("opt.component_survivors_s", dur("component_prune"))
        for span in by.get("component_prune", ()):
            self.add("opt.components_total", span["attributes"].get("components", 0))
            self.add("opt.components_surviving", span["attributes"].get("survivors", 0))
        for span in by.get("dcsat.check", ()):
            attributes = span["attributes"]
            self.add("fd_graph.cliques_yielded", attributes.get("cliques_enumerated", 0))
            self.add("worlds.built", attributes.get("worlds_checked", 0))
        self.add("engine.evaluate_s", dur("clique_sweep"))
        for span in by.get("solve_component", ()):
            if "worker_pid" in span["attributes"]:
                self.add("pool.solve_s", span["duration"] or 0.0)
                self.add("pool.tasks", 1)
        for span in by.get("parallel_dispatch", ()):
            self.add("pool.sync_ops", span["attributes"].get("groups", 0))

    def metrics(self, plain: Phase, traced: Phase, stages: dict, before: dict, after: dict) -> dict:
        """Span sums per traced request; the server's counters cover
        every request of the run.  The server exports no span for clique
        enumeration, world construction, the backend, the batch path or
        the ledger plan (all but the last share one ``clique_sweep``
        span), so those layers are not supplied and read zero here."""
        all_ops = max(1, plain.attempted + traced.attempted)
        delta = lambda key: after.get(key, 0.0) - before.get(key, 0.0)  # noqa: E731
        reused, swept = delta("repro_ledger_events:reused"), delta("repro_ledger_events:swept")
        hits, checks = delta("repro_monitor_cache_hits"), delta("repro_monitor_checks_run")
        values = {key: total / max(1, traced.attempted) for key, total in self.sums.items()}
        values.update({
            "setup.relational_image_s": stages["relational_image"],
            "setup.build_s": stages["build"],
            "setup.warm_s": stages["warm"],
            "checker.fast_path_decided_ratio": layers.ratio(self.decided, self.sums.get("checker.fast_paths_calls", 0)),
            "engine.worlds_evaluated": values.get("worlds.built", 0.0),
            "engine.evaluated_per_built": 1.0 if self.sums.get("worlds.built") else 0.0,
            "monitor.invalidated_per_event": statistics.fmean(self.invalidated) if self.invalidated else 0.0,
            "monitor.cache_hit_ratio": layers.ratio(hits, hits + checks),
            "monitor.checks_run": checks / all_ops,
            "ledger.reuse_ratio": layers.ratio(reused, reused + swept),
            "ledger.swept": swept / all_ops,
            "client.read_p50_ms": statistics.median(self.reads) * 1000.0,
            "client.write_p50_ms": statistics.median(self.writes) * 1000.0,
            "trace.overhead_ratio": layers.overhead(plain, traced),
        })
        return common.declared_metrics("per_layer", values)


def run(seed: int, seconds: float, trace: bool) -> dict:
    bench = Wire(seed)
    try:
        return _run(bench, seconds, trace)
    finally:
        bench.shut_down()
        common.remove_scratch(bench.workdir)


def _run(bench: Wire, seconds: float, trace: bool) -> dict:
    from repro.service import protocol

    setups, stages = common.timed_setups(bench.set_up, bench.shut_down)
    bench.start(bench.initial_db())
    if bench.verify(bench.verdicts) != "ok":
        raise RuntimeError("the set-up verdicts failed their checks")
    common.note(f"fingerprint D200-S, {len(bench.held_back)} held back: {bench.fingerprint()}")
    client = bench.client
    names = sorted(bench.queries)
    wire_trace = WireTrace() if trace else None
    before = bench.metric_counts() if trace else {}
    phases = {False: Phase(), True: Phase()}
    traced = False

    def call(op, **args):
        result, elapsed = phase.time(client.call, op, export_spans=traced, **args)
        if traced:
            wire_trace.record(op, elapsed, client.last_spans)
        return result, elapsed

    phase = phases[False]
    while phases[False].busy + phases[True].busy < seconds or not bench.round_done():
        if bench.round_done():
            # With tracing, whole rounds alternate traced and untraced.
            traced = trace and not traced
            phase = phases[traced]
        event = bench.next_event()
        if event is None:
            break
        kind, tx_id = event
        if kind == "arrive":
            result, elapsed = call("issue", tx=protocol.transaction_to_wire(bench.txs[tx_id]))
        else:
            result, elapsed = call("commit" if kind == "commit" else "forget", tx_id=tx_id)
        bench.after(kind, tx_id)
        invalidated = result["invalidated"]
        if traced:
            wire_trace.invalidated.append(len(invalidated))
        phase.record(elapsed, "ok", kind)
        for name in invalidated:
            payload, elapsed = call("status", name=name)
            bench.verdicts[name] = Verdict(payload)
            phase.record(elapsed, "ok" if not payload["cached"] else "wrong", f"status:{name}")
        outcome = bench.verify(bench.verdicts)
        if outcome != "ok":
            phase.wrong.append(f"refresh after {kind}")
        for _ in range(CACHED_READS):
            name = bench.rng.choice(names)
            payload, elapsed = call("status", name=name)
            same = (payload["cached"] and Verdict(payload).satisfied == bench.verdicts[name].satisfied
                    and Verdict(payload).witness == bench.verdicts[name].witness)
            phase.record(elapsed, "ok" if same else "wrong", f"read:{name}")
    wrong = bench.cross_check()
    common.note(f"AssignDCSat re-decided {len(bench.samples)} sampled satisfied verdicts, "
                f"{len(wrong)} disagreed")
    plain, traced_phase = phases[False], phases[True]
    plain.wrong += wrong
    common.note(f"service-wire: {len(bench.events)} mutations, {plain.attempted + traced_phase.attempted} requests")
    if not trace:
        rss = common.process_peak_rss_mb(bench.server.proc.pid)
        return plain.result(common.end_to_end(setups, plain, rss))
    metrics = wire_trace.metrics(plain, traced_phase, stages, before, bench.metric_counts())
    for name in sorted(metrics):
        common.note(f"  {name:<34}{metrics[name]['value']:>14.6g} {metrics[name]['unit']}")
    return plain.merge(traced_phase).result(metrics)
