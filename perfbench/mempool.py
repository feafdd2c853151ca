"""``mempool-monitor``: a standing constraint battery under mempool churn.

A :class:`ConstraintMonitor` over D200-S holds the battery of
:mod:`perfbench.churn`; each trace event is followed by the default
``status_all()``, and the pair is one timed operation.  The work sits in
state maintenance, coupled-closure invalidation, the verdict ledger,
the global batch sweep and naive re-sweeps of the aggregate constraint.
"""

from __future__ import annotations

from perfbench import common, layers
from perfbench.churn import ROUND, Churn
from perfbench.common import Phase


#: Trace rounds the peak-RSS process replays after the first verdict
#: pass.  Rounds start from the same pending set, so the program's state
#: does not grow with the round count.
RSS_ROUNDS = 4


class Program:
    """What mempool-monitor has the program hold: a monitor over the
    relational image with the battery registered.  The benchmark's
    process and the peak-RSS process (``perfbench/rss.py``) build it
    alike."""

    def __init__(self, db, battery):
        from repro.core.checker import DCSatChecker
        from repro.core.monitor import ConstraintMonitor

        self.monitor = ConstraintMonitor(DCSatChecker(db, assume_nonnegative_sums=True))
        for name, query, kwargs, _ in battery:
            self.monitor.register(name, query, **kwargs)

    def run(self, op):
        """The timed operation: one event (kind, transaction or id) and
        the refresh after it; kind ``refresh`` is the refresh alone."""
        kind, tx = op
        if kind == "arrive":
            self.monitor.issue(tx)
        elif kind == "evict":
            self.monitor.forget(tx)
        elif kind == "commit":
            self.monitor.commit(tx)
        return self.monitor.status_all()

    def replay(self, ops) -> None:
        for op in ops:
            self.run(op)


class Mempool(Churn):
    def __init__(self, seed: int):
        super().__init__(seed, long_sweeps=True)
        self.program = None

    def set_up(self, clock: common.SetupClock) -> None:
        db = clock.piece("relational_image", self.initial_db)
        self.program = clock.piece("build", Program, db, self.battery)
        self.verdicts = clock.piece("warm", self.program.run, ("refresh", None))

    def tear_down(self) -> None:
        self.program = None

    def op(self, kind: str, tx_id: str) -> tuple:
        return kind, self.txs[tx_id] if kind == "arrive" else tx_id


def run(seed: int, seconds: float, trace: bool) -> dict:
    bench = Mempool(seed)
    setups, stages = common.timed_setups(bench.set_up, bench.tear_down)
    bench.start(bench.program.monitor.checker.db)
    if bench.verify(bench.verdicts) != "ok":
        raise RuntimeError("the set-up verdicts failed their checks")
    common.note(f"fingerprint D200-S, {len(bench.held_back)} held back: {bench.fingerprint()}")

    tracer = layers.LayerTrace() if trace else None
    if tracer:
        tracer.install_program()
    phases = {False: Phase(), True: Phase()}
    traced = False
    try:
        while phases[False].busy + phases[True].busy < seconds or not bench.round_done():
            if bench.round_done():
                # With a tracer, whole rounds alternate traced and untraced.
                traced = bool(tracer) and not traced
            event = bench.next_event()
            if event is None:
                break
            kind, tx_id = event
            op = bench.op(kind, tx_id)
            phase = phases[traced]
            if traced:
                before = _counts(bench.program.monitor)
                tracer.active = True
            verdicts, elapsed = phase.time(bench.program.run, op)
            if traced:
                tracer.active = False
                for key, value in _counts(bench.program.monitor).items():
                    tracer.counters[key] += value - before[key]
            bench.after(kind, tx_id)
            phase.record(elapsed, bench.verify(verdicts), f"{kind}:{tx_id}")
    finally:
        if tracer:
            tracer.uninstall()
    wrong = bench.cross_check()
    common.note(f"AssignDCSat re-decided {len(bench.samples)} sampled satisfied verdicts, "
                f"{len(wrong)} disagreed")
    plain, traced_phase = phases[False], phases[True]
    plain.wrong += wrong
    counts = {kind: sum(1 for k, _ in bench.events if k == kind) for kind in set(ROUND)}
    common.note(f"mempool-monitor: {len(bench.events)} events {counts}, "
                f"{len(bench.mirror.pending)} pending at the end")
    if not trace:
        # The program's own peak: a fresh process holding only the
        # relational image and the monitor, replaying the first verdict
        # pass and the run's first RSS_ROUNDS trace rounds.
        events = [bench.op(kind, tx_id) for kind, tx_id in bench.events[:RSS_ROUNDS * len(ROUND)]]
        rss = common.program_peak_rss_mb("mempool", (bench.initial_db(), bench.battery),
                                         [("refresh", None)] + events)
        return plain.result(common.end_to_end(setups, plain, rss))
    common.note(tracer.table(traced_phase.attempted, traced_phase.busy))
    metrics = layers.in_process_metrics(tracer, plain, traced_phase, stages)
    return plain.merge(traced_phase).result(metrics)


def _counts(monitor) -> dict:
    entries = [monitor.entry(name) for name in monitor.names]
    return {
        "monitor.cache_hits": sum(e.cache_hits for e in entries),
        "monitor.checks_run": sum(e.checks_run for e in entries),
        "ledger.reused": monitor.ledger.counters["reused"],
        "ledger.swept": monitor.ledger.counters["swept"],
    }
