"""``paper-fig6``: the paper's Fig. 6 query battery as one-shot checks.

One round is the whole battery, in a fresh seeded order: satisfied
checks (fresh constants) of qs, qp2-qp5, qr3 and qa over D200-S and
D300-S; unsatisfied checks of the same families over D200-S; the
unsatisfied qp3 over D300-S for data size; each under ``naive``,
``opt`` and the default ``auto`` (qa: ``naive`` and ``auto``); and the
fixed R-bridge family through the default check and
``ConstraintMonitor.status``.  The satisfied checks outnumber the rest,
so the median falls inside their block rather than on the border
between two query classes.  A run repeats whole rounds, so every run
attempts the same operations in the same proportions.
"""

from __future__ import annotations

import random

from perfbench import common, inputs, layers, oracle
from perfbench.common import Phase


def _battery(rng, pickers):
    from repro.workloads.queries import (
        aggregate_constraint,
        path_constraint,
        simple_constraint,
        star_constraint,
    )

    ops = []

    def add(dataset, label, query, kind, algorithms=("naive", "opt", "auto")):
        for algorithm in algorithms:
            ops.append({"dataset": dataset, "label": f"{dataset}/{label}/{algorithm}",
                        "query": query, "algorithm": algorithm, "kind": kind})

    fresh = lambda tag: inputs.fresh(rng, tag)  # noqa: E731
    for dataset in ("D200-S", "D300-S"):
        add(dataset, "qs-sat", simple_constraint(fresh("qs")), "fresh")
        for length in (2, 3, 4, 5):
            add(dataset, f"qp{length}-sat", path_constraint(length, fresh("src"), fresh("snk")), "fresh")
        add(dataset, "qr3-sat", star_constraint(3, fresh("qr")), "fresh")
        add(dataset, "qa-sat", aggregate_constraint(fresh("qa"), 100), "fresh", ("naive", "auto"))
    picker = pickers["D200-S"]
    add("D200-S", "qs", simple_constraint(picker.pending_recipient()), "solve")
    for length in (2, 3, 4, 5):
        add("D200-S", f"qp{length}", path_constraint(length, *picker.path_endpoints(length)), "solve")
    add("D200-S", "qr3", star_constraint(3, picker.star_source(3)), "solve")
    add("D200-S", "qa", aggregate_constraint(*picker.aggregate_target()), "solve", ("naive", "auto"))
    add("D300-S", "qp3", path_constraint(3, *pickers["D300-S"].path_endpoints(3)), "solve")
    return ops


class Program:
    """What paper-fig6 has the program hold: one checker per dataset,
    and a checker and a monitor per R-bridge instance.  The benchmark's
    process and the peak-RSS process (``perfbench/rss.py``) build it
    alike."""

    def __init__(self, dbs: dict, bridges: list):
        from repro.core.checker import DCSatChecker
        from repro.core.monitor import ConstraintMonitor

        self.checkers = {name: DCSatChecker(db, assume_nonnegative_sums=True) for name, db in dbs.items()}
        self.bridges = []
        for index, (db, query) in enumerate(bridges):
            monitor = ConstraintMonitor(DCSatChecker(db))
            monitor.register(f"bridge{index}", query)
            self.bridges.append((monitor, query))

    def prepare(self, op) -> None:
        """Untimed preparation: a monitor operation answers a freshly
        registered constraint, not a cached verdict."""
        if op["kind"] == "bridge" and op["path"] == "monitor":
            monitor, query = self.bridges[op["bridge"]]
            name = f"bridge{op['bridge']}"
            monitor.unregister(name)
            monitor.register(name, query)

    def run(self, op):
        """The timed call: one check or one monitor status."""
        if op["kind"] != "bridge":
            return self.checkers[op["dataset"]].check(op["query"], algorithm=op["algorithm"])
        monitor, query = self.bridges[op["bridge"]]
        if op["path"] == "check":
            return monitor.checker.check(query)
        return monitor.status(f"bridge{op['bridge']}")

    def replay(self, ops) -> None:
        for op in ops:
            self.prepare(op)
            self.run(op)


class Fig6:
    def __init__(self, seed: int):
        from repro.workloads.constants import ConstantPicker

        self.rng = random.Random(seed)
        self.datasets = {name: inputs.generate(name) for name in ("D200-S", "D300-S")}
        pickers = {name: ConstantPicker(ds) for name, ds in self.datasets.items()}
        self.battery = _battery(self.rng, pickers)
        self.bridges = inputs.bridge_databases()
        for index in range(len(self.bridges)):
            for path in ("check", "monitor"):
                self.battery.append({"label": f"bridge{index}/{path}", "bridge": index,
                                     "path": path, "kind": "bridge"})
        self.rng.shuffle(self.battery)
        self.verified: set = set()
        self.program = None

    def set_up(self, clock: common.SetupClock) -> None:
        dbs = {name: clock.piece("relational_image", ds.to_blockchain_database)
               for name, ds in self.datasets.items()}
        self.program = clock.piece("build", Program, dbs, self.bridges)
        for op in self.battery:
            clock.piece("warm", self.program.replay, [op])

    def tear_down(self) -> None:
        self.program = None

    def prepare_oracles(self) -> None:
        self.mirrors = {name: inputs.Mirror(c.db) for name, c in self.program.checkers.items()}
        self.truth = []
        for db, query in self.bridges:
            mirror = inputs.Mirror(db)
            self.truth.append((mirror, oracle.violated_by_enumeration(
                mirror.rules, mirror.base, mirror.pending, query)))

    def verify(self, op, result) -> str:
        """``ok``, ``failed`` (the named R-bridge fault) or ``wrong``."""
        if op["kind"] == "bridge":
            mirror, violated = self.truth[op["bridge"]]
            query = self.bridges[op["bridge"]][1]
            if not result.satisfied:
                good = oracle.witness_valid(mirror.rules, mirror.base, mirror.pending, query, result.witness)
                return "ok" if good and violated else "wrong"
            return "failed" if violated else "ok"
        key = (op["label"], result.satisfied, result.witness)
        if key in self.verified:
            return "ok"
        mirror = self.mirrors[op["dataset"]]
        if not result.satisfied:
            good = oracle.witness_valid(mirror.rules, mirror.base, mirror.pending, op["query"], result.witness)
        elif op["kind"] == "fresh":
            good = oracle.constant_absent(op["query"], mirror.base, mirror.pending)
        else:
            good = self.program.checkers[op["dataset"]].check(op["query"], algorithm="assign").satisfied
        if good:
            self.verified.add(key)
        return "ok" if good else "wrong"


def run(seed: int, seconds: float, trace: bool) -> dict:
    bench = Fig6(seed)
    setups, stages = common.timed_setups(bench.set_up, bench.tear_down)
    bench.prepare_oracles()
    fp = inputs.fingerprint(bench.mirrors["D200-S"], len(list(bench.datasets["D200-S"].chain.transactions())),
                            len(bench.battery))
    common.note(f"fingerprint D200-S {fp}")

    def measure(budget, tracer=None):
        """Whole rounds until *budget* seconds of operations are timed;
        with a tracer, rounds alternate traced and untraced."""
        phases = {False: Phase(), True: Phase()}
        traced = False
        while phases[False].busy + phases[True].busy < budget:
            if tracer:
                traced = not traced
            phase = phases[traced]
            # A fresh seeded order every round: the program keeps state
            # between checks (the workspace's active world), so one fixed
            # order would tie each run's figures to its seed.
            bench.rng.shuffle(bench.battery)
            for op in bench.battery:
                bench.program.prepare(op)
                if tracer:
                    tracer.active = traced
                result, elapsed = phase.time(bench.program.run, op)
                if tracer:
                    tracer.active = False
                phase.record(elapsed, bench.verify(op, result), op["label"])
        return phases[False], phases[True]

    if not trace:
        plain, _ = measure(seconds)
        common.note(f"paper-fig6: {plain.attempted} ops ({plain.failed} R-bridge failures)")
        # The program's own peak: a fresh process holding only the
        # relational images, the checkers and monitors, replaying the
        # set-up pass and one more round of the battery.
        dbs = {name: ds.to_blockchain_database() for name, ds in bench.datasets.items()}
        rss = common.program_peak_rss_mb("fig6", (dbs, bench.bridges), bench.battery * 2)
        return plain.result(common.end_to_end(setups, plain, rss))

    tracer = layers.LayerTrace()
    tracer.install_program()
    try:
        plain, traced = measure(seconds, tracer)
    finally:
        tracer.uninstall()
    common.note(tracer.table(traced.attempted, traced.busy))
    metrics = layers.in_process_metrics(tracer, plain, traced, stages)
    return plain.merge(traced).result(metrics)
