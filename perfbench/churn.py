"""The mempool churn shared by ``mempool-monitor`` and ``service-wire``.

A quarter of D200-S's pending transactions, none of them part of a
double spend, is held back.  A seeded trace
replays rounds of eight arrivals (issue of held-back transactions), one
mined commit (a pending transaction that R accepts) and seven evictions
(forget of the round's remaining arrivals, which return to the pool).

Battery, by the path each constraint takes through a monitor:

* no check options (the global batch sweep under ``status_all()``): a
  payment to a fresh address and a path between fresh addresses
  (satisfied by the short-circuit), plus a payment that needs a pending
  transaction, and with ``long_sweeps`` a 3-path and a 3-star;
* ``algorithm="naive"`` (with ``long_sweeps``): the aggregate
  constraint, which is not connected;
* ``algorithm="opt"`` (the verdict ledger): double-spend pairs
  (satisfied because the two transactions spend one outpoint) and
  payments to one-off addresses whose verdict flips as their payer
  comes and goes.

Bounding the run: D200-S holds 20 disjoint double spends, so it has
2^20 maximal worlds, and a naive or global batch sweep that does not
stop early cannot finish.  The trace therefore never holds back, evicts
or out-commits the pending transactions that realize the batch and
naive constraints (their *support*), so those sweeps stop at an early
world; the constraints that can turn satisfied without the
short-circuit (double spends, flipping payments) take the
component-scoped ledger path.
"""

from __future__ import annotations

import random

from perfbench import inputs, oracle

HELD_BACK_SHARE = 0.25
#: One round of the trace.  Arrivals come from the held-back pool and
#: evictions send the round's arrivals back to it, so every round
#: starts from the same pending set (less the commits): the state does
#: not drift, and the cost of an event does not depend on how far into
#: the trace a run gets.
ROUND = ("arrive",) * 8 + ("commit",) + ("evict",) * 7
#: Share of events whose "other" satisfied verdicts are re-decided by
#: AssignDCSat after the timed phase.
ORACLE_SAMPLE = 0.25


class Churn:
    """The churn trace's inputs, its state mirror and its output checks,
    shared by the in-process and the wire workload."""

    def __init__(self, seed: int, long_sweeps: bool):
        """*long_sweeps* adds the 3-path, the 3-star and the aggregate,
        whose refreshes sweep whole components or worlds."""
        from repro.workloads.constants import ConstantPicker
        from repro.workloads.queries import aggregate_constraint, path_constraint, simple_constraint, star_constraint

        self.rng = random.Random(seed)
        self.dataset = inputs.generate("D200-S")
        full = self.dataset.to_blockchain_database()
        mirror = inputs.Mirror(full)
        picker = ConstantPicker(self.dataset)
        rng = self.rng
        battery = [
            ("pay_fresh", simple_constraint(inputs.fresh(rng, "pay")), {}, "fresh"),
            ("path_fresh", path_constraint(3, inputs.fresh(rng, "src"), inputs.fresh(rng, "snk")), {}, "fresh"),
            ("pay_pending", simple_constraint(picker.pending_recipient()), {}, "support"),
        ]
        if long_sweeps:
            battery += [
                ("path3", path_constraint(3, *picker.path_endpoints(3)), {}, "support"),
                ("star3", star_constraint(3, picker.star_source(3)), {}, "support"),
                ("aggregate", aggregate_constraint(*picker.aggregate_target()), {"algorithm": "naive"}, "support"),
            ]
        self.support = {name: mirror.support(q) for name, q, _, kind in battery if kind == "support"}
        protected = set().union(*self.support.values())
        clashes = mirror.clashes()
        self.no_commit = protected | {b for a, b in clashes if a in protected} | {
            a for a, b in clashes if b in protected}
        for index, (a, b) in enumerate(clashes[:4]):
            battery.append((f"double_spend{index}", inputs.double_spend(a, b), {"algorithm": "opt"}, "clash"))
        free = sorted(set(mirror.pending) - protected)
        # Held back only from transactions outside every double spend, so
        # all 20 stay live on every seed: which ones a seed held back
        # decided how many worlds the ledger swept, and moved the
        # service-wire tail by half between seeds.
        in_clash = {tx for pair in clashes for tx in pair}
        self.held_back = sorted(rng.sample([tx for tx in free if tx not in in_clash],
                                           int(len(mirror.pending) * HELD_BACK_SHARE)))
        # Payments to one-off addresses, one paid by a held-back and one
        # by a present transaction: their verdicts flip with the trace.
        one_off = set(self.dataset.fresh_recipients)
        held = set(self.held_back)
        for index, late in enumerate((True, False)):
            payees = sorted({
                row[2] for tx_id in free if (tx_id in held) == late
                for name, row in mirror.pending[tx_id] if name == "TxOut" and row[2] in one_off
            })
            battery.append((f"pay_flip{index}", simple_constraint(rng.choice(payees)),
                            {"algorithm": "opt"}, "other"))
        self.battery = battery
        self.queries = {name: q for name, q, _, _ in battery}
        self.kinds = {name: kind for name, _, _, kind in battery}
        self.rows = dict(mirror.pending)
        self.txs = {tx.tx_id: tx for tx in full.pending}

    def start(self, db) -> None:
        """Begin the trace from *db*, the program's set-up state."""
        self.pool = set(self.held_back)
        self.present: set[str] = set()
        self.step = 0
        self.mirror = inputs.Mirror(db)
        self.clash_ok = {
            name: oracle.share_outpoint(self.mirror.rules.fds, self.rows, *self._pair(name))
            for name in self.queries if self.kinds[name] == "clash"
        }
        self.events: list[tuple[str, str]] = []
        self.samples: list[tuple[int, str]] = []
        self.oracle_rng = random.Random(self.rng.getrandbits(64))

    def _pair(self, name):
        atoms = self.queries[name].atoms
        return atoms[0].terms[4].value, atoms[1].terms[4].value

    def next_event(self) -> tuple[str, str] | None:
        """The next (kind, tx id) of the trace; ``None`` once the
        held-back pool is spent."""
        kind = ROUND[self.step % len(ROUND)]
        self.step += 1
        if kind == "arrive":
            return (kind, self.rng.choice(sorted(self.pool))) if self.pool else None
        if kind == "evict":
            return kind, self.rng.choice(sorted(self.present))
        # A mined commit: one of this round's arrivals if R accepts one,
        # else any pending transaction outside the protected supports.
        arrived = sorted(self.present)
        self.rng.shuffle(arrived)
        others = sorted(set(self.mirror.pending) - self.no_commit - self.present)
        self.rng.shuffle(others)
        return next(((kind, tx_id) for tx_id in arrived + others if self.mirror.appendable(tx_id)), None)

    def round_done(self) -> bool:
        return self.step % len(ROUND) == 0

    def after(self, kind: str, tx_id: str) -> None:
        self.events.append((kind, tx_id))
        if kind == "arrive":
            self.mirror.issue(tx_id, self.rows[tx_id])
            self.pool.discard(tx_id)
            self.present.add(tx_id)
        elif kind == "evict":
            self.mirror.forget(tx_id)
            self.pool.add(tx_id)
            self.present.discard(tx_id)
        else:
            self.mirror.commit(tx_id)
            self.present.discard(tx_id)

    def initial_db(self):
        """The relational image with the held-back transactions removed."""
        db = self.dataset.to_blockchain_database()
        for tx_id in self.held_back:
            db.remove_pending(tx_id)
        return db

    def fingerprint(self) -> dict:
        return inputs.fingerprint(self.mirror, len(list(self.dataset.chain.transactions())), len(self.battery))

    def verify(self, verdicts) -> str:
        """Check every verdict of one refresh (name -> result with
        ``satisfied`` and ``witness``); ``ok`` or ``wrong``."""
        mirror = self.mirror
        worlds: dict = {}  # constraints refreshed together share witnesses
        sampled = self.oracle_rng.random() < ORACLE_SAMPLE
        for name, result in verdicts.items():
            query, kind = self.queries[name], self.kinds[name]
            if not result.satisfied:
                if result.witness not in worlds:
                    worlds[result.witness] = oracle.world(mirror.rules, mirror.base, mirror.pending, result.witness)
                reachable, view = worlds[result.witness]
                good = reachable and oracle.query_holds(query, view)
            elif kind == "fresh":
                good = oracle.constant_absent(query, mirror.base, mirror.pending)
            elif kind == "clash":
                good = self.clash_ok[name]
            elif kind == "support":
                # The trace never removes this support, so "satisfied" is
                # wrong while the support still realizes the query.
                present = [tx for tx in self.support[name] if tx in mirror.pending]
                good = not oracle.witness_valid(mirror.rules, mirror.base, mirror.pending, query, present)
            else:
                good = True
                if sampled:
                    self.samples.append((len(self.events), name))
            if not good:
                return "wrong"
        return "ok"

    def cross_check(self) -> list[str]:
        """Re-decide the sampled satisfied verdicts with AssignDCSat on
        a replay of the trace (outside the timed phase)."""
        from repro.core.checker import DCSatChecker

        checker = DCSatChecker(self.initial_db(), assume_nonnegative_sums=True)
        wrong, applied = [], 0
        for index, name in self.samples:
            while applied < index:
                kind, tx_id = self.events[applied]
                if kind == "arrive":
                    checker.issue(self.txs[tx_id])
                elif kind == "evict":
                    checker.forget(tx_id)
                else:
                    checker.commit(tx_id)
                applied += 1
            if not checker.check(self.queries[name], algorithm="assign").satisfied:
                wrong.append(f"{name}@event{index}")
        return wrong


