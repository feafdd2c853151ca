"""The benchmark's inputs: datasets, query batteries, traces, fingerprints.

Datasets are the paper's scaled presets (``D200-S``, ``D300-S``) with
their fixed generator seeds, so every run measures the same chains; the
``--seed`` of a run picks everything the workload does with them (fresh
constants, operation order, held-back transactions, the event trace and
the wire traffic).  Generation is input, not set-up: it happens before
any timer starts.
"""

from __future__ import annotations

import random

from perfbench import oracle


def generate(preset: str):
    from repro.bitcoin.generator import PRESETS, generate_dataset

    return generate_dataset(PRESETS[preset])


def tx_rows(tx) -> list:
    return [(name, tuple(values)) for name, values in tx]


class Mirror:
    """The benchmark's own copy of ``(R, T)``, kept in step with every
    state change it sends to the program."""

    def __init__(self, db):
        self.rules = oracle.Rules(db.constraints)
        self.base = oracle.Facts.of_database(db.current)
        self.pending = {tx.tx_id: tx_rows(tx) for tx in db.pending}

    def issue(self, tx_id: str, rows: list) -> None:
        self.pending[tx_id] = rows

    def forget(self, tx_id: str) -> list:
        return self.pending.pop(tx_id)

    def commit(self, tx_id: str) -> None:
        self.base.add_all(self.pending.pop(tx_id))

    def appendable(self, tx_id: str) -> bool:
        """Can the transaction be committed on top of ``R`` right now?"""
        return self.rules.can_append(oracle.View(self.base), self.pending[tx_id])

    def providers(self) -> dict:
        """Fact -> pending transactions inserting it."""
        index: dict = {}
        for tx_id, rows in self.pending.items():
            for fact in rows:
                index.setdefault(fact, []).append(tx_id)
        return index

    def clashes(self) -> list[tuple[str, str]]:
        """Pending pairs that clash on a key (double spends)."""
        seen: dict = {}
        pairs = set()
        for relation, lhs, rhs in self.rules.fds:
            for tx_id, rows in sorted(self.pending.items()):
                for name, row in rows:
                    if name != relation:
                        continue
                    key = (relation, lhs, tuple(row[p] for p in lhs))
                    for other_id, other in seen.get(key, ()):
                        if other_id != tx_id and tuple(other[p] for p in rhs) != tuple(row[p] for p in rhs):
                            pairs.add(tuple(sorted((other_id, tx_id))))
                    seen.setdefault(key, []).append((tx_id, row))
        return sorted(pairs)

    def ind_components(self) -> int:
        """Components of pending transactions linked by IND references."""
        parent = {tx_id: tx_id for tx_id in self.pending}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        by_target: dict = {}
        for child, cpos, par, ppos in self.rules.inds:
            for tx_id, rows in self.pending.items():
                for name, row in rows:
                    if name == par:
                        by_target.setdefault((par, ppos, tuple(row[p] for p in ppos)), set()).add(tx_id)
            for tx_id, rows in self.pending.items():
                for name, row in rows:
                    if name == child:
                        for other in by_target.get((par, ppos, tuple(row[p] for p in cpos)), ()):
                            parent[find(other)] = find(tx_id)
        return len({find(x) for x in parent})

    def support(self, query) -> set[str]:
        """Pending transactions that realize *query* over ``R ∪ T``,
        closed under the pending transactions their IND references need:
        the first match whose support is a valid witness (for an
        aggregate, the first single receipt that reaches the threshold)."""
        everything = oracle.Facts()
        for rows in self.pending.values():
            everything.add_all(rows)
        view = oracle.View(self.base, everything)
        providers = self.providers()
        for binding in oracle.assignments(query.atoms, query.comparisons, view):
            chosen = set()
            for atom in query.atoms:
                fact = (atom.relation, tuple(
                    t.value if hasattr(t, "value") else binding[t.name] for t in atom.terms
                ))
                if fact[1] not in self.base.rel.get(fact[0], ()):
                    chosen.add(sorted(providers[fact])[0])
            closure = self.ancestors(chosen, providers)
            if oracle.witness_valid(self.rules, self.base, self.pending, query, closure):
                return closure
        raise ValueError(f"no pending support realizes {query}")

    def ancestors(self, chosen: set[str], providers: dict) -> set[str]:
        """*chosen* plus the pending transactions whose rows their IND
        references need (when ``R`` does not hold them), transitively."""
        by_projection: dict = {}
        for child, cpos, par, ppos in self.rules.inds:
            for fact, txs in providers.items():
                if fact[0] == par:
                    by_projection.setdefault((child, cpos, tuple(fact[1][p] for p in ppos)), set()).update(txs)
        closure, frontier = set(chosen), list(chosen)
        while frontier:
            tx_id = frontier.pop()
            for child, cpos, par, ppos in self.rules.inds:
                for name, row in self.pending[tx_id]:
                    if name != child:
                        continue
                    projection = tuple(row[p] for p in cpos)
                    if oracle.View(self.base).lookup(par, ppos, projection):
                        continue
                    for parent_tx in sorted(by_projection.get((child, cpos, projection), ())):
                        if parent_tx not in closure:
                            closure.add(parent_tx)
                            frontier.append(parent_tx)
        return closure


def fingerprint(mirror: Mirror, committed_txs: int, constraints: int) -> dict:
    return {
        "committed_txs": committed_txs,
        "pending_txs": len(mirror.pending),
        "contradictions": len(mirror.clashes()),
        "ind_components": mirror.ind_components(),
        "constraints": constraints,
    }


def fresh(rng: random.Random, tag: str) -> str:
    from repro.workloads.constants import fresh_address

    return fresh_address(f"{tag}:{rng.getrandbits(64)}")


def double_spend(a: str, b: str):
    """``q() <- TxIn(p, s, k, m, a, g1), TxIn(p, s, k, m, b, g2)``:
    transactions *a* and *b* both land, spending one outpoint."""
    from repro.query.parser import parse_query

    return parse_query(
        f"q() <- TxIn(p, s, k, m, '{a}', g1), TxIn(p, s, k, m, '{b}', g2)"
    )


# ----------------------------------------------------------------------
# R-bridge instances (DESIGN.md §3b finding 1)

BRIDGE_INSTANCES = (
    # (relations, keys, committed, pending, query)
    (
        {"A": ["x"], "B": ["x", "y"], "C": ["y"]}, [("B", ["x"])],
        {"B": [(1, 2)]},
        {"TA": {"A": [(1,)]}, "TC": {"C": [(2,)]}},
        "q() <- A(x), B(x, y), C(y)",
    ),
    (
        {"A": ["x"], "B": ["x", "y"], "D": ["y", "z"], "C": ["z"]}, [("B", ["x"]), ("D", ["y"])],
        {"B": [(1, 2)], "D": [(2, 3)]},
        {"TA": {"A": [(1,)]}, "TC": {"C": [(3,)]}, "TX": {"C": [(9,)]}},
        "q() <- A(x), B(x, y), D(y, z), C(z)",
    ),
    (
        {"A": ["x", "v"], "B": ["x", "y"], "C": ["y"]}, [("A", ["x"]), ("B", ["x"])],
        {"B": [(1, 2), (5, 6)]},
        {"TA": {"A": [(1, "a")]}, "TB": {"A": [(1, "b")]}, "TC": {"C": [(2,)]}, "TD": {"C": [(7,)]}},
        "q() <- A(x, v), B(x, y), C(y)",
    ),
    (
        {"A": ["x"], "B": ["x", "y"], "C": ["y", "w"]}, [("B", ["x"]), ("C", ["y"])],
        {"B": [(4, 8)]},
        {"TA": {"A": [(4,)]}, "TC": {"C": [(8, "p")]}, "TE": {"C": [(8, "q")]}},
        "q() <- A(x), B(x, y), C(y, w)",
    ),
)


def bridge_databases():
    """The fixed R-bridge family: two pending transactions join only
    through committed tuples.  Fixed rather than seeded, so the share of
    operations that fail on it is the same in every run."""
    from repro.core.blockchain_db import BlockchainDatabase
    from repro.query.parser import parse_query
    from repro.relational.constraints import ConstraintSet, Key
    from repro.relational.database import Database, make_schema
    from repro.relational.transaction import Transaction

    out = []
    for relations, keys, committed, pending, query in BRIDGE_INSTANCES:
        schema = make_schema(relations)
        constraints = ConstraintSet(schema, [Key(rel, cols, schema) for rel, cols in keys])
        current = Database.from_dict(schema, {rel: committed.get(rel, []) for rel in relations})
        txs = [Transaction(facts, tx_id=tx_id) for tx_id, facts in pending.items()]
        out.append((BlockchainDatabase(current, constraints, txs), parse_query(query)))
    return out
