"""Independent checks of the program's verdicts.

Nothing here calls the solvers under test.  The benchmark keeps its own
copy of the relational state (plain Python sets), its own join
evaluator for the positive conjunctive and aggregate queries it issues,
and its own key/FD/IND check, and decides small instances by
enumerating every subset of their pending transactions.  Only the query
and constraint *definitions* are read from the program's objects.
"""

from __future__ import annotations

import itertools
import operator

_COMPARE = {
    "=": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}


def _compare(op: str, left, right) -> bool:
    try:
        return _COMPARE[op](left, right)
    except TypeError:
        return False


class Facts:
    """A set of ground facts, indexed on demand by bound positions."""

    def __init__(self, relations: dict[str, set] | None = None):
        self.rel: dict[str, set] = {
            name: set(rows) for name, rows in (relations or {}).items()
        }
        self._index: dict[tuple, dict] = {}
        self._values: set | None = None

    @classmethod
    def of_database(cls, database) -> "Facts":
        facts = cls({name: set() for name in database.relation_names})
        facts.add_all(database.facts())
        return facts

    def add_all(self, facts) -> None:
        for name, values in facts:
            values = tuple(values)
            rows = self.rel.setdefault(name, set())
            if values in rows:
                continue
            rows.add(values)
            for (indexed, positions), index in self._index.items():
                if indexed == name:
                    index.setdefault(tuple(values[p] for p in positions), []).append(values)
        self._values = None

    def lookup(self, name: str, positions: tuple, key: tuple):
        if not positions:
            return self.rel.get(name, ())
        index = self._index.get((name, positions))
        if index is None:
            index = {}
            for row in self.rel.get(name, ()):
                index.setdefault(tuple(row[p] for p in positions), []).append(row)
            self._index[(name, positions)] = index
        return index.get(key, ())

    def values(self) -> set:
        """Every constant occurring in some fact."""
        if self._values is None:
            self._values = {v for rows in self.rel.values() for row in rows for v in row}
        return self._values


class View:
    """The union of several fact sets, without copying any of them."""

    def __init__(self, *layers: Facts):
        self.layers = layers

    def lookup(self, name: str, positions: tuple, key: tuple):
        found = [rows for rows in (f.lookup(name, positions, key) for f in self.layers) if rows]
        if len(found) <= 1:
            return found[0] if found else ()
        return set().union(*found)


def _term(term):
    """``(is_variable, name_or_value)`` for a query term."""
    if hasattr(term, "value"):
        return False, term.value
    return True, term.name


def assignments(atoms, comparisons, view):
    """Every assignment of the atoms' variables that *view* satisfies."""
    atoms = [(atom.relation, [_term(t) for t in atom.terms]) for atom in atoms]
    checks = [(_term(c.left), c.op, _term(c.right)) for c in comparisons]

    def value(term, binding):
        is_var, payload = term
        return binding.get(payload) if is_var else payload

    def comparisons_hold(binding):
        for left, op, right in checks:
            if (left[0] and left[1] not in binding) or (right[0] and right[1] not in binding):
                continue
            if not _compare(op, value(left, binding), value(right, binding)):
                return False
        return True

    def search(remaining, binding):
        if not remaining:
            yield binding
            return
        # Most-bound atom first: its index lookup is the most selective.
        best = max(
            range(len(remaining)),
            key=lambda i: sum(1 for is_var, p in remaining[i][1] if not is_var or p in binding),
        )
        name, terms = remaining[best]
        rest = remaining[:best] + remaining[best + 1:]
        positions = tuple(i for i, (is_var, p) in enumerate(terms) if not is_var or p in binding)
        key = tuple(value(terms[i], binding) for i in positions)
        for row in view.lookup(name, positions, key):
            extended = dict(binding)
            for i, (is_var, p) in enumerate(terms):
                if is_var and extended.setdefault(p, row[i]) != row[i]:
                    break
            else:
                if comparisons_hold(extended):
                    yield from search(rest, extended)

    yield from search(atoms, {})


def query_holds(query, view) -> bool:
    """Evaluate a positive conjunctive or aggregate Boolean query."""
    if any(atom.negated for atom in query.atoms):
        raise ValueError("the benchmark's evaluator handles positive queries only")
    func = getattr(query, "func", None)
    if func is None:
        return next(assignments(query.atoms, query.comparisons, view), None) is not None
    bag = [
        tuple(binding[p] if is_var else p for is_var, p in map(_term, query.agg_terms))
        for binding in assignments(query.atoms, query.comparisons, view)
    ]
    if not bag:
        return False
    column = [row[0] for row in bag]
    result = {
        "count": lambda: len(bag), "cntd": lambda: len(set(bag)),
        "sum": lambda: sum(column), "max": lambda: max(column), "min": lambda: min(column),
    }[func]()
    return _compare(query.op, result, query.threshold)


class Rules:
    """Keys/FDs and INDs as position lists, read from a constraint set."""

    def __init__(self, constraints):
        schema = constraints.schema

        def positions(relation, attributes):
            names = list(schema[relation].attribute_names)
            return tuple(names.index(a) for a in attributes)

        self.fds = [
            (fd.relation, positions(fd.relation, fd.lhs), positions(fd.relation, fd.rhs))
            for fd in constraints.fds
        ]
        self.inds = [
            (ind.child, positions(ind.child, ind.child_attrs),
             ind.parent, positions(ind.parent, ind.parent_attrs))
            for ind in constraints.inds
        ]

    def can_append(self, view: View, rows) -> bool:
        """Does ``view ∪ rows`` still satisfy every FD and IND?

        *view* is assumed consistent, so only the new rows can break it.
        """
        local = Facts()
        local.add_all(rows)
        merged = View(*view.layers, local)
        for relation, lhs, rhs in self.fds:
            for row in local.rel.get(relation, ()):
                image = tuple(row[p] for p in rhs)
                for other in merged.lookup(relation, lhs, tuple(row[p] for p in lhs)):
                    if tuple(other[p] for p in rhs) != image:
                        return False
        for child, cpos, parent, ppos in self.inds:
            for row in local.rel.get(child, ()):
                if not merged.lookup(parent, ppos, tuple(row[p] for p in cpos)):
                    return False
        return True


def reachable(rules: Rules, base: Facts, txs: dict[str, list]) -> bool:
    """Can every transaction in *txs* be appended to *base*, one at a
    time, keeping the constraints?  Appendability only grows as facts
    accumulate, so a greedy order decides it."""
    overlay = Facts()
    view = View(base, overlay)
    remaining = dict(txs)
    while remaining:
        progressed = False
        for tx_id in list(remaining):
            if rules.can_append(view, remaining[tx_id]):
                overlay.add_all(remaining.pop(tx_id))
                progressed = True
        if not progressed:
            return False
    return True


def world(rules: Rules, base: Facts, pending: dict[str, list], witness) -> tuple[bool, View | None]:
    """Is ``R ∪ witness`` a possible world, and a view of it."""
    if any(tx_id not in pending for tx_id in witness):
        return False, None
    chosen = {tx_id: pending[tx_id] for tx_id in witness}
    overlay = Facts()
    for rows in chosen.values():
        overlay.add_all(rows)
    return reachable(rules, base, chosen), View(base, overlay)


def witness_valid(rules: Rules, base: Facts, pending: dict[str, list], query, witness) -> bool:
    """A "violated" verdict's witness: a reachable world where q holds."""
    possible, view = world(rules, base, pending, witness)
    return possible and query_holds(query, view)


def violated_by_enumeration(rules: Rules, base: Facts, pending: dict[str, list], query) -> bool:
    """Decide a small instance by trying every subset of its pending set."""
    ids = sorted(pending)
    return any(
        witness_valid(rules, base, pending, query, subset)
        for size in range(len(ids) + 1)
        for subset in itertools.combinations(ids, size)
    )


def constant_absent(query, base: Facts, pending: dict[str, list]) -> bool:
    """A fresh-constant query is satisfied when one of its constants
    occurs in no tuple of ``R ∪ T``: no world can match that atom."""
    constants = {t.value for atom in query.atoms for t in atom.terms if hasattr(t, "value")}
    seen = base.values()
    missing = {c for c in constants if c not in seen}
    for rows in pending.values():
        for _, row in rows:
            missing.difference_update(row)
    return bool(missing)


def share_outpoint(rules_fds, pending: dict[str, list], a: str, b: str) -> bool:
    """Two transactions clash on a key: they insert rows that agree on a
    key's left-hand side and differ elsewhere (a double spend)."""
    for relation, lhs, rhs in rules_fds:
        keys_a = {
            tuple(row[p] for p in lhs): row for name, row in pending.get(a, ()) if name == relation
        }
        for name, row in pending.get(b, ()):
            if name == relation:
                other = keys_a.get(tuple(row[p] for p in lhs))
                if other is not None and other != row:
                    return True
    return False
