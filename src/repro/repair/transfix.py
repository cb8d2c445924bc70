"""Procedure TransFix (Sect. 5.1, Fig. 5).

Given a tuple ``t`` with validated attributes ``Z'``, fix every attribute the
rules and master data entail, extending ``Z'`` as it goes.  The procedure
walks the rule dependency graph: rules whose premise (``X ∪ Xp``) is already
validated sit in ``vset`` ("usable"); firing a rule upgrades its dependent
rules from ``uset`` to ``vset`` when their premises fill in.  Each rule is
consumed at most once, giving the paper's ``O(|Σ|²)`` bound.  Master access
goes through :meth:`repro.engine.store.MasterStore.image` — the rule's
distinct correction values under the Sect. 5.1 hash table keyed on
``tm[Xm]``, which makes each master check constant time — so any backend
(in-memory or out-of-core) serves the lookups.

A naive fixpoint loop (re-scan all rules until nothing fires) is provided as
:func:`transfix_naive` for ablation A1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Set

from repro.analysis.dependency_graph import DependencyGraph
from repro.engine.store import MasterStore, as_master_store, distinct_image
from repro.engine.tuples import Row
from repro.engine.values import UNKNOWN


class MasterConflict(RuntimeError):
    """Master tuples matched by one rule disagree on the target value.

    Cannot happen after the unique-fix validation step of CertainFix; raised
    defensively when TransFix is used stand-alone on unvalidated input.
    """


@dataclass
class TransFixResult:
    """Output of one TransFix run."""

    row: Row
    validated: frozenset
    applied: list = field(default_factory=list)
    lookups: int = 0

    @property
    def fixed_attrs(self) -> tuple:
        return tuple(rule.rhs for rule, _ in self.applied)

    def explain(self) -> str:
        """Provenance of every fixed attribute, in application order."""
        if not self.applied:
            return "no rule applied"
        lines = []
        for rule, tm in self.applied:
            key = dict(zip(rule.lhs, tm[rule.lhs_m]))
            lines.append(
                f"{rule.rhs} := {tm[rule.rhs_m]!r} via {rule.name} "
                f"(master match on {key})"
            )
        return "\n".join(lines)


def _resolve(rule, row: Row, master: MasterStore, use_index: bool):
    """Witness master tuple for ``rhs(rule)``, or None; raises on
    disagreement, which is exactly a value image of more than one value."""
    key = row[rule.lhs]
    if any(v is UNKNOWN for v in key):
        return None
    if use_index:
        image = master.image(rule.lhs_m, key, rule.rhs_m, rule.master_guard)
    else:
        image = distinct_image(
            master.scan_probe(rule.lhs_m, key), rule.rhs_m, rule.master_guard
        )
    if not image:
        return None
    if len(image) > 1:
        raise MasterConflict(
            f"rule {rule.name}: master tuples with key {key} carry "
            f"distinct values {image[0][0]!r} / {image[1][0]!r} for "
            f"{rule.rhs_m!r}"
        )
    return image[0][1]


def transfix(
    t: Row,
    validated: Iterable,
    rules,
    master,
    graph: DependencyGraph = None,
    use_index: bool = True,
) -> TransFixResult:
    """Fix every attribute entailed by ``t[validated]`` (Fig. 5).

    Parameters mirror the paper: the tuple, the validated set ``Z'``, the
    rule set Σ with its dependency graph ``G`` (built on demand when not
    supplied), and the master data — a
    :class:`~repro.engine.store.MasterStore` or a plain relation (adapted
    on entry).  ``use_index=False`` degrades master probes to scans
    (ablation A2).
    """
    master = as_master_store(master)
    if graph is None:
        graph = DependencyGraph(list(rules))
    rules = graph.rules
    z: Set = set(validated)
    row = t
    applied = []
    lookups = 0

    usable = [False] * len(rules)
    in_uset = [False] * len(rules)
    consumed = [False] * len(rules)
    vset: list = []
    uset: set = set()
    for i, rule in enumerate(rules):
        if rule.premise_attrs <= z:
            usable[i] = True
            vset.append(i)
        else:
            in_uset[i] = True
            uset.add(i)

    while vset:
        v = vset.pop()
        if consumed[v]:
            continue
        consumed[v] = True
        rule = rules[v]
        if rule.rhs not in z and rule.pattern.matches(row):
            lookups += 1
            tm = _resolve(rule, row, master, use_index)
            if tm is not None:
                row = rule.apply_unchecked(row, tm)
                z.add(rule.rhs)
                applied.append((rule, tm))
                for u in graph.successors(v):
                    if consumed[u]:
                        continue
                    if rules[u].premise_attrs <= z:
                        if in_uset[u]:
                            in_uset[u] = False
                            uset.discard(u)
                        if not usable[u]:
                            usable[u] = True
                            vset.append(u)
                    elif not in_uset[u] and not usable[u]:
                        in_uset[u] = True
                        uset.add(u)

    return TransFixResult(
        row=row, validated=frozenset(z), applied=applied, lookups=lookups
    )


def transfix_naive(
    t: Row,
    validated: Iterable,
    rules,
    master,
    use_index: bool = True,
) -> TransFixResult:
    """Ablation baseline: re-scan the whole rule set until a fixpoint.

    Semantically equivalent to :func:`transfix` (tests assert this); does
    ``O(|Σ|)`` scans per fired rule instead of following dependency edges.
    """
    master = as_master_store(master)
    rules = list(rules)
    z: Set = set(validated)
    row = t
    applied = []
    lookups = 0
    progress = True
    fired = [False] * len(rules)
    while progress:
        progress = False
        for i, rule in enumerate(rules):
            if fired[i] or rule.rhs in z:
                continue
            if not rule.premise_attrs <= z:
                continue
            if not rule.pattern.matches(row):
                continue
            lookups += 1
            tm = _resolve(rule, row, master, use_index)
            if tm is None:
                continue
            row = rule.apply_unchecked(row, tm)
            z.add(rule.rhs)
            applied.append((rule, tm))
            fired[i] = True
            progress = True
    return TransFixResult(
        row=row, validated=frozenset(z), applied=applied, lookups=lookups
    )
