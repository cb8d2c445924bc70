"""The fix chase: fixes, unique fixes and certain fixes (Sect. 3).

Given a region ``(Z, Tc)``, a rule set Σ and master data ``Dm``, a *fix* of a
marked tuple ``t`` is the result of a maximal sequence of region-constrained
rule applications; ``t`` has a *unique fix* when every such sequence ends in
the same tuple, and a *certain fix* when additionally the covered attributes
reach all of ``R`` (Sect. 3).

:func:`chase` decides unique-fix existence for one concrete start point.  It
follows the PTIME algorithm inside the proof of Theorem 4 — apply all enabled
rule/master pairs in batches, detect same-batch conflicts (step (e)) and
late-arriving conflicts (step (g)) — with one strengthening documented in
DESIGN.md §4.1: the paper's one-level ``dep()`` test for step (g) is replaced
by an exact reachability check ("is the conflicting rule's premise derivable
*without* its target attribute?") over the hypergraph of all same-value
derivations.  :mod:`repro.analysis.chase` cross-validates this against an
exhaustive order-exploring chase on small instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

from repro.core.regions import Region
from repro.core.rules import EditingRule
from repro.engine.store import as_master_store
from repro.engine.tuples import Row
from repro.engine.values import UNKNOWN


@dataclass(frozen=True)
class Conflict:
    """Evidence that two fix sequences diverge.

    ``kind`` is ``"same-batch"`` when two simultaneously-enabled rules assign
    different values (the paper's step (e)) and ``"order-dependent"`` when a
    later-enabled rule could have pre-empted an earlier assignment in some
    other application order (step (g)).
    """

    kind: str
    attr: str
    values: tuple
    rules: tuple

    def describe(self) -> str:
        rule_names = ", ".join(r.name for r in self.rules)
        return (
            f"{self.kind} conflict on {self.attr!r}: candidate values "
            f"{list(self.values)} via rules [{rule_names}]"
        )


@dataclass
class ChaseOutcome:
    """Result of chasing one start point.

    ``unique`` — whether all maximal fix sequences agree;
    ``assignment`` — the canonical final values (attr -> value, possibly
    ``UNKNOWN`` for never-read, never-written attributes outside Z);
    ``covered`` — the paper's "attributes covered by (Z, Tc, Σ, Dm)";
    ``zb`` — the initial (user-validated) Z;
    ``conflict`` — the divergence witness when ``unique`` is False;
    ``fired`` — the (rule, master_row, batch) applications of the canonical
    batched run, in order: one witness master row per distinct value a
    rule derived (its first matching row), not every matching row.
    """

    unique: bool
    assignment: dict
    covered: frozenset
    zb: frozenset
    conflict: Conflict = None
    fired: list = field(default_factory=list)
    batches: int = 0

    def is_certain(self, schema) -> bool:
        """Certain fix: unique and the covered set reaches all of R."""
        return self.unique and self.covered >= set(schema.attributes)

    def uncovered(self, schema) -> tuple:
        return tuple(a for a in schema.attributes if a not in self.covered)

    def final_row(self, schema) -> Row:
        """Materialize the fixed tuple (requires no UNKNOWN values)."""
        values = []
        for a in schema.attributes:
            v = self.assignment.get(a, UNKNOWN)
            values.append(v)
        return Row(schema, values)

    def explain(self) -> str:
        """Human-readable provenance: which rule and master tuple set each
        attribute, in application order (one witness tuple per distinct
        value; further master rows carrying the same value are not
        listed)."""
        lines = [f"validated by the user: {sorted(self.zb)}"]
        for rule, tm, batch in self.fired:
            key = dict(zip(rule.lhs, tm[rule.lhs_m]))
            lines.append(
                f"batch {batch}: {rule.rhs} := {tm[rule.rhs_m]!r} "
                f"via {rule.name} (master match on {key})"
            )
        if not self.unique:
            lines.append(f"DIVERGENT: {self.conflict.describe()}")
        elif not self.fired:
            lines.append("no rule applied")
        return "\n".join(lines)


def _as_assignment(t, schema_attrs: Sequence) -> dict:
    if isinstance(t, Row):
        return dict(zip(t.schema.attributes, t.values))
    if isinstance(t, Mapping):
        out = dict(t)
        for a in schema_attrs:
            out.setdefault(a, UNKNOWN)
        return out
    raise TypeError(f"cannot interpret {type(t).__name__} as a tuple")


def applicable_pairs(
    assignment: Mapping,
    validated: frozenset,
    rules: Iterable,
    master,
) -> Iterator:
    """Yield ``(φ, tm)`` pairs applicable under the region semantics.

    Requires ``X ∪ Xp ⊆ validated``, ``B ∉ validated``, ``t[Xp] ≈ tp`` and
    ``t[X] = tm[Xm]`` — conditions (1)–(3) of ``t →((Z,Tc),φ,tm) t'``.
    *master* is a :class:`~repro.engine.store.MasterStore` or a plain
    relation (adapted on entry).
    """
    master = as_master_store(master)
    for rule in rules:
        if not rule.premise_attrs <= validated:
            continue
        if rule.rhs in validated:
            continue
        if not rule.pattern.matches_values(assignment):
            continue
        key = tuple(assignment[a] for a in rule.lhs)
        if any(v is UNKNOWN for v in key):
            continue
        for tm in master.probe_ref(rule.lhs_m, key):
            if rule.master_guard.matches(tm):
                yield rule, tm


def _derivable_without(
    target: str,
    premises_needed: frozenset,
    edges: list,
    zb: frozenset,
) -> bool:
    """Whether every attribute of *premises_needed* is reachable from *zb*
    via same-value derivation edges that never pass through *target*."""
    derivable = set(zb)
    derivable.discard(target)
    if premises_needed <= derivable:
        return True
    pending = [e for e in edges if e[1] != target]
    changed = True
    while changed:
        changed = False
        remaining = []
        for premise, rhs in pending:
            if rhs in derivable:
                continue
            if premise <= derivable:
                derivable.add(rhs)
                changed = True
                if premises_needed <= derivable:
                    return True
            else:
                remaining.append((premise, rhs))
        pending = remaining
    return premises_needed <= derivable


def chase(
    t,
    z0: Iterable,
    rules: Sequence,
    master,
) -> ChaseOutcome:
    """Chase one start point and decide unique-fix existence.

    Parameters
    ----------
    t:
        A :class:`Row` or mapping giving values for (at least) the
        attributes in *z0*.  Attributes outside *z0* may be ``UNKNOWN``.
    z0:
        The initially validated attributes (the region's ``Z``); the caller
        has already checked that ``t`` is marked by the region.
    rules, master:
        The rule set Σ and the master data ``Dm`` — a
        :class:`~repro.engine.store.MasterStore` or a plain relation
        (adapted on entry); every master access is a rule's value image
        (:meth:`~repro.engine.store.MasterStore.image`), so the chase
        sees each distinct correction value once.
    """
    master = as_master_store(master)
    rules = list(rules)
    zb = frozenset(z0)
    all_attrs = set(zb)
    for rule in rules:
        all_attrs.update(rule.premise_attrs)
        all_attrs.add(rule.rhs)
    assignment = _as_assignment(t, tuple(all_attrs))
    for a in all_attrs:
        assignment.setdefault(a, UNKNOWN)

    validated = set(zb)
    fired: list = []
    batches = 0
    # Rules already applied (or found target-protected) need no re-checking:
    # master data is fixed and validated values never change.
    exhausted = [False] * len(rules)

    while True:
        batch: list = []
        new_values: dict = {}
        culprit: dict = {}
        for i, rule in enumerate(rules):
            if exhausted[i]:
                continue
            if not rule.premise_attrs <= validated:
                continue
            if rule.rhs in validated:
                # Protected target; step (g) below re-examines such rules.
                exhausted[i] = True
                continue
            if not rule.pattern.matches_values(assignment):
                exhausted[i] = True
                continue
            key = tuple(assignment[a] for a in rule.lhs)
            if any(v is UNKNOWN for v in key):
                exhausted[i] = True
                continue
            exhausted[i] = True
            for value, tm in master.image(
                rule.lhs_m, key, rule.rhs_m, rule.master_guard
            ):
                if rule.rhs in new_values and new_values[rule.rhs] != value:
                    return ChaseOutcome(
                        unique=False,
                        assignment=assignment,
                        covered=frozenset(validated),
                        zb=zb,
                        conflict=Conflict(
                            kind="same-batch",
                            attr=rule.rhs,
                            values=(new_values[rule.rhs], value),
                            rules=(culprit[rule.rhs], rule),
                        ),
                        fired=fired,
                        batches=batches,
                    )
                new_values[rule.rhs] = value
                culprit[rule.rhs] = rule
                batch.append((rule, tm))
        if not batch:
            break
        batches += 1
        for rule, tm in batch:
            fired.append((rule, tm, batches))
        for attr, value in new_values.items():
            assignment[attr] = value
            validated.add(attr)

    # Post-pass (exact step (g)): examine every pair applicable w.r.t. the
    # final values whose target is already validated.  Same-value pairs
    # contribute derivation edges; different-value pairs are conflicts iff
    # their premise is derivable without their own target.
    edges: list = []
    candidates: list = []
    covered = frozenset(validated)
    for rule in rules:
        if not rule.premise_attrs <= covered:
            continue
        if not rule.pattern.matches_values(assignment):
            continue
        key = tuple(assignment[a] for a in rule.lhs)
        if any(v is UNKNOWN for v in key):
            continue
        for value, _tm in master.image(
            rule.lhs_m, key, rule.rhs_m, rule.master_guard
        ):
            if value == assignment[rule.rhs]:
                edges.append((rule.premise_attrs, rule.rhs))
            elif rule.rhs not in zb:
                candidates.append((rule, value))
    for rule, value in candidates:
        if _derivable_without(rule.rhs, rule.premise_attrs, edges, zb):
            return ChaseOutcome(
                unique=False,
                assignment=assignment,
                covered=covered,
                zb=zb,
                conflict=Conflict(
                    kind="order-dependent",
                    attr=rule.rhs,
                    values=(assignment[rule.rhs], value),
                    rules=(rule,),
                ),
                fired=fired,
                batches=batches,
            )

    return ChaseOutcome(
        unique=True,
        assignment=assignment,
        covered=covered,
        zb=zb,
        fired=fired,
        batches=batches,
    )


def region_apply(t: Row, region: Region, rule: EditingRule, tm: Row):
    """One step ``t →((Z,Tc),φ,tm) t'`` with all side conditions checked.

    Returns ``(t', ext(Z, Tc, φ))``.  Raises ``ValueError`` when a side
    condition fails, naming the violated one — useful in examples and tests.
    """
    if not region.marks(t):
        raise ValueError(f"tuple is not marked by region {region!r}")
    z = region.attr_set
    if not set(rule.lhs) <= z:
        raise ValueError(
            f"X = {list(rule.lhs)} not contained in Z = {list(region.attrs)}"
        )
    if not set(rule.pattern.attrs) <= z:
        raise ValueError(
            f"Xp = {list(rule.pattern.attrs)} not contained in Z = "
            f"{list(region.attrs)}"
        )
    if rule.rhs in z:
        raise ValueError(f"B = {rule.rhs!r} is protected (already in Z)")
    if not rule.applies_to(t, tm):
        raise ValueError(f"({rule.name}, {tm!r}) does not apply to {t!r}")
    return rule.apply_unchecked(t, tm), region.extend(rule)


def fix_sequence(t: Row, region: Region, steps: Iterable):
    """Apply an explicit sequence of ``(rule, master_row)`` steps.

    Implements the paper's ``t →*((Z,Tc),Σ,Dm) t'`` for a chosen order;
    returns the final tuple and the final (extended) region.
    """
    current, reg = t, region
    for rule, tm in steps:
        current, reg = region_apply(current, reg, rule, tm)
    return current, reg


def is_fixpoint(t: Row, region: Region, rules: Iterable, master) -> bool:
    """Condition (2) of the fix definition: no pair ``(φ, tm)`` applies.

    Note the quantification: the sequence is maximal only when *no* pair is
    applicable at all — a pair that would re-assign the value already present
    still applies (and would extend ``Z``), so its mere applicability means
    the sequence can be continued.
    """
    assignment = dict(zip(t.schema.attributes, t.values))
    validated = frozenset(region.attrs)
    for _rule, _tm in applicable_pairs(assignment, validated, rules, master):
        return False
    return True
