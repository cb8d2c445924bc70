"""Delta-aware cache invalidation: the engine's one write-and-purge rule.

Every structure the repair engine derives from the master — certain
regions, the Suggest⁺ BDD and its pattern probes, the chase, TransFix and
suggest memos — is reconciled in one place,
:meth:`~repro.repair.certainfix.CertainFix._sync_master_version`, which
hands each of them the store's ``deltas_since`` batch, or drops it when
the journal cannot vouch for the gap (``None``).  This module provides
the pieces that reconcile consumes:

* :class:`RecordingStore` — a pass-through :class:`MasterStore` wrapper
  that records the *read footprint* of a computation: every keyed probe
  ``(attrs, key)`` it forwarded.  The chase and TransFix read master data
  exclusively through keyed reads (value images over probes), so a
  recorded footprint is the complete master dependency set of a memo
  entry or a pattern check's chase work.  ``push_sink``/``pop_sink``
  additionally scope footprints to one sub-computation (one
  ``check_pattern`` call of a region build), which is what lets the
  region guard re-verify exactly the checks a mutated row touched
  instead of rejecting wholesale.
* :class:`FootprintIndex` — the one reverse index from probe footprints
  to the entries that performed them, used by the memos and the region
  guard alike.  A mutated row is projected once per distinct probed
  attribute list, not once per entry.
* :class:`_Memo` — one memo table with its footprint index and
  :class:`MemoStats`.  A write lands only under the stamp read before
  its compute; a purge drops the footprint hits plus every entry stored
  without a footprint.
* :class:`RegionGuard` — decides whether the precomputed certain regions
  survive a delta batch *unchanged*.  Deletes (and updates, which journal
  as delete+insert) always rebuild.  For inserts the guard proves the
  fresh rebuild would produce the identical region list: every examined
  seed must have had at least ``validate_patterns`` candidate patterns
  (so patterns projected off the new row land beyond the checked window),
  checks whose recorded probe keys the new row matches are re-run against
  the live master (their good/not-good verdict must not flip), and checks
  whose instantiation choices grow with the row's novel active values are
  re-verified by chasing exactly the new value combinations.  Anything it
  cannot prove falls back to a rebuild — the guard only ever skips work,
  never correctness.
* :func:`row_supports_pattern` / :func:`patch_pattern_cache` — Suggest's
  pattern-only condition (c) for one master row: Suggest sweeps it over
  the master, and the shared pattern cache (keyed by rule identity) is
  patched with it delta by delta instead of re-swept.

Everything here is advisory: every consumer treats "cannot prove" as
"drop and recompute", so the delta path yields fixes bit-identical to the
full-drop path by construction (pinned by the equivalence fuzz in
``tests/test_store_equivalence.py``; ``make invalidation`` runs it with
the race and pattern-cache tests).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro import obs
from repro.analysis.active_domain import (
    attribute_active_domain,
    instantiate_condition,
    read_attrs,
)
from repro.analysis.consistency import AnalysisExplosion, check_pattern
from repro.core.fixes import chase
from repro.core.regions import Region
from repro.engine.schema import RelationSchema
from repro.engine.store import MasterStore
from repro.engine.tuples import Row
from repro.engine.values import UNKNOWN


class RecordingStore(MasterStore):
    """Pass-through store wrapper that records keyed-probe footprints.

    ``footprints`` accumulates ``(attrs, key)`` for every keyed read
    (``probe`` / ``probe_ref`` / ``probe_many`` / ``scan_probe`` /
    ``image``); ``swept`` notes whether any full sweep
    (iteration, ``len``, ``active_values``) happened.  Sweeps are *not* footprints:
    consumers whose sweep-derived state is guarded by other means (the
    region guard's active-value snapshot, the pattern-cache patcher)
    deliberately ignore them.

    A *sink* pushed with :meth:`push_sink` additionally receives every
    footprint recorded until :meth:`pop_sink`, scoping dependencies to
    one sub-computation without losing the global set.
    """

    def __init__(self, store: MasterStore):
        self._store = store
        self.footprints: set = set()
        self.swept = False
        self._sink = None

    def push_sink(self, sink: set) -> None:
        self._sink = sink

    def pop_sink(self) -> None:
        self._sink = None

    def _record(self, attrs: tuple, key: tuple) -> None:
        footprint = (attrs, key)
        self.footprints.add(footprint)
        if self._sink is not None:
            self._sink.add(footprint)

    # -- read API (recorded) -------------------------------------------------

    def probe(self, attrs: Iterable, key) -> tuple:
        attrs = tuple(attrs)
        key = tuple(key)
        self._record(attrs, key)
        return self._store.probe(attrs, key)

    def probe_ref(self, attrs: Iterable, key):
        attrs = tuple(attrs)
        key = tuple(key)
        self._record(attrs, key)
        return self._store.probe_ref(attrs, key)

    def probe_many(self, attrs: Iterable, keys: Iterable) -> dict:
        attrs = tuple(attrs)
        keys = [tuple(key) for key in keys]
        for key in keys:
            self._record(attrs, key)
        return self._store.probe_many(attrs, keys)

    def scan_probe(self, attrs: Iterable, key) -> tuple:
        # Index-free, but still a keyed read: same dependency shape.
        attrs = tuple(attrs)
        key = tuple(key)
        self._record(attrs, key)
        return self._store.scan_probe(attrs, key)

    def image(self, attrs: Iterable, key, column: str, guard=None) -> tuple:
        # Record, then read the wrapped store's image cache (a wrapper
        # lives for one recompute; a cache of its own would never hit).
        attrs = tuple(attrs)
        key = tuple(key)
        self._record(attrs, key)
        return self._store.image(attrs, key, column, guard)

    # -- read API (sweeps) ---------------------------------------------------

    def __len__(self) -> int:
        self.swept = True
        return len(self._store)

    def __iter__(self) -> Iterator[Row]:
        self.swept = True
        return iter(self._store)

    def iter_from(self, start: int) -> Iterator[Row]:
        self.swept = True
        return self._store.iter_from(start)

    def active_values(self, attr: str) -> set:
        self.swept = True
        return self._store.active_values(attr)

    # -- plumbing ------------------------------------------------------------

    @property
    def schema(self) -> RelationSchema:
        return self._store.schema

    @property
    def version(self) -> int:
        return self._store.version

    def ensure_index(self, attrs: Iterable) -> None:
        self._store.ensure_index(attrs)

    def insert(self, row) -> None:
        self._store.insert(row)

    def delete(self, row) -> bool:
        return self._store.delete(row)


class FootprintIndex:
    """Reverse index: master probe footprints → the entries that made them.

    Entries register with :meth:`add` under an opaque key (a memo key, a
    region check's ``(seed, check)`` position) and the footprint set a
    :class:`RecordingStore` captured while the entry was computed.
    :meth:`hits` projects a mutated row onto every distinct probed
    attribute list and yields the recorded probes it matches, with their
    owners; :meth:`affected` collects the owners over a delta batch —
    exactly the entries whose deterministic recompute could observe the
    mutation.  Cost per row is one projection and dict lookup per
    distinct attribute list ever probed, not per entry.  Not thread-safe;
    callers hold their owner's lock.
    """

    def __init__(self, schema: RelationSchema):
        self._schema = schema
        self._positions: dict = {}  # attrs -> value positions
        self._by_probe: dict = {}   # attrs -> {key: set(entry keys)}
        self._entries: dict = {}    # entry key -> tuple of footprints

    def add(self, entry, footprints: Iterable) -> None:
        """(Re)register *entry* under exactly *footprints*."""
        self.discard(entry)
        footprints = tuple(footprints)
        self._entries[entry] = footprints
        for attrs, key in footprints:
            if attrs not in self._positions:
                self._positions[attrs] = [
                    self._schema.index_of(a) for a in attrs
                ]
            self._by_probe.setdefault(attrs, {}).setdefault(
                key, set()
            ).add(entry)

    def discard(self, entry) -> None:
        footprints = self._entries.pop(entry, None)
        if not footprints:
            return
        for attrs, key in footprints:
            keyed = self._by_probe.get(attrs)
            if keyed is None:
                continue
            owners = keyed.get(key)
            if owners is not None:
                owners.discard(entry)
                if not owners:
                    del keyed[key]

    def hits(self, values) -> Iterator[tuple]:
        """``(attrs, key, owners)`` for every recorded probe the master
        value tuple *values* projects onto."""
        for attrs, keyed in self._by_probe.items():
            key = tuple(values[p] for p in self._positions[attrs])
            owners = keyed.get(key)
            if owners:
                yield attrs, key, owners

    def affected(self, rows: Iterable) -> set:
        """Entries whose recorded probes any of *rows* (master value
        tuples, i.e. delta payloads) projects onto."""
        out: set = set()
        for values in rows:
            for _attrs, _key, owners in self.hits(values):
                out.update(owners)
        return out

    def clear(self) -> None:
        self._by_probe.clear()
        self._entries.clear()


@dataclass
class MemoStats:
    """Hit/miss accounting for one memo table."""

    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.lookups
        return self.hits / total if total else 0.0

    def delta(self, earlier: "MemoStats") -> "MemoStats":
        return MemoStats(
            hits=self.hits - earlier.hits,
            misses=self.misses - earlier.misses,
        )


class _Memo:
    """One engine memo: a table, its :class:`FootprintIndex` and its
    :class:`MemoStats`, under one write rule.

    :meth:`lookup` reads the stamp (:attr:`version`) before it computes a
    miss, and the value lands only if the stamp still holds when the
    compute returns — so a value computed against an older master never
    outlives the reconcile that moved the stamp.  :meth:`purge` is that
    reconcile: given a delta batch's rows it drops the entries whose
    recorded footprint a row hits plus every entry stored without a
    footprint (nothing proves those unaffected); given ``None`` (a
    journal gap, or no journal) it drops everything.  *lock* is the
    owning engine's guard, so the purge and the stamp-checked writes
    serialize against each other.  *metric* names the
    ``result=hit|miss`` counter lookups increment, if any.
    """

    def __init__(self, schema: RelationSchema, lock, version: int,
                 metric: str = None):
        self.table: dict = {}
        self.index = FootprintIndex(schema)
        self.stats = MemoStats()
        self.version = version
        self._blind: set = set()  # keys stored without a footprint
        self._lock = lock
        self._metric = metric

    def lookup(self, key, compute) -> tuple:
        """``(value, hit)``.  On a miss ``compute()`` returns ``(value,
        footprints)`` (``None`` = not recorded) and the value is stored
        under the stamp read before the compute."""
        stamp = self.version
        value = self.table.get(key)
        hit = value is not None
        with self._lock:
            if hit:
                self.stats.hits += 1
            else:
                self.stats.misses += 1
        if self._metric is not None:
            obs.inc(self._metric, result="hit" if hit else "miss")
        if hit:
            return value, True
        value, footprints = compute()
        with self._lock:
            if self.version == stamp:
                self.table[key] = value
                if footprints is None:
                    self._blind.add(key)
                else:
                    self._blind.discard(key)
                    self.index.add(key, footprints)
        return value, False

    def purge(self, rows, version: int) -> None:
        """Reconcile to *version*; caller holds the lock."""
        if rows is None:
            self.table.clear()
            self.index.clear()
        else:
            for key in self.index.affected(rows) | self._blind:
                self.table.pop(key, None)
                self.index.discard(key)
        self._blind.clear()
        self.version = version


def row_supports_pattern(rule, row: Row) -> bool:
    """Whether master row *row* witnesses *rule*'s pattern part.

    Condition (c) of Suggest with an empty validated key, for one row:
    some master tuple matches the pattern part ``tp[Xp ∩ X]`` through the
    rule's correspondence and passes its master guard (with neither, any
    row is a witness).  Suggest sweeps it over the master; the pattern
    caches are patched with it delta by delta.
    """
    checks = [
        (rule.master_attr_of(attr), rule.pattern[attr])
        for attr in rule.pattern.attrs
        if attr in rule.lhs and not rule.pattern[attr].is_wildcard
    ]
    if not checks and not len(rule.master_guard):
        return True
    if not rule.master_guard.matches(row):
        return False
    return all(condition.matches(row[column]) for column, condition in checks)


def patch_pattern_cache(cache: dict, rules: Sequence, deltas, schema) -> None:
    """Update an ``{id(rule): holds}`` pattern cache for a delta batch.

    Mirrors what a fresh :func:`row_supports_pattern` sweep would answer:
    an inserted witness flips a cached False to True; deleting a witness
    of a cached True drops the entry (the remaining rows may or may not
    still contain one — recompute lazily); every other combination leaves
    the cached verdict exact.  Keyed by rule identity: two rules may
    share a name (the default one) yet differ in pattern or guard.
    """
    if not cache:
        return
    rows = [Row(schema, delta.values) for delta in deltas]
    for rule in rules:
        slot = id(rule)
        for delta, row in zip(deltas, rows):
            cached = cache.get(slot)
            if cached is None:
                break  # never cached, or dropped below: computed lazily
            if delta.op == "insert":
                if not cached and row_supports_pattern(rule, row):
                    cache[slot] = True
            elif cached and row_supports_pattern(rule, row):
                del cache[slot]


class _SnapshotActives:
    """Adapter exposing a ``{column: values}`` snapshot as the
    ``active_values`` surface :func:`attribute_active_domain` reads."""

    def __init__(self, snapshot: dict):
        self._snapshot = snapshot

    def active_values(self, column: str) -> set:
        return self._snapshot.get(column, set())


class RegionGuard:
    """Decides whether precomputed certain regions survive a delta batch.

    Built alongside ``comp_c_region`` from three artifacts of the build:
    per-check keyed-probe footprints (each ``check_pattern`` call runs
    with a :class:`RecordingStore` sink pushed), per-seed records of how
    many candidate patterns existed and what verdict each checked
    pattern received (the ``record`` sink of ``comp_c_region``), and a
    snapshot of the master's active values for every column that feeds
    an instantiation domain.  :meth:`absorb` then proves, delta batch by
    delta batch, that a fresh rebuild would reproduce the current region
    list exactly — or returns False, sending the owner down the ordinary
    rebuild path (a False return leaves the guard stale; the owner must
    discard it together with the regions).  Proof obligations per
    inserted row:

    1. every examined seed saw ≥ ``validate_patterns`` candidates, so
       patterns projected off the new row append beyond the checked
       window and the window's contents are unchanged (candidates are
       generated per master row in insertion order);
    2. checks whose recorded probe keys the row matches are re-run
       against the live master — their good/not-good verdict (the only
       part of an examination the region list depends on) must not
       flip; checks the row's probes miss replay identically by
       determinism;
    3. for unhit checks whose instantiation choices grow with the row's
       novel active values: the grown instantiation space must stay
       within budget (a fresh build would raise ``AnalysisExplosion``
       beyond it), a vacuous check must keep at least one empty choice
       list, and a certain check must chase every *new* value
       combination to a unique covering fix — on insert,
       ``instantiate_condition`` outputs only grow, so old combinations
       are a subset that replays identically.

    Deletes always rebuild (rare on the hot path; an update journals as
    delete+insert and therefore rebuilds too).
    """

    def __init__(
        self,
        rules: Sequence,
        schema: RelationSchema,
        store: MasterStore,
        footprints: Iterable,
        seed_records: Sequence,
        validate_patterns: int = 64,
        max_instantiations: int = 50_000,
    ):
        self._rules = list(rules)
        self._schema = schema  # the input schema R (region attrs live here)
        self._master_schema = store.schema
        self._max_instantiations = max_instantiations
        # Mutable copies: check entries become [pattern, verdict, sink]
        # lists so re-verification can refresh verdicts and footprints.
        self._records = [
            {
                "z": rec["z"],
                "candidates": rec["candidates"],
                "checks": [list(entry) for entry in rec["checks"]],
            }
            for rec in seed_records
        ]
        self._readable = read_attrs(self._rules)
        # Retention precondition (1): with fewer candidates than the
        # window, a pattern projected off an inserted row could enter the
        # checked window and change the build outcome.
        usable = all(
            rec["candidates"] >= validate_patterns for rec in self._records
        )
        # Reverse probe index: footprint -> the (seed, check) entries
        # whose verdict depended on it.
        self._checks = FootprintIndex(self._master_schema)
        scoped: set = set()
        if usable:
            for ri, rec in enumerate(self._records):
                for ci, entry in enumerate(rec["checks"]):
                    if len(entry) < 3 or entry[2] is None:
                        # No per-check scope recorded (builder ran against
                        # a store without sink support) — unattributable.
                        usable = False
                        break
                    scoped.update(entry[2])
                    self._checks.add((ri, ci), entry[2])
                if not usable:
                    break
        # Safety net: a probe performed outside any check scope has no
        # owner to re-verify, making retention unattributable.
        if usable and set(footprints) - scoped:
            usable = False
        self._usable = usable
        # Master columns feeding each readable attribute's active domain
        # (mirrors attribute_active_domain's column collection).
        self._columns_by_attr: dict = {}
        self._rules_by_lhs_m: dict = {}
        for rule in self._rules:
            for attr in rule.lhs:
                self._columns_by_attr.setdefault(attr, set()).add(
                    rule.master_attr_of(attr)
                )
            self._columns_by_attr.setdefault(rule.rhs, set()).add(rule.rhs_m)
            self._rules_by_lhs_m.setdefault(tuple(rule.lhs_m), []).append(rule)
        # Active-value snapshot for every domain-feeding column, taken at
        # build time and advanced by every absorbed insert.
        self._active: dict = {}
        if usable:
            for columns in self._columns_by_attr.values():
                for column in columns:
                    if column not in self._active:
                        self._active[column] = set(store.active_values(column))

    # -- the absorb decision -------------------------------------------------

    def absorb(self, deltas, store: MasterStore) -> bool:
        """True iff the current region list equals a fresh rebuild's.

        *store* is the live master (deltas already applied); re-checks
        and new value combinations run against it, exactly as a rebuild
        would.  A False return leaves the guard stale — the owner must
        discard it together with the regions.
        """
        if not self._usable:
            return False
        if any(delta.op != "insert" for delta in deltas):
            return False
        # Which checks did the new rows' probe keys touch (minus hits
        # proven benign), and which columns gained new active values?
        hit: set = set()
        novel_columns: set = set()
        inserted = {delta.values for delta in deltas}
        for delta in deltas:
            row = Row(self._master_schema, delta.values)
            for attrs, key, owners in self._checks.hits(delta.values):
                if not self._benign_insert(attrs, key, row, inserted, store):
                    hit.update(owners)
            for column, active in self._active.items():
                value = delta.values[self._master_schema.index_of(column)]
                if value not in active:
                    novel_columns.add(column)
        if hit and not self._reverify_hits(hit, store):
            return False
        if novel_columns and not self._absorb_novel_values(
            novel_columns, deltas, hit, store
        ):
            return False
        for delta in deltas:
            for column, active in self._active.items():
                active.add(delta.values[self._master_schema.index_of(column)])
        return True

    def _benign_insert(
        self, attrs: tuple, key: tuple, row: Row, inserted: set,
        store: MasterStore,
    ) -> bool:
        """Whether *row* joining the ``(attrs, key)`` probe result cannot
        change any chase outcome that performed the probe.

        The chase consumes a probed master row through exactly two reads:
        ``rule.master_guard.matches(tm)`` and ``tm[rule.rhs_m]`` (batch
        firing, conflict detection and the post-pass all reduce to them).
        So for every rule probing with this attribute list the insert is
        invisible iff the row fails the rule's master guard, or all live
        guard-passing matches agree on one rhs value *and* at least one
        of them predates the batch — the rule fired before with the same
        value, so firing again derives nothing new and the duplicate
        post-pass edge is idempotent.  Probe keys shared by many checks
        (common: instantiated patterns reuse hot master keys) then skip
        re-verification entirely.
        """
        rules = self._rules_by_lhs_m.get(attrs)
        if rules is None:
            return False  # probe not attributable to a rule — be safe
        for rule in rules:
            if not rule.master_guard.matches(row):
                continue
            rhs_values: set = set()
            old_match = False
            for tm in store.probe_ref(attrs, key):
                if not rule.master_guard.matches(tm):
                    continue
                rhs_values.add(tm[rule.rhs_m])
                if tuple(tm.values) not in inserted:
                    old_match = True
            if len(rhs_values) != 1 or not old_match:
                return False
        return True

    def _reverify_hits(self, hit: set, store: MasterStore) -> bool:
        """Re-run every probe-hit check against the live master.

        The region list depends on each check only through its
        good/not-good verdict (good patterns form the tableau in check
        order; counts and quality follow), so retention needs exactly
        that bit to survive.  Verdicts and footprints are refreshed from
        the re-run so future absorbs see current dependencies.
        """
        recording = RecordingStore(store)
        for ri, ci in sorted(hit):
            rec = self._records[ri]
            entry = rec["checks"][ci]
            pattern, old_verdict, _sink = entry
            sink: set = set()
            recording.push_sink(sink)
            try:
                check = check_pattern(
                    self._rules,
                    recording,
                    Region(rec["z"], tableau=None),
                    pattern,
                    self._schema,
                    self._max_instantiations,
                )
            except AnalysisExplosion:
                return False  # a fresh build would raise; rebuild to match
            finally:
                recording.pop_sink()
            is_good = check.certain and check.instantiations > 0
            if is_good != (old_verdict == "good"):
                return False
            entry[1] = (
                "good" if is_good
                else "vacuous" if check.instantiations == 0
                else "failed"
            )
            entry[2] = frozenset(sink)
            self._checks.add((ri, ci), entry[2])
        return True

    def _absorb_novel_values(
        self, novel_columns: set, deltas, hit: set, store: MasterStore
    ) -> bool:
        """Verify unhit checks whose instantiation choices grew."""
        old_snapshot = _SnapshotActives(self._active)
        new_active = {
            column: set(values) for column, values in self._active.items()
        }
        for delta in deltas:
            for column in new_active:
                new_active[column].add(
                    delta.values[self._master_schema.index_of(column)]
                )
        new_snapshot = _SnapshotActives(new_active)
        # Instantiation contexts: active domains and per-(attr, condition)
        # choice lists are pure functions of the snapshot — memoised per
        # absorb so checks sharing conditions (the common case: candidate
        # patterns differ in a few attributes) pay for them once.
        old_ctx = (old_snapshot, {}, {})
        new_ctx = (new_snapshot, {}, {})
        for ri, rec in enumerate(self._records):
            z = rec["z"]
            affected = [
                attr
                for attr in z
                if attr in self._readable
                and self._columns_by_attr.get(attr, set()) & novel_columns
            ]
            if not affected:
                continue
            for ci, entry in enumerate(rec["checks"]):
                if (ri, ci) in hit:
                    continue  # already re-verified against the live master
                if not self._check_survives_growth(
                    ri, ci, entry, z, old_ctx, new_ctx, store
                ):
                    return False
        return True

    def _choices(self, z, pattern, ctx) -> list:
        """Per-attribute instantiation values against a snapshot context
        ``(snapshot, domain memo, choice memo)`` — the exact logic of
        ``_instantiation_space`` with snapshot actives.  Returned lists
        are shared through the memo; callers must not mutate them."""
        snapshot, domains, memo = ctx
        choices = []
        for attr in z:
            condition = pattern[attr]
            if attr not in self._readable:
                choices.append(
                    [condition.value] if condition.is_constant else [UNKNOWN]
                )
                continue
            cached = memo.get((attr, condition))
            if cached is None:
                active = domains.get(attr)
                if active is None:
                    active = domains[attr] = attribute_active_domain(
                        attr, self._rules, snapshot
                    )
                cached = memo[(attr, condition)] = instantiate_condition(
                    condition, active, self._schema.domain_of(attr), attr
                )
            choices.append(cached)
        return choices

    def _check_survives_growth(
        self, ri, ci, entry, z, old_ctx, new_ctx, store
    ) -> bool:
        pattern, verdict, _sink = entry
        old_choices = self._choices(z, pattern, old_ctx)
        new_choices = self._choices(z, pattern, new_ctx)
        added = [
            [v for v in new if v not in set(old)]
            for old, new in zip(old_choices, new_choices)
        ]
        if not any(added):
            return True
        space = 1
        for values in new_choices:
            space *= max(len(values), 1)
        if space > self._max_instantiations:
            # A fresh check_pattern would raise AnalysisExplosion before
            # even the vacuous early-return; rebuild so the owner
            # reproduces the build-time behaviour.
            return False
        if verdict == "vacuous":
            # Vacuous = some attribute's choice list is empty; inserts
            # only grow lists, so vacuousness persists iff one stays
            # empty.  A check waking up could change the good set.
            return any(not values for values in new_choices)
        if verdict != "good":
            # The failing combination recorded at build replays
            # identically (its probes missed the new rows, else this
            # check would be in the hit set), so it cannot turn good.
            return True
        # Certain check: old combinations replay identically; chase
        # exactly the combinations that include at least one new value,
        # recording their probes so future deltas can find this check.
        recording = RecordingStore(store)
        sink: set = set()
        recording.push_sink(sink)
        all_attrs = set(self._schema.attributes)
        try:
            for index, fresh_values in enumerate(added):
                if not fresh_values:
                    continue
                # Positions before `index` take old values, `index` takes
                # only new values, later positions run the full new lists
                # — disjoint and jointly exhaustive over "at least one
                # new value" without re-enumerating the old product.
                pools = [
                    old_choices[i] if i < index
                    else (fresh_values if i == index else new_choices[i])
                    for i in range(len(new_choices))
                ]
                for combo in itertools.product(*pools):
                    outcome = chase(dict(zip(z, combo)), z, self._rules, recording)
                    if not outcome.unique or not outcome.covered >= all_attrs:
                        return False
        finally:
            recording.pop_sink()
        entry[2] = frozenset(entry[2] | sink)
        self._checks.add((ri, ci), entry[2])
        return True
