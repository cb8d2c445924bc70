"""MasterStore: pluggable backends for master-data access.

Every certain-fix guarantee in the paper flows from probes against the
master relation ``Dm``: Sect. 5.1 argues TransFix's complexity by noting
"it takes constant time to check whether there exists a master tuple that
is applicable to t with an eR, by using a hash table that stores tm[Xm] as
a key".  :meth:`MasterStore.probe` is that hash-table lookup lifted to an
interface, so the repair layer no longer assumes masters are in-memory
:class:`~repro.engine.relation.Relation` objects:

* :class:`InMemoryStore` wraps the existing ``Relation`` + cached
  :class:`~repro.engine.index.HashIndex` machinery (the paper's setting);
* :class:`SqliteStore` serves out-of-core masters from indexed sqlite
  tables with an LRU probe cache in front, so ``Dm`` no longer has to fit
  in RAM.

Both expose a monotonic :attr:`MasterStore.version` counter bumped by every
``insert`` / ``delete`` / ``update`` of a master tuple.  The repair engines
stamp their shared caches (certain regions, Suggest⁺ BDD, validated-pattern
memos) with the version they were built against and rebuild lazily when it
moves — incremental master updates therefore invalidate exactly the state
the paper says is reusable only "as long as Σ and Dm are unchanged".

Mutation contract: route every master mutation through the store (or, for
:class:`InMemoryStore`, through the wrapped relation's ``insert`` /
``delete``, which feed the same counter).  ``update`` is delete-then-insert
in every backend, so a replaced tuple moves to iteration end identically
everywhere — keeping fix output bit-identical per backend.

Process boundaries: sqlite connections (and, for that matter, a worker's
private copy of an in-memory master) cannot cross a ``fork``/``spawn``
boundary, so stores that can be rehydrated in another process implement
:meth:`MasterStore.detach`, returning a picklable handle whose
``reattach()`` re-opens the backend there — carrying the parent's version
stamp so the worker's derived caches line up with the parent's version
stream.  The batch engine's process pool ships one handle per worker via
the pool initializer and re-syncs per chunk with
:meth:`InMemoryStore.reset_rows` / :meth:`SqliteStore.sync_version`.

Delta protocol: dropping *every* derived cache per mutation is correct
but costs 0.6–1.7s per master update at bench scale, so each local
backend keeps a bounded **delta journal** — the last
``DEFAULT_DELTA_WINDOW`` mutations as :class:`StoreDelta` records
``(version, op, values)``, where ``op`` is ``"insert"`` or ``"delete"``
and an ``update`` appears as its delete+insert pair over two version
bumps.  :meth:`MasterStore.deltas_since` returns the records strictly
after a consumer's stamp, or ``None`` whenever it cannot *prove* the
list is complete: the stamp fell out of the window, the journal saw a
version gap (bulk loads, ``replace_all``, mutations applied directly to
a wrapped relation, reattach stamps), or the backend keeps no journal at
all (the base class).  ``None`` means "fall back to today's full drop",
so every consumer remains correct unconditionally — the journal only
ever *narrows* invalidation, never skips it.  Window sizing trades
memory (one record per mutation) against how far a consumer may lag
before it pays a full rebuild; the default 256 covers any realistic
batch-engine lag (consumers resync on the next fix, i.e. within a
chunk).  :meth:`MasterStore.adopt_deltas` is the worker-side converse:
apply a parent's delta list instead of reloading a full snapshot,
returning False when the deltas cannot be applied cleanly (the caller
then falls back to the snapshot path).
"""

from __future__ import annotations

import itertools
import os
import sqlite3
import threading
from abc import ABC, abstractmethod
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro import obs
from repro.engine.relation import Relation
from repro.engine.schema import RelationSchema
from repro.engine.tuples import Row
from repro.engine.values import NULL, UNKNOWN


class StoreError(RuntimeError):
    """A master-store *infrastructure* failure (not a data error).

    Data-shape problems (mismatched probe keys, foreign schemas) stay
    ``ValueError``/``TypeError``; :class:`StoreError` subclasses mean the
    backend itself is gone — a closed connection, a vanished database
    file, an unreachable master server.  Every instance carries remedy
    text, and the batch engine surfaces them in
    :class:`~repro.repair.batch.BatchReport` (``store_errors``) so a
    failed run names the infrastructure cause instead of a bare
    ``RuntimeError``.
    """


class StoreDetachedError(StoreError):
    """An operation hit a store whose backend connection was closed.

    Raised by backends after :meth:`MasterStore` consumers call ``close()``
    (or use a handle whose owner went away); the message names how to
    re-open.
    """


class StoreUnavailableError(StoreError):
    """The store's backing service or file cannot be reached.

    Raised by :meth:`SqliteStoreHandle.reattach` when the shared database
    file no longer exists, and by the remote backend when the master
    server is unreachable; the message names the missing resource and the
    remedy.
    """


class StoreProtocolError(StoreError):
    """A backend answered, but the answer violates the store protocol.

    Raised when a response cannot be reconciled with the request that
    produced it — e.g. a ``probe_many`` reply carrying fewer (or more)
    result lists than probe keys sent, or results keyed on keys that were
    never asked for.  A short reply used to be silently ``zip``-truncated
    and the missing keys resolved (and cached!) as "no match", corrupting
    fixes; the typed error makes the lying backend loud instead, and
    nothing from such a response may land in any cache.  The message
    names both counts and the offending endpoint/backend.
    """


#: Default journal window: how many of the latest mutations a backend
#: keeps as deltas before a lagging consumer must pay a full cache drop.
DEFAULT_DELTA_WINDOW = 256


@dataclass(frozen=True)
class StoreDelta:
    """One journaled master mutation.

    ``op`` is ``"insert"`` or ``"delete"`` (an ``update`` journals as a
    delete+insert pair over two consecutive versions); ``values`` is the
    full tuple of the affected row — the row *is* its own key, matching
    the store write API, and carries everything a consumer needs to
    project the delta onto any probe key or rule pattern.
    """

    version: int
    op: str
    values: tuple


class _DeltaJournal:
    """Bounded, gap-aware log of the latest mutations of one store.

    Records cover the contiguous version range ``(_floor, last]``.  Any
    version bump the journal did not witness (bulk loads, direct
    relation mutations, reattach stamps) shows up as a gap; the journal
    then discards its history so :meth:`since` degrades to ``None`` —
    the unconditional full-drop fallback — rather than ever returning an
    incomplete delta list.  Not thread-safe; callers hold the store
    lock, exactly as for the surrounding version bookkeeping.
    """

    __slots__ = ("window", "_records", "_floor")

    def __init__(self, window: int = DEFAULT_DELTA_WINDOW):
        if window < 1:
            raise ValueError(f"delta_window must be >= 1, got {window}")
        self.window = window
        self._records: deque = deque()
        self._floor = 0

    def record(self, version: int, op: str, values: tuple) -> None:
        """Append one mutation; a non-consecutive *version* clears history."""
        expected = (
            self._records[-1].version if self._records else self._floor
        ) + 1
        if version != expected:
            self._records.clear()
            self._floor = version - 1
        self._records.append(StoreDelta(version, op, tuple(values)))
        while len(self._records) > self.window:
            dropped = self._records.popleft()
            self._floor = dropped.version

    def reset(self, version: int) -> None:
        """Drop history and restart the contiguous range at *version*.

        Called after any bulk mutation (loads, ``replace_all``,
        full-path resyncs): consumers stamped before *version* fall back
        to a full drop, consumers stamped at it see an empty delta list.
        """
        self._records.clear()
        self._floor = version

    def since(self, start: int, current: int):
        """Deltas strictly after *start* up to *current*, or ``None``.

        ``None`` whenever completeness cannot be proven: *start* is out
        of the window, the journal's head does not reach *current* (a
        bump bypassed the journal), or *start* is from the future.
        """
        if start > current:
            return None
        if start == current:
            return ()
        if not self._records:
            return None
        if self._records[-1].version != current:
            return None
        if start < self._floor:
            return None
        return tuple(r for r in self._records if r.version > start)


def distinct_image(rows, column: str, guard) -> tuple:
    """``(value, first witness)`` per distinct guard-passing ``tm[column]``
    of *rows*, in row order — the value image of any row sequence."""
    if guard is not None and not len(guard):
        guard = None
    witnesses: dict = {}
    for tm in rows:
        if guard is not None and not guard.matches(tm):
            continue
        value = tm[column]
        if value not in witnesses:
            witnesses[value] = tm
    return tuple(witnesses.items())


class _ImageCache:
    """The version-stamped tables behind :meth:`MasterStore.image`.

    ``tables`` maps ``(attrs, column, guard)`` to ``{key: pairs}``.
    Reads are lock-free; :meth:`sync` and :meth:`put` run under the lock,
    and ``put`` lands only while the stamp still equals the version its
    image was computed at.  A stamp may trail the store (a reader that
    saw an older version re-stamps backwards); that only leaves more
    deltas pending for the next sync, never a stale key unpurged.  The
    counters are plain ints, like ``probe_ref_calls``: under the thread
    fan-out an increment may be lost, never a cached answer corrupted.
    """

    __slots__ = ("version", "tables", "_positions", "_lock",
                 "hits", "misses", "purged", "full_drops")

    def __init__(self, version: int):
        self.version = version
        self.tables: dict = {}
        self._positions: dict = {}  # attrs -> value positions in a row
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.purged = 0
        self.full_drops = 0

    def sync(self, store: "MasterStore", version: int) -> None:
        """Purge what the deltas since the stamp touch; drop all on a gap."""
        with self._lock:
            if self.version == version:
                return
            deltas = store.deltas_since(self.version) if self.tables else ()
            if deltas is None:
                self.tables.clear()
                self.full_drops += 1
            else:
                for delta in deltas:
                    self._purge(store.schema, delta.values)
            self.version = version

    def _purge(self, schema: RelationSchema, values: tuple) -> None:
        # A row projects onto exactly one key per table.
        for (attrs, _column, _guard), table in self.tables.items():
            positions = self._positions.get(attrs)
            if positions is None:
                positions = self._positions[attrs] = [
                    schema.index_of(a) for a in attrs
                ]
            if table.pop(tuple(values[p] for p in positions), None) is not None:
                self.purged += 1

    def put(self, version: int, table_key: tuple, key: tuple,
            pairs: tuple) -> None:
        with self._lock:
            if self.version == version:
                self.tables.setdefault(table_key, {})[key] = pairs

    def info(self) -> dict:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "purged": self.purged,
                "full_drops": self.full_drops,
                "tables": len(self.tables),
                "keys": sum(len(table) for table in self.tables.values()),
            }


class MasterStore(ABC):
    """Abstract master-data backend.

    The read API mirrors how the repair layer touches ``Dm``: keyed probes
    (:meth:`probe`, :meth:`contains_key`), a rule's compiled value image
    (:meth:`image`, the only way the chase, TransFix and Suggest learn
    correction values), full iteration (region search and witness
    sweeps), size, and per-column active values.  The write API
    (:meth:`insert` / :meth:`delete` / :meth:`update`) bumps
    :attr:`version`.  A few ``Relation``-compatible aliases (``lookup``,
    ``scan_lookup``, ``rows``) keep older call sites and external code
    working unchanged when handed a store.
    """

    # -- read API ------------------------------------------------------------

    @property
    @abstractmethod
    def schema(self) -> RelationSchema:
        """The master schema ``Rm``."""

    @property
    @abstractmethod
    def version(self) -> int:
        """Monotonic counter; moves iff the master data changed."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of master tuples."""

    @abstractmethod
    def __iter__(self) -> Iterator[Row]:
        """Iterate master tuples in insertion order."""

    def iter_from(self, start: int) -> Iterator[Row]:
        """Insertion-order iteration beginning at position *start*.

        The paging primitive behind the remote ``/rows`` endpoint: a
        server answering windowed row requests calls this per window, so
        backends that can *seek* (sqlite, via one ``OFFSET`` query)
        override it to keep paged iteration O(n) overall instead of
        re-iterating and discarding ``start`` rows per window.  The
        default iterates and discards.
        """
        return itertools.islice(iter(self), start, None)

    @abstractmethod
    def probe(self, attrs: Iterable, key) -> tuple:
        """Master tuples ``tm`` with ``tm[attrs] == key`` (Sect. 5.1).

        The hot path of every repair probe.  Returns an immutable tuple:
        callers can never corrupt an internal bucket or cache entry by
        mutating the result (backends used to hand out aliases of their
        cache lines under a doc-only "read-only" contract; now the type
        system enforces it).  Hot paths that want to skip even the
        cache-miss copy can use :meth:`probe_ref`.
        """

    def probe_ref(self, attrs: Iterable, key):
        """No-copy variant of :meth:`probe` for read-only hot paths.

        Mirrors the ``HashIndex.get`` / ``get_ref`` split: the result may
        alias internal state (a hash bucket, a cache entry) and MUST NOT
        be mutated.  The default simply forwards to :meth:`probe` (already
        alias-free); backends override when they have a cheaper aliasing
        path.
        """
        return self.probe(attrs, key)

    def probe_many(self, attrs: Iterable, keys: Iterable) -> dict:
        """Batched probe: ``{tuple(key): self.probe(attrs, key)}`` per key.

        Backends with per-probe round-trip cost (sqlite, and any future
        remote store) override this with a single batched plan; the
        default loops over :meth:`probe`.  Duplicate keys collapse onto
        one entry.  The batch engine's process-pool chunk warm-up calls
        this with every rule key of a chunk to amortize round-trips.
        """
        attrs = tuple(attrs)
        out: dict = {}
        for key in keys:
            key = tuple(key)
            if len(key) != len(attrs):
                raise ValueError(
                    f"probe key {key} does not match attribute list {attrs}"
                )
            if key not in out:
                out[key] = self.probe(attrs, key)
        return out

    @abstractmethod
    def ensure_index(self, attrs: Iterable) -> None:
        """Force the probe index over *attrs* so later probes are O(1)."""

    @abstractmethod
    def active_values(self, attr: str) -> set:
        """The set of values appearing in master column *attr*."""

    def contains_key(self, attrs: Iterable, key) -> bool:
        """Whether any master tuple matches ``tm[attrs] == key``."""
        return bool(self.probe_ref(attrs, key))

    def scan_probe(self, attrs: Iterable, key) -> tuple:
        """Index-free probe (the ablation A2 baseline)."""
        attrs = tuple(attrs)
        key = tuple(key)
        return tuple(tm for tm in self if tm[attrs] == key)

    # -- compiled rule images ------------------------------------------------

    def image(self, attrs: Iterable, key, column: str, guard=None) -> tuple:
        """A rule's value image at one key: the distinct correction values.

        Returns ``(value, witness)`` pairs: the distinct ``tm[column]``
        values among the rows with ``tm[attrs] == key`` that pass *guard*
        (a rule's master guard; ``None`` passes every row), in probe
        order, each value with its first matching row as witness.  For a
        rule φ this is ``V_φ(t[X])`` — everything the chase, TransFix and
        Suggest need from the master: φ applies iff the image is
        non-empty, and its matches conflict iff it holds two values.

        One implementation over :meth:`probe_ref` serves every backend.
        Images are cached per ``(attrs, column, guard)`` table and filled
        lazily, one ``probe_ref`` per key; a key is cached only when its
        probe returned rows, so no table holds more keys than the master
        has rows.  The cache is stamped with :attr:`version`: when the
        version moves, each :meth:`deltas_since` record purges the one
        key it projects onto per table, and a ``None`` answer drops every
        table.  Writes are stamp-checked under a lock, so an image
        computed against an older version never lands after a purge.
        """
        attrs = tuple(attrs)
        key = tuple(key)
        version = self._image_version()
        cache = self.__dict__.get("_images")
        if cache is None:
            cache = self.__dict__.setdefault("_images", _ImageCache(version))
        elif cache.version != version:
            cache.sync(self, version)
        table_key = (attrs, column, guard)
        table = cache.tables.get(table_key)
        if table is not None:
            pairs = table.get(key)
            if pairs is not None:
                cache.hits += 1
                return pairs
        cache.misses += 1
        rows = self.probe_ref(attrs, key)
        pairs = distinct_image(rows, column, guard)
        if rows:
            cache.put(version, table_key, key, pairs)
        return pairs

    def _image_version(self) -> int:
        """The stamp :meth:`image` checks its cache against.  Backends
        whose :attr:`version` read may cost a round-trip return their last
        observed version instead."""
        return self.version

    def image_cache_info(self) -> dict:
        """Accounting of the :meth:`image` cache, kept apart from
        ``probe_cache_info`` so the probe LRU's counters keep their
        meaning: ``hits``/``misses`` per call, ``purged`` keys dropped by
        journal deltas, ``full_drops`` of a non-empty cache on a journal
        gap, and the current ``tables``/``keys``."""
        cache = self.__dict__.get("_images")
        return (cache if cache is not None else _ImageCache(0)).info()

    # -- process-boundary protocol -------------------------------------------

    #: Whether worker processes reattached from a handle observe this
    #: store's mutations through shared storage (a database file).  False
    #: means a resync must ship the rows themselves (see the batch
    #: engine's per-chunk snapshot protocol).
    shares_storage_across_processes = False

    #: Whether :meth:`probe_many` is cheaper than a probe loop here (drives
    #: the batch engine's chunk warm-up; pure-RAM backends gain nothing).
    supports_batched_probes = False

    def detach(self):
        """A picklable handle that rehydrates this store in another process.

        Returns an object with a ``reattach() -> MasterStore`` method and a
        ``version`` attribute equal to this store's version at detach time
        (the reattached store starts at that stamp, so version-stamped
        caches built against it compare correctly with the parent's
        version stream).  Backends that cannot cross a process boundary
        raise ``ValueError`` with a remedy.
        """
        raise ValueError(
            f"{type(self).__name__} does not support crossing a "
            f"fork/spawn boundary (no detach() implementation)"
        )

    # -- delta protocol ------------------------------------------------------

    def deltas_since(self, version: int):
        """Mutations strictly after *version*, or ``None`` if unknowable.

        Returns a tuple of :class:`StoreDelta` records covering every
        version bump in ``(version, self.version]`` — possibly empty
        when the stamps already match — or ``None`` when the backend
        cannot prove the list is complete (stamp out of the journal
        window, version bumps that bypassed the journal, or no journal
        at all).  ``None`` instructs consumers to fall back to a full
        cache drop, so correctness never depends on the journal.
        """
        return None

    def adopt_deltas(self, deltas, version: int) -> bool:
        """Apply a parent's delta list and land on its *version* stamp.

        The incremental counterpart of the snapshot resync protocol:
        returns True iff the store's contents now equal the parent's at
        *version*.  False (the default) means the deltas could not be
        applied cleanly here; the caller must fall back to the full
        resync path (``reset_rows`` / ``sync_version``).
        """
        return False

    # -- write API -----------------------------------------------------------

    @abstractmethod
    def insert(self, row) -> None:
        """Append a master tuple; bumps :attr:`version`."""

    @abstractmethod
    def delete(self, row) -> bool:
        """Remove one master tuple equal to *row*; True iff removed.

        A successful delete bumps :attr:`version`; a miss does not.
        """

    def update(self, old, new) -> bool:
        """Replace *old* with *new* (delete-then-insert in every backend).

        Returns False (and mutates nothing) when *old* is absent.  The
        replacement lands at iteration end in all backends, which keeps
        backend outputs bit-identical after updates.
        """
        if not self.delete(old):
            return False
        self.insert(new)
        return True

    # -- Relation-compatible aliases -----------------------------------------

    def lookup(self, attrs: Iterable, key) -> tuple:
        """Alias of :meth:`probe` (``Relation``-compatible spelling)."""
        return self.probe(attrs, key)

    def scan_lookup(self, attrs: Iterable, key) -> tuple:
        """Alias of :meth:`scan_probe` (``Relation``-compatible spelling)."""
        return self.scan_probe(attrs, key)

    @property
    def rows(self) -> list:
        """A materialized copy of all master tuples (external callers only)."""
        return list(self)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.schema.name!r}, {len(self)} rows, "
            f"version={self.version})"
        )


class InMemoryStore(MasterStore):
    """The paper's setting: ``Dm`` in RAM behind cached hash indexes.

    A thin adapter over :class:`~repro.engine.relation.Relation`; probes
    reuse the relation's per-attribute-list :class:`HashIndex` cache, and
    ``version`` is the relation's mutation counter, so mutations made
    directly on the wrapped relation are noticed too.
    """

    def __init__(
        self, relation: Relation, delta_window: int = DEFAULT_DELTA_WINDOW
    ):
        self._relation = relation
        self._journal = _DeltaJournal(delta_window)
        self._journal.reset(relation.mutation_count)
        self.probe_ref_calls = 0

    @classmethod
    def from_rows(
        cls,
        schema: RelationSchema,
        rows: Iterable = (),
        delta_window: int = DEFAULT_DELTA_WINDOW,
    ) -> "InMemoryStore":
        return cls(Relation(schema, rows), delta_window=delta_window)

    @property
    def relation(self) -> Relation:
        """The wrapped relation (escape hatch for algebra operations)."""
        return self._relation

    @property
    def schema(self) -> RelationSchema:
        return self._relation.schema

    @property
    def version(self) -> int:
        return self._relation.mutation_count

    def __len__(self) -> int:
        return len(self._relation)

    def __iter__(self) -> Iterator[Row]:
        return self._relation.iter_rows()

    def iter_from(self, start: int) -> Iterator[Row]:
        # O(1) seek into the backing list (the default would re-iterate
        # and discard `start` rows per /rows window when this store backs
        # a MasterServer, turning paged iteration quadratic).
        relation = self._relation
        index = max(start, 0)
        while index < len(relation):
            yield relation.row_at(index)
            index += 1

    def probe(self, attrs: Iterable, key) -> tuple:
        # The relation's lookup aliases the live index bucket (it shrinks
        # under deletes and grows under inserts); the public probe hands
        # out an immutable snapshot instead.  Only this copying entry point
        # carries the probe span: the chase/TransFix hot loops go through
        # probe_ref, which must stay bare.
        with obs.time_block(
            "repro_store_probe_seconds", backend="memory", op="probe"
        ):
            return tuple(self.probe_ref(attrs, key))

    def probe_ref(self, attrs: Iterable, key):
        # A plain-int counter is the only telemetry this path can afford
        # (an obs span per call would dominate the chase hot loop).
        self.probe_ref_calls += 1
        attrs = tuple(attrs)
        key = tuple(key)
        if len(attrs) != len(key):
            raise ValueError(
                f"probe key {key} does not match attribute list {attrs}"
            )
        return self._relation.lookup(attrs, key)

    def ensure_index(self, attrs: Iterable) -> None:
        self._relation.index_on(attrs)

    def active_values(self, attr: str) -> set:
        return self._relation.active_values(attr)

    def scan_probe(self, attrs: Iterable, key) -> tuple:
        return tuple(self._relation.scan_lookup(attrs, key))

    def insert(self, row) -> None:
        self._relation.insert(row)
        # The journal's gap detection handles mutations made directly on
        # the wrapped relation (they bump the counter without a record):
        # the next deltas_since over such a gap degrades to None.
        row = self._relation.row_at(len(self._relation) - 1)
        self._journal.record(
            self._relation.mutation_count, "insert", tuple(row.values)
        )

    def delete(self, row) -> bool:
        values = tuple(
            row.values if isinstance(row, Row) else Row(self.schema, row).values
        )
        if not self._relation.delete(row):
            return False
        self._journal.record(
            self._relation.mutation_count, "delete", values
        )
        return True

    # -- delta protocol ------------------------------------------------------

    def deltas_since(self, version: int):
        return self._journal.since(version, self._relation.mutation_count)

    def adopt_deltas(self, deltas, version: int) -> bool:
        """Replay a parent's delta list onto this snapshot copy.

        Validates the list is exactly the contiguous range from this
        store's stamp to *version* before touching anything; a delete
        that misses mid-replay returns False (contents diverged — the
        caller's snapshot fallback replaces everything, so a partial
        replay is harmless).
        """
        if deltas is None:
            return False
        current = self._relation.mutation_count
        deltas = tuple(deltas)
        if len(deltas) != version - current:
            return False
        for offset, delta in enumerate(deltas):
            if delta.version != current + 1 + offset:
                return False
        for delta in deltas:
            row = Row(self.schema, delta.values)
            if delta.op == "insert":
                self.insert(row)
            elif delta.op == "delete":
                if not self.delete(row):
                    return False
            else:
                return False
        return self._relation.mutation_count == version

    # -- process-boundary protocol -------------------------------------------

    def detach(self) -> "MemoryStoreHandle":
        """Snapshot (schema, rows, version) into a picklable handle.

        The snapshot is by value: a worker's reattached copy does NOT see
        later parent mutations — after a version move the batch engine
        ships a fresh snapshot with every dispatched chunk until all
        workers have acknowledged the new stamp (each worker applies it
        at most once; see ``BatchRepairEngine._task_for``).
        """
        return MemoryStoreHandle(
            schema=self.schema,
            rows=tuple(self._relation.iter_rows()),
            version=self.version,
        )

    def reset_rows(self, rows: Iterable, version: int) -> None:
        """Replace the master contents and jump to the parent's *version*.

        The worker-side half of the snapshot resync protocol: indexes and
        the store wrapper survive (rebuilt lazily), and the version stamp
        is taken verbatim from the parent so every derived cache stamped
        with an older version invalidates on the next compare.

        The journal restarts at *version*: the replacement is a bulk
        mutation with no per-row deltas, so consumers stamped earlier
        must full-drop, while deltas recorded after this point replay
        normally (the reattach + adopt_deltas path relies on that).
        """
        self._relation.replace_all(rows, mutation_count=version)
        self._journal.reset(version)


class _ProbeLRU:
    """Bounded LRU of ``(attrs, key) -> immutable probe tuple`` lines.

    Shared by every backend fronting a slow medium (sqlite, HTTP): one
    implementation of the hit/miss accounting, recency bumping and
    eviction, so cache fixes cannot silently diverge per backend.  Not
    itself thread-safe — callers hold their own lock around ``get``/
    ``put``, exactly as they must around the surrounding bookkeeping.
    """

    __slots__ = ("_data", "maxsize", "hits", "misses", "evictions", "purged")

    def __init__(self, maxsize: int):
        if maxsize < 0:
            raise ValueError(f"probe_cache_size must be >= 0, got {maxsize}")
        self._data: OrderedDict = OrderedDict()
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.evictions = 0  # capacity evictions (LRU tail dropped)
        self.purged = 0     # delta-targeted removals (purge_row)

    def get(self, key):
        """The cached line (bumped most-recent) or None; counts hit/miss."""
        entry = self._data.get(key)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        self._data.move_to_end(key)
        return entry

    def put(self, key, value) -> None:
        if not self.maxsize:
            return
        self._data[key] = value
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        self._data.clear()

    def pop(self, key) -> None:
        """Drop one line without touching the hit/miss accounting."""
        if self._data.pop(key, None) is not None:
            self.purged += 1

    def purge_row(self, schema, values) -> int:
        """Evict exactly the lines a mutated master row can affect.

        A probe ``(attrs, key)`` changes iff the row projects onto the
        key: ``row[attrs] == key``.  Lines keyed on attribute lists the
        row cannot project onto (unstorable values never enter the
        cache, so projection always succeeds) stay valid — this is the
        per-key purge that replaces a full ``clear()`` on the delta
        path.  Returns the number of lines dropped.
        """
        positions: dict = {}
        doomed = []
        for attrs, key in self._data:
            pos = positions.get(attrs)
            if pos is None:
                pos = positions[attrs] = [schema.index_of(a) for a in attrs]
            if tuple(values[p] for p in pos) == key:
                doomed.append((attrs, key))
        for line in doomed:
            del self._data[line]
        self.purged += len(doomed)
        return len(doomed)

    def __len__(self) -> int:
        return len(self._data)

    def info(self) -> dict:
        """Accounting snapshot (the benchmark layer's shape)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "size": len(self._data),
            "maxsize": self.maxsize,
            "evictions": self.evictions,
            "purged": self.purged,
        }


# -- sqlite value codec --------------------------------------------------------
#
# The codec must reproduce Python's equality semantics, because that is what
# the in-memory backend's dict-keyed hash buckets match by:
#
# * cross-type string/number matches must FAIL (the csv loaders deliberately
#   coerce int-domain cells so 87 != "87") — hence tagged TEXT cells rather
#   than sqlite's own affinity rules;
# * cross-type numeric matches must SUCCEED (2 == 2.0 == True in every dict
#   lookup) — hence bools and integral floats collapse onto the integer
#   encoding.  Decoding such a value yields the int, which is ``==`` (and
#   hashes identically) to whatever numeric spelling was stored, keeping
#   probe/chase/suggest behaviour bit-identical across backends.

_TAG_NULL = "\x00N"
_TAG_UNKNOWN = "\x00U"


def _encode(value) -> str:
    if value is NULL:
        return _TAG_NULL
    if value is UNKNOWN:
        return _TAG_UNKNOWN
    if isinstance(value, (bool, int)):
        return f"i{int(value)}"
    if isinstance(value, float):
        if value.is_integer():
            return f"i{int(value)}"
        return f"f{value!r}"
    if isinstance(value, str):
        return "s" + value
    raise TypeError(
        f"SqliteStore cannot store a {type(value).__name__} value "
        f"({value!r}); supported: str, int, float, bool, NULL, UNKNOWN"
    )


def _decode(cell: str):
    if cell == _TAG_NULL:
        return NULL
    if cell == _TAG_UNKNOWN:
        return UNKNOWN
    tag, body = cell[0], cell[1:]
    if tag == "s":
        return body
    if tag == "i":
        return int(body)
    if tag == "f":
        return float(body)
    raise ValueError(f"corrupt SqliteStore cell {cell!r}")


class SqliteStore(MasterStore):
    """Out-of-core master data behind indexed sqlite tables.

    Rows live in one table (``rid`` preserving insertion order, one tagged
    TEXT column per attribute).  :meth:`probe` creates the matching sqlite
    index on first use and fronts it with a bounded LRU cache keyed on
    ``(attrs, key)``; every mutation bumps :attr:`version` and drops the
    probe / active-value caches, so a stale hit can never survive a master
    update.  The connection is shared across threads behind a lock (the
    batch engine's thread fan-out probes concurrently).
    """

    _ITER_BATCH = 1024

    def __init__(
        self,
        schema: RelationSchema,
        rows: Iterable = (),
        path=None,
        probe_cache_size: int = 4096,
        fresh: bool = False,
        delta_window: int = DEFAULT_DELTA_WINDOW,
    ):
        """Open (or create) the store and append *rows*.

        An existing database at *path* keeps its rows — reopening a
        previously-loaded master is the out-of-core workflow — so loaders
        that treat their row source as the full truth (e.g. the CLI
        re-streaming a master CSV into the same file) must pass
        ``fresh=True`` to clear the table first instead of duplicating it.
        """
        self._probe_cache = _ProbeLRU(probe_cache_size)
        self._schema = schema
        self._path = None if path is None else str(path)
        self._columns = [f"c{i}" for i in range(len(schema))]
        self._closed = False
        self._lock = threading.RLock()
        # Autocommit: every mutation is durable immediately (a closed
        # on-disk store reopens with its rows), matching the one-statement
        # granularity of the write API.
        self._db = sqlite3.connect(
            ":memory:" if path is None else str(path),
            check_same_thread=False,
            isolation_level=None,
        )
        column_defs = ", ".join(f"{c} TEXT NOT NULL" for c in self._columns)
        self._db.execute(
            f"CREATE TABLE IF NOT EXISTS master "
            f"(rid INTEGER PRIMARY KEY AUTOINCREMENT, {column_defs})"
        )
        if fresh:
            self._db.execute("DELETE FROM master")
        self._count = self._db.execute(
            "SELECT COUNT(*) FROM master"
        ).fetchone()[0]
        self._version = 0
        self._indexed: set = set()
        self._probe_plans: dict = {}  # attrs tuple -> prepared SELECT
        self._active_cache: dict = {}
        self._journal = _DeltaJournal(delta_window)
        self.probe_ref_calls = 0
        self._insert_many(rows)

    @classmethod
    def from_relation(cls, relation: Relation, path=None, **kwargs) -> "SqliteStore":
        """Load an in-memory relation into a (possibly on-disk) sqlite store."""
        return cls(relation.schema, relation.iter_rows(), path=path, **kwargs)

    # -- introspection -------------------------------------------------------

    def _guard(self) -> None:
        """Typed failure for use-after-close (sqlite's own is a bare
        ``ProgrammingError`` with no remedy)."""
        if self._closed:
            raise StoreDetachedError(
                f"this SqliteStore ({self._path or ':memory:'}) has been "
                f"closed; re-open it with SqliteStore(schema, path=...) "
                f"or reattach() a handle detached from a live store"
            )

    @property
    def schema(self) -> RelationSchema:
        return self._schema

    @property
    def version(self) -> int:
        return self._version

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[Row]:
        # Window over rid rather than holding one cursor open: robust to
        # interleaved mutations and never materializes the whole table.
        self._guard()
        return self._iter_after_rid(-1)

    def iter_from(self, start: int) -> Iterator[Row]:
        """Seek with one ``OFFSET`` query, then window by rid as usual —
        the remote ``/rows`` pager stays O(n) over a full iteration."""
        self._guard()
        if start <= 0:
            return self._iter_after_rid(-1)
        with self._lock:
            record = self._db.execute(
                "SELECT rid FROM master ORDER BY rid LIMIT 1 OFFSET ?",
                (start,),
            ).fetchone()
        if record is None:
            return iter(())
        return self._iter_after_rid(record[0] - 1)

    def _iter_after_rid(self, last: int) -> Iterator[Row]:
        schema = self._schema
        select = f"SELECT rid, {', '.join(self._columns)} FROM master"
        while True:
            with self._lock:
                batch = self._db.execute(
                    f"{select} WHERE rid > ? ORDER BY rid LIMIT ?",
                    (last, self._ITER_BATCH),
                ).fetchall()
            if not batch:
                return
            last = batch[-1][0]
            for record in batch:
                yield Row(schema, [_decode(cell) for cell in record[1:]])

    # -- probes --------------------------------------------------------------

    def _column_of(self, attr: str) -> str:
        return self._columns[self._schema.index_of(attr)]

    def ensure_index(self, attrs: Iterable) -> None:
        # Deduplicate (rule match lists may repeat one master column); the
        # WHERE clause still constrains every position of the probe key.
        self._guard()
        columns = list(dict.fromkeys(self._column_of(a) for a in attrs))
        name = "idx_" + "_".join(columns)
        if name in self._indexed:
            return
        with self._lock:
            self._db.execute(
                f"CREATE INDEX IF NOT EXISTS {name} ON master "
                f"({', '.join(columns)})"
            )
            self._indexed.add(name)

    def probe(self, attrs: Iterable, key) -> tuple:
        # The span covers cache hits and misses alike: the hit/miss mix is
        # exactly what the latency distribution is supposed to show.
        with obs.time_block(
            "repro_store_probe_seconds", backend="sqlite", op="probe"
        ):
            return self._probe_impl(attrs, key)

    def probe_ref(self, attrs: Iterable, key):
        # Same result as probe (already alias-free); the override exists
        # only to count the hot path, which cannot afford an obs span.
        self.probe_ref_calls += 1
        return self.probe(attrs, key)

    def _probe_impl(self, attrs: Iterable, key) -> tuple:
        self._guard()
        attrs = tuple(attrs)
        key = tuple(key)
        if len(attrs) != len(key):
            raise ValueError(
                f"probe key {key} does not match attribute list {attrs}"
            )
        cache_key = (attrs, key)
        with self._lock:
            cached = self._probe_cache.get(cache_key)
            if cached is not None:
                # Cache lines are tuples, so handing out the cached object
                # itself is safe: no caller can corrupt the cache by
                # mutating a probe result (they used to be shared lists).
                return cached
        select = self._probe_plans.get(attrs)
        if select is None:
            self.ensure_index(attrs)
            where = " AND ".join(f"{self._column_of(a)} = ?" for a in attrs)
            select = (
                f"SELECT {', '.join(self._columns)} FROM master "
                f"WHERE {where} ORDER BY rid"
            )
            self._probe_plans[attrs] = select
        try:
            encoded = [_encode(v) for v in key]
        except TypeError:
            return ()  # unstorable value (e.g. FreshValue) matches nothing
        with self._lock:
            records = self._db.execute(select, encoded).fetchall()
            result = tuple(
                Row(self._schema, [_decode(cell) for cell in record])
                for record in records
            )
            self._probe_cache.put(cache_key, result)
        return result

    #: How many probe keys one batched ``IN``-clause statement may carry;
    #: bounded so ``len(attrs) * _PROBE_BATCH`` stays far below sqlite's
    #: host-parameter limit (999 in older builds).
    _PROBE_BATCH = 200

    def probe_many(self, attrs: Iterable, keys: Iterable) -> dict:
        """Batched probe with one ``IN``-clause round-trip per key block.

        Semantically identical to a :meth:`probe` loop (results land in the
        LRU cache too, which is what the batch engine's chunk warm-up is
        after), but misses are fetched with
        ``WHERE (c1, ..., ck) IN (VALUES ...)`` over blocks of keys instead
        of one SELECT per key.
        """
        with obs.time_block(
            "repro_store_probe_seconds", backend="sqlite", op="many"
        ):
            return self._probe_many_impl(attrs, keys)

    def _probe_many_impl(self, attrs: Iterable, keys: Iterable) -> dict:
        self._guard()
        attrs = tuple(attrs)
        out: dict = {}
        pending: list = []  # (original key, encoded key) cache misses
        with self._lock:
            for key in keys:
                key = tuple(key)
                if len(attrs) != len(key):
                    raise ValueError(
                        f"probe key {key} does not match attribute list "
                        f"{attrs}"
                    )
                if key in out:
                    continue
                cached = self._probe_cache.get((attrs, key))
                if cached is not None:
                    out[key] = cached
                    continue
                try:
                    out[key] = ()  # filled below when rows come back
                    pending.append((key, tuple(_encode(v) for v in key)))
                except TypeError:
                    pass  # unstorable key matches nothing; stays ()
        if not pending:
            return out
        self.ensure_index(attrs)
        columns = [self._column_of(a) for a in attrs]
        key_expr = (
            f"({', '.join(columns)})" if len(columns) > 1 else columns[0]
        )
        placeholder = (
            "(" + ", ".join("?" for _ in columns) + ")"
            if len(columns) > 1
            else "?"
        )
        # Group returned records by their encoded key positions; a key that
        # repeats one column with two different values can never come back
        # (the IN row-value constrains every position), so positional
        # grouping is exact even for repeated attrs.
        positions = [self._schema.index_of(a) for a in attrs]
        with self._lock:
            for start in range(0, len(pending), self._PROBE_BATCH):
                block = pending[start:start + self._PROBE_BATCH]
                select = (
                    f"SELECT {', '.join(self._columns)} FROM master "
                    f"WHERE {key_expr} IN "
                    f"({', '.join(placeholder for _ in block)}) "
                    f"ORDER BY rid"
                )
                params = [cell for _, encoded in block for cell in encoded]
                grouped: dict = {}  # encoded key -> list of Rows
                for record in self._db.execute(select, params).fetchall():
                    enc = tuple(record[p] for p in positions)
                    grouped.setdefault(enc, []).append(
                        Row(self._schema, [_decode(c) for c in record])
                    )
                for key, encoded in block:
                    rows = tuple(grouped.get(encoded, ()))
                    out[key] = rows
                    self._probe_cache.put((attrs, key), rows)
        return out

    def active_values(self, attr: str) -> set:
        self._guard()
        with self._lock:
            cached = self._active_cache.get(attr)
            if cached is None:
                records = self._db.execute(
                    f"SELECT DISTINCT {self._column_of(attr)} FROM master"
                ).fetchall()
                cached = {_decode(record[0]) for record in records}
                self._active_cache[attr] = cached
        # Copy: the in-memory backend hands out a fresh set per call, and a
        # caller mutating the cached set must not poison later calls.
        return set(cached)

    def probe_cache_info(self) -> dict:
        """LRU accounting for the benchmark layer."""
        with self._lock:
            info = self._probe_cache.info()
            info["probe_ref_calls"] = self.probe_ref_calls
            return info

    # -- process-boundary protocol -------------------------------------------

    supports_batched_probes = True

    @property
    def shares_storage_across_processes(self) -> bool:
        return self._path is not None

    def detach(self) -> "SqliteStoreHandle":
        """A picklable handle re-opening this database in another process.

        Only file-backed stores can cross the boundary: a private
        ``:memory:`` database exists in exactly one connection, so there is
        nothing a worker could re-open.
        """
        self._guard()
        if self._path is None:
            raise ValueError(
                "an in-memory SqliteStore cannot cross a fork/spawn "
                "boundary: give the store a database file (path=... / "
                "--sqlite-path) so workers can re-open it"
            )
        return SqliteStoreHandle(
            schema=self._schema,
            path=self._path,
            probe_cache_size=self._probe_cache.maxsize,
            version=self._version,
        )

    def sync_version(self, version: int, deltas=None) -> None:
        """Adopt the parent's *version* after it mutated the shared file.

        The worker-side half of the resync protocol for file-backed
        stores: the data itself arrives through the database file (every
        parent mutation is autocommitted), so the worker only needs to
        refresh its connection-local caches.  When the parent also ships
        the *deltas* covering the version gap, the refresh is surgical —
        per-row probe-cache purges and active-set patches instead of a
        wholesale drop + recount; otherwise (or when the delta list does
        not bridge the gap) the full drop runs as before.  A no-op when
        the stamp already matches.
        """
        self._guard()
        with self._lock:
            if version == self._version:
                return
            if deltas is not None and self._sync_deltas(deltas, version):
                return
            self._version = version
            self._probe_cache.clear()
            self._active_cache.clear()
            self._journal.reset(version)
            self._count = self._db.execute(
                "SELECT COUNT(*) FROM master"
            ).fetchone()[0]

    def _sync_deltas(self, deltas, version: int) -> bool:
        """Apply a parent's delta list under the lock; False on any gap."""
        pending = [d for d in deltas if d.version > self._version]
        if len(pending) != version - self._version:
            return False
        for offset, delta in enumerate(pending):
            if delta.version != self._version + 1 + offset:
                return False
            if delta.op not in ("insert", "delete"):
                return False
        for delta in pending:
            self._count += 1 if delta.op == "insert" else -1
            self._bump_delta(delta.op, delta.values)
        return True

    # -- delta protocol ------------------------------------------------------

    def deltas_since(self, version: int):
        with self._lock:
            return self._journal.since(version, self._version)

    def adopt_deltas(self, deltas, version: int) -> bool:
        """Resync to the parent's *version*, surgically when possible.

        Always succeeds for this backend: the row data lives in the
        shared database file, so even an unusable delta list just means
        the full-drop path of :meth:`sync_version` runs instead.
        """
        self.sync_version(version, deltas)
        return True

    # -- mutation ------------------------------------------------------------

    def _bump_bulk(self) -> None:
        """Version bump for a bulk mutation: no per-row deltas exist, so
        every connection-local cache drops and the journal restarts."""
        self._version += 1
        self._probe_cache.clear()
        self._active_cache.clear()
        self._journal.reset(self._version)

    def _bump_delta(self, op: str, values: tuple) -> None:
        """Per-key version bump: journal the delta and purge exactly the
        probe-cache lines the mutated row projects onto, keeping the rest
        of the LRU warm across the mutation."""
        self._version += 1
        self._journal.record(self._version, op, values)
        self._probe_cache.purge_row(self._schema, values)
        if op == "insert":
            # An insert can only *add* to a column's active set; patch the
            # cached sets in place (active_values hands out copies, so no
            # caller aliases them).
            for attr, cached in self._active_cache.items():
                cached.add(values[self._schema.index_of(attr)])
        else:
            # Whether a deleted value survives in other rows needs a
            # recount; recompute lazily.
            self._active_cache.clear()

    def _coerce(self, row) -> Row:
        if not isinstance(row, Row):
            return Row(self._schema, row)
        if row.schema.attributes != self._schema.attributes:
            raise ValueError(
                f"row schema {row.schema.name!r} does not match store "
                f"schema {self._schema.name!r}"
            )
        return row

    def _insert_sql(self) -> str:
        placeholders = ", ".join("?" for _ in self._columns)
        return (
            f"INSERT INTO master ({', '.join(self._columns)}) "
            f"VALUES ({placeholders})"
        )

    def _insert_many(self, rows: Iterable, chunk: int = 10_000) -> None:
        """Bulk load inside explicit transactions.

        Autocommit pays one journal sync per row, which would turn a large
        on-disk load into minutes; batching commits keeps the streaming
        CSV path (the whole point of the out-of-core backend) fast.  One
        version bump at the end — the load is a single logical mutation.
        """
        sql = self._insert_sql()
        inserted = 0
        rows = iter(rows)
        with self._lock:
            while True:
                batch = [
                    [_encode(v) for v in self._coerce(row).values]
                    for row in itertools.islice(rows, chunk)
                ]
                if not batch:
                    break
                self._db.execute("BEGIN")
                try:
                    self._db.executemany(sql, batch)
                    self._db.execute("COMMIT")
                except BaseException:
                    self._db.execute("ROLLBACK")
                    raise
                inserted += len(batch)
            if inserted:
                self._count += inserted
                self._bump_bulk()

    def insert(self, row) -> None:
        self._guard()
        row = self._coerce(row)
        encoded = [_encode(v) for v in row.values]
        with self._lock:
            self._db.execute(self._insert_sql(), encoded)
            self._count += 1
            # Journal the codec-canonical values (what probes/iteration
            # decode back), not the caller's spelling of them.
            self._bump_delta("insert", tuple(_decode(c) for c in encoded))

    def delete(self, row) -> bool:
        self._guard()
        row = self._coerce(row)
        try:
            encoded = [_encode(v) for v in row.values]
        except TypeError:
            return False
        where = " AND ".join(f"{c} = ?" for c in self._columns)
        with self._lock:
            record = self._db.execute(
                f"SELECT rid FROM master WHERE {where} ORDER BY rid LIMIT 1",
                encoded,
            ).fetchone()
            if record is None:
                return False
            self._db.execute("DELETE FROM master WHERE rid = ?", record)
            self._count -= 1
            self._bump_delta("delete", tuple(_decode(c) for c in encoded))
        return True

    def close(self) -> None:
        """Release the connection; later operations raise
        :class:`StoreDetachedError` (with a remedy) instead of sqlite's
        bare ``ProgrammingError``."""
        with self._lock:
            self._closed = True
            self._db.close()


# -- picklable store handles ---------------------------------------------------


@dataclass(frozen=True)
class MemoryStoreHandle:
    """By-value snapshot of an :class:`InMemoryStore` for worker rehydration."""

    schema: RelationSchema
    rows: tuple
    version: int

    def reattach(self) -> InMemoryStore:
        """Rebuild the store in this process, stamped at the parent version.

        ``replace_all`` (rather than per-row inserts) so the relation's
        mutation counter lands exactly on the parent's stamp and
        version-stamped caches compare against the parent's version
        stream, not the reload's.
        """
        store = InMemoryStore.from_rows(self.schema)
        store.reset_rows(self.rows, self.version)
        return store


@dataclass(frozen=True)
class SqliteStoreHandle:
    """Connection-free reference to a file-backed :class:`SqliteStore`."""

    schema: RelationSchema
    path: str
    probe_cache_size: int
    version: int

    def reattach(self) -> SqliteStore:
        """Open a fresh connection to the shared database file.

        The reattached store starts at the parent's version stamp;
        :meth:`SqliteStore.sync_version` moves it when the parent mutates
        the file mid-batch.  A handle whose database file has vanished
        raises :class:`StoreUnavailableError` — opening the path anyway
        would silently hand the worker an *empty* master and turn every
        certain fix into a user question.
        """
        if not os.path.exists(self.path):
            raise StoreUnavailableError(
                f"cannot reattach SqliteStore: database file {self.path!r} "
                f"no longer exists (deleted after detach?); re-create the "
                f"master with SqliteStore(schema, rows, path=...) and "
                f"detach() a fresh handle"
            )
        store = SqliteStore(
            self.schema, path=self.path,
            probe_cache_size=self.probe_cache_size,
        )
        store._version = self.version
        store._journal.reset(self.version)
        return store


def as_master_store(master) -> MasterStore:
    """Adapt *master* to the :class:`MasterStore` interface.

    Stores pass through unchanged.  A :class:`Relation` is wrapped in an
    ``InMemoryStore`` that is cached on the relation, so repeated
    adaptation is O(1) and every consumer shares one version stream.
    """
    if isinstance(master, MasterStore):
        return master
    if isinstance(master, Relation):
        wrapper = master._store_wrapper
        if wrapper is None:
            wrapper = InMemoryStore(master)
            master._store_wrapper = wrapper
        return wrapper
    raise TypeError(
        f"expected a MasterStore or Relation, got {type(master).__name__}"
    )
