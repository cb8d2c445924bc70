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
``reattach()`` re-opens the backend there at the parent's version stamp.
A worker catches up with a parent that mutated the master through one
call, :meth:`MasterStore.catch_up`: it replays the parent's journal
deltas when they bridge the gap, else reloads a row snapshot (in-memory
masters), else just adopts the stamp (sqlite files and remote servers,
whose rows the worker already shares).

Delta protocol: each backend keeps a bounded **delta journal** — the last
``DEFAULT_DELTA_WINDOW`` mutations as :class:`StoreDelta` records
``(version, op, values)``, where ``op`` is ``"insert"`` or ``"delete"``
and an ``update`` appears as its delete+insert pair over two version
bumps.  :meth:`MasterStore.deltas_since` returns the records strictly
after a consumer's stamp, or ``None`` whenever it cannot *prove* the
list is complete: the stamp fell out of the window, the journal saw a
version gap (bulk loads, mutations applied directly to a wrapped
relation, catch-ups without deltas), or the backend keeps no journal at
all (the base class).  ``None`` means "drop everything derived", so
every consumer stays correct unconditionally — the journal only ever
*narrows* invalidation, never skips it.  Consumers resync within a
chunk, so the default window of 256 covers any realistic lag.

Every read the store itself caches — probe lines, rule images, active
values, the row count — lives in one version-stamped cache owned by
:class:`MasterStore`.  Mutations only journal and bump the version; the
cache catches up on its next read, purging exactly the keys each delta
row projects onto, and accepts a value only under the stamp it was read
at.  The repair engines apply the same journal to their own caches.
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
        # One snapshot: iterating the live deque raises if a writer
        # appends meanwhile (image readers run beside an unlocked
        # InMemoryStore writer).
        records = tuple(self._records)
        if not records or records[-1].version != current:
            return None
        if start < self._floor:
            return None
        return tuple(r for r in records if r.version > start)


def _bridge(deltas, current: int, version: int):
    """The deltas in ``(current, version]`` when they cover exactly that
    range (one record per version bump), else ``None``."""
    if deltas is None:
        return None
    pending = [d for d in deltas if current < d.version <= version]
    if [d.version for d in pending] != list(range(current + 1, version + 1)):
        return None
    return pending


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


class _StoreCache:
    """Every read a store caches, stamped with the version it was read at.

    Four tables: probe lines ``(attrs, key) -> rows`` in LRU order,
    bounded by ``maxsize`` (0 keeps none); rule images, ``images`` mapping
    ``(attrs, column, guard)`` to ``{key: pairs}``; active-value sets
    ``attr -> set``; and the row count (``length``, ``None`` until read).

    :meth:`refresh` moves the stamp to the store's version: it purges
    the keys each ``deltas_since(stamp)`` row projects onto in every
    table (one :meth:`_key` projection serves all four), and drops
    everything when the journal answers ``None``.  A ``put_*`` refreshes
    first, then lands only if the stamp still equals the version its
    value was read at, so a value computed against an older version
    never lands after a purge.  A stamp may trail the store (a reader
    that saw an older version re-stamps backwards); that only leaves more
    deltas pending for the next sync, never a stale key unpurged.  Image
    hits are lock-free; everything else runs under the lock.  The
    counters are plain ints, like ``probe_ref_calls``: under the thread
    fan-out an increment may be lost, never a cached answer corrupted.
    """

    __slots__ = ("version", "maxsize", "lines", "images", "actives",
                 "length", "_line_attrs", "_positions", "_lock",
                 "hits", "misses", "evictions", "purged",
                 "image_hits", "image_misses", "image_purged", "full_drops")

    def __init__(self, maxsize: int):
        if maxsize < 0:
            raise ValueError(f"probe_cache_size must be >= 0, got {maxsize}")
        self.version = None
        self.maxsize = maxsize
        self.lines: OrderedDict = OrderedDict()
        self.images: dict = {}
        self.actives: dict = {}
        self.length = None
        self._line_attrs: set = set()  # attrs lists that have held a line
        self._positions: dict = {}  # attrs -> value positions in a row
        self._lock = threading.Lock()
        self.hits = self.misses = self.evictions = self.purged = 0
        self.image_hits = self.image_misses = self.image_purged = 0
        self.full_drops = 0

    # -- versioning ----------------------------------------------------------

    def sync(self, store: "MasterStore", version: int) -> None:
        """Purge what the deltas since the stamp touch; drop all on a gap."""
        with self._lock:
            if self.version == version:
                return
            cached = (self.lines or self.images or self.actives
                      or self.length is not None)
            deltas = store.deltas_since(self.version) if cached else ()
            if deltas is None:
                self.clear()
                self.full_drops += 1
            else:
                for delta in deltas:
                    self._purge(store.schema, delta)
            self.version = version

    def _key(self, schema: RelationSchema, attrs: tuple, values) -> tuple:
        """The key a row's *values* project onto over *attrs*."""
        positions = self._positions.get(attrs)
        if positions is None:
            positions = self._positions[attrs] = [
                schema.index_of(a) for a in attrs
            ]
        return tuple(values[p] for p in positions)

    def _purge(self, schema: RelationSchema, delta: StoreDelta) -> None:
        # A row projects onto exactly one key per attribute list.
        values = delta.values
        for attrs in self._line_attrs:
            key = (attrs, self._key(schema, attrs, values))
            if self.lines.pop(key, None) is not None:
                self.purged += 1
        for (attrs, _column, _guard), table in self.images.items():
            if table.pop(self._key(schema, attrs, values), None) is not None:
                self.image_purged += 1
        if delta.op == "insert":
            # An insert only adds its value to each column's active set.
            for attr, active in self.actives.items():
                active.add(self._key(schema, (attr,), values)[0])
        else:
            # Whether a deleted value survives in other rows needs a
            # recount; recompute lazily.
            self.actives.clear()
        # Every purge must be safe to apply twice (a trailing stamp
        # replays deltas an entry already reflects), so the count is
        # re-read rather than adjusted.
        self.length = None

    def clear(self) -> None:
        self.lines.clear()
        self.images.clear()
        self.actives.clear()
        self.length = None

    # -- reads and stamp-checked writes --------------------------------------

    def line(self, key: tuple):
        """The cached probe line (bumped most-recent) or None."""
        with self._lock:
            rows = self.lines.get(key)
            if rows is None:
                self.misses += 1
                return None
            self.hits += 1
            self.lines.move_to_end(key)
            return rows

    def refresh(self, store: "MasterStore") -> int:
        """Sync to the store's current version; returns that version."""
        version = store._cache_version()
        if self.version != version:
            self.sync(store, version)
        return version

    def put_line(self, store, version: int, key: tuple, rows: tuple) -> None:
        if not self.maxsize:
            return
        self.refresh(store)
        with self._lock:
            if self.version == version:
                self._line_attrs.add(key[0])
                self.lines[key] = rows
                while len(self.lines) > self.maxsize:
                    self.lines.popitem(last=False)
                    self.evictions += 1

    def put_image(self, store, version: int, table_key: tuple, key: tuple,
                  pairs: tuple) -> None:
        self.refresh(store)
        with self._lock:
            if self.version == version:
                self.images.setdefault(table_key, {})[key] = pairs

    def active(self, attr: str):
        """A caller-owned copy of the cached active set, or None."""
        with self._lock:
            values = self.actives.get(attr)
            return None if values is None else set(values)

    def put_active(self, store, version: int, attr: str, values) -> None:
        self.refresh(store)
        with self._lock:
            if self.version == version:
                self.actives[attr] = set(values)

    def put_length(self, store, version: int, length: int) -> None:
        self.refresh(store)
        with self._lock:
            if self.version == version:
                self.length = length

    # -- accounting ----------------------------------------------------------

    def line_info(self) -> dict:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "size": len(self.lines),
                "maxsize": self.maxsize,
                "evictions": self.evictions,
                "purged": self.purged,
            }

    def image_info(self) -> dict:
        with self._lock:
            return {
                "hits": self.image_hits,
                "misses": self.image_misses,
                "purged": self.image_purged,
                "full_drops": self.full_drops,
                "tables": len(self.images),
                "keys": sum(len(table) for table in self.images.values()),
            }


def _probe_key(attrs: tuple, key) -> tuple:
    key = tuple(key)
    if len(attrs) != len(key):
        raise ValueError(
            f"probe key {key} does not match attribute list {attrs}"
        )
    return key


class MasterStore(ABC):
    """Abstract master-data backend.

    The read API mirrors how the repair layer touches ``Dm``: keyed probes
    (:meth:`probe`), a rule's compiled value image
    (:meth:`image`, the only way the chase, TransFix and Suggest learn
    correction values), full iteration (region search and witness
    sweeps), size, and per-column active values.  The write API
    (:meth:`insert` / :meth:`delete` / :meth:`update`) bumps
    :attr:`version`.

    The cached reads are implemented once, here, over one
    :class:`_StoreCache`; a backend supplies its raw reads
    (``_read_probe``, ``_read_many``, ``_read_active``, ``_read_len``),
    its journal (:meth:`deltas_since`) and its version.
    """

    #: The ``backend`` label of this store's probe spans.
    _span_label = "store"

    def __init__(self, probe_cache_size: int = 0):
        self._cache = _StoreCache(probe_cache_size)
        self.probe_ref_calls = 0

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

    def _cache_version(self) -> int:
        """The stamp the cache checks against.  Backends whose
        :attr:`version` read may cost a round-trip return their last
        observed version instead; backends that can be closed raise
        here, so no cached read outlives the backend."""
        return self.version

    def __len__(self) -> int:
        """Number of master tuples."""
        cache = self._cache
        version = cache.refresh(self)
        length = cache.length
        if length is None:
            length = self._read_len()
            cache.put_length(self, version, length)
        return length

    def probe(self, attrs: Iterable, key) -> tuple:
        """Master tuples ``tm`` with ``tm[attrs] == key`` (Sect. 5.1).

        The hot path of every repair probe, served from the probe LRU
        when the backend keeps one.  Returns an immutable tuple: callers
        can never corrupt an internal bucket or cache line by mutating
        the result.  Hot paths that want to skip even the cache-miss copy
        can use :meth:`probe_ref`.
        """
        # The span covers cache hits and misses alike: the hit/miss mix
        # is exactly what the latency distribution is supposed to show.
        with obs.time_block(
            "repro_store_probe_seconds", backend=self._span_label, op="probe"
        ):
            attrs = tuple(attrs)
            key = _probe_key(attrs, key)
            cache = self._cache
            version = cache.refresh(self)
            rows = cache.line((attrs, key))
            if rows is None:
                rows = self._read_probe(attrs, key)
                if rows is None:
                    return ()  # unstorable value matches nothing; uncached
                cache.put_line(self, version, (attrs, key), rows)
            return rows

    def probe_ref(self, attrs: Iterable, key):
        """No-copy variant of :meth:`probe` for read-only hot paths.

        Mirrors the ``HashIndex.get`` / ``get_ref`` split: the result may
        alias internal state (a hash bucket, a cache entry) and MUST NOT
        be mutated.  The default forwards to :meth:`probe` (already
        alias-free) and counts the call, the only telemetry this path can
        afford (an obs span per call would dominate the chase hot loop).
        """
        self.probe_ref_calls += 1
        return self.probe(attrs, key)

    def probe_many(self, attrs: Iterable, keys: Iterable) -> dict:
        """Batched probe: ``{tuple(key): self.probe(attrs, key)}`` per key.

        Semantically a :meth:`probe` loop whose results land in the probe
        LRU too (the batch engine's chunk warm-up is exactly this), but
        the cache misses go to the backend in one ``_read_many`` call —
        one ``IN``-clause plan for sqlite, one request for a remote
        server.  Duplicate keys collapse onto one entry.
        """
        with obs.time_block(
            "repro_store_probe_seconds", backend=self._span_label, op="many"
        ):
            attrs = tuple(attrs)
            cache = self._cache
            version = cache.refresh(self)
            out: dict = {}
            pending: list = []
            for key in keys:
                key = _probe_key(attrs, key)
                if key not in out:
                    rows = cache.line((attrs, key))
                    if rows is None:
                        pending.append(key)
                    out[key] = rows or ()
            if pending:
                # Keys the backend cannot store stay absent: (), uncached.
                for key, rows in self._read_many(attrs, pending).items():
                    out[key] = rows
                    cache.put_line(self, version, (attrs, key), rows)
            return out

    def _read_probe(self, attrs: tuple, key: tuple):
        """The backend's own probe: the matching rows as a tuple, or
        ``None`` for a key it cannot store (which matches nothing)."""
        raise NotImplementedError

    def _read_many(self, attrs: tuple, keys: list) -> dict:
        """``{key: rows}`` for every storable key of *keys*; the default
        loops over :meth:`_read_probe`."""
        out = {}
        for key in keys:
            rows = self._read_probe(attrs, key)
            if rows is not None:
                out[key] = rows
        return out

    def _read_active(self, attr: str):
        """The distinct values of column *attr*, read from the backend
        into a new set (the caller keeps it; the cache stores a copy)."""
        raise NotImplementedError

    def _read_len(self) -> int:
        """The row count, read from the backend."""
        raise NotImplementedError

    @abstractmethod
    def ensure_index(self, attrs: Iterable) -> None:
        """Force the probe index over *attrs* so later probes are O(1)."""

    def active_values(self, attr: str) -> set:
        """The set of values appearing in master column *attr* (a copy
        the caller owns)."""
        cache = self._cache
        version = cache.refresh(self)
        values = cache.active(attr)
        if values is None:
            values = self._read_active(attr)
            cache.put_active(self, version, attr, values)
        return values

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
        has rows.  The tables live in the store's version-stamped cache,
        purged per key from :meth:`deltas_since` and dropped on a gap.
        """
        attrs = tuple(attrs)
        key = tuple(key)
        cache = self._cache
        version = self._cache_version()  # refresh(), inlined: the hot path
        if cache.version != version:
            cache.sync(self, version)
        table_key = (attrs, column, guard)
        table = cache.images.get(table_key)
        if table is not None:
            pairs = table.get(key)
            if pairs is not None:
                cache.image_hits += 1
                return pairs
        cache.image_misses += 1
        rows = self.probe_ref(attrs, key)
        pairs = distinct_image(rows, column, guard)
        if rows:
            cache.put_image(self, version, table_key, key, pairs)
        return pairs

    # -- cache accounting ----------------------------------------------------

    def probe_cache_info(self) -> dict:
        """Probe-LRU accounting for the benchmark layer: ``hits`` /
        ``misses`` per lookup, ``size`` / ``maxsize`` lines, capacity
        ``evictions``, lines ``purged`` by journal deltas, and
        ``probe_ref_calls``."""
        info = self._cache.line_info()
        info["probe_ref_calls"] = self.probe_ref_calls
        return info

    def image_cache_info(self) -> dict:
        """Accounting of the :meth:`image` tables, kept apart from
        ``probe_cache_info`` so the probe LRU's counters keep their
        meaning: ``hits``/``misses`` per call, ``purged`` keys dropped by
        journal deltas, ``full_drops`` of a non-empty cache on a journal
        gap, and the current ``tables``/``keys``."""
        return self._cache.image_info()

    # -- process-boundary protocol -------------------------------------------

    #: Whether worker processes reattached from a handle observe this
    #: store's mutations through shared storage (a database file, a
    #: server).  False means a catch-up must ship the rows themselves.
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

    def catch_up(self, version: int, deltas=None, rows=None) -> None:
        """Bring a reattached copy to its parent's *version*.

        The one resync entry point of the process protocol.  *deltas* (the
        parent's ``deltas_since`` answer, possibly ``None``) are used when
        they bridge the gap, which keeps this store's journal contiguous
        so every cache above it purges per key; otherwise *rows* (a
        snapshot, for backends that do not share storage) replace the
        contents; otherwise the store adopts *version* and its caches drop
        on the next read.  Only moves forward: a *version* at or below
        the current one is a no-op.
        """
        raise ValueError(
            f"{type(self).__name__} does not support catching up with a "
            f"parent process (no detach() implementation)"
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

    def _coerce(self, row) -> Row:
        """*row* as a :class:`Row` of this store's schema."""
        if not isinstance(row, Row):
            return Row(self.schema, row)
        if row.schema.attributes != self.schema.attributes:
            raise ValueError(
                f"row schema {row.schema.name!r} does not match store "
                f"schema {self.schema.name!r}"
            )
        return row

    def lookup(self, attrs: Iterable, key) -> tuple:
        """Alias of :meth:`probe` (``Relation``-compatible spelling)."""
        return self.probe(attrs, key)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.schema.name!r}, {len(self)} rows, "
            f"version={self.version})"
        )


class InMemoryStore(MasterStore):
    """The paper's setting: ``Dm`` in RAM behind cached hash indexes.

    A thin adapter over :class:`~repro.engine.relation.Relation`; probes
    reuse the relation's per-attribute-list :class:`HashIndex` cache (a
    hash bucket is already O(1), so the probe LRU keeps no lines), and
    ``version`` is the relation's mutation counter, so mutations made
    directly on the wrapped relation are noticed too.
    """

    _span_label = "memory"

    def __init__(
        self, relation: Relation, delta_window: int = DEFAULT_DELTA_WINDOW
    ):
        super().__init__(probe_cache_size=0)
        self._relation = relation
        self._journal = _DeltaJournal(delta_window)
        self._journal.reset(relation.mutation_count)

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

    def probe_ref(self, attrs: Iterable, key):
        # Straight to the hash bucket: no LRU in between and no copy (the
        # relation's lookup aliases the live bucket, which shrinks under
        # deletes and grows under inserts; probe hands out a snapshot).
        self.probe_ref_calls += 1
        attrs = tuple(attrs)
        return self._relation.lookup(attrs, _probe_key(attrs, key))

    def _read_probe(self, attrs: tuple, key: tuple) -> tuple:
        return tuple(self._relation.lookup(attrs, key))

    def ensure_index(self, attrs: Iterable) -> None:
        self._relation.index_on(attrs)

    def active_values(self, attr: str) -> set:
        # Straight from the relation, like len and probe_ref.  Caching it
        # would also speed up the full-drop region rebuild that
        # `make bench-invalidation` measures the delta path against.
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

    # -- process-boundary protocol -------------------------------------------

    def detach(self) -> "MemoryStoreHandle":
        """Snapshot (schema, rows, version) into a picklable handle.

        The snapshot is by value: a worker's reattached copy does NOT see
        later parent mutations — after a version move the batch engine
        ships the journal gap and a fresh snapshot with every dispatched
        chunk until all workers have acknowledged the new stamp (each
        worker catches up at most once; see ``BatchRepairEngine._task_for``).
        """
        return MemoryStoreHandle(
            schema=self.schema,
            rows=tuple(self._relation.iter_rows()),
            version=self.version,
        )

    def catch_up(self, version: int, deltas=None, rows=None) -> None:
        """Replay the parent's *deltas*, else reload the *rows* snapshot.

        The replay runs only when the deltas are exactly the contiguous
        range from this store's stamp to *version*, so this store's
        journal stays contiguous too; a delete that misses mid-replay
        means the contents diverged, and the snapshot then replaces
        everything (a partial replay is harmless).  A reload is one bulk
        mutation with no per-row deltas: the journal restarts at
        *version*, so caches stamped earlier drop on their next read.
        """
        current = self.version
        if version <= current:
            return
        pending = _bridge(deltas, current, version)
        if pending is not None and self._replay(pending):
            return
        if rows is None:
            raise ValueError(
                f"an InMemoryStore at version {current} cannot catch up "
                f"with version {version} without the deltas or the rows"
            )
        self._relation.replace_all(rows, mutation_count=version)
        self._journal.reset(version)

    def _replay(self, pending) -> bool:
        for delta in pending:
            row = Row(self.schema, delta.values)
            if delta.op == "insert":
                self.insert(row)
            elif not self.delete(row):
                return False
        return True


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
    TEXT column per attribute).  A probe creates the matching sqlite
    index on first use, behind the store's bounded probe LRU keyed on
    ``(attrs, key)``.  Every mutation journals its row and bumps
    :attr:`version`; the store's cache purges the lines that row projects
    onto on its next read, so a stale hit never survives a master update.
    The connection is shared across threads behind a lock (the batch
    engine's thread fan-out probes concurrently).
    """

    _ITER_BATCH = 1024
    _span_label = "sqlite"

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
        super().__init__(probe_cache_size)
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
        self._version = 0
        self._indexed: set = set()
        self._probe_plans: dict = {}  # attrs tuple -> prepared SELECT
        self._journal = _DeltaJournal(delta_window)
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

    def _cache_version(self) -> int:
        self._guard()
        return self._version

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

    def _read_len(self) -> int:
        with self._lock:
            return self._db.execute("SELECT COUNT(*) FROM master").fetchone()[0]

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

    def _read_probe(self, attrs: tuple, key: tuple):
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
            return None
        with self._lock:
            records = self._db.execute(select, encoded).fetchall()
        return tuple(
            Row(self._schema, [_decode(cell) for cell in record])
            for record in records
        )

    #: How many probe keys one batched ``IN``-clause statement may carry;
    #: bounded so ``len(attrs) * _PROBE_BATCH`` stays far below sqlite's
    #: host-parameter limit (999 in older builds).
    _PROBE_BATCH = 200

    def _read_many(self, attrs: tuple, keys: list) -> dict:
        """One ``WHERE (c1, ..., ck) IN (VALUES ...)`` round-trip per
        block of keys instead of one SELECT per key."""
        pending = []  # (key, encoded key); unstorable keys match nothing
        for key in keys:
            try:
                pending.append((key, tuple(_encode(v) for v in key)))
            except TypeError:
                pass
        if not pending:
            return {}
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
        out: dict = {}
        for start in range(0, len(pending), self._PROBE_BATCH):
            block = pending[start:start + self._PROBE_BATCH]
            select = (
                f"SELECT {', '.join(self._columns)} FROM master "
                f"WHERE {key_expr} IN "
                f"({', '.join(placeholder for _ in block)}) "
                f"ORDER BY rid"
            )
            params = [cell for _, encoded in block for cell in encoded]
            with self._lock:
                records = self._db.execute(select, params).fetchall()
            grouped: dict = {}  # encoded key -> list of Rows
            for record in records:
                enc = tuple(record[p] for p in positions)
                grouped.setdefault(enc, []).append(
                    Row(self._schema, [_decode(c) for c in record])
                )
            for key, encoded in block:
                out[key] = tuple(grouped.get(encoded, ()))
        return out

    def _read_active(self, attr: str) -> set:
        column = self._column_of(attr)
        with self._lock:
            records = self._db.execute(
                f"SELECT DISTINCT {column} FROM master"
            ).fetchall()
        return {_decode(record[0]) for record in records}

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
            probe_cache_size=self._cache.maxsize,
            version=self._version,
        )

    def catch_up(self, version: int, deltas=None, rows=None) -> None:
        """Adopt the parent's *version* after it mutated the shared file.

        The rows already arrived through the database file (every parent
        mutation is autocommitted), so only the stamp moves; *rows* is
        ignored.  Deltas that bridge the gap extend this store's journal,
        so the caches above it purge per key; otherwise the journal
        restarts at *version* and they drop on their next read.
        """
        self._guard()
        with self._lock:
            if version <= self._version:
                return
            pending = _bridge(deltas, self._version, version)
            if pending is None:
                self._journal.reset(version)
            for delta in pending or ():
                self._journal.record(delta.version, delta.op, delta.values)
            self._version = version

    # -- delta protocol ------------------------------------------------------

    def deltas_since(self, version: int):
        with self._lock:
            return self._journal.since(version, self._version)

    # -- mutation ------------------------------------------------------------

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
        version bump at the end — the load is a single logical mutation
        with no per-row deltas, so the journal restarts there.
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
                self._version += 1
                self._journal.reset(self._version)

    def _journal_mutation(self, op: str, encoded: list) -> None:
        # Journal the codec-canonical values (what probes/iteration
        # decode back), not the caller's spelling of them.
        self._version += 1
        self._journal.record(
            self._version, op, tuple(_decode(c) for c in encoded)
        )

    def insert(self, row) -> None:
        self._guard()
        row = self._coerce(row)
        encoded = [_encode(v) for v in row.values]
        with self._lock:
            self._db.execute(self._insert_sql(), encoded)
            self._journal_mutation("insert", encoded)

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
            self._journal_mutation("delete", encoded)
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
        """Rebuild the store in this process, stamped at the parent version
        so version-stamped caches compare against the parent's version
        stream, not the reload's."""
        store = InMemoryStore.from_rows(self.schema)
        store.catch_up(self.version, rows=self.rows)
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
        :meth:`SqliteStore.catch_up` moves it when the parent mutates
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
        store.catch_up(self.version)
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
