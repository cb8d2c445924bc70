"""Batch repair: high-throughput monitoring of dirty tuple streams.

The paper evaluates CertainFix one tuple at a time; production workloads
(Guided Data Repair, AWMRR — see PAPERS.md) arrive as bulk streams of
thousands of dirty tuples that share most of their structure.  This module
adds the throughput layer on top of :class:`repro.repair.certainfix.CertainFix`:

* **shared precomputation** — certain regions, master hash indexes and the
  BDD suggestion cache are built once per ``(Σ, Dm)`` and reused by every
  session ("computed once and repeatedly used as long as Σ and Dm are
  unchanged");
* **validated-pattern memoization** — the unique-fix chase and TransFix
  both depend only on the *validated pattern* ``(Z', t[Z'])`` (every rule
  they may fire has its premise inside ``Z'`` and master data is fixed), so
  identical dirty shapes skip re-validation entirely;
* **versioned invalidation** — masters are reached through the
  :class:`~repro.engine.store.MasterStore` seam; every shared structure
  (regions, master indexes, the BDD, both memo tables) is stamped with the
  store version it was built against, and an ``insert``/``delete``/
  ``update`` of a master tuple moves the version so all of them rebuild
  lazily before the next monitored tuple — incremental master updates can
  no longer poison the shared caches;
* **chunked execution** — the input stream is consumed in bounded chunks
  (generators welcome: CSV ingestion never materializes the workload), with
  an optional thread or process fan-out over the read-only master state;
* **structured reporting** — :class:`BatchReport` carries throughput,
  rounds per tuple and per-cache hit rates for the perf trajectory.

Choosing an executor (``executor="thread"`` vs ``"process"``): monitoring is
embarrassingly parallel per dirty tuple — master data and Σ are read-only
while a tuple is fixed — but Python threads share one GIL.  The decision
rule is about where a session spends its time: an **I/O-bound oracle**
(live users, a feedback service over the network) releases the GIL while it
waits, so threads scale and cost nothing to set up; a **CPU-bound oracle**
(scoring models, simulated users over large masters — any workload where
the chase/TransFix/oracle arithmetic dominates) keeps the GIL busy, and
only a process pool buys real cores.  The process pool ships a picklable
:class:`EngineSpec` to each worker once (pool initializer), where it is
rehydrated — certain regions, master indexes and memo tables are rebuilt
per worker — so expect a per-worker warm-up cost that pays off on streams
much longer than ``workers × chunk_size``.

Determinism: with ``concurrency=1`` the engine produces sessions identical
to :meth:`CertainFix.fix_stream` on the same inputs.  With ``concurrency >
1`` each tuple is still monitored independently; without the BDD cache the
result is bit-identical to the sequential run (suggestions are pure
functions of ``(t, Z')``) under both executors, while with the BDD cache
the *suggestion order* may vary with thread interleaving or with how
chunks land on workers, but every produced fix remains a certain fix and
the fixed rows are identical (tests pin both properties).  Chunks are
dispatched to the process pool with stable sequence numbers and merged in
submission order, so results always come back in stream order.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import threading
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro import obs
from repro.engine.csvio import stream_rows_from_csv
from repro.engine.relation import Relation
from repro.engine.schema import RelationSchema
from repro.engine.store import StoreError, as_master_store
from repro.engine.tuples import Row
from repro.obs import count_fixes_by_rule, session_provenance
from repro.repair.certainfix import CertainFix, IncompleteFix
from repro.repair.invalidation import FootprintIndex, RecordingStore
from repro.repair.oracle import SimulatedUser
from repro.repair.transfix import TransFixResult


@dataclass
class MemoStats:
    """Hit/miss accounting for one validated-pattern memo table."""

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

    def snapshot(self) -> "MemoStats":
        return MemoStats(hits=self.hits, misses=self.misses)


@dataclass
class BatchReport:
    """What one :meth:`BatchRepairEngine.run` did, in numbers."""

    tuples: int = 0
    completed: int = 0
    incomplete: int = 0
    rounds: int = 0
    chunks: int = 0
    elapsed: float = 0.0
    concurrency: int = 1
    chunk_size: int = 0
    executor: str = "thread"
    workers: int = 1
    #: Per-worker breakdown keyed by worker label — ``pid-<n>`` for the
    #: process pool, ``thread-<n>`` for the thread fan-out — each value a
    #: flat dict of chunk/tuple counts and memo-table hit/miss counters.
    #: Threads share one set of caches, so their rows split the shared
    #: counters by which thread performed each lookup.  Empty only for
    #: sequential runs (``concurrency=1``).
    worker_stats: dict = field(default_factory=dict)
    regions_precomputed: int = 0
    chase_memo: MemoStats = field(default_factory=MemoStats)
    transfix_memo: MemoStats = field(default_factory=MemoStats)
    suggestion_hits: int = 0
    suggestion_misses: int = 0
    cache_invalidations: int = 0
    #: Of the ``cache_invalidations``, how many were absorbed via per-key
    #: delta purges vs. how many fell back to the historical full drop.
    delta_purges: int = 0
    full_drops: int = 0
    master_version: int = 0
    #: Wall-clock seconds of the shared precomputation this run leaned on:
    #: ``region_precompute_s`` (paid once at engine construction, amortized
    #: across runs) and ``probe_warmup_s`` (chunk probe_many warm-up on
    #: batched-probe backends, summed across workers).
    timings: dict = field(default_factory=dict)
    #: The store's rule-image cache over the run
    #: (:meth:`~repro.engine.store.MasterStore.image`): ``hits``,
    #: ``misses``, ``purged`` keys and ``full_drops``, summed across
    #: process workers.
    image_cache: dict = field(default_factory=dict)
    #: ``{rule_name: fixed-cell count}`` across the run (provenance rollup;
    #: empty when provenance collection is off).
    fixes_by_rule: dict = field(default_factory=dict)
    #: Messages of :class:`~repro.engine.store.StoreError` failures that
    #: aborted the run (unreachable master server, closed connection,
    #: vanished database file).  A run that raises a ``StoreError`` still
    #: builds its report — sessions monitored before the failure, plus
    #: this field — and attaches it to the exception as ``exc.report``.
    store_errors: list = field(default_factory=list)

    @property
    def throughput(self) -> float:
        """Monitored tuples per second of wall clock."""
        return self.tuples / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def mean_rounds(self) -> float:
        return self.rounds / self.tuples if self.tuples else 0.0

    @property
    def suggestion_hit_rate(self) -> float:
        total = self.suggestion_hits + self.suggestion_misses
        return self.suggestion_hits / total if total else 0.0

    def to_dict(self) -> dict:
        return {
            "tuples": self.tuples,
            "completed": self.completed,
            "incomplete": self.incomplete,
            "rounds": self.rounds,
            "mean_rounds": round(self.mean_rounds, 4),
            "chunks": self.chunks,
            "chunk_size": self.chunk_size,
            "concurrency": self.concurrency,
            "executor": self.executor,
            "workers": self.workers,
            "worker_stats": {
                worker: dict(stats, **{
                    "chase_hit_rate": round(_rate(
                        stats["chase_hits"], stats["chase_misses"]
                    ), 4),
                    "transfix_hit_rate": round(_rate(
                        stats["transfix_hits"], stats["transfix_misses"]
                    ), 4),
                })
                for worker, stats in self.worker_stats.items()
            },
            "elapsed_s": round(self.elapsed, 6),
            "throughput_tps": round(self.throughput, 2),
            "regions_precomputed": self.regions_precomputed,
            "chase_memo": {
                "hits": self.chase_memo.hits,
                "misses": self.chase_memo.misses,
                "hit_rate": round(self.chase_memo.hit_rate, 4),
            },
            "transfix_memo": {
                "hits": self.transfix_memo.hits,
                "misses": self.transfix_memo.misses,
                "hit_rate": round(self.transfix_memo.hit_rate, 4),
            },
            "suggestion_cache": {
                "hits": self.suggestion_hits,
                "misses": self.suggestion_misses,
                "hit_rate": round(self.suggestion_hit_rate, 4),
            },
            "image_cache": dict(self.image_cache, hit_rate=round(_rate(
                self.image_cache.get("hits", 0),
                self.image_cache.get("misses", 0),
            ), 4)),
            "cache_invalidations": self.cache_invalidations,
            "delta_purges": self.delta_purges,
            "full_drops": self.full_drops,
            "master_version": self.master_version,
            "timings": {
                name: round(value, 6)
                for name, value in sorted(self.timings.items())
            },
            "fixes_by_rule": dict(sorted(self.fixes_by_rule.items())),
            "store_errors": list(self.store_errors),
        }

    def describe(self) -> str:
        lines = [
            f"monitored {self.tuples} tuples in {self.elapsed:.3f}s "
            f"({self.throughput:.1f} tuples/s, {self.chunks} chunks, "
            f"{self.executor} executor, {self.workers} worker(s))",
            f"rounds/tuple: {self.mean_rounds:.2f}  "
            f"completed: {self.completed}  incomplete: {self.incomplete}",
            f"chase memo: {self.chase_memo.hit_rate:.0%} hit "
            f"({self.chase_memo.hits}/{self.chase_memo.lookups})  "
            f"transfix memo: {self.transfix_memo.hit_rate:.0%} hit "
            f"({self.transfix_memo.hits}/{self.transfix_memo.lookups})",
        ]
        if self.suggestion_hits or self.suggestion_misses:
            lines.append(
                f"suggestion cache: {self.suggestion_hit_rate:.0%} hit "
                f"({self.suggestion_hits}/"
                f"{self.suggestion_hits + self.suggestion_misses})"
            )
        hits = self.image_cache.get("hits", 0)
        misses = self.image_cache.get("misses", 0)
        if hits or misses:
            lines.append(
                f"image cache: {_rate(hits, misses):.0%} hit "
                f"({hits}/{hits + misses})  "
                f"{self.image_cache.get('purged', 0)} key purge(s), "
                f"{self.image_cache.get('full_drops', 0)} full drop(s)"
            )
        if self.timings:
            lines.append(
                "precompute: " + "  ".join(
                    f"{name}: {value:.3f}s"
                    for name, value in sorted(self.timings.items())
                )
            )
        if self.fixes_by_rule:
            top = sorted(
                self.fixes_by_rule.items(), key=lambda kv: (-kv[1], kv[0])
            )
            lines.append(
                "fixes by rule: " + "  ".join(
                    f"{name}: {count}" for name, count in top
                )
            )
        if self.cache_invalidations:
            lines.append(
                f"master updated mid-run: shared caches reconciled "
                f"{self.cache_invalidations} time(s) "
                f"({self.delta_purges} delta purge(s), "
                f"{self.full_drops} full drop(s), "
                f"store version {self.master_version})"
            )
        for message in self.store_errors:
            lines.append(f"STORE FAILURE: {message}")
        for worker, stats in sorted(self.worker_stats.items()):
            lines.append(
                f"  {worker}: {stats['tuples']} tuples in "
                f"{stats['chunks']} chunk(s), chase "
                f"{_rate(stats['chase_hits'], stats['chase_misses']):.0%} "
                f"hit, transfix "
                f"{_rate(stats['transfix_hits'], stats['transfix_misses']):.0%} "
                f"hit"
            )
        return "\n".join(lines)


def _rate(hits: int, misses: int) -> float:
    total = hits + misses
    return hits / total if total else 0.0


_IMAGE_COUNTERS = ("hits", "misses", "purged", "full_drops")


def _image_counters(store) -> dict:
    info = store.image_cache_info()
    return {name: info[name] for name in _IMAGE_COUNTERS}


def _counter_delta(after: dict, before: dict) -> dict:
    return {name: after[name] - before[name] for name in _IMAGE_COUNTERS}


@dataclass
class BatchResult:
    """Sessions (stream order) plus the run's :class:`BatchReport`."""

    sessions: list
    report: BatchReport

    @property
    def final_rows(self) -> list:
        return [session.final for session in self.sessions]

    @property
    def provenance(self) -> list:
        """Per session (stream order), ``{attr: FixProvenance}`` for every
        rule-fixed cell — empty dicts when provenance collection was off."""
        return [session_provenance(session) for session in self.sessions]

    def to_relation(self, schema: RelationSchema) -> Relation:
        """Materialize the repaired stream as a relation."""
        return Relation(schema, self.final_rows)


class _MemoCertainFix(CertainFix):
    """CertainFix with chase/TransFix outcomes memoized per validated pattern.

    Soundness: every rule the chase or TransFix may fire has its premise
    ``X ∪ Xp`` inside the validated set ``Z'`` (and grows ``Z'`` only with
    master-derived values), so both outcomes are pure functions of
    ``(Z', t[Z'])`` given fixed ``(Σ, Dm)`` — the memo key.  "Fixed" is
    enforced by version-stamping: when the master store's version moves,
    the inherited sync hook clears both memo tables along with the base
    engine's regions/BDD/suggest caches.
    """

    def __init__(self, *args, memoize: bool = True, **kwargs):
        super().__init__(*args, **kwargs)
        self._memoize = memoize
        self._chase_memo: dict = {}
        self._transfix_memo: dict = {}
        # Reverse indexes from master probe footprints to memo entries:
        # a journal delta purges exactly the entries whose chase/TransFix
        # run probed the changed row (see repro.repair.invalidation).
        self._chase_footprints = FootprintIndex(self.store.schema)
        self._transfix_footprints = FootprintIndex(self.store.schema)
        # Per-thread footprint-recording store swapped in around miss-path
        # recomputes (thread-local: concurrent sessions record separately).
        self._recording = threading.local()
        self.chase_stats = MemoStats()
        self.transfix_stats = MemoStats()
        self._bdd_lock = None
        # Counter increments are read-modify-write and would drop updates
        # under the thread fan-out; the lock is uncontended (nanoseconds)
        # next to a chase or TransFix run.
        self._stats_lock = threading.Lock()
        # Optional per-thread split of the shared memo counters, keyed by
        # thread ident; enabled by the batch engine's thread fan-out so
        # BatchReport.worker_stats has rows for threads like it does for
        # process workers.  None = disabled (no per-lookup overhead).
        self._thread_stats = None

    # -- per-thread accounting (thread fan-out worker_stats) -------------------

    def enable_thread_stats(self) -> None:
        with self._stats_lock:
            self._thread_stats = {}

    def drain_thread_stats(self) -> dict:
        """Stop per-thread accounting; returns ``{ident: stats}`` in first-
        touch order (the batch engine relabels idents ``thread-<n>``)."""
        with self._stats_lock:
            sink, self._thread_stats = self._thread_stats, None
        return sink or {}

    def _bump_thread(self, key: str) -> None:
        # Caller holds _stats_lock.
        sink = self._thread_stats
        if sink is None:
            return
        ident = threading.get_ident()
        stats = sink.get(ident)
        if stats is None:
            stats = sink[ident] = {
                "chunks": 0, "tuples": 0, "_chunk": None,
                "chase_hits": 0, "chase_misses": 0,
                "transfix_hits": 0, "transfix_misses": 0,
            }
        stats[key] += 1

    def note_thread_session(self, chunk_seq: int) -> None:
        """Count one monitored tuple (and chunk participation) for the
        calling thread."""
        with self._stats_lock:
            sink = self._thread_stats
            if sink is None:
                return
            self._bump_thread("tuples")
            stats = sink[threading.get_ident()]
            if stats["_chunk"] != chunk_seq:
                stats["_chunk"] = chunk_seq
                stats["chunks"] += 1

    # Both hooks run under the base engine's ``_memo_guard`` hold, and the
    # stamp-checked writes below guarantee a worker that computed against
    # the old version cannot re-poison the freshly reconciled tables.

    def _drop_master_caches(self) -> None:
        super()._drop_master_caches()
        self._chase_memo.clear()
        self._transfix_memo.clear()
        self._chase_footprints.clear()
        self._transfix_footprints.clear()

    def _apply_master_deltas(self, deltas) -> bool:
        if not super()._apply_master_deltas(deltas):
            return False
        # Purge soundness: an entry whose recorded probes all miss the
        # changed rows recomputes along the identical probe path to the
        # identical outcome, so only footprint hits need to go.  Every
        # entry must carry a footprint for that argument to hold — if the
        # tables ever disagree (they should not), fall back to the drop.
        rows = [delta.values for delta in deltas]
        for memo, index in (
            (self._chase_memo, self._chase_footprints),
            (self._transfix_memo, self._transfix_footprints),
        ):
            if len(memo) != len(index):
                return False
            for key in index.affected(rows):
                memo.pop(key, None)
                index.discard(key)
        return True

    def _memo_key(self, row: Row, validated: frozenset) -> tuple:
        attrs = tuple(sorted(validated))
        return attrs, row[attrs]

    def _chase_store(self):
        # Miss-path recomputes chase through a footprint-recording wrapper
        # (installed by _record_footprints below); everything else reads
        # the store directly.
        recording = getattr(self._recording, "store", None)
        return recording if recording is not None else self.store

    def _record_footprints(self, compute):
        """Run *compute* (a chase/TransFix recompute) with probe-footprint
        recording; returns ``(result, footprints_or_None)``."""
        if not self._delta_invalidation:
            return compute(), None
        recording = RecordingStore(self.store)
        self._recording.store = recording
        try:
            result = compute()
        finally:
            self._recording.store = None
        return result, recording.footprints

    def _unique(self, row: Row, validated: frozenset) -> bool:
        if not self._memoize:
            return super()._unique(row, validated)
        key = self._memo_key(row, validated)
        stamp = self._master_version
        cached = self._chase_memo.get(key)
        if cached is None:
            with self._stats_lock:
                self.chase_stats.misses += 1
                self._bump_thread("chase_misses")
            obs.inc("repro_chase_memo_total", result="miss")
            cached, footprints = self._record_footprints(
                lambda: super(_MemoCertainFix, self)._unique(row, validated)
            )
            with self._memo_guard:
                if self._master_version == stamp:
                    self._chase_memo[key] = cached
                    if footprints is not None:
                        self._chase_footprints.add(key, footprints)
        else:
            with self._stats_lock:
                self.chase_stats.hits += 1
                self._bump_thread("chase_hits")
            obs.inc("repro_chase_memo_total", result="hit")
        return cached

    def _transfix(self, row: Row, validated: frozenset) -> TransFixResult:
        if not self._memoize:
            return super()._transfix(row, validated)
        key = self._memo_key(row, validated)
        stamp = self._master_version
        entry = self._transfix_memo.get(key)
        if entry is None:
            with self._stats_lock:
                self.transfix_stats.misses += 1
                self._bump_thread("transfix_misses")
            obs.inc("repro_transfix_memo_total", result="miss")
            result, footprints = self._record_footprints(
                lambda: super(_MemoCertainFix, self)._transfix(row, validated)
            )
            fixes = tuple(
                (rule.rhs, result.row[rule.rhs]) for rule, _ in result.applied
            )
            with self._memo_guard:
                if self._master_version == stamp:
                    self._transfix_memo[key] = (
                        fixes, tuple(result.applied), result.lookups,
                    )
                    if footprints is not None:
                        self._transfix_footprints.add(key, footprints)
            return result
        with self._stats_lock:
            self.transfix_stats.hits += 1
            self._bump_thread("transfix_hits")
        obs.inc("repro_transfix_memo_total", result="hit")
        fixes, applied, lookups = entry
        fixed_row = row.with_values(dict(fixes)) if fixes else row
        return TransFixResult(
            row=fixed_row,
            validated=frozenset(validated) | {attr for attr, _ in fixes},
            applied=list(applied),
            lookups=lookups,
        )

    def _next_suggestion(self, cursor, row, validated):
        # The BDD is the only mutable structure shared *across* concurrent
        # sessions mid-flight; serialize its traversal/extension.
        if self._bdd_lock is not None and cursor is not None:
            with self._bdd_lock:
                return super()._next_suggestion(cursor, row, validated)
        return super()._next_suggestion(cursor, row, validated)


def _chunked(iterable: Iterable, size: int):
    iterator = iter(iterable)
    while True:
        chunk = list(itertools.islice(iterator, size))
        if not chunk:
            return
        yield chunk


# -- process-pool fan-out ------------------------------------------------------


@dataclass(frozen=True)
class EngineSpec:
    """Everything a worker process needs to rebuild the repair engine.

    Pickled exactly once per worker (through the pool initializer, not per
    chunk): rules and schema by value, the master through a
    :meth:`~repro.engine.store.MasterStore.detach` handle — sqlite
    connections cannot cross a fork/spawn boundary, so the handle re-opens
    the database file in the worker, while an in-memory master ships its
    rows by value.  ``build()`` rehydrates the engine: certain regions,
    master probe indexes and the memo tables are rebuilt per worker against
    the handle's version stamp, so the parent's and every worker's caches
    sit on one shared version stream.
    """

    rules: tuple
    schema: RelationSchema
    store_handle: object
    use_bdd: bool
    memoize: bool
    engine_options: tuple  # sorted (name, value) pairs, picklable

    def build(self) -> "_MemoCertainFix":
        store = self.store_handle.reattach()
        engine = _MemoCertainFix(
            list(self.rules), store, self.schema,
            use_bdd=self.use_bdd, memoize=self.memoize,
            **dict(self.engine_options),
        )
        engine.regions  # noqa: B018 — precompute before the first chunk
        return engine


#: The rehydrated engine of this worker process (set by the initializer).
_WORKER_ENGINE = None


def _process_worker_init(spec: EngineSpec) -> None:
    global _WORKER_ENGINE
    _WORKER_ENGINE = spec.build()


def _warm_chunk_probes(engine, pairs) -> float:
    """Batch-probe every rule key of the chunk before monitoring starts.

    Only called for stores with round-trip probe cost
    (``supports_batched_probes``): one ``IN``-clause plan per rule fills
    the probe cache with exactly the keys the chase/TransFix loops are
    about to ask for, amortizing what would otherwise be one SELECT per
    (tuple, rule).  Returns the seconds spent warming (the chunk's share
    of ``BatchReport.timings["probe_warmup_s"]``).
    """
    started = time.perf_counter()
    store = engine.store
    for rule in engine.rules:
        keys = {row[rule.lhs] for row, _ in pairs}
        if keys:
            store.probe_many(rule.lhs_m, keys)
    return time.perf_counter() - started


def _process_worker_chunk(task: tuple) -> dict:
    """Monitor one chunk in this worker; returns sessions + stats deltas.

    ``task`` is ``(seq, pairs, version, snapshot, deltas)``.  *version* is
    the parent store's version when the chunk was dispatched; when it
    differs from this worker's store the master mutated mid-batch, and the
    worker resyncs before monitoring — preferably by adopting the shipped
    journal *deltas* (which keeps the worker store's own journal
    contiguous, so the engine resync right after can purge per-key),
    falling back to the shipped row *snapshot* for in-memory masters or
    the shared database file for sqlite (*snapshot* is None) — so a
    mid-batch master update still invalidates every worker's
    version-stamped caches.
    """
    seq, pairs, version, snapshot, deltas = task
    engine = _WORKER_ENGINE
    store = engine.store
    invalidations0 = engine.cache_invalidations
    delta_purges0 = engine.delta_purges
    full_drops0 = engine.full_drops
    # Strictly newer only: tasks are dispatched through one FIFO queue, so
    # dispatch versions arrive monotonically; the guard is belt-and-braces
    # against ever "syncing" a worker backwards.
    if version > store.version:
        if not (deltas is not None and store.adopt_deltas(deltas, version)):
            if snapshot is not None:
                store.reset_rows(snapshot, version)
            else:
                store.sync_version(version)
        engine.resync_master()
    warm_s = 0.0
    if store.supports_batched_probes:
        warm_s = _warm_chunk_probes(engine, pairs)
    chase0 = engine.chase_stats.snapshot()
    transfix0 = engine.transfix_stats.snapshot()
    image0 = _image_counters(store)
    suggestion = engine.cache_stats
    sugg_hits0 = suggestion.hits if suggestion is not None else 0
    sugg_misses0 = suggestion.misses if suggestion is not None else 0

    sessions = [engine.fix(row, oracle) for row, oracle in pairs]

    suggestion = engine.cache_stats
    return {
        "seq": seq,
        "worker": f"pid-{os.getpid()}",
        "sessions": sessions,
        "chase": (
            engine.chase_stats.hits - chase0.hits,
            engine.chase_stats.misses - chase0.misses,
        ),
        "transfix": (
            engine.transfix_stats.hits - transfix0.hits,
            engine.transfix_stats.misses - transfix0.misses,
        ),
        "suggestions": (
            (suggestion.hits - sugg_hits0) if suggestion is not None else 0,
            (suggestion.misses - sugg_misses0) if suggestion is not None else 0,
        ),
        "image": _counter_delta(_image_counters(store), image0),
        "invalidations": engine.cache_invalidations - invalidations0,
        "delta_purges": engine.delta_purges - delta_purges0,
        "full_drops": engine.full_drops - full_drops0,
        "warm_s": warm_s,
        # Ack: lets the parent stop attaching snapshots once every worker
        # has confirmed the post-mutation stamp.
        "store_version": store.version,
    }


class BatchRepairEngine:
    """Monitor thousands of dirty tuples through CertainFix at throughput.

    Parameters
    ----------
    rules, master, schema:
        As for :class:`CertainFix`: *master* is any
        :class:`~repro.engine.store.MasterStore` (in-memory or sqlite) or a
        plain relation, and probe indexes for every rule key are forced at
        construction.  Mutating the store between (or during) runs bumps
        its version; all shared caches rebuild lazily before the next
        monitored tuple, and the run's :class:`BatchReport` counts the
        rebuilds.
    regions:
        Precomputed certain-region candidates; computed (once) at
        construction when omitted — never per tuple, recomputed only when
        the store version moves.
    use_bdd:
        Share a Suggest⁺ BDD cache across all sessions (default on: this is
        the batch workload the cache was designed for).
    memoize:
        Reuse chase / TransFix outcomes across tuples with the same
        validated pattern (default on).
    chunk_size:
        How many stream elements to pull per execution chunk.
    executor:
        ``"thread"`` (default) fans chunks out to worker threads sharing
        one engine and all caches; ``"process"`` fans chunks out to a pool
        of worker processes, each rehydrating its own engine from a
        picklable :class:`EngineSpec` (see the module docstring for the
        decision rule: I/O-bound oracle → threads, CPU-bound → processes).
        Process mode requires rows and oracles to be picklable, and a
        sqlite master to be file-backed (``path=...``), since its handle
        is re-opened per worker.
    concurrency:
        Workers per chunk (1 = sequential for the thread executor).
        Threads share the read-only master state and all caches; processes
        each hold their own copy, so per-run reports aggregate per-worker
        stats instead (``BatchReport.worker_stats``).
    mp_start_method:
        Process executor only: the :mod:`multiprocessing` start method
        (``"fork"``, ``"spawn"``, ``"forkserver"``; None = platform
        default).
    on_incomplete:
        ``"keep"`` returns truncated sessions (``completed=False``) in
        place; ``"raise"`` surfaces the first one as :class:`IncompleteFix`.
    preflight:
        Lint gate in front of every precompute (regions, the BDD):
        ``"error"`` (default) raises
        :class:`~repro.lint.diagnostics.LintError` when the rule program
        has error-level structural findings, ``"warn"`` prints findings to
        stderr and continues, ``"off"`` skips linting entirely, and
        ``"certify"`` additionally runs the exact master-aware
        certification passes (E205/W206/I208) against the master store —
        refusing provably inconsistent programs before any repair runs.
    engine_options:
        Forwarded to the underlying :class:`CertainFix` (``max_rounds``,
        ``max_revisions``, ``validate_uniqueness``, ...).

    A process pool is created lazily on the first ``run()`` and reused
    across runs (workers keep their warmed caches); call :meth:`close` (or
    use the engine as a context manager) to shut it down deterministically.
    """

    def __init__(
        self,
        rules: Sequence,
        master: Relation,
        schema: RelationSchema,
        regions: list = None,
        use_bdd: bool = True,
        memoize: bool = True,
        chunk_size: int = 256,
        executor: str = "thread",
        concurrency: int = 1,
        mp_start_method: str = None,
        on_incomplete: str = "keep",
        preflight: str = "error",
        **engine_options,
    ):
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        if concurrency < 1:
            raise ValueError(f"concurrency must be >= 1, got {concurrency}")
        if executor not in ("thread", "process"):
            raise ValueError(
                f"executor must be 'thread' or 'process', got {executor!r}"
            )
        if on_incomplete not in ("keep", "raise"):
            raise ValueError(
                f"on_incomplete must be 'keep' or 'raise', "
                f"got {on_incomplete!r}"
            )
        # Lint BEFORE any precompute: a rule program with error-level
        # findings would crash (or silently corrupt) the region/BDD build
        # below; surface the diagnostics while they are still cheap.
        from repro.lint import preflight as lint_preflight

        lint_preflight(
            rules, schema,
            master_schema=as_master_store(master).schema,
            mode=preflight, context="BatchRepairEngine rule program",
            master=master,
        )
        self.chunk_size = chunk_size
        self.executor = executor
        self.concurrency = concurrency
        self.mp_start_method = mp_start_method
        self.on_incomplete = on_incomplete
        # Non-BDD streams get the suggest memo (ROADMAP follow-up): same
        # validated-pattern key as the chase/TransFix memos, same versioned
        # invalidation.  With the BDD on, the cursor path serves suggestions
        # and the memo would be dead weight.
        engine_options.setdefault("memoize_suggest", memoize and not use_bdd)
        # Provenance records are a handful of tuples per monitored tuple —
        # cheap next to a chase — and the batch report's fixes_by_rule
        # rollup needs them, so the batch engine collects by default.
        engine_options.setdefault("collect_provenance", True)
        self._use_bdd = use_bdd
        self._memoize = memoize
        self._engine_options = dict(engine_options)
        self._engine = _MemoCertainFix(
            rules, master, schema,
            regions=regions, use_bdd=use_bdd, memoize=memoize,
            **engine_options,
        )
        if executor == "thread" and concurrency > 1 and use_bdd:
            self._engine._bdd_lock = threading.Lock()
        self._pool = None
        self._pool_version = None  # newest version every worker is known
        #                            to hold (starts at the spec's stamp)
        self._worker_versions = {}  # worker label -> last acked version
        self._snapshot_cache = None  # (version, rows) for in-memory resync
        # Precompute everything shareable up front so run() never pays
        # per-session setup: regions (CertainFix builds master indexes in
        # its own constructor already).  Timed: every run's report carries
        # the construction cost it amortizes (timings["region_precompute_s"]).
        started = time.perf_counter()
        self._engine.regions  # noqa: B018 — forces the (cached) computation
        self._region_precompute_s = time.perf_counter() - started

    @property
    def engine(self) -> CertainFix:
        """The shared underlying CertainFix engine (caches included)."""
        return self._engine

    @property
    def store(self):
        """The engine's :class:`~repro.engine.store.MasterStore`.

        Mutations made through it (``insert`` / ``delete`` / ``update``)
        are picked up before the next monitored tuple.
        """
        return self._engine.store

    # -- process-pool lifecycle ------------------------------------------------

    def _make_spec(self) -> EngineSpec:
        return EngineSpec(
            rules=tuple(self._engine.rules),
            schema=self._engine.schema,
            store_handle=self._engine.store.detach(),
            use_bdd=self._use_bdd,
            memoize=self._memoize,
            engine_options=tuple(sorted(self._engine_options.items())),
        )

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            spec = self._make_spec()
            context = multiprocessing.get_context(self.mp_start_method)
            self._pool = ProcessPoolExecutor(
                max_workers=self.concurrency,
                mp_context=context,
                initializer=_process_worker_init,
                initargs=(spec,),
            )
            self._pool_version = spec.store_handle.version
            self._worker_versions = {}
        return self._pool

    def close(self) -> None:
        """Shut the process pool down (no-op for the thread executor).

        The engine stays usable: the next process run builds a fresh pool
        (workers re-warm from the then-current master state).
        """
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
            self._pool_version = None
            self._worker_versions = {}

    def __enter__(self) -> "BatchRepairEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _task_for(self, seq: int, chunk: list) -> tuple:
        """Build one worker task, attaching the master-resync payload.

        Every task carries the parent store's current version.  When it is
        newer than ``_pool_version`` (the newest stamp every worker is
        known to hold) and the backend does not share storage across
        processes (in-memory masters), the task also ships a row snapshot
        so whichever worker picks it up can rebuild — workers skip the
        resync when their stamp already matches, and once all
        ``concurrency`` workers have acked the new stamp through their
        chunk results, ``_pool_version`` catches up and snapshots stop
        shipping (a late-spawning worker rehydrates from the original
        spec, so the ack must come from every worker, not just the ones
        seen so far).
        """
        store = self._engine.store
        version = store.version
        snapshot = None
        deltas = None
        if version != self._pool_version:
            acked = sum(
                1 for v in self._worker_versions.values() if v >= version
            )
            if acked >= self.concurrency:
                self._pool_version = version
            else:
                # Ship the journal gap alongside: a worker that can adopt
                # the deltas resyncs per-key (and its engine then purges
                # per-key too) instead of replacing its whole store state.
                # None when the journal cannot vouch for the gap — workers
                # then use the snapshot / shared-file fallback.
                deltas = store.deltas_since(self._pool_version)
                if not store.shares_storage_across_processes:
                    if self._snapshot_cache is None or \
                            self._snapshot_cache[0] != version:
                        self._snapshot_cache = (version, tuple(store))
                    snapshot = self._snapshot_cache[1]
        return (seq, chunk, version, snapshot, deltas)

    # -- execution -------------------------------------------------------------

    def _safe_store_version(self) -> int:
        """The store version for reporting — never raises.

        Reading a remote store's version can itself need the network; a
        report built *because* the store died must not die the same way.
        """
        try:
            return self._engine.store.version
        except StoreError:
            return self._engine._master_version

    def run(self, pairs: Iterable, progress=None) -> BatchResult:
        """Monitor a stream of ``(dirty_row, oracle)`` pairs.

        The stream is consumed lazily in chunks of ``chunk_size``; sessions
        come back in stream order regardless of ``executor`` or
        ``concurrency`` (process chunks carry sequence numbers and are
        merged in submission order).

        *progress* is an optional :class:`repro.obs.ProgressReporter`: it is
        advanced once per completed chunk with the running cache hit rates
        and per-worker tuple counts, and always receives a final
        :meth:`~repro.obs.ProgressReporter.finish` — including after a
        mid-run store failure, so the last heartbeat reflects everything
        that completed.
        """
        if self.executor == "process":
            return self._run_process(pairs, progress)
        return self._run_threaded(pairs, progress)

    def _run_process(self, pairs: Iterable, progress=None) -> BatchResult:
        """Fan chunks out to the worker processes; merge in stream order."""
        pool = self._ensure_pool()
        engine = self._engine
        sessions: list = []
        worker_stats: dict = {}
        totals = {
            "chase": [0, 0], "transfix": [0, 0], "suggestions": [0, 0],
            "invalidations": 0, "delta_purges": 0, "full_drops": 0,
            "warm_s": 0.0, "image": dict.fromkeys(_IMAGE_COUNTERS, 0),
        }

        def hit_rates() -> dict:
            rates = {
                "chase": _rate(*totals["chase"]),
                "transfix": _rate(*totals["transfix"]),
            }
            if totals["suggestions"][0] or totals["suggestions"][1]:
                rates["suggest"] = _rate(*totals["suggestions"])
            return rates

        def worker_tuples() -> dict:
            return {
                worker: stats["tuples"]
                for worker, stats in worker_stats.items()
            }

        def consume(future) -> None:
            result = future.result()
            chunk_sessions = result["sessions"]
            for offset, session in enumerate(chunk_sessions):
                if not session.completed and self.on_incomplete == "raise":
                    raise IncompleteFix(session, index=len(sessions) + offset)
            sessions.extend(chunk_sessions)
            self._worker_versions[result["worker"]] = max(
                result["store_version"],
                self._worker_versions.get(result["worker"], 0),
            )
            for name in ("chase", "transfix", "suggestions"):
                totals[name][0] += result[name][0]
                totals[name][1] += result[name][1]
            totals["invalidations"] += result["invalidations"]
            totals["delta_purges"] += result["delta_purges"]
            totals["full_drops"] += result["full_drops"]
            totals["warm_s"] += result["warm_s"]
            for name, value in result["image"].items():
                totals["image"][name] += value
            stats = worker_stats.setdefault(result["worker"], {
                "chunks": 0, "tuples": 0,
                "chase_hits": 0, "chase_misses": 0,
                "transfix_hits": 0, "transfix_misses": 0,
                "suggestion_hits": 0, "suggestion_misses": 0,
            })
            stats["chunks"] += 1
            stats["tuples"] += len(chunk_sessions)
            stats["chase_hits"] += result["chase"][0]
            stats["chase_misses"] += result["chase"][1]
            stats["transfix_hits"] += result["transfix"][0]
            stats["transfix_misses"] += result["transfix"][1]
            stats["suggestion_hits"] += result["suggestions"][0]
            stats["suggestion_misses"] += result["suggestions"][1]
            if progress is not None:
                progress.advance(
                    len(chunk_sessions),
                    rates=hit_rates(),
                    workers=worker_tuples(),
                )

        # Keep a bounded window of chunks in flight: enough to feed every
        # worker with one chunk of lookahead, without materializing an
        # unbounded stream in the submission queue.
        max_inflight = 2 * self.concurrency
        pending: deque = deque()
        chunks = 0
        store_failure = None
        started = time.perf_counter()
        try:
            for chunk in _chunked(pairs, self.chunk_size):
                task = self._task_for(chunks, chunk)
                chunks += 1
                pending.append(pool.submit(_process_worker_chunk, task))
                if len(pending) >= max_inflight:
                    consume(pending.popleft())
            while pending:
                consume(pending.popleft())
        except StoreError as exc:
            # Infrastructure died mid-run (a worker's master connection,
            # usually).  Report what completed and re-raise with the
            # report attached — see BatchReport.store_errors.
            store_failure = exc
            for future in pending:
                future.cancel()
        elapsed = time.perf_counter() - started
        if progress is not None:
            progress.finish(rates=hit_rates(), workers=worker_tuples())

        report = BatchReport(
            tuples=len(sessions),
            completed=sum(1 for s in sessions if s.completed),
            incomplete=sum(1 for s in sessions if not s.completed),
            rounds=sum(s.round_count for s in sessions),
            chunks=chunks,
            elapsed=elapsed,
            concurrency=self.concurrency,
            chunk_size=self.chunk_size,
            executor="process",
            workers=self.concurrency,
            worker_stats=worker_stats,
            regions_precomputed=len(engine.regions),
            chase_memo=MemoStats(*totals["chase"]),
            transfix_memo=MemoStats(*totals["transfix"]),
            suggestion_hits=totals["suggestions"][0],
            suggestion_misses=totals["suggestions"][1],
            cache_invalidations=totals["invalidations"],
            delta_purges=totals["delta_purges"],
            full_drops=totals["full_drops"],
            image_cache=totals["image"],
            master_version=self._safe_store_version(),
            timings={
                "region_precompute_s": self._region_precompute_s,
                "probe_warmup_s": totals["warm_s"],
            },
            fixes_by_rule=count_fixes_by_rule(sessions),
            store_errors=(
                [str(store_failure)] if store_failure is not None else []
            ),
        )
        if store_failure is not None:
            store_failure.report = report
            raise store_failure
        return BatchResult(sessions=sessions, report=report)

    def _run_threaded(self, pairs: Iterable, progress=None) -> BatchResult:
        engine = self._engine
        chase_before = engine.chase_stats.snapshot()
        transfix_before = engine.transfix_stats.snapshot()
        invalidations_before = engine.cache_invalidations
        delta_purges_before = engine.delta_purges
        full_drops_before = engine.full_drops
        image_before = _image_counters(engine.store)
        bdd_before = engine.cache_stats
        bdd_hits0 = bdd_before.hits if bdd_before is not None else 0
        bdd_misses0 = bdd_before.misses if bdd_before is not None else 0

        def hit_rates() -> dict:
            rates = {
                "chase": engine.chase_stats.delta(chase_before).hit_rate,
                "transfix": engine.transfix_stats.delta(
                    transfix_before
                ).hit_rate,
            }
            sugg = engine.cache_stats
            if sugg is not None:
                hits = sugg.hits - bdd_hits0
                misses = sugg.misses - bdd_misses0
                if hits or misses:
                    rates["suggest"] = _rate(hits, misses)
            return rates

        sessions: list = []
        worker_stats: dict = {}
        chunks = 0
        store_failure = None
        pool = (
            ThreadPoolExecutor(max_workers=self.concurrency)
            if self.concurrency > 1
            else None
        )
        if pool is not None:
            # Split the shared memo counters by thread, so concurrent
            # thread runs report per-worker rows just like process runs.
            engine.enable_thread_stats()
        started = time.perf_counter()
        try:
            for chunk in _chunked(pairs, self.chunk_size):
                chunks += 1
                if pool is not None:
                    def monitored(pair, _seq=chunks):
                        session = engine.fix(*pair)
                        engine.note_thread_session(_seq)
                        return session

                    chunk_sessions = list(pool.map(monitored, chunk))
                else:
                    chunk_sessions = [
                        engine.fix(row, oracle) for row, oracle in chunk
                    ]
                for offset, session in enumerate(chunk_sessions):
                    if not session.completed and self.on_incomplete == "raise":
                        raise IncompleteFix(
                            session, index=len(sessions) + offset
                        )
                sessions.extend(chunk_sessions)
                if progress is not None:
                    progress.advance(len(chunk_sessions), rates=hit_rates())
        except StoreError as exc:
            # Infrastructure died mid-run; report what completed and
            # re-raise with the report attached (BatchReport.store_errors).
            store_failure = exc
        finally:
            if pool is not None:
                pool.shutdown(wait=True)
                # Labels are assigned in first-lookup order, so they are
                # stable for a given interleaving but not across runs.
                for index, stats in enumerate(
                    engine.drain_thread_stats().values(), start=1
                ):
                    stats.pop("_chunk", None)
                    worker_stats[f"thread-{index}"] = stats
        elapsed = time.perf_counter() - started
        if progress is not None:
            progress.finish(
                rates=hit_rates(),
                workers={
                    worker: stats["tuples"]
                    for worker, stats in worker_stats.items()
                } or None,
            )

        bdd_after = engine.cache_stats
        report = BatchReport(
            tuples=len(sessions),
            completed=sum(1 for s in sessions if s.completed),
            incomplete=sum(1 for s in sessions if not s.completed),
            rounds=sum(s.round_count for s in sessions),
            chunks=chunks,
            elapsed=elapsed,
            concurrency=self.concurrency,
            chunk_size=self.chunk_size,
            executor="thread",
            workers=self.concurrency,
            worker_stats=worker_stats,
            regions_precomputed=len(engine.regions),
            chase_memo=engine.chase_stats.delta(chase_before),
            transfix_memo=engine.transfix_stats.delta(transfix_before),
            suggestion_hits=(
                bdd_after.hits - bdd_hits0 if bdd_after is not None else 0
            ),
            suggestion_misses=(
                bdd_after.misses - bdd_misses0 if bdd_after is not None else 0
            ),
            cache_invalidations=(
                engine.cache_invalidations - invalidations_before
            ),
            delta_purges=engine.delta_purges - delta_purges_before,
            full_drops=engine.full_drops - full_drops_before,
            image_cache=_counter_delta(
                _image_counters(engine.store), image_before
            ),
            master_version=self._safe_store_version(),
            timings={
                "region_precompute_s": self._region_precompute_s,
                "probe_warmup_s": 0.0,
            },
            fixes_by_rule=count_fixes_by_rule(sessions),
            store_errors=(
                [str(store_failure)] if store_failure is not None else []
            ),
        )
        if store_failure is not None:
            store_failure.report = report
            raise store_failure
        return BatchResult(sessions=sessions, report=report)

    def run_dirty(self, dirty_tuples: Iterable, progress=None) -> BatchResult:
        """Monitor a :class:`repro.datasets.dirty.DirtyDataset` (or any
        iterable of objects with ``dirty``/``clean`` rows) against simulated
        truthful users, as the paper's experiments do."""
        return self.run(
            ((dt.dirty, SimulatedUser(dt.clean)) for dt in dirty_tuples),
            progress=progress,
        )

    def run_csv(
        self,
        dirty_path,
        clean_path=None,
        oracle_factory: Callable = None,
        progress=None,
    ) -> BatchResult:
        """Stream a dirty CSV file through the engine (constant memory).

        Exactly one feedback source must be provided: *clean_path*, a CSV
        aligned row-for-row with the dirty file whose values play the
        truthful simulated user, or *oracle_factory*, a callable mapping a
        dirty :class:`Row` to an oracle (with ``executor="process"`` the
        produced oracles must be picklable).  Misaligned dirty/clean files
        raise ``ValueError`` naming both paths and row counts rather than
        silently truncating to the shorter stream.
        """
        if (clean_path is None) == (oracle_factory is None):
            raise ValueError(
                "provide exactly one of clean_path or oracle_factory"
            )
        schema = self._engine.schema
        dirty = stream_rows_from_csv(dirty_path, schema=schema)
        if clean_path is not None:
            clean = stream_rows_from_csv(clean_path, schema=schema)
            pairs = _aligned_pairs(dirty, clean, dirty_path, clean_path)
        else:
            pairs = ((d, oracle_factory(d)) for d in dirty)
        return self.run(pairs, progress=progress)


def _aligned_pairs(dirty, clean, dirty_path, clean_path):
    """Zip the two streams strictly — never ``zip``'s silent truncation.

    A clean file shorter than the dirty one would silently leave the tail
    of the stream unmonitored (and a longer one would silently ignore
    ground truth), so when either stream ends first the other is drained
    to count it, and a ``ValueError`` naming both paths and both row
    counts surfaces through :meth:`BatchRepairEngine.run_csv`.
    """
    _end = object()
    dirty_rows, clean_rows = iter(dirty), iter(clean)
    index = 0
    while True:
        d = next(dirty_rows, _end)
        c = next(clean_rows, _end)
        if d is _end and c is _end:
            return
        if (d is _end) or (c is _end):
            # Drain the longer stream so the error can name both totals.
            longer = clean_rows if d is _end else dirty_rows
            surplus = 1 + sum(1 for _ in longer)
            dirty_count = index if d is _end else index + surplus
            clean_count = index if c is _end else index + surplus
            raise ValueError(
                f"dirty and clean CSVs are not aligned row-for-row: "
                f"{dirty_path} has {dirty_count} data rows but "
                f"{clean_path} has {clean_count}"
            )
        yield d, SimulatedUser(c)
        index += 1
