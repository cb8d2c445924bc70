"""The benchmark's workloads, their inputs and one measured cycle.

A *cycle* is what a user of the monitoring service pays for: open the
master store (and start the master server), build the batch engine, monitor
a stream of never-seen dirty tuples, then monitor identical replays of
the stream on the same warm engine.  Every cycle starts from a fresh store
and engine, so the fresh stream always meets cold caches.  Each workload
is a closed loop from one process: the next tuple is sent only after the
previous one is fixed, on the sequential executor.

Every final row is checked against the generator's clean tuple.  Certain
fixes reproduce the ground truth exactly, so a row that differs, or a
session that ended incomplete, is a failed tuple.
"""

from __future__ import annotations

import gc
import os
import re
import signal
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from repro.datasets import make_dblp, make_dirty_dataset, make_hosp
from repro.engine.csvio import relation_to_csv, stream_rows_from_csv
from repro.engine.relation import Relation
from repro.engine.remote import RemoteStore
from repro.engine.store import InMemoryStore, SqliteStore, StoreError
from repro.engine.tuples import Row
from repro.repair.batch import BatchRepairEngine
from repro.repair.oracle import SimulatedUser

import tracer as tracing

MASTER_SIZE = 1500
STREAM_SIZE = 1000
DUPLICATE_RATE = 0.30
NOISE_RATE = 0.20
#: Tuples per timed block.
BLOCK = 50
#: Identical replays of the stream after the fresh pass, per cycle.
REPLAYS = 3
#: The master is each generator's canonical one; ``--seed`` drives the
#: dirty stream.  A workload's reason (fan-in, LRU fit, rebuild cost) is a
#: property of its master, so it holds for every seed.
MASTER_SEED = {"hosp": 7, "dblp": 11}


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str      # "hosp" or "dblp"
    backend: str      # "memory", "sqlite" or "remote"
    write_every: int  # fresh tuples per master write; 0 = no writes
    why: str


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "hosp-fresh", "hosp", "memory", 0,
            "HOSP in memory: chase and TransFix dominate and the memo hits "
            "about 1% of fresh lookups, so the fresh stream bypasses the "
            "memo and the replay runs on it; no wire, no writes",
        ),
        Workload(
            "dblp-sqlite", "dblp", "sqlite", 0,
            "DBLP in sqlite: extreme probe fan-in (the type probe returns "
            "the whole master), BDD/Suggest is a third of the time, region "
            "precompute dominates set-up, probe keys fit the LRU",
        ),
        Workload(
            "hosp-remote-churn", "hosp", "remote", 100,
            "HOSP over HTTP from a serve-master child, one master write per "
            "100 fresh tuples through the delta journal, then a write-free "
            "replay; the client LRU overflows: writes beside reads",
        ),
    )
}


@dataclass
class Inputs:
    """Everything the program receives: rules, rows and ground truth."""

    rules: list
    schema: object
    master_rows: list
    dirty: list
    clean: list
    master_csv: Path = None


def make_inputs(workload: Workload, seed: int, workdir: Path,
                size: int = STREAM_SIZE) -> Inputs:
    """Generate the master and the dirty stream (from *seed*).

    The remote workload serves the master from a CSV file, and CSV loads
    every value as a string, so its stream takes the same CSV round trip:
    rows, rules and ground truth then agree on one all-string schema.
    """
    if workload.dataset == "hosp":
        bundle = make_hosp(num_hospitals=MASTER_SIZE // 10, num_measures=10,
                           seed=MASTER_SEED["hosp"])
    else:
        bundle = make_dblp(num_papers=MASTER_SIZE,
                           num_authors=MASTER_SIZE // 3,
                           num_venues=MASTER_SIZE // 20,
                           seed=MASTER_SEED["dblp"])
    data = make_dirty_dataset(bundle, size=size,
                              duplicate_rate=DUPLICATE_RATE,
                              noise_rate=NOISE_RATE, seed=seed)
    dirty = [d.dirty for d in data]
    clean = [d.clean for d in data]
    if workload.backend != "remote":
        return Inputs(bundle.rules, bundle.schema,
                      list(bundle.master.iter_rows()), dirty, clean)

    paths = {name: workdir / f"{name}.csv"
             for name in ("master", "dirty", "clean")}
    relation_to_csv(bundle.master, paths["master"])
    relation_to_csv(Relation(bundle.schema, dirty), paths["dirty"])
    relation_to_csv(Relation(bundle.schema, clean), paths["clean"])
    stream = stream_rows_from_csv(paths["dirty"], name=bundle.schema.name)
    schema = stream.schema
    return Inputs(
        bundle.rules, schema, [], list(stream),
        list(stream_rows_from_csv(paths["clean"], schema=schema)),
        master_csv=paths["master"],
    )


# -- host speed ----------------------------------------------------------------

#: What :func:`host_scale` times: a fixed pure-Python loop of dict and
#: tuple work, the operations the engine's hot paths are made of.
KERNEL_STEPS = 20_000

#: The kernel's best time on a 2-core x86-64 VM running CPython 3.11 at
#: full speed; scaled times read as times on that VM at full speed.
KERNEL_REFERENCE_S = 0.0033


def _kernel() -> int:
    table: dict = {}
    total = 0
    for i in range(KERNEL_STEPS):
        key = (i % 97, i % 89)
        total += table.get(key, 0)
        table[key] = i
    return total


def host_scale() -> float:
    """``KERNEL_REFERENCE_S`` over the kernel's time now (best of two).

    Shared hosts run this process at two speeds that differ by up to 1.7x
    for stretches of seconds to minutes.  Multiplying a measured time by
    the scale taken around it converts it to the reference host speed, so
    a run on a slowed host reports what the program costs, not what the
    neighbours cost.  Garbage collection is off while the kernel runs, so
    the program's heap cannot change the kernel's time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(2):
            started = time.perf_counter()
            _kernel()
            best = min(best, time.perf_counter() - started)
    finally:
        if enabled:
            gc.enable()
    return KERNEL_REFERENCE_S / best


# -- the serve-master child process -------------------------------------------


class ServerError(RuntimeError):
    """The master server did not start, or did not stop cleanly."""


class MasterServerProcess:
    """``python -m repro serve-master --port 0`` as a child process.

    The child's output goes to a file (a pipe nobody drains could block
    it); :meth:`start` waits for its ``url:`` line.  :meth:`stop` sends
    SIGINT, which the command answers by closing the server and exiting
    0, and raises :class:`ServerError` on any other exit status.  It
    always waits for the child, killing it if it does not stop in time.
    """

    _URL = re.compile(r"url: (http://\S+)")

    def __init__(self, master_csv: Path, root: Path, log: Path):
        self._argv = [sys.executable, "-u", "-m", "repro", "serve-master",
                      "--master", str(master_csv), "--port", "0"]
        self._root = root
        self._log_path = log
        self._proc = None
        self.url = None

    def start(self, timeout: float = 60.0) -> "MasterServerProcess":
        env = dict(os.environ, PYTHONPATH=str(self._root / "src"))
        with open(self._log_path, "wb") as log:
            self._proc = subprocess.Popen(
                self._argv, cwd=self._root, env=env, stdout=log,
                stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
            )
        deadline = time.monotonic() + timeout
        while self.url is None:
            match = self._URL.search(self._log_path.read_text())
            if match:
                self.url = match.group(1)
            elif self._proc.poll() is not None:
                raise ServerError(
                    f"serve-master exited with status "
                    f"{self._proc.returncode} before serving: {self._log()}")
            elif time.monotonic() > deadline:
                raise ServerError(f"serve-master printed no url within "
                                  f"{timeout:.0f}s: {self._log()}")
            else:
                time.sleep(0.002)
        return self

    def _log(self) -> str:
        return self._log_path.read_text().strip()[-500:]

    def stop(self, timeout: float = 20.0) -> None:
        proc, self._proc = self._proc, None
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise ServerError(f"serve-master ignored SIGINT for "
                                  f"{timeout:.0f}s and was killed")
        if proc.returncode != 0:
            raise ServerError(f"serve-master exited with status "
                              f"{proc.returncode}: {self._log()}")


# -- master writes ------------------------------------------------------------


class Writer:
    """Master writes that leave the stream's ground truth intact.

    Writes rotate through insert, update and delete, and touch only rows
    the benchmark inserted, whose every value is a fresh string no stream
    tuple carries: no probe of the stream can match them, so every fix
    stays the same.  After each write the engine is resynchronised, which
    is where the delta journal purges its caches.
    """

    OPS = ("insert", "update", "delete")

    def __init__(self, store, engine):
        self._store = store
        self._engine = engine
        self._pool: list = []
        self.count = 0
        self.latencies: list = []

    def _fresh_row(self) -> Row:
        schema = self._store.schema
        return Row(schema, [f"certbench-w{self.count}-{i}"
                            for i in range(len(schema))])

    def step(self) -> None:
        op = self.OPS[self.count % 3]
        started = time.perf_counter()
        if op == "insert":
            row = self._fresh_row()
            self._store.insert(row)
            self._pool.append(row)
            done = True
        elif op == "update":
            new = self._fresh_row()
            done = self._store.update(self._pool.pop(), new)
            self._pool.append(new)
        else:
            done = self._store.delete(self._pool.pop())
        self.latencies.append(time.perf_counter() - started)
        if not done:
            raise StoreError(f"master {op} #{self.count} matched no row")
        self._engine.resync_master()
        self.count += 1


# -- one cycle ----------------------------------------------------------------


@dataclass
class Phase:
    """One pass over the stream (fresh or replay)."""

    tuples: int = 0
    #: Wall time of each block of BLOCK tuples (and its master write).
    block_s: list = field(default_factory=list)
    #: Each block's host-speed scale (see :func:`host_scale`).
    block_scale: list = field(default_factory=list)
    failed: int = 0
    rounds: int = 0
    #: Per-round latency in stream order, scaled like its block.
    round_latencies: list = field(default_factory=list)
    finals: list = field(default_factory=list)
    chase_memo: list = field(default_factory=lambda: [0, 0])
    transfix_memo: list = field(default_factory=lambda: [0, 0])
    suggestions: list = field(default_factory=lambda: [0, 0])
    requests: int = 0

    @property
    def raw_tps(self) -> float:
        return self.tuples / sum(self.block_s)

    def scaled_blocks(self) -> list:
        return [t * k for t, k in zip(self.block_s, self.block_scale)]


@dataclass
class Cycle:
    setup_s: float = 0.0
    #: ``setup_s`` times the host-speed scale measured around it.
    scaled_setup_s: float = 0.0
    fresh: Phase = None
    replays: list = field(default_factory=list)
    writes: int = 0
    write_latencies: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    lru: dict = field(default_factory=dict)
    connection: dict = field(default_factory=dict)
    error: str = None
    layers: dict = None
    distinct_probe_keys: int = 0

    @property
    def phases(self) -> list:
        return ([self.fresh] if self.fresh else []) + self.replays

    @property
    def attempted(self) -> int:
        return sum(p.tuples for p in self.phases)

    @property
    def failed(self) -> int:
        return sum(p.failed for p in self.phases)

    def exact_counts(self) -> dict:
        """Counts that must repeat exactly for the same inputs."""
        out = dict(self.counters)
        for label, phase in zip(phase_labels(), self.phases):
            out[f"{label}.rounds"] = phase.rounds
            out[f"{label}.chase_memo"] = tuple(phase.chase_memo)
            out[f"{label}.transfix_memo"] = tuple(phase.transfix_memo)
            out[f"{label}.suggestions"] = tuple(phase.suggestions)
            out[f"{label}.requests"] = phase.requests
        out["lru"] = tuple(sorted(self.lru.items()))
        out["writes"] = self.writes
        return out


def phase_labels() -> list:
    return ["fresh"] + [f"replay{i}" for i in range(1, REPLAYS + 1)]


def _requests(store) -> int:
    info = getattr(store, "connection_info", None)
    return info()["requests"] if info else 0


def _run_phase(batch, store, inputs, tracer, writer=None,
               write_every: int = 0) -> Phase:
    """Monitor the whole stream once, block by block, checking every final
    row.  With a *writer*, a master write follows every *write_every*
    tuples, inside the timed block it ends."""
    phase = Phase()
    pairs = [(d, SimulatedUser(c)) for d, c in zip(inputs.dirty, inputs.clean)]
    gc.collect()
    requests_before = _requests(store)
    scale_before = host_scale()
    for start in range(0, len(pairs), BLOCK):
        started = time.perf_counter()
        with tracer.span("batch") if tracer else nullcontext():
            result = batch.run(pairs[start:start + BLOCK])
        if write_every and (start + BLOCK) % write_every == 0:
            writer.step()
        phase.block_s.append(time.perf_counter() - started)
        scale_after = host_scale()
        scale = (scale_before + scale_after) / 2
        scale_before = scale_after
        phase.block_scale.append(scale)
        phase.finals.extend(s.final.values for s in result.sessions)
        for session, clean in zip(result.sessions,
                                  inputs.clean[start:start + BLOCK]):
            phase.tuples += 1
            phase.rounds += session.round_count
            phase.round_latencies.extend(
                r.elapsed * scale for r in session.rounds)
            if not session.completed or session.final.values != clean.values:
                phase.failed += 1
        report = result.report
        phase.chase_memo[0] += report.chase_memo.hits
        phase.chase_memo[1] += report.chase_memo.misses
        phase.transfix_memo[0] += report.transfix_memo.hits
        phase.transfix_memo[1] += report.transfix_memo.misses
        phase.suggestions[0] += report.suggestion_hits
        phase.suggestions[1] += report.suggestion_misses
    phase.requests = _requests(store) - requests_before
    return phase


def open_store(workload: Workload, inputs: Inputs, server_url: str = None):
    if workload.backend == "remote":
        return RemoteStore(server_url)
    if workload.backend == "sqlite":
        return SqliteStore(inputs.schema, inputs.master_rows)
    return InMemoryStore(Relation(inputs.schema, inputs.master_rows))


def run_cycle(workload: Workload, inputs: Inputs, root: Path, workdir: Path,
              tracer: tracing.Tracer = None, setup_only: bool = False) -> Cycle:
    """Set up, monitor the fresh stream, replay it; see the module doc.
    With *setup_only*, stop after the set-up (``Cycle.fresh`` stays None)."""
    cycle = Cycle()
    server = store = batch = None
    gc.collect()
    try:
        if tracer is not None:
            tracer.install()
        scale_before = host_scale()
        started = time.perf_counter()
        url = None
        if workload.backend == "remote":
            server = MasterServerProcess(inputs.master_csv, root,
                                         workdir / "serve-master.log")
            url = server.start().url
        store = open_store(workload, inputs, url)
        if tracer is not None:
            tracer.attach_store(store)
        batch = BatchRepairEngine(inputs.rules, store, inputs.schema)
        if tracer is not None:
            tracer.attach_engine(batch.engine)
        cycle.setup_s = time.perf_counter() - started
        cycle.scaled_setup_s = cycle.setup_s * (
            scale_before + host_scale()) / 2
        if setup_only:
            return cycle
        writer = Writer(store, batch.engine)
        cycle.fresh = _run_phase(batch, store, inputs, tracer, writer,
                                 workload.write_every)
        for _ in range(REPLAYS):
            cycle.replays.append(_run_phase(batch, store, inputs, tracer))
        cycle.writes = writer.count
        cycle.write_latencies = writer.latencies
        engine = batch.engine
        cycle.counters = {
            "probe_ref_calls": store.probe_ref_calls,
            "cache_invalidations": engine.cache_invalidations,
            "delta_purges": engine.delta_purges,
            "full_drops": engine.full_drops,
        }
        info = getattr(store, "probe_cache_info", None)
        cycle.lru = {k: v for k, v in info().items()
                     if k != "probe_ref_calls"} if info else {}
        if hasattr(store, "connection_info"):
            cycle.connection = dict(store.connection_info())
    except (StoreError, ServerError) as exc:
        cycle.error = f"{type(exc).__name__}: {exc}"
    finally:
        if tracer is not None:
            tracer.uninstall()
            leaks = tracing.leaked_bindings(
                *(x for x in (store, batch and batch.engine) if x))
            if leaks and cycle.error is None:
                cycle.error = f"tracer left wrappers behind: {leaks}"
        close = getattr(store, "close", None)
        if close is not None:
            close()
        if server is not None:
            try:
                server.stop()
            except ServerError as exc:
                cycle.error = cycle.error or f"ServerError: {exc}"
    if tracer is not None and cycle.error is None:
        cycle.layers = layer_metrics(tracer, cycle)
        cycle.distinct_probe_keys = len(tracer.probe_keys)
    return cycle


# -- per-layer metrics from a traced cycle -------------------------------------


def _rate(hits_misses) -> float:
    hits, misses = hits_misses
    return hits / (hits + misses) if hits + misses else 0.0


def layer_metrics(tracer: tracing.Tracer, cycle: Cycle) -> dict:
    """Per-layer counts and times of one traced cycle."""
    spans = tracer.spans
    selfs = tracer.self_times()
    N, S, E, P, R, W = (tracing.NAME, tracing.START, tracing.END,
                        tracing.PARENT, tracing.ROWS, tracing.WIRE)
    calls: dict = {}
    total: dict = {}
    self_s: dict = {}
    rows_under: dict = {}
    write_durations = []
    wire_s = 0.0
    for i, span in enumerate(spans):
        name = span[N]
        duration = span[E] - span[S]
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + duration
        self_s[name] = self_s.get(name, 0.0) + selfs[i]
        if span[W]:
            wire_s += duration
        if name == "store.write":
            write_durations.append(duration)
        if span[R] and span[P] >= 0:
            parent = spans[span[P]][N]
            rows_under[parent] = rows_under.get(parent, 0) + span[R]
    rows_returned = sum(span[R] for span in spans if span[N] == "store.probe")
    phases = cycle.phases

    def summed(attr):
        return [sum(getattr(p, attr)[k] for p in phases) for k in (0, 1)]

    lru = cycle.lru
    probe_calls = calls.get("store.probe", 0)
    chase_calls = calls.get("chase", 0)
    return {
        "chase.calls": chase_calls,
        "chase.self_s": self_s.get("chase", 0.0),
        "chase.rows_scanned": rows_under.get("chase", 0),
        "chase.rows_per_call": (rows_under.get("chase", 0) / chase_calls
                                if chase_calls else 0.0),
        "transfix.calls": calls.get("transfix", 0),
        "transfix.self_s": self_s.get("transfix", 0.0),
        "transfix.rows_scanned": rows_under.get("transfix", 0),
        "suggest.calls": calls.get("suggest", 0),
        "suggest.self_s": self_s.get("suggest", 0.0),
        "bdd.next_calls": calls.get("bdd.next", 0),
        "bdd.self_s": self_s.get("bdd.next", 0.0),
        "batch.suggestion_hit_rate": _rate(summed("suggestions")),
        "region.builds": calls.get("region", 0),
        "region.build_s": total.get("region", 0.0),
        "batch.self_s": self_s.get("batch", 0.0),
        "batch.chase_memo_hit_rate": _rate(summed("chase_memo")),
        "batch.transfix_memo_hit_rate": _rate(summed("transfix_memo")),
        "store.probe_calls": probe_calls,
        "store.probe_s": total.get("store.probe", 0.0),
        "store.rows_returned": rows_returned,
        "store.rows_per_probe": (rows_returned / probe_calls
                                 if probe_calls else 0.0),
        "store.probe_many_calls": calls.get("store.probe_many", 0),
        "store.probe_many_s": total.get("store.probe_many", 0.0),
        "store.lru_hit_rate": _rate((lru.get("hits", 0),
                                     lru.get("misses", 0))),
        "store.lru_evictions": lru.get("evictions", 0),
        "remote.requests": cycle.connection.get("requests", 0),
        "remote.requests_per_tuple": cycle.fresh.requests / cycle.fresh.tuples,
        "remote.reconnects": cycle.connection.get("reconnects", 0),
        "remote.wire_s": wire_s,
        "invalidate.calls": calls.get("invalidate", 0),
        "invalidate.s": total.get("invalidate", 0.0),
        "invalidate.delta_purges": cycle.counters["delta_purges"],
        "invalidate.full_drops": cycle.counters["full_drops"],
        "write.s": total.get("store.write", 0.0),
        "write.p50_ms": (statistics.median(write_durations) * 1e3
                         if write_durations else 0.0),
        "oracle.calls": calls.get("oracle", 0),
        "oracle.s": total.get("oracle", 0.0),
        # The traced wall time is the set-up plus every timed block.
        "unattributed_s": (cycle.setup_s - sum(selfs) + sum(
            sum(phase.block_s) for phase in phases)),
    }
