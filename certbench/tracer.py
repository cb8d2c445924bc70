"""Span tracer that times calls into each layer from outside the program.

The tracer patches module bindings, class attributes and store-instance
methods with thin wrappers, records one span per call and puts every
original back on :meth:`Tracer.uninstall`.  Nothing under ``src/`` changes:
the wrappers sit on the names the engine already looks up at call time.

A span is ``[name, start, end, parent, tuple_id, rows, wire]``:

* ``parent`` is the index of the enclosing span (-1 at top level);
* ``tuple_id`` counts monitored tuples (the engine's ``fix`` calls), so
  every span of one tuple shares it (-1 outside a tuple);
* ``rows`` is the number of master rows a store read returned;
* ``wire`` is True when a remote store call advanced the client's request
  counter, i.e. the call went over the network.

Self time is a span's duration minus the durations of its children.  The
engine runs sequentially here, so children never overlap.  Spans stay in
memory until :meth:`Tracer.write_spans` writes them out as JSON lines.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

from repro.repair import bdd, certainfix, oracle

NAME, START, END, PARENT, TUPLE, ROWS, WIRE = range(7)

#: Store read methods and the span name each is recorded under.
STORE_READS = {
    "probe": "store.probe",
    "probe_ref": "store.probe",
    "scan_probe": "store.probe",
    "probe_many": "store.probe_many",
}
STORE_WRITES = ("insert", "update", "delete")

#: (owner, attribute, span name) of every traced module binding and class
#: attribute.  ``bdd.suggest`` is the miss path of the BDD cursor.
BINDINGS = (
    (certainfix, "chase", "chase"),
    (certainfix, "transfix", "transfix"),
    (certainfix, "suggest", "suggest"),
    (bdd, "suggest", "suggest"),
    (certainfix, "comp_c_region", "region"),
    (bdd._Cursor, "next_suggestion", "bdd.next"),
    (oracle.SimulatedUser, "assert_correct", "oracle"),
    (oracle.SimulatedUser, "revise", "oracle"),
    (certainfix.CertainFix, "resync_master", "invalidate"),
)
_ORIGINALS = {
    (id(owner), attr): vars(owner)[attr] for owner, attr, _ in BINDINGS
}


def leaked_bindings(*instances) -> list:
    """Traced names that do not hold their original object: module and
    class bindings, and instance methods shadowed on *instances*."""
    found = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in BINDINGS
        if vars(owner).get(attr) is not _ORIGINALS[(id(owner), attr)]
    ]
    for instance in instances:
        for attr in ("fix", *STORE_READS, *STORE_WRITES):
            if attr in vars(instance):
                found.append(f"{type(instance).__name__}.{attr}")
    return found


class Tracer:
    """Collects spans in memory while installed; see the module docstring."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.tuple_id = -1
        self.probe_keys: set = set()
        # (owner, attribute, original, was_in_owner_dict)
        self._patches: list = []

    # -- recording -------------------------------------------------------------

    def _open(self, name: str) -> list:
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                  self.tuple_id, 0, False]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[START] = time.perf_counter()
        return record

    def _close(self, record: list) -> None:
        record[END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            record = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(record)

        return traced

    def _wrap_store(self, name: str, fn, requests, read: str = None):
        """A store-call wrapper; *read* is ``"one"`` for a single-key probe
        and ``"many"`` for ``probe_many``.  Calls nested inside another
        store call (a remote ``probe_ref`` delegating to ``probe``) are
        not spans of their own, so every probe is counted once."""
        spans, stack, keys = self.spans, self._stack, self.probe_keys

        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][NAME].startswith("store."):
                return fn(*args, **kwargs)
            before = requests() if requests is not None else 0
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            if requests is not None and requests() != before:
                record[WIRE] = True
            if read == "one":
                record[ROWS] = len(result)
                keys.add((tuple(args[0]), tuple(args[1])))
            elif read == "many":
                record[ROWS] = sum(len(rows) for rows in result.values())
                attrs = tuple(args[0])
                keys.update((attrs, tuple(key)) for key in result)
            return result

        return traced

    # -- patching --------------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        own = vars(owner)
        self._patches.append((owner, attr, own.get(attr), attr in own))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap the module bindings and class attributes of every layer."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in BINDINGS:
            self._patch(owner, attr, self._wrap(name, getattr(owner, attr)))

    def attach_store(self, store) -> None:
        """Wrap the read and write methods of one store instance."""
        requests = None
        if hasattr(store, "connection_info"):
            def requests():
                return store.connection_info()["requests"]
        for attr, name in STORE_READS.items():
            read = "many" if attr == "probe_many" else "one"
            self._patch(store, attr, self._wrap_store(
                name, getattr(store, attr), requests, read))
        for attr in STORE_WRITES:
            self._patch(store, attr, self._wrap_store(
                "store.write", getattr(store, attr), requests))

    def attach_engine(self, engine) -> None:
        """Number the tuples the engine monitors (no span of its own)."""
        fix = engine.fix

        def fix_tuple(*args, **kwargs):
            self.tuple_id += 1
            return fix(*args, **kwargs)

        self._patch(engine, "fix", fix_tuple)

    def uninstall(self) -> None:
        """Put every original binding back, newest patch first."""
        while self._patches:
            owner, attr, original, owned = self._patches.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- analysis --------------------------------------------------------------

    def self_times(self) -> list:
        """Self time of every span (duration minus its children's)."""
        spans = self.spans
        child = [0.0] * len(spans)
        for record in spans:
            if record[PARENT] >= 0:
                child[record[PARENT]] += record[END] - record[START]
        return [
            record[END] - record[START] - child[i]
            for i, record in enumerate(spans)
        ]

    def write_spans(self, path) -> None:
        """One JSON object per span, in start order; ``id`` is the index
        that ``parent`` refers to."""
        fields = ("name", "start", "end", "parent", "tuple_id", "rows",
                  "wire")
        with open(path, "w", encoding="utf-8") as out:
            for i, record in enumerate(self.spans):
                out.write(json.dumps({"id": i, **dict(zip(fields, record))}))
                out.write("\n")
