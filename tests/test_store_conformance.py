"""Run the MasterStore conformance kit across every backend.

One subclass per backend; the contract itself lives in
``tests/store_conformance.py``.  A fourth backend earns its suite by
adding a subclass with a ``store`` fixture — nothing else.
"""

import contextlib

import pytest

from repro.engine.relation import Relation
from repro.engine.remote import MasterServer, RemoteStore
from repro.engine.sharded import ShardedStore
from repro.engine.store import InMemoryStore, SqliteStore

from store_conformance import StoreConformance, conformance_rows


@contextlib.contextmanager
def _shards_lie(store, skew):
    """Make every shard of a ShardedStore answer one key too few/many."""
    for shard in store.shards:
        def lying(attrs, keys, _real=shard.probe_many):
            out = dict(_real(attrs, keys))
            if skew < 0:
                out.pop(next(iter(out)))
            else:
                out[("__liar__",) * len(tuple(attrs))] = ()
            return out
        shard.probe_many = lying
    try:
        yield
    finally:
        for shard in store.shards:
            del shard.probe_many


class TestInMemoryStoreConformance(StoreConformance):
    """The paper's setting: Relation + hash indexes in RAM."""

    @pytest.fixture
    def store(self):
        schema = self.schema()
        return InMemoryStore(Relation(schema, conformance_rows(schema)))

    def resync(self, parent, clone):
        # Snapshot backend: reattached copies are by value, so the resync
        # ships the rows along with the stamp (the batch engine's
        # per-chunk snapshot protocol).
        clone.reset_rows(tuple(parent), parent.version)

    def bypass_journal(self, store, row):
        # A direct mutation of the wrapped relation bumps the version
        # without a journal record.
        store.relation.insert(row)
        return True


class TestSqliteStoreConformance(StoreConformance):
    """Out-of-core file-backed sqlite (shares storage across processes)."""

    @pytest.fixture
    def store(self, tmp_path):
        schema = self.schema()
        backend = SqliteStore(
            schema, conformance_rows(schema), path=tmp_path / "m.db"
        )
        yield backend
        backend.close()


class TestSqliteMemoryStoreConformance(StoreConformance):
    """A private ``:memory:`` sqlite database — everything but detach."""

    supports_detach = False

    @pytest.fixture
    def store(self):
        schema = self.schema()
        backend = SqliteStore(schema, conformance_rows(schema))
        yield backend
        backend.close()


class TestRemoteStoreConformance(StoreConformance):
    """The HTTP read-through client over a memory-backed MasterServer."""

    @pytest.fixture
    def store(self):
        schema = self.schema()
        backing = InMemoryStore(Relation(schema, conformance_rows(schema)))
        with MasterServer(backing) as server:
            client = RemoteStore(server.url)
            yield client
            client.close()

    def lie_probe_many(self, store, skew):
        # Tamper with the wire payload below the client's accounting:
        # the server answered, the transport delivered, the body lies.
        @contextlib.contextmanager
        def lie():
            real = store._request

            def lying(method, path, payload=None, idempotent=True):
                body, version = real(method, path, payload, idempotent)
                if path.startswith("/probe_many"):
                    results = list(body["results"])
                    if skew < 0:
                        results.pop()
                    else:
                        results.append([])
                    body = dict(body, results=results)
                return body, version

            store._request = lying
            try:
                yield
            finally:
                del store._request

        return lie()


class TestShardedMemoryStoreConformance(StoreConformance):
    """The scatter-gather coordinator over two in-memory shards."""

    @pytest.fixture
    def store(self):
        schema = self.schema()
        backend = ShardedStore(
            [InMemoryStore(Relation(schema)) for _ in range(2)],
            route_attrs=("k",),
            rows=conformance_rows(schema),
        )
        yield backend
        backend.close()

    def resync(self, parent, clone):
        # Memory shards are snapshots: ship rows + stamp, as for the
        # plain in-memory backend (rows re-route by hash on the way in).
        clone.reset_rows(tuple(parent), parent.version)

    def lie_probe_many(self, store, skew):
        return _shards_lie(store, skew)


class TestShardedRemoteStoreConformance(StoreConformance):
    """The fleet deployment shape: the coordinator over two RemoteStore
    clients, each against its own memory-backed MasterServer."""

    @pytest.fixture
    def store(self):
        schema = self.schema()
        with MasterServer(InMemoryStore(Relation(schema))) as s0, \
                MasterServer(InMemoryStore(Relation(schema))) as s1:
            backend = ShardedStore(
                [RemoteStore(s0.url), RemoteStore(s1.url)],
                route_attrs=("k",),
                rows=conformance_rows(schema),
            )
            yield backend
            backend.close()

    def lie_probe_many(self, store, skew):
        return _shards_lie(store, skew)
