"""Rule value images: the one way the chase, TransFix and Suggest read Dm.

``MasterStore.image`` answers "which distinct correction values does rule
φ's master data hold at this key?".  These tests pin what the engines
built on it must keep: no stale image survives a master mutation (on the
in-process and the remote backend, sequentially and under the thread
fan-out), the chase still agrees with the exhaustive explorer — which
reads the master through ``applicable_pairs``/``probe_ref``, not the
image — on instances with duplicate keys, conflicting rows and master
guards, and the batch report shows whether the cache earns its keep.
"""

import random
import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.chase import explore_fixes
from repro.core.fixes import chase
from repro.core.patterns import Const, NotConst, PatternTuple
from repro.core.rules import EditingRule
from repro.engine.relation import Relation
from repro.engine.remote import MasterServer, RemoteStore
from repro.engine.schema import INT, RelationSchema
from repro.engine.store import InMemoryStore, SqliteStore
from repro.engine.tuples import Row
from repro.repair.batch import BatchRepairEngine
from repro.repair.oracle import SimulatedUser
from repro.repair.transfix import MasterConflict, transfix


def _tiny_bundle():
    schema = RelationSchema("T", ["key", "val"])
    rules = [EditingRule(("key",), ("key",), "val", "val", name="key->val")]
    rows = [Row(schema, ("k1", "v1")), Row(schema, ("k2", "v2"))]
    return schema, rules, rows


def _assert_sessions_identical(left, right):
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert a.final == b.final
        assert a.validated == b.validated
        assert a.completed == b.completed
        assert [r.asserted for r in a.rounds] == [r.asserted for r in b.rounds]
        assert [r.fixed_by_rules for r in a.rounds] == \
            [r.fixed_by_rules for r in b.rounds]
        assert [r.provenance for r in a.rounds] == \
            [r.provenance for r in b.rounds]


# -- no stale answer after a mutation -----------------------------------------


def _warm_then_conflict(store, schema, rules, mutate):
    """Monitor k1 until its image and chase memo entry are cached, apply
    *mutate* (a conflicting master row under k1), resync, and return the
    engine plus the chase outcome of the next validation of the pattern."""
    batch = BatchRepairEngine(rules, store, schema, use_bdd=False)
    engine = batch.engine
    clean = Row(schema, ("k1", "v1"))
    result = batch.run([(Row(schema, ("k1", "wrong")), SimulatedUser(clean))])
    assert result.sessions[0].final == clean
    row = Row(schema, ("k1", "v1"))
    validated = frozenset({"key"})
    assert engine._memo_key(row, validated) in engine._chase_memo
    assert store.image(("key",), ("k1",), "val", rules[0].master_guard) == (
        ("v1", clean),
    )
    mutate()
    assert engine.resync_master()
    assert engine.delta_purges == 1
    assert engine._memo_key(row, validated) not in engine._chase_memo
    unique = engine._unique(row, validated)
    return engine, unique, chase(row, validated, rules, store)


def test_conflicting_insert_reaches_cached_image_in_memory():
    schema, rules, rows = _tiny_bundle()
    store = InMemoryStore(Relation(schema, rows))
    engine, unique, outcome = _warm_then_conflict(
        store, schema, rules,
        lambda: store.insert(Row(schema, ("k1", "v1-alt"))),
    )
    assert not unique
    assert outcome.conflict.kind == "same-batch"
    assert outcome.conflict.values == ("v1", "v1-alt")
    info = store.image_cache_info()
    assert info["purged"] >= 1 and info["full_drops"] == 0


def test_conflicting_foreign_write_reaches_cached_image_over_http():
    schema, rules, rows = _tiny_bundle()
    backing = InMemoryStore(Relation(schema, rows))
    with MasterServer(backing) as server:
        store = RemoteStore(server.url, poll_interval=0.0)
        try:
            def foreign_write():
                writer = RemoteStore(server.url, schema=schema)
                writer.insert(Row(schema, ("k1", "v1-alt")))
                writer.close()

            engine, unique, outcome = _warm_then_conflict(
                store, schema, rules, foreign_write
            )
            assert not unique
            assert outcome.conflict.kind == "same-batch"
            assert outcome.conflict.values == ("v1", "v1-alt")
            assert store.image_cache_info()["purged"] >= 1
        finally:
            store.close()


def test_remote_image_hits_make_no_requests_even_when_polling():
    """An image hit is as cheap as a probe-LRU hit: under
    ``poll_interval=0`` it must not poll the server's version."""
    schema, rules, rows = _tiny_bundle()
    backing = InMemoryStore(Relation(schema, rows))
    with MasterServer(backing) as server:
        store = RemoteStore(server.url, poll_interval=0.0)
        try:
            assert store.image(("key",), ("k1",), "val") == (("v1", rows[0]),)
            before = store.connection_info()["requests"]
            for _ in range(5):
                assert store.image(("key",), ("k1",), "val") == (
                    ("v1", rows[0]),
                )
            assert store.connection_info()["requests"] == before
        finally:
            store.close()


def test_image_computed_before_a_purge_never_lands_after_it():
    """The thread fan-out race, made deterministic: a reader probes at
    version N; the master mutates and another reader syncs the cache
    before the first one stores its image.  The stamp check must drop
    the stale write, so the next call sees the new row."""
    schema, rules, rows = _tiny_bundle()
    store = InMemoryStore(Relation(schema, rows))
    store.image(("key",), ("k2",), "val")
    late = Row(schema, ("k1", "v1-alt"))
    probe_ref = store.probe_ref

    def racing(attrs, key):
        found = tuple(probe_ref(attrs, key))
        store.insert(late)
        store.image(("key",), ("k2",), "val")  # the other reader's sync
        return found

    store.probe_ref = racing
    assert store.image(("key",), ("k1",), "val") == (("v1", rows[0]),)
    del store.probe_ref
    assert store.image(("key",), ("k1",), "val") == (
        ("v1", rows[0]), ("v1-alt", late)
    )


def test_image_cache_stays_exact_under_threaded_mutation():
    """Stress: four readers fill and hit two image tables while a writer
    inserts and deletes under the same keys, with a shortened switch
    interval.  Afterwards every cached key must equal its image computed
    afresh from ``probe`` — a stale write or a missed purge breaks it."""
    schema = RelationSchema("S", ["k", "v"])
    store = InMemoryStore(Relation(schema, [
        Row(schema, (f"k{i % 4}", f"v{i % 3}")) for i in range(12)
    ]))
    keys = [f"k{i}" for i in range(5)]
    done = threading.Event()
    errors = []

    def reader(seed):
        rng = random.Random(seed)
        try:
            while not done.is_set():
                key = rng.choice(keys)
                store.image(("k",), (key,), "v")
                store.image(("k", "v"), (key, "v0"), "k")
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    def writer():
        rng = random.Random(0)
        inserted = []
        for _ in range(300):
            if inserted and rng.random() < 0.4:
                store.delete(inserted.pop(rng.randrange(len(inserted))))
            else:
                row = Row(schema, (rng.choice(keys), f"v{rng.randrange(4)}"))
                store.insert(row)
                inserted.append(row)
        done.set()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=reader, args=(seed,))
                   for seed in range(4)]
        threads.append(threading.Thread(target=writer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not errors
    store.image(("k",), ("k0",), "v")  # sync the cache to the last write
    cached = store._images.tables
    assert cached
    for (attrs, column, guard), table in cached.items():
        for key, pairs in table.items():
            fresh = {}
            for tm in store.probe(attrs, key):
                fresh.setdefault(tm[column], tm)
            assert pairs == tuple(fresh.items()), (attrs, key)


class _MutatingUser:
    """A simulated user whose first assertion also writes to the master."""

    def __init__(self, clean: Row, store, row: Row):
        self._inner = SimulatedUser(clean)
        self._store = store
        self._row = row

    def assert_correct(self, current, suggestion):
        if self._row is not None:
            row, self._row = self._row, None
            self._store.insert(row)
        return self._inner.assert_correct(current, suggestion)

    def revise(self, current, suggestion, reason):
        return self._inner.revise(current, suggestion, reason)


def test_thread_fanout_with_mid_batch_mutations_matches_sequential(
    hosp, hosp_dirty
):
    """Every fifth tuple re-inserts a copy of an existing master row: the
    copy lands behind the original, so every image keeps its values and
    first witnesses and every fix stays the same — while each insert
    purges keys that concurrent sessions are reading and caching."""
    donors = list(hosp.master.iter_rows())[:8]

    def run(concurrency):
        store = InMemoryStore(Relation(hosp.schema, hosp.master.iter_rows()))
        batch = BatchRepairEngine(
            hosp.rules, store, hosp.schema, use_bdd=False,
            concurrency=concurrency, chunk_size=5,
        )
        pairs = [
            (
                dt.dirty,
                _MutatingUser(dt.clean, store, donors[i // 5 % len(donors)])
                if i % 5 == 0 else SimulatedUser(dt.clean),
            )
            for i, dt in enumerate(hosp_dirty)
        ]
        result = batch.run(pairs)
        assert len(store) == len(hosp.master) + (len(hosp_dirty) + 4) // 5
        return result

    sequential = run(1)
    threaded = run(4)
    _assert_sessions_identical(threaded.sessions, sequential.sessions)
    assert threaded.provenance == sequential.provenance
    for session, dt in zip(threaded.sessions, hosp_dirty):
        assert session.final == dt.clean
    assert threaded.report.image_cache["purged"] > 0
    assert threaded.report.full_drops == 0


# -- TransFix reads the image -------------------------------------------------


def test_transfix_conflict_is_an_image_of_two_values():
    schema, rules, rows = _tiny_bundle()
    store = InMemoryStore(Relation(schema, rows))
    store.insert(Row(schema, ("k1", "v1")))
    row = Row(schema, ("k1", "wrong"))
    result = transfix(row, {"key"}, rules, store)
    assert result.row["val"] == "v1"
    # one witness: the first matching row
    assert result.applied == [(rules[0], rows[0])]
    store.insert(Row(schema, ("k1", "v9")))
    with pytest.raises(MasterConflict, match="'v1' / 'v9'"):
        transfix(row, {"key"}, rules, store)
    with pytest.raises(MasterConflict, match="'v1' / 'v9'"):
        transfix(row, {"key"}, rules, store, use_index=False)


def test_chase_fires_one_witness_per_distinct_value():
    schema, rules, rows = _tiny_bundle()
    store = InMemoryStore(Relation(schema, rows))
    store.insert(Row(schema, ("k1", "v1")))
    out = chase({"key": "k1"}, ("key",), rules, store)
    assert out.unique
    assert out.fired == [(rules[0], rows[0], 1)]


# -- an independent reference -------------------------------------------------

R_ATTRS = ("a", "b", "c", "d")
M_ATTRS = ("w", "x", "y", "z")
small = st.integers(min_value=0, max_value=1)


@st.composite
def guarded_instances(draw):
    """Tiny (Σ, Dm, Z, t): two-valued columns make master keys collide and
    rows under one key disagree; some rules carry a master guard."""
    master_rows = draw(
        st.lists(st.tuples(small, small, small, small), min_size=1,
                 max_size=6)
    )
    rules = []
    for i in range(draw(st.integers(min_value=1, max_value=5))):
        lhs_size = draw(st.integers(min_value=1, max_value=2))
        lhs = tuple(draw(st.permutations(R_ATTRS))[:lhs_size])
        rhs = draw(st.sampled_from([a for a in R_ATTRS if a not in lhs]))
        lhs_m = tuple(draw(st.sampled_from(M_ATTRS)) for _ in lhs)
        rhs_m = draw(st.sampled_from(M_ATTRS))
        pattern = {}
        if draw(st.booleans()):
            attr = draw(st.sampled_from(R_ATTRS))
            if attr != rhs:
                pattern[attr] = draw(small)
        guard = {}
        if draw(st.booleans()):
            column = draw(st.sampled_from(M_ATTRS))
            value = draw(small)
            guard[column] = NotConst(value) if draw(st.booleans()) \
                else Const(value)
        rules.append(EditingRule(
            lhs, lhs_m, rhs, rhs_m, PatternTuple(pattern), name=f"r{i}",
            master_guard=PatternTuple(guard),
        ))
    z = tuple(draw(st.permutations(R_ATTRS))[
        :draw(st.integers(min_value=1, max_value=3))
    ])
    t = {attr: draw(small) for attr in z}
    master = Relation(RelationSchema("Rm", [(a, INT) for a in M_ATTRS]))
    for row in master_rows:
        master.insert(row)
    return master, rules, z, t


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(guarded_instances())
def test_chase_agrees_with_explorer_on_guarded_duplicate_keys(instance):
    master, rules, z, t = instance
    batched = chase(t, z, rules, master)
    explored = explore_fixes(t, z, rules, master, max_states=20_000)
    assert batched.unique == explored.unique
    if batched.unique:
        (final,) = explored.final_assignments
        (covered,) = explored.covered_sets()
        assert batched.covered == covered
        assert {a: batched.assignment[a] for a in covered} == final


# -- is the cache earning its keep --------------------------------------------


def test_batch_report_shows_image_cache_counters(hosp, hosp_dirty):
    batch = BatchRepairEngine(hosp.rules, hosp.master, hosp.schema)
    report = batch.run_dirty(hosp_dirty).report
    image = report.to_dict()["image_cache"]
    assert set(image) == {"hits", "misses", "purged", "full_drops",
                          "hit_rate"}
    assert image["hits"] > 0 and image["misses"] > 0
    assert image["purged"] == image["full_drops"] == 0
    assert "image cache:" in report.describe()


def test_image_counters_stay_out_of_probe_cache_info(hosp):
    store = SqliteStore.from_relation(hosp.master)
    try:
        rule = hosp.rules[0]
        key = hosp.master.row_at(0)[rule.lhs_m]
        before = store.probe_cache_info()
        for _ in range(2):
            store.image(rule.lhs_m, key, rule.rhs_m, rule.master_guard)
        after = store.probe_cache_info()
        assert set(after) == set(before)
        # one probe for the image miss; the image hit never probes
        assert after["misses"] == before["misses"] + 1
        assert after["hits"] == before["hits"]
        assert after["probe_ref_calls"] == before["probe_ref_calls"] + 1
        info = store.image_cache_info()
        assert (info["hits"], info["misses"]) == (1, 1)
    finally:
        store.close()
