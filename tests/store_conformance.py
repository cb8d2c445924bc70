"""Reusable MasterStore conformance suite.

Every :class:`~repro.engine.store.MasterStore` backend must satisfy the
same contract — the repair layer's correctness (bit-identical fixes per
backend, versioned cache invalidation, process fan-out) depends on it.
This module captures that contract once, as a suite any backend inherits:

* probe semantics — exact-typed keys, insertion-order results, duplicate
  attributes, mismatched-key ``ValueError``, immutability of results,
  ``probe_ref`` aliasing rules, ``probe_many`` ≡ a probe loop;
* version semantics — monotone, moves iff the data changed, a failed
  delete/update does not bump;
* mutation semantics — ``delete`` removes exactly one occurrence,
  ``update`` is delete-then-insert (the replacement lands at iteration
  end), both visible to subsequent probes (cache invalidation);
* iteration — insertion order, surviving mixed mutations;
* delta journal — ``deltas_since`` returns the exact contiguous
  :class:`~repro.engine.store.StoreDelta` list for every witnessed
  mutation (update = delete+insert pair), ``()`` at the current stamp,
  and ``None`` whenever completeness cannot be proven (future stamps,
  stamps fallen out of the journal window) — the contract the
  delta-aware cache invalidation of the repair layer rests on;
* rule images — ``image`` is the distinct guard-passing projection of
  ``probe`` with first witnesses, follows every mutation under a cached
  key, drops its cache on a journal gap, and never caches a key with no
  master rows;
* process protocol — ``detach()``/``reattach()`` round-trips rows and the
  version stamp, and a parent mutation reaches the clone through the
  backend's resync hook (snapshot or incremental via ``adopt_deltas``).

Usage: subclass :class:`StoreConformance` in a ``test_*.py`` module and
provide the ``store`` fixture (a fresh backend loaded with
``conformance_rows(self.schema())``).  Backends with extra setup override
the hooks (``resync``, ``supports_detach``).  A fourth backend gets ~20
contract tests for free::

    class TestMyStoreConformance(StoreConformance):
        @pytest.fixture
        def store(self):
            yield MyStore(self.schema(), conformance_rows(self.schema()))
"""

import pytest

from repro.core.patterns import NotConst, PatternTuple
from repro.engine.schema import INT, RelationSchema
from repro.engine.store import (
    DEFAULT_DELTA_WINDOW,
    MasterStore,
    StoreProtocolError,
)
from repro.engine.tuples import Row
from repro.engine.values import NULL


def conformance_schema() -> RelationSchema:
    """The contract schema: string key, nullable value, int column."""
    return RelationSchema("m", ["k", "v", ("n", INT)])


def conformance_rows(schema: RelationSchema) -> list:
    """The contract's seed rows: a duplicate key, a NULL, an int column."""
    return [
        Row(schema, ("a", "x", 1)),
        Row(schema, ("b", "y", 2)),
        Row(schema, ("a", "x", 3)),
        Row(schema, ("c", NULL, 4)),
    ]


class StoreConformance:
    """Inherit and provide a ``store`` fixture; optionally override hooks."""

    #: Set False for backends that refuse detach() (private :memory:
    #: databases); the detach tests then assert the refusal instead.
    supports_detach = True

    #: How many mutations the backend's delta journal retains; the
    #: window-overflow test mutates one past this to force the ``None``
    #: (full-drop) fallback.  Override when a backend uses another bound.
    delta_window = DEFAULT_DELTA_WINDOW

    def schema(self) -> RelationSchema:
        return conformance_schema()

    def rows(self) -> list:
        return conformance_rows(self.schema())

    @pytest.fixture
    def store(self):
        raise NotImplementedError(
            "conformance subclasses must provide a `store` fixture"
        )

    # -- backend hooks -------------------------------------------------------

    def resync(self, parent: MasterStore, clone: MasterStore) -> None:
        """Propagate *parent*'s mutations to a reattached *clone*.

        Backends sharing storage across processes adopt the stamp
        (``sync_version``); snapshot backends ship the rows.  Override to
        match; the default covers the shared-storage shape.
        """
        clone.sync_version(parent.version)

    def cleanup_clone(self, clone: MasterStore) -> None:
        """Release a reattached clone (override when clones hold handles)."""
        close = getattr(clone, "close", None)
        if close is not None:
            close()

    def bypass_journal(self, store: MasterStore, row: Row) -> bool:
        """Insert *row* through a path the delta journal does not witness
        (a version bump it cannot vouch for); return False (the default)
        when the backend has no such path and the test skips."""
        return False

    def lie_probe_many(self, store: MasterStore, skew: int):
        """A context manager making the backend's lower layer answer
        ``skew`` more (+1) or fewer (-1) ``probe_many`` results than
        probe keys asked.  Return ``None`` (the default) when the backend
        has no lower layer that could lie — single-process stores answer
        from their own truth and the test skips.
        """
        return None

    # -- reads ---------------------------------------------------------------

    def test_is_master_store(self, store):
        assert isinstance(store, MasterStore)
        assert store.schema.attributes == self.schema().attributes

    def test_size_and_insertion_order_iteration(self, store):
        rows = self.rows()
        assert len(store) == len(rows)
        assert list(store) == rows
        assert store.rows == rows  # Relation-compatible materialized copy

    def test_iter_from_pages_in_insertion_order(self, store):
        """The remote ``/rows`` paging primitive: iter_from(k) must equal
        skipping k rows of full iteration, for every offset."""
        rows = self.rows()
        for start in range(len(rows) + 2):
            assert list(store.iter_from(start)) == rows[start:]
        store.insert(Row(self.schema(), ("d", "z", 9)))
        assert [tm["k"] for tm in store.iter_from(len(rows))] == ["d"]

    def test_active_values(self, store):
        assert store.active_values("k") == {"a", "b", "c"}
        assert store.active_values("v") == {"x", "y", NULL}

    def test_active_values_result_is_caller_owned(self, store):
        values = store.active_values("k")
        values.add("corrupted")
        assert "corrupted" not in store.active_values("k")

    def test_probe_and_relation_aliases(self, store):
        rows = self.rows()
        assert store.probe(("k",), ("a",)) == (rows[0], rows[2])
        assert store.probe(("k", "v"), ("b", "y")) == (rows[1],)
        assert store.probe(("k",), ("zzz",)) == ()
        # duplicate attributes in the probe list (Theorem 12-style reuse)
        assert store.probe(("k", "k"), ("a", "a")) == (rows[0], rows[2])
        assert store.probe(("k", "k"), ("a", "b")) == ()
        # Relation-compatible spellings and the index-free ablation agree
        assert store.lookup(("k",), ("a",)) == store.probe(("k",), ("a",))
        assert store.scan_probe(("k",), ("a",)) == store.probe(("k",), ("a",))
        assert store.scan_lookup(("n",), (2,)) == (rows[1],)
        assert store.contains_key(("k",), ("c",))
        assert not store.contains_key(("k",), ("nope",))

    def test_probe_is_exact_typed(self, store):
        """String spellings of numbers must not match int cells (the csv
        loaders rely on 87 != "87") while 2 == 2.0 == True must match."""
        assert store.probe(("n",), (2,)) != ()
        assert store.probe(("n",), ("2",)) == ()
        assert store.probe(("n",), (2.0,)) == store.probe(("n",), (2,))
        assert store.probe(("n",), (True,)) == store.probe(("n",), (1,))

    def test_probe_rejects_mismatched_key(self, store):
        with pytest.raises(ValueError, match="does not match attribute list"):
            store.probe(("k", "v"), ("a",))
        with pytest.raises(ValueError, match="does not match attribute list"):
            store.probe_many(("k", "v"), [("a",)])

    def test_probe_results_are_immutable(self, store):
        """Probe results are tuples; mangling a list() copy must not
        corrupt later probes (cache lines used to be aliased lists)."""
        rows = self.rows()
        result = store.probe(("k",), ("a",))
        assert isinstance(result, tuple)
        mangled = list(result)
        mangled.clear()
        assert store.probe(("k",), ("a",)) == (rows[0], rows[2])
        assert isinstance(store.lookup(("k",), ("a",)), tuple)

    def test_probe_ref_aliasing_rules(self, store):
        """``probe_ref`` may alias internals but must agree with ``probe``
        and accept the same keys (it is the repair loops' hot path)."""
        assert tuple(store.probe_ref(("k",), ("a",))) == \
            store.probe(("k",), ("a",))
        assert tuple(store.probe_ref(("k",), ("zzz",))) == ()
        with pytest.raises(ValueError, match="does not match attribute list"):
            store.probe_ref(("k",), ("a", "b"))

    def test_ensure_index_then_probe(self, store):
        store.ensure_index(("v", "n"))
        assert store.probe(("v", "n"), ("x", 3)) == (self.rows()[2],)

    def test_probe_many_matches_probe_loop(self, store):
        rows = self.rows()
        keys = [("a",), ("b",), ("zzz",), ("a",)]  # duplicate collapses
        out = store.probe_many(("k",), keys)
        assert set(out) == {("a",), ("b",), ("zzz",)}
        for key, matches in out.items():
            assert matches == store.probe(("k",), key)
        assert out[("a",)] == (rows[0], rows[2])
        assert out[("zzz",)] == ()
        # multi-column and duplicate-attribute keys
        multi = store.probe_many(
            ("k", "v"), [("a", "x"), ("c", NULL), ("a", "y")]
        )
        assert multi == {
            ("a", "x"): (rows[0], rows[2]),
            ("c", NULL): (rows[3],),
            ("a", "y"): (),
        }
        dup = store.probe_many(("k", "k"), [("a", "a"), ("a", "b")])
        assert dup == {("a", "a"): (rows[0], rows[2]), ("a", "b"): ()}

    def test_probe_many_unstorable_keys_match_probe_loop(self, store):
        """Unstorable probe keys (values the wire codec refuses) resolve
        as "matches nothing" identically on the singular and batched
        paths, and never out of a cache — both answers must keep coming
        from the same helper so the semantics cannot drift."""
        rows = self.rows()
        attrs = ("k",)
        keys = [("a",), (object(),), ("b",)]
        via_many = store.probe_many(attrs, keys)
        via_loop = {key: store.probe(attrs, key) for key in keys}
        assert via_many == via_loop
        assert via_many[keys[1]] == ()
        assert via_many[("a",)] == (rows[0], rows[2])
        # a second round answers identically (nothing poisoned a cache)
        assert store.probe_many(attrs, keys) == via_loop

    @pytest.mark.parametrize("skew", [-1, 1], ids=["fewer", "more"])
    def test_lying_probe_many_raises_typed_error_caches_nothing(
        self, store, skew
    ):
        """A lower layer answering more/fewer ``probe_many`` results than
        keys asked must raise the typed protocol error — never silently
        pair up what it got — and nothing from the lying exchange may
        land in any cache (the zip-truncation bug class)."""
        lie = self.lie_probe_many(store, skew)
        if lie is None:
            pytest.skip("backend has no lower layer that could lie")
        rows = self.rows()
        attrs = ("k",)
        keys = [("a",), ("b",), ("zz",)]
        truth = {
            ("a",): (rows[0], rows[2]),
            ("b",): (rows[1],),
            ("zz",): (),
        }
        with lie:
            with pytest.raises(StoreProtocolError):
                store.probe_many(attrs, keys)
        # with the liar gone, every key answers from truth — had the
        # lying exchange cached anything, ("b",) or ("zz",) would now
        # resolve to a stale () / wrong pairing
        assert store.probe_many(attrs, keys) == truth
        for key in keys:
            assert store.probe(attrs, key) == truth[key]

    # -- versioning and mutation ---------------------------------------------

    def test_version_monotone_and_bumps_iff_mutated(self, store):
        schema = self.schema()
        v0 = store.version
        extra = Row(schema, ("d", "z", 9))
        store.insert(extra)
        v1 = store.version
        assert v1 > v0
        assert store.delete(extra)
        v2 = store.version
        assert v2 > v1
        # misses mutate nothing: no version movement
        assert not store.delete(extra)
        assert store.version == v2
        assert not store.update(extra, Row(schema, ("d", "z2", 9)))
        assert store.version == v2
        # reads never move the version
        store.probe(("k",), ("a",))
        list(store)
        store.active_values("k")
        assert store.version == v2

    def test_insert_lands_at_iteration_end_and_is_probeable(self, store):
        schema = self.schema()
        extra = Row(schema, ("d", "z", 9))
        store.insert(extra)
        assert len(store) == len(self.rows()) + 1
        assert list(store)[-1] == extra
        assert store.probe(("k",), ("d",)) == (extra,)
        assert "z" in store.active_values("v")

    def test_delete_removes_one_occurrence(self, store):
        schema = self.schema()
        rows = self.rows()
        assert store.delete(Row(schema, ("a", "x", 1)))
        assert store.probe(("k",), ("a",)) == (rows[2],)
        assert len(store) == len(rows) - 1
        assert list(store) == [rows[1], rows[2], rows[3]]

    def test_update_is_delete_then_insert(self, store):
        """The replacement lands at iteration end in every backend — the
        property that keeps fix output bit-identical across backends."""
        schema = self.schema()
        rows = self.rows()
        old = rows[1]
        new = Row(schema, ("b", "y2", 2))
        v0 = store.version
        assert store.update(old, new)
        assert store.version > v0
        assert list(store) == [rows[0], rows[2], rows[3], new]
        assert store.probe(("k",), ("b",)) == (new,)
        assert not store.update(old, new)  # old is gone now

    def test_mutations_invalidate_probe_caches(self, store):
        """A warm probe must reflect a subsequent mutation — no stale
        cache line may survive an insert/delete/update."""
        schema = self.schema()
        rows = self.rows()
        assert store.probe(("k",), ("a",)) == (rows[0], rows[2])  # warm it
        extra = Row(schema, ("a", "x2", 7))
        store.insert(extra)
        assert store.probe(("k",), ("a",)) == (rows[0], rows[2], extra)
        assert "x2" in store.active_values("v")
        assert store.delete(rows[0])
        assert store.probe(("k",), ("a",)) == (rows[2], extra)
        assert store.update(extra, Row(schema, ("a", "x3", 7)))
        assert [tm["v"] for tm in store.probe(("k",), ("a",))] == ["x", "x3"]

    def test_iteration_order_survives_mixed_mutations(self, store):
        schema = self.schema()
        rows = self.rows()
        first = Row(schema, ("e", "w", 5))
        second = Row(schema, ("f", "u", 6))
        store.insert(first)
        store.delete(rows[0])
        store.insert(second)
        assert list(store) == [rows[1], rows[2], rows[3], first, second]

    # -- delta journal protocol ----------------------------------------------

    def test_deltas_since_current_stamp_is_empty(self, store):
        assert store.deltas_since(store.version) == ()

    def test_deltas_since_future_stamp_is_none(self, store):
        """A stamp the store has never reached is unknowable, not empty."""
        assert store.deltas_since(store.version + 1) is None

    def test_mutations_journal_as_contiguous_deltas(self, store):
        """Every witnessed mutation must appear as one StoreDelta, in
        order, covering exactly ``(v0, version]`` — including a NULL
        cell surviving the backend's wire encoding."""
        schema = self.schema()
        rows = self.rows()
        v0 = store.version
        extra = Row(schema, ("d", "z", 9))
        store.insert(extra)
        assert store.delete(rows[3])  # ("c", NULL, 4)
        deltas = store.deltas_since(v0)
        assert deltas is not None
        assert [d.version for d in deltas] == [v0 + 1, v0 + 2]
        assert [d.op for d in deltas] == ["insert", "delete"]
        assert deltas[0].values == extra.values
        assert deltas[1].values == rows[3].values

    def test_update_journals_as_delete_insert_pair(self, store):
        schema = self.schema()
        old = self.rows()[1]
        new = Row(schema, ("b", "y2", 2))
        v0 = store.version
        assert store.update(old, new)
        deltas = store.deltas_since(v0)
        assert deltas is not None
        assert [(d.version, d.op, d.values) for d in deltas] == [
            (v0 + 1, "delete", old.values),
            (v0 + 2, "insert", new.values),
        ]

    def test_failed_mutations_do_not_journal(self, store):
        schema = self.schema()
        missing = Row(schema, ("ghost", "g", 0))
        v0 = store.version
        assert not store.delete(missing)
        assert not store.update(missing, Row(schema, ("ghost", "g2", 0)))
        assert store.deltas_since(v0) == ()

    def test_deltas_window_overflow_falls_back_to_none(self, store):
        """A consumer lagging past the journal window must get ``None``
        (the full-drop instruction), never a truncated list; the recent
        tail inside the window stays servable."""
        schema = self.schema()
        v0 = store.version
        for i in range(self.delta_window + 1):
            store.insert(Row(schema, (f"w{i}", "w", i)))
        assert store.deltas_since(v0) is None
        tail = store.deltas_since(store.version - 1)
        assert tail is not None and len(tail) == 1
        assert tail[0].op == "insert"
        assert tail[0].values == (f"w{self.delta_window}", "w",
                                  self.delta_window)

    def test_reattached_clone_adopts_parent_deltas(self, store):
        """The incremental resync path: a clone lagging by journaled
        mutations lands on the parent's stamp and contents through
        ``adopt_deltas`` alone (or refuses with False, never corrupts)."""
        if not self.supports_detach:
            pytest.skip("backend refuses detach()")
        schema = self.schema()
        handle = store.detach()
        clone = handle.reattach()
        try:
            late = Row(schema, ("late", "z", 99))
            store.insert(late)
            assert store.delete(self.rows()[0])
            deltas = store.deltas_since(clone.version)
            assert deltas is not None and len(deltas) == 2
            assert clone.adopt_deltas(deltas, store.version)
            assert clone.version == store.version
            assert list(clone) == list(store)
            assert clone.probe(("k",), ("late",)) == (late,)
        finally:
            self.cleanup_clone(clone)

    # -- rule images ---------------------------------------------------------

    @staticmethod
    def _image_by_probe(store, attrs, key, column, guard) -> tuple:
        """The image contract spelled out over ``probe``."""
        witnesses: dict = {}
        for tm in store.probe(attrs, key):
            if guard is None or guard.matches(tm):
                witnesses.setdefault(tm[column], tm)
        return tuple(witnesses.items())

    def test_image_is_distinct_guarded_projection_of_probe(self, store):
        schema = self.schema()
        rows = self.rows()
        repeat = Row(schema, ("a", "x", 5))  # repeats value "x" under "a"
        store.insert(repeat)
        cases = [
            (("k",), ("a",), "v", None),
            (("k",), ("a",), "n", None),
            (("k",), ("a",), "v", PatternTuple({"n": NotConst(1)})),
            (("k",), ("a",), "n", PatternTuple({})),
            (("k",), ("c",), "v", None),  # a NULL correction value
            (("k", "v"), ("a", "x"), "n", PatternTuple({"n": NotConst(3)})),
        ]
        for attrs, key, column, guard in cases:
            expected = self._image_by_probe(store, attrs, key, column, guard)
            before = store.image_cache_info()
            assert store.image(attrs, key, column, guard) == expected
            assert store.image(attrs, key, column, guard) == expected
            after = store.image_cache_info()
            assert after["misses"] == before["misses"] + 1
            assert after["hits"] == before["hits"] + 1
        # first witness per value, in probe order
        assert store.image(("k",), ("a",), "v") == (("x", rows[0]),)
        assert store.image(("k",), ("a",), "n") == (
            (1, rows[0]), (3, rows[2]), (5, repeat)
        )
        assert store.image(
            ("k",), ("a",), "v", PatternTuple({"n": NotConst(1)})
        ) == (("x", rows[2]),)

    def test_image_follows_mutations_under_a_cached_key(self, store):
        schema = self.schema()
        rows = self.rows()
        attrs, key = ("k",), ("a",)
        assert store.image(attrs, key, "v") == (("x", rows[0]),)
        assert store.image(("k",), ("b",), "v") == (("y", rows[1]),)
        extra = Row(schema, ("a", "x2", 7))
        store.insert(extra)
        assert store.image(attrs, key, "v") == (
            ("x", rows[0]), ("x2", extra)
        )
        assert store.delete(rows[0])
        assert store.image(attrs, key, "v") == (
            ("x", rows[2]), ("x2", extra)
        )
        new = Row(schema, ("a", "x3", 7))
        assert store.update(extra, new)
        assert store.image(attrs, key, "v") == (("x", rows[2]), ("x3", new))
        # the purges were per key: "b" is still served from the cache
        before = store.image_cache_info()
        assert store.image(("k",), ("b",), "v") == (("y", rows[1]),)
        after = store.image_cache_info()
        assert after["hits"] == before["hits"] + 1
        assert after["purged"] == 3
        assert after["full_drops"] == 0

    def test_image_cache_dropped_on_window_overflow(self, store):
        schema = self.schema()
        rows = self.rows()
        assert store.image(("k",), ("a",), "v") == (("x", rows[0]),)
        for i in range(self.delta_window + 1):
            store.insert(Row(schema, (f"w{i}", "w", i)))
        before = store.image_cache_info()
        assert store.image(("k",), ("a",), "v") == (("x", rows[0]),)
        after = store.image_cache_info()
        assert after["full_drops"] == before["full_drops"] + 1
        assert after["misses"] == before["misses"] + 1

    def test_image_cache_dropped_on_unjournaled_mutation(self, store):
        schema = self.schema()
        rows = self.rows()
        assert store.image(("k",), ("a",), "v") == (("x", rows[0]),)
        late = Row(schema, ("a", "x9", 9))
        if not self.bypass_journal(store, late):
            pytest.skip("backend has no mutation path around its journal")
        assert store.image(("k",), ("a",), "v") == (
            ("x", rows[0]), ("x9", late)
        )
        assert store.image_cache_info()["full_drops"] == 1

    def test_image_never_caches_a_key_without_master_rows(self, store):
        keys = store.image_cache_info()["keys"]
        assert store.image(("k",), ("zz",), "v") == ()
        assert store.image(("k",), ("zz",), "v") == ()
        assert store.image_cache_info()["keys"] == keys
        assert store.image_cache_info()["hits"] == 0
        # rows that all fail the guard still bound the table: cached empty
        assert store.image(("k",), ("b",), "v", PatternTuple({"n": 9})) == ()
        assert store.image_cache_info()["keys"] == keys + 1

    # -- process protocol ----------------------------------------------------

    def test_detach_reattach_roundtrip(self, store):
        if not self.supports_detach:
            with pytest.raises(ValueError, match="detach|fork/spawn"):
                store.detach()
            return
        schema = self.schema()
        store.insert(Row(schema, ("d", "z", 9)))
        handle = store.detach()
        assert handle.version == store.version
        clone = handle.reattach()
        try:
            assert list(clone) == list(store)
            assert clone.version == store.version
            assert clone.probe(("k",), ("d",)) == \
                store.probe(("k",), ("d",))
        finally:
            self.cleanup_clone(clone)

    def test_reattached_clone_follows_parent_mutation(self, store):
        if not self.supports_detach:
            pytest.skip("backend refuses detach()")
        schema = self.schema()
        handle = store.detach()
        clone = handle.reattach()
        try:
            late = Row(schema, ("late", "z", 99))
            store.insert(late)
            self.resync(store, clone)
            assert clone.version == store.version
            assert list(clone) == list(store)
            assert clone.probe(("k",), ("late",)) == (late,)
        finally:
            self.cleanup_clone(clone)
