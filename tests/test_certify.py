"""The exact certification passes (E205/W206/I208) and fix-its."""

import ast
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.patterns import ANY, Const, PatternTableau, PatternTuple
from repro.core.regions import Region
from repro.core.rules import EditingRule
from repro.engine.relation import Relation
from repro.engine.schema import RelationSchema
from repro.engine.store import InMemoryStore, SqliteStore, as_master_store
from repro.lint import (
    LintError,
    Severity,
    apply_fixits,
    preflight,
    run_lint,
)
from repro.lint.certify import certification_for
from repro.lint.registry import LintContext


def _rule(lhs, rhs, pattern=None, name=None, lhs_m=None, rhs_m=None):
    lhs = (lhs,) if isinstance(lhs, str) else tuple(lhs)
    lhs_m = lhs if lhs_m is None else (
        (lhs_m,) if isinstance(lhs_m, str) else tuple(lhs_m)
    )
    return EditingRule(
        lhs, lhs_m, rhs, rhs_m if rhs_m is not None else rhs,
        PatternTuple(pattern or {}), name=name,
    )


def _master(rows, schema):
    relation = Relation(schema)
    for row in rows:
        relation.insert(list(row))
    return relation


def _wild_region(attrs):
    attrs = tuple(attrs)
    return Region(attrs, PatternTableau(
        attrs, [PatternTuple({a: ANY for a in attrs})]
    ))


@pytest.fixture()
def diverging():
    """r1 probes k1, r2 probes k2; input (k1=1, k2=2) gets 10 vs 20."""
    schema = RelationSchema("r", ["k1", "k2", "v"])
    master = _master([(1, 9, 10), (8, 2, 20)], schema)
    rules = [_rule("k1", "v", name="r1"), _rule("k2", "v", name="r2")]
    return schema, master, rules


# -- E205: exact consistency --------------------------------------------------


def test_e205_provably_inconsistent_with_minimal_witness(diverging):
    schema, master, rules = diverging
    report = run_lint(rules, schema, master,
                      region=_wild_region(("k1", "k2")))
    (finding,) = [d for d in report if d.code == "E205"]
    assert finding.severity is Severity.ERROR
    assert finding.data["region_source"] == "declared"
    assert finding.data["witness"] == {"k1": "1", "k2": "2"}
    assert "candidate values" in finding.data["conflict"]
    assert report.fails("error")


def test_e205_witness_is_minimized(diverging):
    # An attribute irrelevant to the conflict is dropped from the witness.
    schema, master, rules = diverging
    wide = RelationSchema("r", ["k1", "k2", "x", "v"])
    master = _master([(1, 9, "p", 10), (8, 2, "q", 20)], wide)
    report = run_lint(rules, wide, master,
                      region=_wild_region(("k1", "k2", "x")))
    (finding,) = [d for d in report if d.code == "E205"]
    assert set(finding.data["witness"]) == {"k1", "k2"}
    assert set(finding.data["witness_full"]) == {"k1", "k2", "x"}


def test_e205_silent_on_consistent_program():
    # A concrete tableau over the active keys: every marked input has a
    # unique covering fix.  (A wildcard region would NOT be certain — its
    # instantiation includes a fresh key no rule can fire on.)
    schema = RelationSchema("r", ["k", "v"])
    master = _master([(1, 10), (2, 20)], schema)
    region = Region(("k",), PatternTableau(
        ("k",), [PatternTuple({"k": Const(1)}),
                 PatternTuple({"k": Const(2)})],
    ))
    report = run_lint([_rule("k", "v", name="only")], schema, master,
                      region=region)
    assert "E205" not in report.codes()
    assert "W206" not in report.codes()


def test_e205_degradation_is_reported_never_silent(diverging):
    schema, master, rules = diverging
    report = run_lint(rules, schema, master,
                      region=_wild_region(("k1", "k2")),
                      max_instantiations=1)
    (finding,) = [d for d in report if d.code == "E205"]
    assert finding.severity is Severity.INFO
    assert finding.data["degraded"] is True
    assert "sampled" in finding.message
    # The sampled fallback is re-armed and reports the divergence.
    assert [d for d in report if d.code == "W202"]


def test_degraded_by_master_size_budget(diverging):
    schema, master, rules = diverging
    report = run_lint(rules, schema, master,
                      region=_wild_region(("k1", "k2")),
                      max_master_rows=1)
    (finding,) = [d for d in report if d.code == "E205"]
    assert finding.severity is Severity.INFO
    assert "max_master_rows" in finding.data["reason"]


# -- W206 / I208: coverage and extension --------------------------------------


def test_w206_uncoverable_attr_and_i208_extension():
    schema = RelationSchema("r", ["k", "v", "w"])
    master = _master([(1, 10, "x")], schema)
    rules = [_rule("k", "v", name="kv")]  # nothing ever fixes w
    report = run_lint(rules, schema, master, region=_wild_region(("k",)))
    w206s = [d for d in report if d.code == "W206"]
    assert any(d.data.get("uncoverable") == ["w"] for d in w206s)
    (i208,) = [d for d in report if d.code == "I208"]
    # v rides along because the wildcard region's fresh-key instantiation
    # cannot fire the rule; w is the genuinely uncoverable attribute.
    assert "w" in i208.data["extension"]
    assert i208.data["exact"] is True
    assert i208.fixit["action"] == "extend_region"
    assert "w" in i208.fixit["attrs"]


def test_i208_fixit_round_trips_through_apply(diverging):
    # Applying I208's extend_region makes the re-lint clean of E205/W206.
    schema, master, rules = diverging
    region = _wild_region(("k1", "k2"))
    report = run_lint(rules, schema, master, region=region)
    assert "E205" in report.codes() and "I208" in report.codes()
    result = apply_fixits(rules, report.diagnostics, region)
    assert result.changed
    assert "v" in result.region.attrs
    again = run_lint(result.rules, schema, master, region=result.region)
    assert "E205" not in again.codes()
    assert "I208" not in again.codes()
    # Idempotence: a second application changes nothing.
    rerun = apply_fixits(result.rules, again.diagnostics, result.region)
    assert not rerun.changed


# -- backend parity -----------------------------------------------------------


@pytest.mark.parametrize("dataset", ["hosp", "dblp"])
def test_cert_codes_identical_across_backends(dataset, request):
    from repro.engine.remote import MasterServer, RemoteStore

    bundle = request.getfixturevalue(dataset)
    key = lambda report: [
        (d.code, d.severity.name, d.rule, d.rule_index, d.message)
        for d in report
    ]
    memory = as_master_store(bundle.master)
    expected = key(run_lint(bundle.rules, bundle.schema, memory))
    sqlite = SqliteStore(bundle.schema, iter(bundle.master))
    assert key(run_lint(bundle.rules, bundle.schema, sqlite)) == expected
    sqlite.close()
    with MasterServer(InMemoryStore(bundle.master)) as server:
        remote = RemoteStore(server.url)
        assert key(run_lint(bundle.rules, bundle.schema, remote)) == expected
        remote.close()


# -- lint after a master mutation ----------------------------------------------


@pytest.mark.parametrize("inserted", [
    (8, 9, 10, 20),  # an unprobed key pair, no novel value
    (1, 9, 30, 40),  # hits the probed (1, 9) key
    (8, 9, 10, 99),  # w=99 is novel to a domain-feeding column
], ids=["unprobed-key", "probed-key", "novel-value"])
def test_lint_after_insert_equals_lint_of_fresh_store(inserted):
    # Two-column probes, region pinned to k1=1 (so E205 fires): a lint of
    # a store that was linted, then mutated, must report exactly what a
    # lint of a fresh store holding the same rows reports.
    schema = RelationSchema("r", ["k1", "k2", "v", "w"])
    store = InMemoryStore(
        _master([(1, 9, 10, 20), (8, 2, 30, 40)], schema)
    )
    rules = [
        _rule(("k1", "k2"), "v", name="r1"),
        _rule(("k1", "k2"), "v", rhs_m="w", name="r2"),
    ]
    region = Region(("k1", "k2"), PatternTableau(
        ("k1", "k2"),
        [PatternTuple({"k1": Const(1), "k2": ANY})],
    ))
    assert "E205" in run_lint(rules, schema, store, region=region).codes()
    store.insert(list(inserted))
    fresh = InMemoryStore(Relation(schema, list(store)))
    key = lambda report: [d.to_dict() for d in report]
    after = run_lint(rules, schema, store, region=region)
    assert key(after) == key(run_lint(rules, schema, fresh, region=region))
    assert after.master_version == store.version


# -- active-domain hoisting (satellite: saved work is counted) ----------------


def test_domain_cache_stats_show_reuse(hosp):
    ctx = LintContext(
        rules=tuple(hosp.rules), schema=hosp.schema,
        master_schema=hosp.schema, store=as_master_store(hosp.master),
    )
    cert = certification_for(ctx)
    assert cert.exact_complete
    assert cert.domain_stats["reused"] > cert.domain_stats["computed"]


# -- preflight mode "certify" -------------------------------------------------


def test_preflight_certify_passes_consistent_program(diverging):
    # The computed region is concrete and consistent, so certify admits the
    # program even though the sampled search had a (spurious) witness.
    schema, master, rules = diverging
    report = preflight(rules, schema, mode="certify", master=master)
    assert report is not None and not report.errors


def test_preflight_certify_refuses_inconsistent_program():
    # Four target attributes each have a diverging rule pair (one reads
    # the attribute's own master column, one reads `alt`), so a consistent
    # region would need all four assured — beyond comp_c_region's
    # extension bound.  The search fails, the canonical region is
    # certified, and its exact check proves the conflict.
    attrs = ["k", "v1", "v2", "v3", "v4", "alt"]
    schema = RelationSchema("r", attrs)
    master = _master([(1, 10, 11, 12, 13, 99)], schema)
    rules = []
    for i in range(1, 5):
        rules.append(_rule("k", f"v{i}", name=f"own{i}"))
        rules.append(_rule("k", f"v{i}", rhs_m="alt", name=f"alt{i}"))
    with pytest.raises(LintError) as excinfo:
        preflight(rules, schema, mode="certify", master=master)
    assert "E205" in str(excinfo.value)
    # The plain structural gate would have admitted the same program.
    assert preflight(rules, schema) is not None


def test_preflight_certify_requires_master(diverging):
    schema, _, rules = diverging
    with pytest.raises(ValueError, match="needs master data"):
        preflight(rules, schema, mode="certify")


# -- fuzz: exact and sampled never disagree in the inconsistent direction -----


FUZZ_ATTRS = ["a", "b", "c"]
fuzz_values = st.integers(min_value=0, max_value=2)


@st.composite
def fuzz_instances(draw):
    schema = RelationSchema("r", FUZZ_ATTRS)
    rows = draw(st.lists(
        st.tuples(fuzz_values, fuzz_values, fuzz_values),
        min_size=1, max_size=3,
    ))
    num_rules = draw(st.integers(min_value=2, max_value=3))
    rules = []
    for i in range(num_rules):
        lhs = draw(st.sampled_from(FUZZ_ATTRS))
        rhs = draw(st.sampled_from([x for x in FUZZ_ATTRS if x != lhs]))
        rhs_m = draw(st.sampled_from([x for x in FUZZ_ATTRS if x != lhs]))
        rules.append(_rule(lhs, rhs, rhs_m=rhs_m, name=f"r{i}"))
    return schema, _master(rows, schema), rules


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(fuzz_instances())
def test_fuzz_sampled_witness_implies_exact_inconsistency(instance):
    """Any divergence the sampled W202 search finds must also be found by
    the exact check over the concrete region marking exactly that witness:
    the two analyses never disagree in the 'inconsistent' direction."""
    from repro.analysis.consistency import check_region

    schema, master, rules = instance
    # Starve the exact pass so the sampled fallback produces findings.
    report = run_lint(rules, schema, master,
                      region=_wild_region(tuple(FUZZ_ATTRS)),
                      max_instantiations=1)
    for finding in report:
        if finding.code != "W202":
            continue
        witness = {
            attr: ast.literal_eval(value)
            for attr, value in finding.data["witness"].items()
        }
        attrs = tuple(a for a in FUZZ_ATTRS if a in witness)
        concrete = Region(attrs, PatternTableau(
            attrs,
            [PatternTuple({a: Const(witness[a]) for a in attrs})],
        ))
        exact = check_region(rules, as_master_store(master), concrete,
                             schema)
        assert not exact.consistent, (
            f"sampled witness {witness} diverges but the exact check "
            f"claims consistency"
        )


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(fuzz_instances())
def test_fuzz_agreement_holds_on_sqlite_backend(instance):
    from repro.analysis.consistency import check_region

    schema, master, rules = instance
    store = SqliteStore(schema, iter(master))
    try:
        report = run_lint(rules, schema, store,
                          region=_wild_region(tuple(FUZZ_ATTRS)),
                          max_instantiations=1)
        for finding in report:
            if finding.code != "W202":
                continue
            witness = {
                attr: ast.literal_eval(value)
                for attr, value in finding.data["witness"].items()
            }
            attrs = tuple(a for a in FUZZ_ATTRS if a in witness)
            concrete = Region(attrs, PatternTableau(
                attrs,
                [PatternTuple({a: Const(witness[a]) for a in attrs})],
            ))
            exact = check_region(rules, store, concrete, schema)
            assert not exact.consistent
    finally:
        store.close()
