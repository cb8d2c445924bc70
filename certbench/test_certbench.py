"""The tracer must not change what it measures, and must clean up; the
metrics a run prints must be the ones ``BENCHMARK.json`` declares.

Run with ``python -m pytest certbench -q`` from the repository root.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 3
SIZE = 100
DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _declared(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in DECLARED[kind]}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_cycle_matches_untraced(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    inputs = workloads.make_inputs(workload, SEED, tmp_path, size=SIZE)
    plain = workloads.run_cycle(workload, inputs, run.ROOT, tmp_path)
    traced = workloads.run_cycle(workload, inputs, run.ROOT, tmp_path,
                                 tracer=tracing.Tracer())
    assert plain.error is None and traced.error is None
    assert plain.failed == traced.failed == 0
    assert [p.finals for p in plain.phases] == \
        [p.finals for p in traced.phases]
    assert plain.exact_counts() == traced.exact_counts()
    assert run._consistency_errors([plain], [traced]) == []
    layers = traced.layers
    assert layers["chase.calls"] > 0 and layers["store.probe_calls"] > 0
    assert layers["oracle.calls"] > 0 and layers["region.builds"] >= 1
    if workload.write_every:
        assert layers["invalidate.calls"] == traced.writes >= 1
    if workload.backend == "remote":
        assert layers["remote.requests"] == plain.connection["requests"]
    assert tracing.leaked_bindings() == []
    printed = run.end_to_end([plain], [plain.scaled_setup_s])
    assert {k: u for k, (_, u) in printed.items()} == _declared("end_to_end")
    printed = run.per_layer([plain], [traced])
    assert {k: u for k, (_, u) in printed.items()} == _declared("per_layer")


def test_run_writes_spans_and_the_result_line(tmp_path, capsys):
    spans = tmp_path / "spans.jsonl"
    assert run.main(["--workload", "hosp-fresh", "--seed", str(SEED),
                     "--seconds", "0", "--trace", "1",
                     "--spans", str(spans)]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(_declared("per_layer"))
    records = [json.loads(line) for line in spans.read_text().splitlines()]
    names = {r["name"] for r in records}
    assert {"chase", "transfix", "store.probe", "batch", "oracle"} <= names
    assert all(r["parent"] < r["id"] for r in records)


def test_declared_workloads_are_the_benchmarks():
    assert [(w["name"], w["why"]) for w in DECLARED["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()]


def test_uninstall_restores_every_binding_after_a_failure():
    store = workloads.InMemoryStore(workloads.Relation(
        workloads.make_hosp(num_hospitals=2, num_measures=2).schema))
    tracer = tracing.Tracer()
    tracer.install()
    tracer.attach_store(store)
    assert tracing.leaked_bindings(store)
    try:
        with pytest.raises(ValueError):
            store.probe(("id",), ("a", "b"))  # key/attrs length mismatch
    finally:
        tracer.uninstall()
    assert tracing.leaked_bindings(store) == []
    assert tracer.spans[0][tracing.NAME] == "store.probe"


def test_store_wrappers_return_what_the_store_returns():
    bundle = workloads.make_hosp(num_hospitals=20, num_measures=5)
    store = workloads.InMemoryStore(bundle.master)
    keys = sorted({(row["mCode"],) for row in bundle.master.iter_rows()})
    plain = {key: tuple(store.probe_ref(("mCode",), key)) for key in keys}
    plain_many = store.probe_many(("mCode",), keys)
    tracer = tracing.Tracer()
    tracer.attach_store(store)
    try:
        traced = {key: tuple(store.probe_ref(("mCode",), key))
                  for key in keys}
        traced_many = store.probe_many(("mCode",), keys)
    finally:
        tracer.uninstall()
    assert traced == plain and traced_many == plain_many
    assert sum(len(rows) for rows in plain.values()) == len(bundle.master)
    assert [s[tracing.ROWS] for s in tracer.spans[:len(keys)]] == \
        [len(plain[key]) for key in keys]


def test_consistency_check_reports_a_changed_output(tmp_path):
    workload = workloads.WORKLOADS["hosp-fresh"]
    inputs = workloads.make_inputs(workload, SEED, tmp_path, size=SIZE)
    first = workloads.run_cycle(workload, inputs, run.ROOT, tmp_path)
    second = workloads.run_cycle(workload, inputs, run.ROOT, tmp_path)
    second.fresh.finals[0] = ("tampered",)
    second.counters["probe_ref_calls"] += 1
    errors = run._consistency_errors([first, second], [])
    assert any("fresh final rows differ" in e for e in errors)
    assert any("probe_ref_calls" in e for e in errors)
