"""The `repro lint` subcommand and the lint preflights of its siblings."""

import json

import pytest

from repro import io as rule_io
from repro.cli import main
from repro.core.patterns import PatternTuple
from repro.core.rules import EditingRule
from repro.engine.csvio import relation_to_csv


@pytest.fixture()
def hosp_files(tmp_path, hosp):
    master_csv = tmp_path / "master.csv"
    relation_to_csv(hosp.master, master_csv)
    rules_json = tmp_path / "rules.json"
    rules_json.write_text(rule_io.dumps(hosp.rules) + "\n")
    return str(rules_json), str(master_csv)


def _bad_rules_file(tmp_path):
    path = tmp_path / "bad_rules.json"
    rule = EditingRule("id", "id", "hNaem", "hName", PatternTuple({}),
                       name="typo")
    path.write_text(rule_io.dumps([rule]) + "\n")
    return str(path)


def test_lint_text_default_exit_zero(capsys, hosp_files):
    # The exact certification clears the seed-era sampled W202 warnings.
    rules_json, master_csv = hosp_files
    assert main(["lint", "--rules", rules_json, "--master", master_csv]) == 0
    out = capsys.readouterr().out
    assert "W202" not in out and "I107" in out
    assert "0 error(s), 0 warning(s), 1 info(s)" in out


def test_lint_fail_on_info_exits_one(capsys, hosp_files):
    # hosp lints down to one I107 info now; the gate still trips on it.
    rules_json, master_csv = hosp_files
    assert main([
        "lint", "--rules", rules_json, "--master", master_csv,
        "--fail-on", "warning",
    ]) == 0
    assert main([
        "lint", "--rules", rules_json, "--master", master_csv,
        "--fail-on", "info",
    ]) == 1


def test_lint_json_is_machine_readable(capsys, hosp_files):
    rules_json, master_csv = hosp_files
    assert main([
        "lint", "--rules", rules_json, "--master", master_csv,
        "--format", "json",
    ]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["summary"]["warnings"] == 0
    assert [d["code"] for d in doc["diagnostics"]] == ["I107"]
    assert "E205" in doc["summary"]["passes_run"]


def test_lint_sarif_output_file(tmp_path, capsys, hosp_files):
    rules_json, master_csv = hosp_files
    out_path = tmp_path / "lint.sarif"
    assert main([
        "lint", "--rules", rules_json, "--master", master_csv,
        "--format", "sarif", "--output", str(out_path),
    ]) == 0
    printed = capsys.readouterr().out
    assert "wrote sarif report" in printed
    sarif = json.loads(out_path.read_text())
    assert sarif["version"] == "2.1.0"
    (run,) = sarif["runs"]
    assert run["tool"]["driver"]["name"] == "repro-lint"
    assert {r["id"] for r in run["tool"]["driver"]["rules"]} >= \
        {"E101", "W202", "I107", "E205", "W206", "I208"}
    for result in run["results"]:
        uri = result["locations"][0]["physicalLocation"]
        assert uri["artifactLocation"]["uri"] == rules_json


def test_lint_sarif_carries_rule_source_lines(tmp_path, capsys, hosp_files):
    # Rule-indexed findings point at the physical line of the offending
    # rule object inside the rules JSON file.
    _, master_csv = hosp_files
    rules_json = _bad_rules_file(tmp_path)
    assert main([
        "lint", "--rules", rules_json, "--master", master_csv,
        "--format", "sarif",
    ]) == 1
    sarif = json.loads(capsys.readouterr().out)
    (run,) = sarif["runs"]
    e101 = next(r for r in run["results"] if r["ruleId"] == "E101")
    physical = e101["locations"][0]["physicalLocation"]
    start_line = physical["region"]["startLine"]
    lines = open(rules_json, encoding="utf-8").read().splitlines()
    assert lines[start_line - 1].lstrip().startswith("{")


def test_lint_sqlite_backend_agrees_with_memory(tmp_path, capsys,
                                                hosp_files):
    rules_json, master_csv = hosp_files
    assert main([
        "lint", "--rules", rules_json, "--master", master_csv,
        "--master-backend", "sqlite",
        "--sqlite-path", str(tmp_path / "m.db"),
        "--format", "json",
    ]) == 0
    sqlite_doc = json.loads(capsys.readouterr().out)
    assert main([
        "lint", "--rules", rules_json, "--master", master_csv,
        "--format", "json",
    ]) == 0
    memory_doc = json.loads(capsys.readouterr().out)
    # Same findings either way; only the version stamp may differ.
    assert sqlite_doc["diagnostics"] == memory_doc["diagnostics"]


def test_lint_unparsable_rules_is_e100_exit_two(tmp_path, capsys,
                                                hosp_files):
    _, master_csv = hosp_files
    bad = tmp_path / "nonsense.json"
    bad.write_text("not json at all")
    assert main(["lint", "--rules", str(bad), "--master", master_csv]) == 2
    err = capsys.readouterr().err
    assert "E100" in err and "unparsable-rules" in err


def test_lint_error_findings_fail_default_gate(tmp_path, capsys, hosp_files):
    _, master_csv = hosp_files
    assert main([
        "lint", "--rules", _bad_rules_file(tmp_path),
        "--master", master_csv, "--format", "json",
    ]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["summary"]["errors"] >= 1
    assert "E101" in [d["code"] for d in doc["diagnostics"]]


def test_lint_missing_master_is_clean_error(capsys, hosp_files):
    rules_json, _ = hosp_files
    assert main(["lint", "--rules", rules_json]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_analyze_unknown_attribute_exits_two_with_diagnostics(
        tmp_path, capsys, hosp_files):
    _, master_csv = hosp_files
    code = main([
        "analyze", "--rules", _bad_rules_file(tmp_path),
        "--master", master_csv,
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert "E101" in captured.err
    assert "did you mean 'hName'" in captured.err
    assert "Traceback" not in captured.err


def test_analyze_unparsable_rules_exits_two(tmp_path, capsys, hosp_files):
    _, master_csv = hosp_files
    bad = tmp_path / "nonsense.json"
    bad.write_text("[broken")
    assert main(["analyze", "--rules", str(bad),
                 "--master", master_csv]) == 2
    assert "E100" in capsys.readouterr().err


def test_analyze_prints_cycle_witness(tmp_path, capsys):
    from repro.engine.relation import Relation
    from repro.engine.schema import RelationSchema

    schema = RelationSchema("r", ["a", "b", "c"])
    master = Relation(schema)
    master.insert(["1", "2", "3"])
    master_csv = tmp_path / "m.csv"
    relation_to_csv(master, master_csv)
    rules_json = tmp_path / "r.json"
    rules_json.write_text(rule_io.dumps([
        EditingRule("a", "a", "b", "b", name="ab"),
        EditingRule("b", "b", "a", "a", name="ba"),
        EditingRule("a", "a", "c", "c", name="ac"),
    ]))
    main(["analyze", "--rules", str(rules_json), "--master",
          str(master_csv)])
    out = capsys.readouterr().out
    assert "cyclic: " in out
    assert "ab -> ba -> ab" in out or "ba -> ab -> ba" in out


def test_mine_lints_by_default(tmp_path, capsys, hosp):
    master_csv = tmp_path / "master.csv"
    relation_to_csv(hosp.master, master_csv)
    out_json = tmp_path / "mined.json"
    assert main([
        "mine", "--master", str(master_csv), "--output", str(out_json),
        "--max-key", "1",
    ]) == 0
    out = capsys.readouterr().out
    assert "lint:" in out
    assert out_json.exists()


def test_mine_no_lint_skips_the_gate(tmp_path, capsys, hosp):
    master_csv = tmp_path / "master.csv"
    relation_to_csv(hosp.master, master_csv)
    out_json = tmp_path / "mined.json"
    assert main([
        "mine", "--master", str(master_csv), "--output", str(out_json),
        "--max-key", "1", "--no-lint",
    ]) == 0
    assert "lint:" not in capsys.readouterr().out
    assert out_json.exists()


def test_mine_error_findings_block_the_write(tmp_path, capsys, hosp,
                                             monkeypatch):
    import repro.cli as cli

    # Force discovery to produce a rule with an error-level finding; the
    # file must NOT be written.
    broken = EditingRule("id", "id", "bogus", "hName", name="broken")
    monkeypatch.setattr(cli, "discover_editing_rules", lambda *a, **k: [])
    monkeypatch.setattr(cli, "rules_only", lambda discovered: [broken])
    master_csv = tmp_path / "master.csv"
    relation_to_csv(hosp.master, master_csv)
    out_json = tmp_path / "mined.json"
    assert main([
        "mine", "--master", str(master_csv), "--output", str(out_json),
    ]) == 2
    err = capsys.readouterr().err
    assert "E101" in err and "refusing to write" in err
    assert not out_json.exists()


def test_lint_fix_applies_and_is_idempotent(tmp_path, capsys, hosp_files):
    _, master_csv = hosp_files
    dup = [
        EditingRule("id", "id", "hName", "hName", PatternTuple({}),
                    name="a"),
        EditingRule("id", "id", "hName", "hName", PatternTuple({}),
                    name="b"),
    ]
    rules_json = tmp_path / "dup.json"
    rules_json.write_text(rule_io.dumps(dup) + "\n")
    assert main([
        "lint", "--rules", str(rules_json), "--master", master_csv, "--fix",
    ]) == 0
    out = capsys.readouterr().out
    assert "fix: applied" in out
    rules, _, _ = rule_io.load_document(rules_json.read_text())
    assert len(rules) == 1  # the W103 duplicate was removed
    # Second run: fixed point already reached, the file must not change.
    before = rules_json.read_text()
    assert main([
        "lint", "--rules", str(rules_json), "--master", master_csv, "--fix",
    ]) == 0
    assert "fix: no applyable fix-its" in capsys.readouterr().out
    assert rules_json.read_text() == before


def test_lint_fix_on_clean_rules_lints_once(capsys, hosp_files, monkeypatch):
    # A converged --fix loop reports its last round's lint instead of
    # linting the unchanged rules a second time.
    import repro.lint as lint

    rules_json, master_csv = hosp_files
    real_run_lint = lint.run_lint
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real_run_lint(*args, **kwargs)

    monkeypatch.setattr(lint, "run_lint", counted)
    assert main([
        "lint", "--rules", rules_json, "--master", master_csv, "--fix",
    ]) == 0
    out = capsys.readouterr().out
    assert "fix: no applyable fix-its" in out
    assert "0 error(s), 0 warning(s), 1 info(s)" in out
    assert len(calls) == 1


def test_batch_repair_certify_preflight_passes_clean_rules(
        tmp_path, capsys, hosp, hosp_files):
    from repro.engine.relation import Relation

    rules_json, master_csv = hosp_files
    dirty_csv = tmp_path / "dirty.csv"
    relation_to_csv(Relation(hosp.schema, [hosp.master.first()]), dirty_csv)
    assert main([
        "batch-repair", "--rules", rules_json, "--master", master_csv,
        "--input", str(dirty_csv), "--clean", str(dirty_csv),
        "--preflight", "certify",
    ]) == 0


def test_batch_repair_preflight_gate(tmp_path, capsys, hosp, hosp_files):
    from repro.engine.relation import Relation

    _, master_csv = hosp_files
    dirty_csv = tmp_path / "dirty.csv"
    relation_to_csv(Relation(hosp.schema, [hosp.master.first()]), dirty_csv)
    argv = [
        "batch-repair", "--rules", _bad_rules_file(tmp_path),
        "--master", master_csv,
        "--input", str(dirty_csv), "--clean", str(dirty_csv),
    ]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "E101" in err
    assert "Traceback" not in err
