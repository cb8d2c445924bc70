"""Running lint passes: entry points and preflight gates.

:func:`run_lint` is the full analyzer (structural + master-aware);
:func:`structural_report` is the cheap subset every preflight uses; and
:func:`preflight` is the shared gate the batch engine and the CLI call —
it raises :class:`~repro.lint.diagnostics.LintError` (``"error"``), prints
to a stream (``"warn"``), or does nothing (``"off"``).

Nothing is cached across calls: every caller lints a given store once
(the CLI once per process, ``repro lint --fix`` once per round and
reporting its converged round's lint, the batch engine once per
construction), so a per-store cache would only ever miss.
"""

from __future__ import annotations

import sys
from typing import Iterable, List, Optional, Sequence, TextIO

from repro import obs
from repro.engine.schema import RelationSchema
from repro.engine.store import MasterStore, as_master_store
from repro.lint.diagnostics import Diagnostic, LintError, LintReport
from repro.lint.registry import (
    MASTER,
    STRUCTURAL,
    LintContext,
    LintPass,
    registered_passes,
)


def _run_family(
    passes: Sequence[LintPass], ctx: LintContext
) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    for lint in passes:
        with obs.time_block("repro_lint_pass_seconds", code=lint.code):
            out.extend(lint.run(ctx))
    return out


def run_lint(
    rules: Sequence,
    schema: RelationSchema,
    master=None,
    master_schema: Optional[RelationSchema] = None,
    codes: Optional[Sequence[str]] = None,
    **budgets,
) -> LintReport:
    """Run lint passes over ``(rules, schema, master)`` → :class:`LintReport`.

    *master* may be a :class:`MasterStore`, a ``Relation``, or ``None``
    (structural passes only).  *master_schema* defaults to the store's
    schema when a master is given, else to *schema* (the paper's
    same-schema setting).  *codes* restricts the run to specific
    diagnostic codes; *budgets* override :class:`LintContext` analysis
    budgets (``max_master_rows``, ``max_witness_pairs``,
    ``max_instantiations``, ...) or pin the certification ``region``.
    """
    store: Optional[MasterStore] = None
    if master is not None:
        store = as_master_store(master)
    if master_schema is None:
        master_schema = store.schema if store is not None else schema
    ctx = LintContext(
        rules=tuple(rules),
        schema=schema,
        master_schema=master_schema,
        store=store,
        **budgets,
    )
    # NB: `if store` would be wrong here — an *empty* store has len() == 0
    # and is falsy, but empty master data is exactly what W201 must flag.
    if codes is None:
        structural = registered_passes(STRUCTURAL)
        master_passes = (
            registered_passes(MASTER) if store is not None else ()
        )
    else:
        from repro.lint.registry import passes_for_codes

        selected = passes_for_codes(codes)
        structural = tuple(p for p in selected if p.family == STRUCTURAL)
        master_passes = tuple(
            p for p in selected
            if p.family == MASTER and store is not None
        )
    diagnostics = _run_family(structural, ctx)
    if master_passes:
        diagnostics.extend(_run_family(master_passes, ctx))
    return LintReport(
        diagnostics=diagnostics,
        rules_linted=len(ctx.rules),
        passes_run=tuple(
            p.code for p in (*structural, *master_passes)
        ),
        master_version=store.version if store is not None else None,
    )


def structural_report(
    rules: Sequence,
    schema: RelationSchema,
    master_schema: Optional[RelationSchema] = None,
) -> LintReport:
    """The structural-only subset — the cheap preflight every expensive
    precompute path runs first."""
    ctx = LintContext(
        rules=tuple(rules),
        schema=schema,
        master_schema=master_schema if master_schema is not None else schema,
    )
    structural = registered_passes(STRUCTURAL)
    return LintReport(
        diagnostics=_run_family(structural, ctx),
        rules_linted=len(ctx.rules),
        passes_run=tuple(p.code for p in structural),
    )


#: Accepted preflight modes (the BatchRepairEngine / CLI knob).
PREFLIGHT_MODES = ("error", "warn", "off", "certify")


def preflight(
    rules: Sequence,
    schema: RelationSchema,
    master_schema: Optional[RelationSchema] = None,
    mode: str = "error",
    context: str = "rule program",
    stream: Optional[TextIO] = None,
    master=None,
) -> Optional[LintReport]:
    """Gate a rule program on its lint findings.

    ``mode="error"`` raises :class:`LintError` when error-level
    *structural* findings exist (warnings pass silently);
    ``mode="warn"`` never raises but prints every finding to *stream*
    (default ``sys.stderr``); ``mode="off"`` skips linting entirely and
    returns ``None``.  ``mode="certify"`` runs the full analyzer —
    structural plus the master-aware and exact certification passes
    (E205/W206/I208) against *master* — and raises on any error-level
    finding: the admission gate for rule programs that must carry the
    certain-fix guarantee.
    """
    if mode not in PREFLIGHT_MODES:
        raise ValueError(
            f"preflight must be one of {list(PREFLIGHT_MODES)}, got {mode!r}"
        )
    if mode == "off":
        return None
    if mode == "certify":
        if master is None:
            raise ValueError(
                'preflight mode "certify" needs master data '
                "(pass master=... through the caller)"
            )
        report = run_lint(rules, schema, master, master_schema=master_schema)
        if report.errors:
            raise LintError(report, context=context)
        return report
    report = structural_report(rules, schema, master_schema)
    if mode == "error":
        if report.errors:
            raise LintError(report, context=context)
        return report
    if report.diagnostics:
        print(
            f"lint preflight ({context}): {report.summary()}",
            file=stream or sys.stderr,
        )
        for diagnostic in report.diagnostics:
            print(diagnostic.describe(), file=stream or sys.stderr)
    return report


def sarif_rule_metadata(codes: Iterable[str]) -> List[dict]:
    """SARIF driver rule entries for the given pass codes, in order."""
    by_code = {p.code: p for p in registered_passes()}
    return [by_code[c].sarif_rule() for c in codes if c in by_code]
