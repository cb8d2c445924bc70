#!/usr/bin/env python3
"""The repository benchmark: CertainFix monitoring on three workloads.

Run from the repository root::

    python3 certbench/run.py --workload hosp-fresh --seed 7 --seconds 10 --trace 0

Each run generates its inputs from ``--seed``, then repeats measured cycles
(see ``workloads.py``) until ``--seconds`` have passed, with at least
``MIN_CYCLES`` of them.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced cycles and reports the
per-layer metrics, after checking that tracing changed no output and no
exact count and left no wrapper behind.  Every final row is checked
against ground truth in both modes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the run's context (workload, seed, cores, Python, commit) and the
workload's measured properties.  The exit status is 0 only when every
output was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(ROOT / "src"))
try:
    import tracer as tracing
    import workloads
except ImportError as exc:  # not a full checkout: no src/repro
    tracing = workloads = None
    IMPORT_ERROR = exc

#: At least this many untraced cycles per run, so that every block has a
#: best time, and every round two fastest times, out of several.
MIN_CYCLES = 3
#: ``setup_s`` is the median of at least this many set-ups per run; runs
#: with fewer cycles add set-up-only repetitions.
MIN_SETUPS = 5


def _commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def best_tps(phases) -> float:
    """Throughput over the best scaled time of each block across cycles.

    Every cycle monitors the same blocks in the same order, so taking each
    block's best time keeps the work fixed and drops one-off stalls.
    """
    best = sum(min(times) for times in
               zip(*(p.scaled_blocks() for p in phases)))
    return phases[0].tuples / best


def round_latencies(cycles) -> list:
    """Each fresh-stream round's latency: the mean of its two fastest
    cycles.

    Every cycle monitors the same rounds in the same order, so a stall
    that recurs in a round (cold caches, garbage-collector pauses) is
    kept, while host stalls, which hit a round in some cycles only, are
    dropped with the slower cycles, as the slower blocks are for ``tps``.
    Averaging two damps the noise of the host-speed scale.
    """
    return [statistics.fmean(sorted(times)[:2]) for times in
            zip(*(c.fresh.round_latencies for c in cycles))]


def end_to_end(cycles, setups) -> dict:
    """The end-to-end metrics over the untraced cycles of one run."""
    rounds = round_latencies(cycles)
    first = cycles[0]
    return {
        "tps": (best_tps([c.fresh for c in cycles]), "tuples/s"),
        "rerun_tps": (best_tps([r for c in cycles for r in c.replays]),
                      "tuples/s"),
        "round_p50_ms": (_percentile(rounds, 50) * 1e3, "ms"),
        "round_p99_ms": (_percentile(rounds, 99) * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "rounds_per_tuple": (first.fresh.rounds / first.fresh.tuples,
                             "rounds"),
    }


LAYER_UNITS = {
    "calls": "count", "builds": "count", "next_calls": "count",
    "requests": "count", "reconnects": "count", "delta_purges": "count",
    "full_drops": "count", "lru_evictions": "count",
    "probe_calls": "count", "probe_many_calls": "count",
    "rows_scanned": "rows", "rows_returned": "rows",
    "rows_per_call": "rows", "rows_per_probe": "rows",
    "requests_per_tuple": "1/tuple", "p50_ms": "ms",
    "trace_overhead_pct": "%",
}


def _layer_unit(name: str) -> str:
    leaf = name.rsplit(".", 1)[-1]
    if leaf in LAYER_UNITS:
        return LAYER_UNITS[leaf]
    if leaf.endswith("hit_rate"):
        return "fraction"
    return "s"


def per_layer(cycles, traced) -> dict:
    """Per-layer metrics: the median of each over the traced cycles."""
    names = traced[0].layers
    out = {
        name: (statistics.median([c.layers[name] for c in traced]),
               _layer_unit(name))
        for name in names
    }
    untraced_tps = best_tps([c.fresh for c in cycles])
    traced_tps = best_tps([c.fresh for c in traced])
    out["trace_overhead_pct"] = (
        (untraced_tps / traced_tps - 1.0) * 100.0, "%")
    return out


def _consistency_errors(cycles, traced) -> list:
    """Outputs and exact counts must repeat across every cycle of a run,
    traced or not; traced cycles must also agree on the tracer's own
    counts (probe calls, rows returned)."""
    errors = []
    reference = cycles[0]
    expected = reference.exact_counts()
    for label, group in (("untraced", cycles[1:]), ("traced", traced)):
        for cycle in group:
            for name, phase, expected_phase in zip(
                    workloads.phase_labels(), cycle.phases, reference.phases):
                if phase.finals != expected_phase.finals:
                    errors.append(f"{label} cycle: {name} final rows differ")
            counts = cycle.exact_counts()
            for key in expected:
                if counts[key] != expected[key]:
                    errors.append(f"{label} cycle: {key} is {counts[key]}, "
                                  f"untraced run gave {expected[key]}")
    exact_layers = ("chase.calls", "transfix.calls", "store.probe_calls",
                    "store.rows_returned", "oracle.calls", "region.builds")
    for cycle in traced[1:]:
        for key in exact_layers:
            if cycle.layers[key] != traced[0].layers[key]:
                errors.append(f"traced cycles disagree on {key}")
    return errors


def _properties(workload, cycles, traced) -> dict:
    """The workload's measured properties (recorded with every result)."""
    first = cycles[0]
    fresh = first.fresh
    hits, misses = fresh.chase_memo
    props = {
        "fresh_chase_memo_hit_rate": hits / (hits + misses),
        "replay_share": 1 - fresh.tuples / first.attempted,
        "writes_per_1000_tuples": first.writes / fresh.tuples * 1000,
        "lru_capacity": first.lru.get("maxsize"),
        "remote_requests_per_1000_fresh_tuples":
            fresh.requests / fresh.tuples * 1000,
        # Unscaled wall-clock figures, medians over the untraced cycles.
        "raw_tps": statistics.median(c.fresh.raw_tps for c in cycles),
        "raw_rerun_tps": statistics.median(
            r.raw_tps for c in cycles for r in c.replays),
        "raw_setup_s": statistics.median(c.setup_s for c in cycles),
    }
    if traced:
        props["distinct_probe_keys"] = traced[0].distinct_probe_keys
        props["probe_rows_per_1000_tuples"] = (
            traced[0].layers["store.rows_returned"] / first.attempted * 1000)
    return props


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, metavar="FILE",
                        help="with --trace 1: write the last traced cycle's "
                             "spans to FILE as JSON lines")
    args = parser.parse_args(argv)

    if workloads is None:
        print(f"error: {IMPORT_ERROR}; run the benchmark from the root of a "
              f"full checkout (it imports repro from src/)", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    # A terminated run still stops its master server (finally blocks).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workdir = Path(tempfile.mkdtemp(prefix=".certbench-", dir=ROOT))
    cycles, traced = [], []
    errors = []
    cycle = tracer = None
    try:
        inputs = workloads.make_inputs(workload, args.seed, workdir)
        deadline = time.perf_counter() + args.seconds
        minimum = 1 if args.trace else MIN_CYCLES
        while True:
            cycle = workloads.run_cycle(workload, inputs, ROOT, workdir)
            cycles.append(cycle)
            if args.trace and cycle.error is None:
                tracer = tracing.Tracer()
                cycle = workloads.run_cycle(workload, inputs, ROOT, workdir,
                                            tracer=tracer)
                traced.append(cycle)
            if cycle.error is not None:
                errors.append(cycle.error)
                break
            if len(cycles) >= minimum and time.perf_counter() >= deadline:
                break
        setups = [c.scaled_setup_s for c in cycles]
        while not errors and not args.trace and len(setups) < MIN_SETUPS:
            extra = workloads.run_cycle(workload, inputs, ROOT, workdir,
                                        setup_only=True)
            if extra.error is not None:
                errors.append(extra.error)
            setups.append(extra.scaled_setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(c.attempted for c in cycles + traced)
    failed = sum(c.failed for c in cycles + traced)
    if errors:
        # The aborted cycle's unmonitored tuples count as failed.
        lost = (1 + workloads.REPLAYS) * workloads.STREAM_SIZE \
            - cycle.attempted
        attempted += lost
        failed += lost
    else:
        errors = _consistency_errors(cycles, traced)
    correct = not errors and failed == 0

    metrics = {}
    if not errors:
        measured = per_layer(cycles, traced) if args.trace else \
            end_to_end(cycles, setups)
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in measured.items()}
        for name, (value, unit) in measured.items():
            print(f"{workload.name:18s} {name:28s} {value:14.6f} {unit}")
    print(f"{workload.name:18s} {'error_rate':28s} "
          f"{failed / max(attempted, 1):14.6f} fraction")
    if not args.trace and not errors and cycles[0].write_latencies:
        write_ms = statistics.median(
            [x for c in cycles for x in c.write_latencies])
        print(f"{workload.name:18s} {'write_p50_ms':28s} "
              f"{write_ms * 1e3:14.6f} ms")
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    if args.spans and tracer is not None:
        tracer.write_spans(args.spans)

    context = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cycles": len(cycles),
        "traced_cycles": len(traced),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": _commit(),
        "properties": _properties(workload, cycles, traced)
        if not errors else {},
    }
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
