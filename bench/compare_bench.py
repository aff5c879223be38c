#!/usr/bin/env python3
"""Diff two BENCH_*.json sets and enforce the machine-independent gates.

Usage:
    compare_bench.py BASELINE_DIR CANDIDATE_DIR [--table FILE]

Every bench binary writes a flat BENCH_<name>.json (bench_util.h's
BenchJson): provenance fields, scalar metrics, and row tables.  This
script pairs the two sets by bench name, prints a per-metric delta table
(markdown, also written to --table for the CI artifact), and exits
non-zero when a *gated* metric regresses.

Two kinds of fields, two policies:

  - Timings (wall ms, fps, p50/p99 latencies) depend on the host — the
    committed bench/baseline/ snapshot and a CI runner are different
    machines — so they are reported in the delta table but never gated.
  - Machine-independent metrics gate the exit code: counts of events
    that must not happen (reader stalls), boolean oracle outcomes
    (bit-identity to solo sequential, full delivery), and same-host A/B
    ratios (the writer-stall probe measures both disciplines
    back-to-back in one process, so its ratio travels).

A gated metric that is *missing* from the candidate set also fails: the
gate would otherwise silently vanish when a bench stops running in CI.
"""

import argparse
import json
import math
import sys
from pathlib import Path

META_KEYS = {"bench", "git_sha", "compiler", "cpu", "hw_threads"}


class Gate:
    def __init__(self, bench, metric, ge=None, le=None):
        self.bench, self.metric, self.ge, self.le = bench, metric, ge, le

    def describe(self):
        bounds = []
        if self.ge is not None:
            bounds.append(f">= {self.ge:g}")
        if self.le is not None:
            bounds.append(f"<= {self.le:g}")
        return f"{self.bench}:{self.metric} {' and '.join(bounds)}"

    def check(self, value):
        if value is None or not isinstance(value, (int, float)):
            return False
        if self.ge is not None and value < self.ge:
            return False
        if self.le is not None and value > self.le:
            return False
        return True


# Machine-independent gates only (see module docstring).
GATES = [
    Gate("multi_session_throughput", "writer_stall_improvement", ge=5.0),
    Gate("multi_session_throughput", "reader_stalls_total", le=0),
    Gate("multi_session_throughput", "bit_identical", ge=1),
    Gate("multi_session_throughput", "all_delivered", ge=1),
    Gate("multi_session_throughput", "fair_device_dispatch", ge=1),
    # Sequential 60-frame runs (the CI smoke length), so deterministic:
    # both forced losses recover through the recognition index with no
    # brute-force fallback, and no frame is lost where the committed
    # baseline loses none.
    Gate("loop_closure", "loss_reloc_index_recoveries", ge=2),
    Gate("loop_closure", "loss_reloc_brute_fallbacks", le=0),
    Gate("loop_closure", "lost_frames_on", le=0),
    Gate("backend_ate", "lost_frames_off", le=0),
]


def load_set(directory):
    benches = {}
    for path in sorted(Path(directory).glob("BENCH_*.json")):
        try:
            with open(path) as f:
                data = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            print(f"warning: skipping unreadable {path}: {e}", file=sys.stderr)
            continue
        benches[data.get("bench", path.stem[len("BENCH_"):])] = data
    return benches


def scalar_metrics(data):
    return {
        k: v
        for k, v in data.items()
        if k not in META_KEYS and isinstance(v, (int, float))
    }


def fmt(v):
    if isinstance(v, float) and not v.is_integer():
        return f"{v:.3f}"
    return f"{v:g}" if isinstance(v, (int, float)) else str(v)


def delta_cell(base, cand):
    if base == cand:
        return "="
    if base == 0:
        return "new" if cand != 0 else "="
    pct = 100.0 * (cand - base) / abs(base)
    if math.isnan(pct):
        return "?"
    return f"{pct:+.1f}%"


def build_table(baseline, candidate):
    lines = [
        "| bench | metric | baseline | candidate | delta |",
        "|---|---|---:|---:|---:|",
    ]
    for bench in sorted(set(baseline) | set(candidate)):
        base = scalar_metrics(baseline.get(bench, {}))
        cand = scalar_metrics(candidate.get(bench, {}))
        if not baseline.get(bench):
            lines.append(f"| {bench} | *(entire bench)* | — | present | new |")
        if not candidate.get(bench):
            lines.append(f"| {bench} | *(entire bench)* | present | — | missing |")
        for metric in sorted(set(base) | set(cand)):
            b, c = base.get(metric), cand.get(metric)
            if b is None:
                lines.append(f"| {bench} | {metric} | — | {fmt(c)} | new |")
            elif c is None:
                lines.append(f"| {bench} | {metric} | {fmt(b)} | — | missing |")
            else:
                lines.append(
                    f"| {bench} | {metric} | {fmt(b)} | {fmt(c)} "
                    f"| {delta_cell(b, c)} |"
                )
    return "\n".join(lines) + "\n"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline", help="directory with the baseline BENCH_*.json")
    ap.add_argument("candidate", help="directory with the candidate BENCH_*.json")
    ap.add_argument("--table", help="also write the delta table to this file")
    args = ap.parse_args()

    baseline = load_set(args.baseline)
    candidate = load_set(args.candidate)
    if not baseline:
        print(f"error: no BENCH_*.json under {args.baseline}", file=sys.stderr)
        return 2
    if not candidate:
        print(f"error: no BENCH_*.json under {args.candidate}", file=sys.stderr)
        return 2

    table = build_table(baseline, candidate)
    print(table)
    if args.table:
        Path(args.table).write_text(table)
        print(f"wrote {args.table}")

    failures = 0
    print("gates (machine-independent metrics, evaluated on the candidate):")
    for gate in GATES:
        value = scalar_metrics(candidate.get(gate.bench, {})).get(gate.metric)
        ok = gate.check(value)
        shown = "missing" if value is None else fmt(value)
        print(f"  [{'ok' if ok else 'FAIL'}] {gate.describe()} (got {shown})")
        failures += 0 if ok else 1

    if failures:
        print(f"\n{failures} gated metric(s) regressed.")
        return 1
    print("\nall gated metrics hold.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
