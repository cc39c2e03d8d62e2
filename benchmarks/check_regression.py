#!/usr/bin/env python
"""Compare a fresh benchmark JSON against a committed baseline.

The scheduled CI job re-runs every benchmark un-quick and fails the build
when a headline metric regresses more than the tolerance (default 20%)
against the ``BENCH_*.json`` files committed at the repository root::

    python benchmarks/check_regression.py BASELINE.json FRESH.json [--tolerance 0.2]

The headline metric is chosen by the ``benchmark`` field so one checker
serves every report shape:

* ``query_throughput`` — ``geomean_speedup`` (new engine vs seed engine);
* ``batch_workload``   — ``best_speedup`` (batched vs sequential mix);
* ``server``           — ``geomean_speedup`` (served vs one-shot);
* ``cluster``          — ``best_scaling`` (fleet vs single-process server);
* ``overload``         — ``accepted_rps`` (admitted throughput while
  shedding the excess of a 2x-capacity offered load with honest 429s);
* ``optimizer``        — ``geomean_speedup`` (optimized vs unoptimized
  plans, byte-identical results required);
* ``mutation``         — ``geomean_speedup`` (incremental maintenance vs
  full re-shred, byte-identical results required).

PR-level smoke mode validates freshly produced smoke artifacts without a
baseline (smoke corpora are too small for absolute comparison against the
committed full-run numbers)::

    python benchmarks/check_regression.py --smoke FRESH.json [FRESH2.json ...]

Each report must name a known benchmark, carry a positive headline
metric, and — when the report embeds its own requirement
(``min_*_required``) — meet it; a cluster report must additionally have
passed its byte-identical correctness gate.  This runs on every PR, so a
benchmark that silently stopped producing its headline (or started
failing its own floor) is caught at review time, not at the nightly cron.

Exit codes follow the CLI convention: 0 pass, 1 regression, 2 bad inputs.
"""

from __future__ import annotations

import argparse
import json
import sys

#: benchmark name -> headline metric key in its JSON report.
HEADLINE = {
    "query_throughput": "geomean_speedup",
    "batch_workload": "best_speedup",
    "server": "geomean_speedup",
    "cluster": "best_scaling",
    "overload": "accepted_rps",
    "optimizer": "geomean_speedup",
    "mutation": "geomean_speedup",
}

#: benchmark name -> (measured key, embedded requirement key) pairs checked
#: in smoke mode when the requirement key is present and its gate applies.
SMOKE_FLOORS = {
    "query_throughput": [("geomean_speedup", "min_speedup_required")],
    "batch_workload": [("best_speedup", "min_speedup_required")],
    "server": [("worst_speedup", "min_speedup_required")],
    "cluster": [("scaling_at_4_workers", "min_scaling_required")],
    "overload": [("accepted_rps", "min_accepted_rps_required")],
    "optimizer": [("geomean_speedup", "min_speedup_required")],
    "mutation": [("geomean_speedup", "min_speedup_required")],
}


def check_smoke(path: str) -> list[str]:
    """Problems (empty = healthy) with one freshly produced smoke report."""
    with open(path, "r", encoding="utf-8") as handle:
        report = json.load(handle)
    problems = []
    try:
        key, value = headline_value(report, path)
    except ValueError as error:
        return [str(error)]
    print(f"{report['benchmark']}: {key} {value:.3f} (smoke)")
    enforced = report.get("scaling_gate_enforced", True)
    for measured_key, floor_key in SMOKE_FLOORS.get(report["benchmark"], []):
        floor = report.get(floor_key)
        measured = report.get(measured_key)
        if floor is not None and measured is not None and enforced and measured < floor:
            problems.append(
                f"{path}: {measured_key} {measured:.3f} below the report's own "
                f"floor {floor_key}={floor:.3f}"
            )
    if report["benchmark"] == "cluster" and not report.get("checked_byte_identical_total"):
        problems.append(f"{path}: cluster report ran no byte-identical checks")
    if report["benchmark"] in ("optimizer", "mutation"):
        kind = report["benchmark"]
        if not report.get("checked_byte_identical_total"):
            problems.append(f"{path}: {kind} report ran no byte-identical checks")
        if not report.get("byte_identical"):
            problems.append(f"{path}: {kind} run was not byte-identical")
    if report["benchmark"] == "overload":
        if not report.get("passed"):
            problems.append(f"{path}: the overload run failed its own gates")
        if not report.get("honest_429s"):
            problems.append(f"{path}: overload run saw dishonest non-429 sheds")
        if not report.get("p99_bounded"):
            problems.append(f"{path}: accepted p99 was not bounded under overload")
        if report.get("metrics_reconciled") is False:
            problems.append(
                f"{path}: /metrics scrape did not reconcile with the bench's "
                "own accepted/shed counts"
            )
    return problems


def append_summary(path: str | None, lines: list[str]) -> None:
    """Append markdown lines (``--summary`` / ``$GITHUB_STEP_SUMMARY``)."""
    if not path or not lines:
        return
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def headline_value(report: dict, path: str) -> tuple[str, float]:
    name = report.get("benchmark")
    key = HEADLINE.get(name)
    if key is None:
        raise ValueError(f"{path}: unknown benchmark {name!r} (known: {sorted(HEADLINE)})")
    value = report.get(key)
    if not isinstance(value, (int, float)) or value <= 0:
        raise ValueError(f"{path}: missing or non-positive metric {key!r}: {value!r}")
    return key, float(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "reports", nargs="+",
        help="BASELINE.json CANDIDATE.json — or, with --smoke, one or more "
        "freshly produced smoke reports",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="validate fresh smoke artifacts against their own embedded "
        "floors instead of a committed baseline (PR-level check)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.2,
        help="allowed fractional regression (0.2 = fail below 80%% of baseline)",
    )
    parser.add_argument(
        "--summary", default=None, metavar="PATH",
        help="append a markdown diff table to PATH (point it at "
        "$GITHUB_STEP_SUMMARY for a readable per-benchmark verdict "
        "instead of a bare exit code)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        problems = []
        for path in args.reports:
            try:
                problems.extend(check_smoke(path))
            except (OSError, json.JSONDecodeError) as error:
                print(f"error: {error}", file=sys.stderr)
                return 2
        for problem in problems:
            print(f"FAIL: {problem}", file=sys.stderr)
        if args.summary:
            lines = ["### Benchmark smoke", ""]
            lines += [f"- `{path}` checked" for path in args.reports]
            if problems:
                lines += [f"- :x: {problem}" for problem in problems]
            else:
                lines.append("- :white_check_mark: all floors met")
            append_summary(args.summary, lines)
        return 1 if problems else 0

    if len(args.reports) != 2:
        print("error: expected BASELINE.json CANDIDATE.json", file=sys.stderr)
        return 2
    args.baseline, args.candidate = args.reports

    try:
        with open(args.baseline, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
        with open(args.candidate, "r", encoding="utf-8") as handle:
            candidate = json.load(handle)
        key, base_value = headline_value(baseline, args.baseline)
        candidate_key, new_value = headline_value(candidate, args.candidate)
    except (OSError, ValueError, json.JSONDecodeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if baseline.get("benchmark") != candidate.get("benchmark"):
        print(
            f"error: benchmark mismatch: {baseline.get('benchmark')!r} "
            f"vs {candidate.get('benchmark')!r}",
            file=sys.stderr,
        )
        return 2

    floor = (1.0 - args.tolerance) * base_value
    ratio = new_value / base_value if base_value else float("inf")
    failed = new_value < floor
    verdict = "REGRESSION" if failed else "ok"
    print(
        f"{baseline['benchmark']}: {key} baseline {base_value:.3f} -> "
        f"candidate {new_value:.3f} ({100 * ratio:.1f}%, floor {floor:.3f}) {verdict}"
    )
    summary_lines = [
        f"### {baseline['benchmark']}",
        "",
        "| metric | baseline | candidate | ratio | floor | verdict |",
        "|---|---:|---:|---:|---:|---|",
        f"| `{key}` | {base_value:.3f} | {new_value:.3f} | {100 * ratio:.1f}% | "
        f"{floor:.3f} | {':x:' if failed else ':white_check_mark:'} {verdict} |",
    ]
    if failed:
        print(
            f"FAIL: {key} regressed more than {100 * args.tolerance:.0f}% "
            f"vs {args.baseline}",
            file=sys.stderr,
        )
    append_summary(args.summary, summary_lines + [""])
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
