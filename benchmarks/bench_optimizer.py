#!/usr/bin/env python
"""Optimized vs. unoptimized plan execution: the optimizer's perf gate.

Runs the Figure 7 query mix (Q1-Q5, Appendix A style) plus three
empty-branch probes over treebank and XMark, and times each query two
ways **on the same loaded instance**:

* **unoptimized** — the compiled algebra exactly as the parser produced
  it, evaluated without the runtime short-circuit;
* **optimized** — the plan after the cost-based rewrite pass
  (:mod:`repro.xpath.optimizer`) against the document's shred-time
  statistics catalog, evaluated with the short-circuit enabled — i.e.
  exactly what :class:`repro.server.service.QueryService` executes.

Every pair is checked **byte-identical** first (DAG vertex count, exact
tree-node count, and — for selections small enough to decode — the full
sorted path sets); a mismatch fails the run outright, since a faster
wrong answer is worthless.  The headline is the geometric-mean speedup
across all (corpus, query) pairs, gated at ``--min-speedup`` (default
1.0 full: the optimizer must never make the mix slower; 0.9 ``--quick``,
where sub-millisecond timings are noisy).

Statistics come from a real catalog shred (complete tag universe), so the
bench exercises the same fold/reorder decisions production serves.

Usage::

    PYTHONPATH=src python benchmarks/bench_optimizer.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from corpus_cache import cached_xml
from repro.api.envelope import encode_result
from repro.bench.queries import queries_for
from repro.corpora.registry import CORPORA
from repro.engine.evaluator import CompressedEvaluator
from repro.engine.pipeline import load_for_query
from repro.server.catalog import Catalog
from repro.xpath.compiler import compile_query
from repro.xpath.optimizer import optimize

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))

CORPUS_NAMES = ("treebank", "xmark")

#: The decoded-path comparison is skipped above this many tree nodes
#: (counts are still compared exactly; decoding 10^6 paths just times the
#: decoder, not the optimizer).
_PATH_CHECK_CAP = 50_000

#: Empty-branch probes appended to every corpus's Figure 7 mix: an absent
#: tag alone, under a downward chain, and inside a predicate — the shapes
#: fold-empty-set / propagate-empty / short-circuit are built for.
def probe_queries(corpus: str) -> dict[str, str]:
    anchor = {"treebank": "VP", "xmark": "item"}[corpus]
    return {
        "E1": "//zzzabsent",
        "E2": "//zzzabsent/*",
        "E3": f"//{anchor}[child::zzzabsent]",
    }


def corpus_xml(name: str, quick: bool) -> str:
    info = CORPORA[name]
    scale = max(1, int(info.default_scale * (0.1 if quick else 0.5)))
    return cached_xml(name, lambda: info.generate(scale, 0).xml, scale=scale, seed=0)


def best_time(run, repeats: int, loops: int) -> float:
    best = math.inf
    for _ in range(repeats):
        started = time.perf_counter()
        for _ in range(loops):
            run()
        elapsed = (time.perf_counter() - started) / loops
        if elapsed < best:
            best = elapsed
    return best


def calibrate_loops(run, target_seconds: float) -> int:
    once = time.perf_counter()
    run()
    once = time.perf_counter() - once
    if once <= 0:
        return 10
    return max(1, min(50, int(target_seconds / once)))


def payload(instance, expr, short_circuit: bool, decode_paths: bool):
    evaluator = CompressedEvaluator(
        instance, copy=True, short_circuit=short_circuit
    )
    result = evaluator.evaluate(expr)
    identity = encode_result(result)  # the served counts: the answer contract
    if decode_paths and identity["tree_count"] <= _PATH_CHECK_CAP:
        identity["paths"] = sorted(result.tree_paths())
    return identity


def measure(corpus: str, quick: bool) -> tuple[list[dict], int]:
    xml = corpus_xml(corpus, quick)
    with tempfile.TemporaryDirectory() as scratch:
        catalog = Catalog(os.path.join(scratch, "cat"))
        catalog.add(corpus, xml)
        stats = catalog.document_stats(corpus)

    rows = []
    checked = 0
    repeats = 2 if quick else 3
    target = 0.05 if quick else 0.25
    mix = dict(queries_for(corpus))
    mix.update(probe_queries(corpus))
    for query_id, query_text in mix.items():
        instance = load_for_query(xml, query_text).instance
        expr = compile_query(query_text)
        optimization = optimize(expr, stats)

        plain = payload(instance, expr, short_circuit=False, decode_paths=True)
        tuned = payload(
            instance, optimization.expr, short_circuit=True, decode_paths=True
        )
        if plain != tuned:
            raise AssertionError(
                f"{corpus} {query_id}: optimized payload differs: "
                f"{tuned} != {plain}"
            )
        checked += 1

        def run_plain():
            CompressedEvaluator(instance, copy=True).evaluate(expr)

        def run_tuned():
            CompressedEvaluator(
                instance, copy=True, short_circuit=True
            ).evaluate(optimization.expr)

        loops = calibrate_loops(run_plain, target)
        plain_s = best_time(run_plain, repeats, loops)
        tuned_s = best_time(run_tuned, repeats, loops)
        speedup = plain_s / tuned_s if tuned_s > 0 else math.inf
        rows.append(
            {
                "corpus": corpus,
                "query_id": query_id,
                "query": query_text,
                "unoptimized_s": plain_s,
                "optimized_s": tuned_s,
                "speedup": speedup,
                "rules_applied": list(optimization.rules_applied),
                "dag_count": plain["dag_count"],
                "tree_count": str(plain["tree_count"]),
            }
        )
        print(
            f"  {corpus:10s} {query_id}: {plain_s * 1e3:8.3f} ms -> "
            f"{tuned_s * 1e3:8.3f} ms  ({speedup:5.2f}x)  "
            f"rules={','.join(optimization.rules_applied) or '-'}"
        )
    return rows, checked


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small corpora (CI smoke)")
    parser.add_argument(
        "--min-speedup", type=float, default=None,
        help="fail below this geomean (default 1.0 full, 0.9 quick)",
    )
    parser.add_argument(
        "-o", "--output",
        default=os.path.join(REPO_ROOT, "BENCH_optimizer.json"),
        help="report path (default: BENCH_optimizer.json at the repo root)",
    )
    args = parser.parse_args(argv)
    floor = args.min_speedup if args.min_speedup is not None else (0.9 if args.quick else 1.0)

    all_rows: list[dict] = []
    checked_total = 0
    for corpus in CORPUS_NAMES:
        print(f"{corpus} ({'quick' if args.quick else 'full'}):")
        rows, checked = measure(corpus, args.quick)
        all_rows.extend(rows)
        checked_total += checked

    geomean = math.exp(
        sum(math.log(row["speedup"]) for row in all_rows) / len(all_rows)
    )
    report = {
        "benchmark": "optimizer",
        "quick": args.quick,
        "geomean_speedup": geomean,
        "min_speedup_required": floor,
        "byte_identical": True,  # a mismatch raises before we get here
        "checked_byte_identical_total": checked_total,
        "rows": all_rows,
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"\ngeomean speedup {geomean:.3f}x over {len(all_rows)} queries "
          f"({checked_total} byte-identity checks) -> {args.output}")
    if geomean < floor:
        print(f"FAIL: geomean {geomean:.3f} below required {floor:.3f}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
