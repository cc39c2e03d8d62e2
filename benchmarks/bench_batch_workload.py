#!/usr/bin/env python
"""Batched vs sequential evaluation of the Figure 7 query mix.

The paper's experiments always run a *mix* of five queries per corpus.  This
benchmark evaluates that mix two ways over three contrasting corpora (the
maximally shared binary tree, the run-length relational table, and XMark):

* **sequential** — the paper's setup: a fresh ``Engine.query`` per query,
  i.e. one schema extraction scan and one working copy *per query*;
* **batched** — ``Engine.query_batch``: one extraction scan over the union
  of the mix's schemas, one shared working copy, and cross-query reuse of
  identical algebra subtrees (the evaluator's common-subexpression memo).

Both sides run the one evaluator, :class:`CompressedEvaluator`; a single
query is a batch of one.

Both measure the end-to-end cost of answering the whole mix (load +
evaluate + snapshot), and additionally the *evaluation-only* cost over a
pre-loaded union instance (N copies vs 1 copy + sharing), so the report
separates the one-scan win from the shared-evaluation win.  Every run first
verifies that batched and sequential selections are identical (decoded tree
counts always; full edge-path sets when the tree is small enough to
enumerate).

Results go to ``BENCH_batch_workload.json`` at the repository root.  The
run fails when the end-to-end speedup drops below ``--min-speedup``
(default 1.5 on at least one corpus and 1.0 on every corpus; ``--smoke``
uses small corpora for CI and fails on any slowdown or divergence).

Usage::

    PYTHONPATH=src python benchmarks/bench_batch_workload.py [--smoke]
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from corpus_cache import cached_xml
from repro.corpora import binary_tree, relational
from repro.corpora.registry import CORPORA
from repro.engine.evaluator import CompressedEvaluator
from repro.engine.pipeline import Engine, load_for_queries

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))

# The same per-corpus mixes as bench_query_throughput.py (Appendix A style).
BINARY_TREE_QUERIES = {
    "Q1": "/a/b/a/b",
    "Q2": "//b[a]",
    "Q3": "/descendant::a[b/b]",
    "Q4": "//a/following-sibling::b",
    "Q5": "//b/preceding-sibling::a",
}

RELATIONAL_QUERIES = {
    "Q1": "/table/row/col0",
    "Q2": '//row[col1["r1c1"]]/col2',
    "Q3": "//col3/following-sibling::col5",
    "Q4": '//row[col0["r0c0"]]',
    "Q5": "//col1/preceding-sibling::col0",
}

CORPUS_NAMES = ("binary-tree", "relational", "xmark")

#: Above this many *total* tree nodes the full edge-path equality check is
#: skipped — enumeration walks the whole unfolded tree regardless of how
#: small the selection is, and is exponential in general.  Decoded tree
#: counts are still compared.
PATH_CHECK_LIMIT = 200_000


def corpus_xml(name: str, smoke: bool) -> str:
    if name == "binary-tree":
        depth = 8 if smoke else 12
        return cached_xml(
            "binary-tree", lambda: binary_tree.generate_xml(depth=depth).xml, depth=depth
        )
    if name == "relational":
        rows, cols = (60, 8) if smoke else (400, 12)
        return cached_xml(
            "relational",
            lambda: relational.generate_xml(rows, cols, distinct_texts=True).xml,
            rows=rows,
            cols=cols,
            distinct=True,
        )
    if name == "xmark":
        info = CORPORA["xmark"]
        scale = max(1, int(info.default_scale * (0.1 if smoke else 0.5)))
        return cached_xml("xmark", lambda: info.generate(scale, 0).xml, scale=scale, seed=0)
    raise ValueError(name)


def corpus_queries(name: str) -> dict[str, str]:
    if name == "binary-tree":
        return BINARY_TREE_QUERIES
    if name == "relational":
        return RELATIONAL_QUERIES
    from repro.bench.queries import queries_for

    return queries_for(name)


def best_time(run, repeats: int) -> float:
    best = math.inf
    for _ in range(repeats):
        started = time.perf_counter()
        run()
        elapsed = time.perf_counter() - started
        if elapsed < best:
            best = elapsed
    return best


def verify_identical(xml: str, mix: list[str]) -> list[dict]:
    """Batched and sequential selections must decode identically."""
    from repro.model.paths import tree_size

    batch = Engine(xml).query_batch(mix)
    # Splits preserve the unfolded tree, so the final instance's tree size
    # is the document's; enumeration cost is bounded by it, not by how many
    # nodes a query selects.
    enumerable = tree_size(batch.instance) <= PATH_CHECK_LIMIT
    checks = []
    for query_text, batched in zip(mix, batch):
        solo = Engine(xml).query(query_text)
        if batched.tree_count() != solo.tree_count():
            raise AssertionError(
                f"{query_text}: batch decoded {batched.tree_count()} tree nodes, "
                f"sequential {solo.tree_count()}"
            )
        paths_checked = False
        if enumerable:
            if set(batched.tree_paths()) != set(solo.tree_paths()):
                raise AssertionError(f"{query_text}: decoded edge-path sets diverge")
            paths_checked = True
        checks.append(
            {
                "query": query_text,
                "tree_count": batched.tree_count(),
                "paths_checked": paths_checked,
            }
        )
    return checks


def measure(corpus: str, smoke: bool) -> dict:
    xml = corpus_xml(corpus, smoke)
    mix = list(corpus_queries(corpus).values())
    checks = verify_identical(xml, mix)
    repeats = 2 if smoke else 3

    # End to end: answer the whole mix starting from the XML text.
    def run_sequential():
        engine = Engine(xml)  # reparse_per_query=True: the paper's setup
        for query_text in mix:
            engine.query(query_text)

    def run_batched():
        Engine(xml).query_batch(mix)

    sequential_seconds = best_time(run_sequential, repeats)
    batched_seconds = best_time(run_batched, repeats)

    # Evaluation only: both sides share one pre-loaded union instance.
    union_instance = load_for_queries(xml, mix).instance

    def run_sequential_eval():
        for query_text in mix:
            CompressedEvaluator(union_instance, copy=True).evaluate(query_text)

    def run_batched_eval():
        CompressedEvaluator(union_instance, copy=True).evaluate_batch(mix)

    sequential_eval = best_time(run_sequential_eval, repeats)
    batched_eval = best_time(run_batched_eval, repeats)

    stats = CompressedEvaluator(union_instance, copy=True).evaluate_batch(mix).stats
    row = {
        "corpus": corpus,
        "queries": len(mix),
        "instance_vertices": union_instance.num_vertices,
        "instance_edge_entries": union_instance.num_edge_entries,
        "sequential_seconds": sequential_seconds,
        "batched_seconds": batched_seconds,
        "speedup": sequential_seconds / batched_seconds if batched_seconds else math.inf,
        "sequential_eval_seconds": sequential_eval,
        "batched_eval_seconds": batched_eval,
        "eval_speedup": sequential_eval / batched_eval if batched_eval else math.inf,
        "algebra_nodes_total": stats.nodes_total,
        "algebra_nodes_reused": stats.nodes_reused,
        "sharing_ratio": stats.sharing_ratio,
        "checks": checks,
    }
    print(
        f"  {corpus:12s}  end-to-end seq {sequential_seconds * 1000:9.2f} ms  "
        f"batch {batched_seconds * 1000:9.2f} ms  speedup {row['speedup']:5.2f}x   "
        f"eval-only {row['eval_speedup']:5.2f}x  shared {100 * stats.sharing_ratio:3.0f}%"
    )
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="small corpora, CI smoke mode")
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="fail when the best end-to-end speedup is below this "
        "(default: 1.5, or 1.0 with --smoke)",
    )
    parser.add_argument(
        "--output",
        default=os.path.join(REPO_ROOT, "BENCH_batch_workload.json"),
        help="where to write the JSON results",
    )
    args = parser.parse_args(argv)
    min_speedup = args.min_speedup if args.min_speedup is not None else (
        1.0 if args.smoke else 1.5
    )

    print(f"batch workload: query_batch vs sequential Engine.query "
          f"({'smoke' if args.smoke else 'full'})")
    rows = [measure(corpus, args.smoke) for corpus in CORPUS_NAMES]

    best = max(row["speedup"] for row in rows)
    worst = min(row["speedup"] for row in rows)
    report = {
        "benchmark": "batch_workload",
        "mode": "smoke" if args.smoke else "full",
        "baseline": "sequential Engine.query (one load + one copy per query)",
        "corpora": CORPUS_NAMES,
        "rows": rows,
        "best_speedup": best,
        "worst_speedup": worst,
        "min_speedup_required": min_speedup,
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")

    print(f"\nbest end-to-end speedup: {best:.2f}x  worst: {worst:.2f}x  "
          f"(required best >= {min_speedup:.2f}x, worst >= 1.0x)")
    print(f"wrote {args.output}")
    if best < min_speedup or worst < 1.0:
        print("FAIL: batched evaluation too slow relative to sequential", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
