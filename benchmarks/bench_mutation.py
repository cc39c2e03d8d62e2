#!/usr/bin/env python
"""Incremental mutation maintenance vs full re-shred: the write path's gate.

For single-subtree mutations (append / replace / delete) on treebank and
XMark, times two ways of reaching the post-edit compressed instance +
statistics:

* **incremental** — :func:`repro.mutation.apply.apply_mutations`:
  splice the kept text, privatize the copy-on-write spine, graft or cut
  the touched subtree, re-minimize — then derive ``DocumentStats`` from
  the result, which is what ``Catalog.mutate`` runs between the journal
  append and the publish;
* **full re-shred** — shred the edited text from scratch and derive the
  same ``DocumentStats``, i.e. what registering the edited document
  would cost.

Every scenario is checked **byte-identical** first (minimized DAG sizes,
the statistics derived from both instances, and the sorted result paths
of a query mix on both instances); a mismatch fails the run outright.
The headline is the geometric-mean speedup across all (corpus, scenario)
pairs, gated at ``--min-speedup`` (default 5.0: the whole point of the
subsystem is that a local edit must not pay for the whole document).

Usage::

    PYTHONPATH=src python benchmarks/bench_mutation.py [--quick|--smoke]
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
from repro.compress.stats import DocumentStats
from repro.corpora.registry import CORPORA
from repro.engine.evaluator import CompressedEvaluator
from repro.mutation.apply import apply_mutations
from repro.mutation.ops import as_mutations
from repro.mutation.textedit import splice
from repro.skeleton.loader import load

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))

CORPUS_NAMES = ("treebank", "xmark")

#: Identity-gate query mixes (paths decoded and compared when small enough).
QUERY_MIX = {
    "treebank": ["//NP", "//VP/PP", "//S[NP]"],
    "xmark": ["//item", "//item/description", "//regions//item"],
}

_PATH_CHECK_CAP = 50_000


def _small_subtree_path(xml: str, max_elements: int = 30) -> list[int]:
    """The document-order-first non-root element with a small subtree.

    A "small mutation" edits a handful of nodes, not half the document —
    the path must address a subtree whose size is independent of the
    corpus scale, or the bench would time bulk rewrites instead of
    incremental maintenance.
    """
    import xml.etree.ElementTree as ET

    root = ET.fromstring(xml)
    stack = [(root, [])]
    while stack:
        element, path = stack.pop()
        if path and sum(1 for _ in element.iter()) <= max_elements:
            return path
        for ordinal, child in reversed(list(enumerate(element))):
            stack.append((child, path + [ordinal]))
    return [0] if len(root) else []


def scenarios(xml: str) -> list[tuple[str, dict]]:
    """Single-small-subtree edits with paths that exist in this document."""
    target = _small_subtree_path(xml)
    return [
        ("append_leaf", {"op": "append_child", "path": target,
                         "xml": "<inserted><leaf>new text</leaf></inserted>"}),
        ("replace_subtree", {"op": "replace_subtree", "path": target,
                             "xml": "<swapped><a/><b>x</b></swapped>"}),
        ("delete_subtree", {"op": "delete_subtree", "path": target or [0]}),
    ]


def corpus_xml(name: str, quick: bool) -> str:
    info = CORPORA[name]
    scale = max(1, int(info.default_scale * (0.1 if quick else 0.5)))
    return cached_xml(name, lambda: info.generate(scale, 0).xml, scale=scale, seed=0)


def best_time(run, repeats: int) -> float:
    best = math.inf
    for _ in range(repeats):
        started = time.perf_counter()
        run()
        elapsed = time.perf_counter() - started
        if elapsed < best:
            best = elapsed
    return best


def published_stats(instance) -> DocumentStats:
    """The statistics ``Catalog`` derives from every version it publishes."""
    return DocumentStats.from_instance(instance, complete_tags=True)


def incremental(base, xml, mutations):
    outcome = apply_mutations(base, xml, mutations)
    return outcome, published_stats(outcome.instance)


def assert_byte_identical(corpus, scenario, outcome, stats, fresh, fresh_stats):
    if (outcome.instance.num_vertices != fresh.num_vertices
            or outcome.instance.num_edge_entries != fresh.num_edge_entries):
        raise AssertionError(
            f"{corpus} {scenario}: minimized DAG differs: "
            f"{outcome.instance.num_vertices}v/{outcome.instance.num_edge_entries}e "
            f"!= {fresh.num_vertices}v/{fresh.num_edge_entries}e"
        )
    if stats != fresh_stats:
        raise AssertionError(f"{corpus} {scenario}: statistics differ")
    for name in outcome.instance.schema:
        fresh.ensure_set(name)
    for query in QUERY_MIX[corpus]:
        mine = CompressedEvaluator(outcome.instance).evaluate(query)
        oracle = CompressedEvaluator(fresh).evaluate(query)
        identity = (mine.dag_count(), mine.tree_count())
        expected = (oracle.dag_count(), oracle.tree_count())
        if identity != expected:
            raise AssertionError(
                f"{corpus} {scenario} {query}: {identity} != {expected}"
            )
        if mine.tree_count() <= _PATH_CHECK_CAP:
            if sorted(mine.tree_paths()) != sorted(oracle.tree_paths()):
                raise AssertionError(f"{corpus} {scenario} {query}: paths differ")


def measure(corpus: str, quick: bool) -> tuple[list[dict], int]:
    xml = corpus_xml(corpus, quick)
    base = load(xml, tags=None).instance
    repeats = 2 if quick else 3

    rows = []
    checked = 0
    for scenario, raw in scenarios(xml):
        mutations = as_mutations([raw])
        edited = splice(xml, mutations[0])

        outcome, stats = incremental(base, xml, mutations)
        fresh = load(edited, tags=None).instance
        assert_byte_identical(
            corpus, scenario, outcome, stats, fresh, published_stats(fresh)
        )
        checked += 1

        incremental_s = best_time(lambda: incremental(base, xml, mutations), repeats)

        def full_reshred():
            published_stats(load(edited, tags=None).instance)

        full_s = best_time(full_reshred, repeats)
        speedup = full_s / incremental_s if incremental_s > 0 else math.inf
        rows.append(
            {
                "corpus": corpus,
                "scenario": scenario,
                "op": raw["op"],
                "incremental_s": incremental_s,
                "full_reshred_s": full_s,
                "speedup": speedup,
                "skeleton_nodes": str(stats.tree_nodes),
                "dag_vertices": outcome.instance.num_vertices,
            }
        )
        print(
            f"  {corpus:10s} {scenario:16s}: full {full_s * 1e3:9.3f} ms vs "
            f"incremental {incremental_s * 1e3:8.3f} ms  ({speedup:6.1f}x)"
        )
    return rows, checked


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", "--smoke", dest="quick", action="store_true",
                        help="small corpora (CI smoke)")
    parser.add_argument(
        "--min-speedup", type=float, default=None,
        help="fail below this geomean speedup (default 5.0 full; 3.0 quick, "
        "where the 10x-smaller corpora inflate the fixed O(DAG) share)",
    )
    parser.add_argument(
        "-o", "--output",
        default=os.path.join(REPO_ROOT, "BENCH_mutation.json"),
        help="report path (default: BENCH_mutation.json at the repo root)",
    )
    args = parser.parse_args(argv)
    floor = args.min_speedup if args.min_speedup is not None else (3.0 if args.quick else 5.0)

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
        "benchmark": "mutation",
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
    print(f"\ngeomean speedup {geomean:.1f}x over {len(all_rows)} scenarios "
          f"({checked_total} byte-identity checks) -> {args.output}")
    if geomean < floor:
        print(f"FAIL: geomean {geomean:.3f} below required {floor:.3f}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
