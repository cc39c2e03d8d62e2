#!/usr/bin/env python
"""End-to-end query throughput: bulk mask-plane engine vs the seed evaluator.

Runs the Figure 7 query mix (five queries per corpus, in the style of
Appendix A) over three corpora chosen for contrast — the maximally shared
binary tree, the run-length relational table, and XMark — and times, for
each query, repeated in-memory evaluation under

* the **seed** evaluator: a frozen copy of the engine as it stood before
  the bulk mask-plane work — per-vertex ``mask()``/``set_mask()`` loops,
  a fresh DFS for every traversal, per-query compilation, and a full
  product rebuild for every downward/sibling axis application; and
* the **current** engine: bulk set operations, cached traversal orders,
  split-avoiding axis fast paths, and a compiled-algebra cache.

Both sides evaluate on a fresh copy of the same loaded instance each round
(evaluation decompresses, so reuse would skew the comparison).  Results are
written to ``BENCH_query_throughput.json`` at the repository root so later
PRs have a perf trajectory; the run fails loudly when the geometric-mean
speedup drops below ``--min-speedup`` (default 2.0 full, 1.2 ``--quick``).

Usage::

    PYTHONPATH=src python benchmarks/bench_query_throughput.py [--quick]
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
from repro.engine.pipeline import load_for_query
from repro.errors import EvaluationError
from repro.model.instance import Instance, normalize_edges
from repro.model.schema import is_temp, temp_set
from repro.xpath.algebra import (
    AllNodes,
    AxisApply,
    ContextSet,
    Difference,
    Intersect,
    NamedSet,
    RootFilter,
    RootSet,
    Union,
)
from repro.xpath.compiler import compile_query

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))

# ----------------------------------------------------------------------
# The frozen seed engine (commit 757a294), reconstructed on the public
# Instance API.  Traversals are recomputed on every call — the seed had no
# caching — so the baseline does not silently benefit from the new model
# layer.
# ----------------------------------------------------------------------


def _seed_preorder(instance: Instance) -> list[int]:
    root = instance.root
    order: list[int] = []
    visited = bytearray(instance.num_vertices)
    stack = [root]
    visited[root] = 1
    children = instance.children
    while stack:
        vertex = stack.pop()
        order.append(vertex)
        for child, _ in reversed(children(vertex)):
            if not visited[child]:
                visited[child] = 1
                stack.append(child)
    return order


def _seed_postorder(instance: Instance) -> list[int]:
    root = instance.root
    order: list[int] = []
    visited = bytearray(instance.num_vertices)
    stack: list[list[int]] = [[root, 0]]
    visited[root] = 1
    children = instance.children
    while stack:
        top = stack[-1]
        vertex, i = top
        edges = children(vertex)
        while i < len(edges) and visited[edges[i][0]]:
            i += 1
        top[1] = i + 1
        if i < len(edges):
            child = edges[i][0]
            visited[child] = 1
            stack.append([child, 0])
        else:
            order.append(vertex)
            stack.pop()
    return order


def _seed_apply_axis(instance: Instance, axis: str, source: str, target: str) -> Instance:
    if instance.has_set(target):
        raise EvaluationError(f"target set {target!r} already exists")
    source_bit = instance.bit_of(source)
    if not any(mask >> source_bit & 1 for mask in map(instance.mask, _seed_preorder(instance))):
        instance.ensure_set(target)
        return instance
    if axis == "self":
        bit = 1 << instance.ensure_set(target)
        for vertex in _seed_postorder(instance):
            if instance.mask(vertex) >> source_bit & 1:
                instance.set_mask(vertex, instance.mask(vertex) | bit)
        return instance
    if axis == "parent":
        return _seed_parent(instance, source_bit, target)
    if axis == "ancestor":
        return _seed_ancestor(instance, source_bit, target, or_self=False)
    if axis == "ancestor-or-self":
        return _seed_ancestor(instance, source_bit, target, or_self=True)
    if axis in ("child", "descendant", "descendant-or-self"):
        return _seed_downward(instance, axis, source_bit, target)
    if axis == "following-sibling":
        return _seed_sibling(instance, source_bit, target, following=True)
    if axis == "preceding-sibling":
        return _seed_sibling(instance, source_bit, target, following=False)
    if axis == "following":
        return _seed_composite(
            instance, source, target, ("ancestor-or-self", "following-sibling", "descendant-or-self")
        )
    if axis == "preceding":
        return _seed_composite(
            instance, source, target, ("ancestor-or-self", "preceding-sibling", "descendant-or-self")
        )
    raise EvaluationError(f"unknown axis {axis!r}")


def _seed_composite(instance: Instance, source: str, target: str, chain) -> Instance:
    current = source
    temps = []
    for index, axis in enumerate(chain):
        name = f"{target}~{index}" if index < len(chain) - 1 else target
        instance = _seed_apply_axis(instance, axis, current, name)
        if current != source:
            temps.append(current)
        current = name
    for name in temps:
        instance.drop_set(name)
    return instance


def _seed_parent(instance: Instance, source_bit: int, target: str) -> Instance:
    target_bit = 1 << instance.ensure_set(target)
    for vertex in _seed_preorder(instance):
        for child, _ in instance.children(vertex):
            if instance.mask(child) >> source_bit & 1:
                instance.set_mask(vertex, instance.mask(vertex) | target_bit)
                break
    return instance


def _seed_ancestor(instance: Instance, source_bit: int, target: str, or_self: bool) -> Instance:
    target_bit_index = instance.ensure_set(target)
    target_bit = 1 << target_bit_index
    for vertex in _seed_postorder(instance):
        mask = instance.mask(vertex)
        selected = bool(or_self and (mask >> source_bit & 1))
        if not selected:
            for child, _ in instance.children(vertex):
                child_mask = instance.mask(child)
                if child_mask >> source_bit & 1 or child_mask >> target_bit_index & 1:
                    selected = True
                    break
        if selected:
            instance.set_mask(vertex, mask | target_bit)
    return instance


def _seed_downward(instance: Instance, axis: str, source_bit: int, target: str) -> Instance:
    result = Instance(instance.schema)
    target_bit = 1 << result.ensure_set(target)
    descend = axis in ("descendant", "descendant-or-self")
    or_self = axis == "descendant-or-self"

    memo: dict[tuple[int, int], int] = {}
    stack: list[tuple[int, int, bool]] = [(instance.root, 0, False)]
    while stack:
        vertex, bit, expanded = stack.pop()
        state = (vertex, bit)
        if state in memo:
            continue
        in_source = instance.mask(vertex) >> source_bit & 1
        child_bit = 1 if (in_source or (descend and bit)) else 0
        if not expanded:
            stack.append((vertex, bit, True))
            for child, _ in instance.children(vertex):
                if (child, child_bit) not in memo:
                    stack.append((child, child_bit, False))
            continue
        edges = tuple(
            (memo[(child, child_bit)], count) for child, count in instance.children(vertex)
        )
        selected = bit or (or_self and in_source)
        mask = instance.mask(vertex) | (target_bit if selected else 0)
        memo[state] = result.new_vertex_masked(mask, edges)
    result.set_root(memo[(instance.root, 0)])
    return result


def _seed_sibling(instance: Instance, source_bit: int, target: str, following: bool) -> Instance:
    result = Instance(instance.schema)
    target_bit = 1 << result.ensure_set(target)
    child_states: dict[int, list[tuple[int, int, int]]] = {}

    def states_of(vertex: int) -> list[tuple[int, int, int]]:
        cached = child_states.get(vertex)
        if cached is not None:
            return cached
        runs: list[tuple[int, int, int]] = []
        edges = instance.children(vertex)
        flag = 0
        sequence = edges if following else tuple(reversed(edges))
        for child, count in sequence:
            in_source = instance.mask(child) >> source_bit & 1
            inner = 1 if (flag or in_source) else 0
            if count == 1:
                part = [(child, flag, 1)]
            elif following:
                part = [(child, flag, 1), (child, inner, count - 1)]
            else:
                part = [(child, inner, count - 1), (child, flag, 1)]
            if not following:
                part.reverse()
            runs.extend(part)
            flag = 1 if (flag or in_source) else 0
        if not following:
            runs.reverse()
        child_states[vertex] = runs
        return runs

    memo: dict[tuple[int, int], int] = {}
    stack: list[tuple[int, int, bool]] = [(instance.root, 0, False)]
    while stack:
        vertex, bit, expanded = stack.pop()
        state = (vertex, bit)
        if state in memo:
            continue
        runs = states_of(vertex)
        if not expanded:
            stack.append((vertex, bit, True))
            for child, child_bit, _ in runs:
                if (child, child_bit) not in memo:
                    stack.append((child, child_bit, False))
            continue
        edges = normalize_edges(
            (memo[(child, child_bit)], count) for child, child_bit, count in runs
        )
        mask = instance.mask(vertex) | (target_bit if bit else 0)
        memo[state] = result.new_vertex_masked(mask, edges)
    result.set_root(memo[(instance.root, 0)])
    return result


class SeedEvaluator:
    """The seed CompressedEvaluator: per-vertex loops, no caches anywhere."""

    def __init__(self, instance: Instance, context: str | None = None, copy: bool = True):
        self._instance = instance.copy() if copy else instance
        self._context = context
        self._counter = 0

    def evaluate(self, query: str):
        expr = compile_query(query) if isinstance(query, str) else query
        before = (
            len(_seed_preorder(self._instance)),
            sum(len(self._instance.children(v)) for v in _seed_preorder(self._instance)),
        )
        result_name = self._eval(expr)
        for name in list(self._instance.schema):
            if is_temp(name) and name != result_name:
                self._instance.drop_set(name)
        return (self._instance, result_name, before)

    def _fresh(self) -> str:
        self._counter += 1
        return temp_set(self._counter)

    def _eval(self, expr) -> str:
        instance = self._instance
        if isinstance(expr, NamedSet):
            if not instance.has_set(expr.name):
                raise EvaluationError(f"set {expr.name!r} is not in the instance schema")
            return expr.name
        if isinstance(expr, RootSet):
            name = self._fresh()
            instance.add_to_set(instance.root, name)
            return name
        if isinstance(expr, AllNodes):
            name = self._fresh()
            bit = 1 << instance.ensure_set(name)
            for vertex in _seed_preorder(instance):
                instance.set_mask(vertex, instance.mask(vertex) | bit)
            return name
        if isinstance(expr, ContextSet):
            if self._context is not None:
                return self._context
            name = self._fresh()
            instance.add_to_set(instance.root, name)
            return name
        if isinstance(expr, (Union, Intersect, Difference)):
            left = self._eval(expr.left)
            right = self._eval(expr.right)
            return self._combine(expr, left, right)
        if isinstance(expr, AxisApply):
            source = self._eval(expr.operand)
            target = self._fresh()
            self._instance = _seed_apply_axis(self._instance, expr.axis, source, target)
            return target
        if isinstance(expr, RootFilter):
            source = self._eval(expr.operand)
            instance = self._instance
            name = self._fresh()
            bit = 1 << instance.ensure_set(name)
            if instance.in_set(instance.root, source):
                for vertex in _seed_preorder(instance):
                    instance.set_mask(vertex, instance.mask(vertex) | bit)
            return name
        raise EvaluationError(f"cannot evaluate algebra node {expr!r}")

    def _combine(self, expr, left: str, right: str) -> str:
        instance = self._instance
        name = self._fresh()
        target_bit = 1 << instance.ensure_set(name)
        left_bit = instance.bit_of(left)
        right_bit = instance.bit_of(right)
        for vertex in _seed_preorder(instance):
            mask = instance.mask(vertex)
            a = mask >> left_bit & 1
            b = mask >> right_bit & 1
            if isinstance(expr, Union):
                value = a | b
            elif isinstance(expr, Intersect):
                value = a & b
            else:
                value = a & ~b & 1
            if value:
                instance.set_mask(vertex, mask | target_bit)
        return name


# ----------------------------------------------------------------------
# The query mix
# ----------------------------------------------------------------------

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
    "Q3": '//col3/following-sibling::col5',
    "Q4": '//row[col0["r0c0"]]',
    "Q5": '//col1/preceding-sibling::col0',
}


def corpus_xml(name: str, quick: bool) -> str:
    if name == "binary-tree":
        depth = 8 if quick else 12
        return cached_xml(
            "binary-tree", lambda: binary_tree.generate_xml(depth=depth).xml, depth=depth
        )
    if name == "relational":
        rows, cols = (60, 8) if quick else (400, 12)
        return cached_xml(
            "relational",
            lambda: relational.generate_xml(rows, cols, distinct_texts=True).xml,
            rows=rows,
            cols=cols,
            distinct=True,
        )
    if name == "xmark":
        info = CORPORA["xmark"]
        scale = max(1, int(info.default_scale * (0.1 if quick else 0.5)))
        return cached_xml("xmark", lambda: info.generate(scale, 0).xml, scale=scale, seed=0)
    raise ValueError(name)


def corpus_queries(name: str) -> dict[str, str]:
    if name == "binary-tree":
        return BINARY_TREE_QUERIES
    if name == "relational":
        return RELATIONAL_QUERIES
    from repro.bench.queries import queries_for

    return queries_for(name)


CORPUS_NAMES = ("binary-tree", "relational", "xmark")


# ----------------------------------------------------------------------
# Timing harness
# ----------------------------------------------------------------------


def best_time(run, repeats: int, loops: int) -> float:
    """Best per-call seconds over ``repeats`` batches of ``loops`` calls."""
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


def measure(corpus: str, quick: bool) -> list[dict]:
    xml = corpus_xml(corpus, quick)
    rows = []
    repeats = 2 if quick else 3
    target = 0.05 if quick else 0.25
    for query_id, query_text in corpus_queries(corpus).items():
        instance = load_for_query(xml, query_text).instance
        expr = compile_query(query_text)  # the Engine's compiled-algebra cache

        def run_seed():
            SeedEvaluator(instance, copy=True).evaluate(query_text)

        def run_new():
            CompressedEvaluator(instance, copy=True).evaluate(expr)

        # Correctness guard: both engines decode to the same selection size.
        seed_instance, seed_name, _ = SeedEvaluator(instance, copy=True).evaluate(query_text)
        new_result = CompressedEvaluator(instance, copy=True).evaluate(expr)
        seed_members = len(seed_instance.members(seed_name) & set(seed_instance.preorder()))
        if seed_members != new_result.dag_count():
            raise AssertionError(
                f"{corpus} {query_id}: seed selected {seed_members} DAG vertices, "
                f"new engine {new_result.dag_count()}"
            )

        loops = calibrate_loops(run_seed, target)
        seed_seconds = best_time(run_seed, repeats, loops)
        new_loops = max(loops, calibrate_loops(run_new, target))
        new_seconds = best_time(run_new, repeats, new_loops)
        rows.append(
            {
                "corpus": corpus,
                "query_id": query_id,
                "query": query_text,
                "instance_vertices": instance.num_vertices,
                "instance_edge_entries": instance.num_edge_entries,
                "selected_dag": new_result.dag_count(),
                "seed_seconds": seed_seconds,
                "new_seconds": new_seconds,
                "speedup": seed_seconds / new_seconds if new_seconds else math.inf,
            }
        )
        print(
            f"  {corpus:12s} {query_id}  seed {seed_seconds * 1000:9.3f} ms   "
            f"new {new_seconds * 1000:9.3f} ms   speedup {rows[-1]['speedup']:6.2f}x"
        )
    return rows


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values)) if values else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small corpora, CI smoke mode")
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="fail when geometric-mean speedup is below this (default: 2.0, or 1.2 with --quick)",
    )
    parser.add_argument(
        "--output",
        default=os.path.join(REPO_ROOT, "BENCH_query_throughput.json"),
        help="where to write the JSON results",
    )
    args = parser.parse_args(argv)
    min_speedup = args.min_speedup if args.min_speedup is not None else (1.2 if args.quick else 2.0)

    print(f"query throughput: new engine vs seed evaluator ({'quick' if args.quick else 'full'})")
    rows: list[dict] = []
    for corpus in CORPUS_NAMES:
        rows.extend(measure(corpus, args.quick))

    overall = geomean(row["speedup"] for row in rows)
    per_corpus = {
        corpus: geomean(row["speedup"] for row in rows if row["corpus"] == corpus)
        for corpus in CORPUS_NAMES
    }
    report = {
        "benchmark": "query_throughput",
        "mode": "quick" if args.quick else "full",
        "baseline": "seed evaluator (commit 757a294): per-vertex loops, uncached traversals",
        "corpora": CORPUS_NAMES,
        "rows": rows,
        "geomean_speedup": overall,
        "geomean_speedup_per_corpus": per_corpus,
        "min_speedup_required": min_speedup,
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")

    print("\nper-corpus geomean: " + "  ".join(f"{c}={s:.2f}x" for c, s in per_corpus.items()))
    print(f"overall geomean speedup: {overall:.2f}x  (required >= {min_speedup:.2f}x)")
    print(f"wrote {args.output}")
    if overall < min_speedup:
        print("FAIL: speedup below the required floor", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
