"""Experiment runners reproducing Figure 6 and Figure 7 row by row.

Each function computes one table row with the same columns as the paper;
the benchmark modules under ``benchmarks/`` drive these and print the
assembled tables (see EXPERIMENTS.md for paper-vs-measured discussion).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.bench.queries import queries_for
from repro.compress.stats import instance_stats
from repro.corpora import get_corpus
from repro.engine.evaluator import CompressedEvaluator
from repro.engine.pipeline import load_for_query
from repro.skeleton.loader import load


@dataclass(frozen=True)
class Figure6Row:
    """One corpus line of Figure 6 (both the "-" and "+" settings)."""

    corpus: str
    megabytes: float
    tree_vertices: int
    vertices_minus: int
    edges_minus: int
    ratio_minus: float
    vertices_plus: int
    edges_plus: int
    ratio_plus: float
    paper_ratio_minus: float | None
    paper_ratio_plus: float | None


def figure6_row(corpus: str, xml: str) -> Figure6Row:
    """Compress ``xml`` with tags ignored ("-") and included ("+")."""
    info = get_corpus(corpus)
    bare = instance_stats(load(xml, tags=()).instance)
    full = instance_stats(load(xml, tags=None).instance)
    return Figure6Row(
        corpus=corpus,
        megabytes=len(xml.encode("utf-8")) / 1e6,
        tree_vertices=full.tree_vertices,
        vertices_minus=bare.vertices,
        edges_minus=bare.edge_entries,
        ratio_minus=bare.edge_ratio,
        vertices_plus=full.vertices,
        edges_plus=full.edge_entries,
        ratio_plus=full.edge_ratio,
        paper_ratio_minus=info.paper_ratio_minus,
        paper_ratio_plus=info.paper_ratio_plus,
    )


@dataclass(frozen=True)
class Figure7Row:
    """One (corpus, query) line of Figure 7, columns (1)-(8)."""

    corpus: str
    query_id: str
    query: str
    parse_seconds: float  # (1) includes compression, as in the paper
    vertices_before: int  # (2)
    edges_before: int  # (3)
    query_seconds: float  # (4)
    vertices_after: int  # (5)
    edges_after: int  # (6)
    selected_dag: int  # (7)
    selected_tree: int  # (8)


def figure7_row(corpus: str, xml: str, query_id: str) -> Figure7Row:
    """Run one Figure 7 cell: parse over the query's schema, then evaluate."""
    query_text = queries_for(corpus)[query_id]
    started = time.perf_counter()
    loaded = load_for_query(xml, query_text)
    parse_seconds = time.perf_counter() - started
    evaluator = CompressedEvaluator(loaded.instance, copy=False)
    result = evaluator.evaluate(query_text)
    after_vertices, after_edges = result.after
    return Figure7Row(
        corpus=corpus,
        query_id=query_id,
        query=query_text,
        parse_seconds=parse_seconds,
        vertices_before=result.before[0],
        edges_before=result.before[1],
        query_seconds=result.seconds,
        vertices_after=after_vertices,
        edges_after=after_edges,
        selected_dag=result.dag_count(),
        selected_tree=result.tree_count(),
    )
