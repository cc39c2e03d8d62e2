"""Query engine: axes on compressed instances, the evaluator, result decoding.

:class:`CompressedEvaluator` is the one evaluator: it takes a batch of
queries, and a single query is a batch of one.
"""

from repro.engine.axes_compressed import apply_axis
from repro.engine.axes_inplace import downward_axis_inplace
from repro.engine.axes_tree import TreeIndex, tree_axis
from repro.engine.evaluator import CompressedEvaluator, evaluate
from repro.engine.pipeline import (
    Engine,
    load_for_queries,
    load_for_query,
    load_instance,
    query,
    query_batch,
)
from repro.engine.results import BatchResult, BatchStats, QueryResult
from repro.engine.tree_evaluator import TreeEvaluator, TreeResult, evaluate_on_tree

__all__ = [
    "BatchResult",
    "BatchStats",
    "CompressedEvaluator",
    "Engine",
    "QueryResult",
    "TreeEvaluator",
    "TreeIndex",
    "TreeResult",
    "apply_axis",
    "downward_axis_inplace",
    "evaluate",
    "evaluate_on_tree",
    "load_for_queries",
    "load_for_query",
    "load_instance",
    "query",
    "query_batch",
    "tree_axis",
]
