"""Shared helpers for engine tests: oracle comparison on decoded selections."""

from __future__ import annotations

from repro.compress.decompress import decompress
from repro.engine.axes_inplace import downward_axis_inplace
from repro.engine.evaluator import CompressedEvaluator
from repro.engine.tree_evaluator import evaluate_on_tree
from repro.model.instance import Instance


class Figure4Evaluator(CompressedEvaluator):
    """The oracle engine: downward axes run the paper's Figure 4 port.

    Production evaluates every axis through ``axes_compressed``; this
    subclass is the only route to ``axes_inplace``, kept so the
    equivalence suites can pin the two against each other.
    """

    def _apply_axis(self, axis: str, source: str, target: str) -> None:
        if axis in ("child", "descendant", "descendant-or-self"):
            downward_axis_inplace(self._instance, axis, source, target)
        else:
            super()._apply_axis(axis, source, target)


def oracle_paths(instance: Instance, query, context_vertices=None) -> set[tuple]:
    """Evaluate on the fully decompressed tree; return selected edge paths."""
    result = decompress(instance)
    baseline = evaluate_on_tree(result.tree, query, context=context_vertices)
    paths = result.paths()
    return {paths[v] for v in baseline.vertices}


def engine_paths(instance: Instance, query, evaluator=CompressedEvaluator) -> set[tuple]:
    """Evaluate on (a copy of) the compressed instance; return selected edge paths."""
    return set(evaluator(instance).evaluate(query).tree_paths())


def assert_engines_agree(instance: Instance, query) -> None:
    """Both compressed engines must decode to the tree oracle's selection."""
    expected = oracle_paths(instance, query)
    assert engine_paths(instance, query) == expected
    assert engine_paths(instance, query, Figure4Evaluator) == expected
