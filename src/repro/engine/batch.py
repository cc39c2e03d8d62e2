"""Batch evaluation of query workloads over one shared instance.

The paper's experiments always run a *mix* of queries against one document
(Figure 7), yet a straight loop over :class:`CompressedEvaluator` copies the
instance once per query and re-evaluates every shared algebra prefix (the
``//article`` of a DBLP mix, the ``{root}`` leaf of every absolute path).
:class:`BatchEvaluator` evaluates N compiled queries over **one** working
instance — one copy total — with a cross-query *common-subexpression
cache*: every algebra subtree is identified by its canonical
:meth:`~repro.xpath.algebra.AlgebraExpr.structural_key`, and the named
selection it materialised is reused by any later query containing the same
subtree.

Two invariants make this sound:

* **every set survives a split** (section 3.3 of the paper): a clone
  copies its original's membership row, so a cached selection from query i
  is still a correct selection when query j > i forces a split;
* **results are snapshotted as durable selections**: the final selection of
  query i is copied into ``#q<i>`` (:func:`repro.model.schema.result_set`)
  before query i+1 runs, so dropping the engine temporaries at the end of
  the batch cannot invalidate any per-query result.

The cache is exact, not heuristic: keys are canonical structural tuples, so
two subtrees share iff they denote the same algebra expression (relative
queries additionally share the evaluator's single context selection).
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, Sequence

from repro.engine.evaluator import CompressedEvaluator
from repro.engine.results import BatchResult, BatchStats, QueryResult, reachable_sizes
from repro.model.instance import Instance
from repro.model.schema import is_temp, result_set
from repro.xpath.algebra import AlgebraExpr
from repro.xpath.compiler import compile_query


class BatchEvaluator(CompressedEvaluator):
    """Evaluates many algebra expressions over one shared working instance.

    Construction mirrors :class:`CompressedEvaluator` (one ``instance.copy()``
    unless ``copy=False``); :meth:`evaluate_batch` is the entry point.  The
    single-query :meth:`evaluate` is routed through the batch machinery so a
    ``BatchEvaluator`` can also be fed queries one at a time and still share
    subexpressions across them.
    """

    def __init__(
        self,
        instance: Instance,
        context: str | None = None,
        copy: bool = True,
        short_circuit: bool = False,
    ):
        super().__init__(instance, context=context, copy=copy, short_circuit=short_circuit)
        self._memo: dict[tuple, str] = {}
        self._result_counter = 0
        self.stats = BatchStats()

    # ------------------------------------------------------------------

    def _eval(self, expr: AlgebraExpr) -> str:
        """Memoising wrapper: identical subtrees materialise once per batch."""
        self.stats.nodes_total += 1
        key = expr.structural_key()
        name = self._memo.get(key)
        if name is not None and self._instance.has_set(name):
            self.stats.nodes_reused += 1
            if self._trace is not None:
                self._trace[id(expr)] = name
            return name
        self.stats.nodes_evaluated += 1
        name = super()._eval(expr)
        self._memo[key] = name
        return name

    def _fresh_snapshot(self) -> str:
        """The next unused ``#q<i>`` name on the working instance."""
        while True:
            name = result_set(self._result_counter)
            self._result_counter += 1
            if not self._instance.has_set(name):
                return name

    def evaluate_batch(
        self,
        queries: Iterable[str | AlgebraExpr],
        keep_temps: bool = False,
        check: Callable[[], None] | None = None,
    ) -> BatchResult:
        """Evaluate ``queries`` (strings or compiled algebra) as one workload.

        Returns a :class:`BatchResult` whose per-query :class:`QueryResult`\\ s
        all share the final working instance, each holding its own durable
        ``#q<i>`` snapshot selection.  Temporaries (and with them the
        common-subexpression cache) are dropped at the end unless
        ``keep_temps`` is set.

        ``check`` is the cooperative cancellation seam: called before each
        per-query evaluation, it may raise (e.g.
        :class:`~repro.errors.DeadlineExceededError` from the serving layer
        once no waiter's deadline is still live) to abort the rest of the
        batch — bounding how long a slow workload occupies a batch slot to
        one query's evaluation, without preemption inside the engine.
        """
        exprs: Sequence[AlgebraExpr] = [
            compile_query(q) if isinstance(q, str) else q for q in queries
        ]
        before = reachable_sizes(self._instance)
        # self.stats accumulates over the evaluator's lifetime; the returned
        # BatchResult gets a snapshot of just this batch's contribution.
        mark = (
            self.stats.queries,
            self.stats.nodes_total,
            self.stats.nodes_evaluated,
            self.stats.nodes_reused,
        )
        batch_started = time.perf_counter()
        snapshots: list[str] = []
        timings: list[float] = []
        for expr in exprs:
            if check is not None:
                check()
            self.stats.queries += 1
            started = time.perf_counter()
            name = self._eval(expr)
            snapshot = self._fresh_snapshot()
            # Snapshot the selection under a durable name (union with itself
            # is a one-pass bit copy on the mask plane).
            self._instance.combine_sets("union", name, name, snapshot)
            timings.append(time.perf_counter() - started)
            snapshots.append(snapshot)
        elapsed = time.perf_counter() - batch_started
        if not keep_temps:
            self._instance.drop_sets(
                name for name in self._instance.schema if is_temp(name)
            )
            self._memo.clear()
        results = [
            QueryResult(
                instance=self._instance, set_name=snapshot, before=before, seconds=seconds
            )
            for snapshot, seconds in zip(snapshots, timings)
        ]
        batch_stats = BatchStats(
            queries=self.stats.queries - mark[0],
            nodes_total=self.stats.nodes_total - mark[1],
            nodes_evaluated=self.stats.nodes_evaluated - mark[2],
            nodes_reused=self.stats.nodes_reused - mark[3],
        )
        return BatchResult(results=results, seconds=elapsed, stats=batch_stats)

    def evaluate(
        self,
        query: str | AlgebraExpr,
        keep_temps: bool = False,
        trace: dict[int, str] | None = None,
    ) -> QueryResult:
        """Single-query entry point, still sharing work with earlier calls.

        Note that ``keep_temps=False`` (the default) drops the
        common-subexpression cache along with the temporaries; pass
        ``keep_temps=True`` while streaming queries one at a time to keep
        sharing across calls, then drop temporaries yourself.  ``trace``
        behaves as in :meth:`CompressedEvaluator.evaluate` (memo hits are
        traced to the cached selection).
        """
        self._trace = trace
        try:
            return self.evaluate_batch([query], keep_temps=keep_temps).results[0]
        finally:
            self._trace = None


def evaluate_batch(
    instance: Instance,
    queries: Iterable[str | AlgebraExpr],
    context: str | None = None,
    copy: bool = True,
) -> BatchResult:
    """One-shot convenience wrapper around :class:`BatchEvaluator`."""
    return BatchEvaluator(instance, context=context, copy=copy).evaluate_batch(queries)
