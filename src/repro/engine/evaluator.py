"""Bottom-up evaluation of algebra expressions on compressed instances (3.3).

The evaluator walks each query's algebra tree in postorder.  Every
subexpression materialises as a *named selection* on the working instance
(the paper's "always adding the resulting selection to the resulting
instance for future use"); axis applications may partially decompress the
instance in place, and because a clone copies its original's membership
row, previously computed selections remain valid.

There is one evaluator, and a query is a batch of one.  The paper measures
query *mixes* over one document (Figure 7), so :class:`CompressedEvaluator`
evaluates any number of queries over **one** working instance — one copy
in total — and keeps the selection of every algebra subtree in a memo keyed
by its canonical :meth:`~repro.xpath.algebra.AlgebraExpr.structural_key`:
a subtree repeated inside one query or across the batch (the ``//article``
of a DBLP mix, the ``{root}`` leaf of every absolute path) materialises
once.  Two invariants make this sound:

* **every set survives a split** (section 3.3): a cached selection is
  still correct after a later axis forces a split;
* **every result is a durable snapshot**: query i's final selection is
  copied into ``#q<i>`` (:func:`repro.model.schema.result_set`) before
  query i+1 runs, so dropping the ``#t<n>`` temporaries at the end cannot
  invalidate any result.

Set operations and ``V|root`` are pure mask arithmetic; axes dispatch to
:mod:`repro.engine.axes_compressed` through the one overridable
:meth:`CompressedEvaluator._apply_axis` (the tests route it to the
Figure 4 port in :mod:`repro.engine.axes_inplace` as the oracle).  A
location step with a name test, ``step ∩ L[tag]`` in either operand order,
is *fused*: one axis call whose target is then intersected in place with
the tag set, so the bare step gets no selection, memo entry or combine of
its own.  A traced evaluation (explain ``analyze``) runs steps unfused, so
every algebra node keeps a selection to measure.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Callable, Iterable

from repro.errors import EvaluationError
from repro.model import planes as _pl
from repro.model.instance import Instance
from repro.model.schema import is_temp, result_set, temp_set
from repro.engine import axes_compressed
from repro.engine.results import BatchResult, BatchStats, QueryResult, reachable_sizes
from repro.xpath.algebra import (
    AlgebraExpr,
    AllNodes,
    AxisApply,
    ContextSet,
    Difference,
    EmptySet,
    Intersect,
    NamedSet,
    RootFilter,
    RootSet,
    Union,
)
from repro.xpath.compiler import compile_query


class CompressedEvaluator:
    """Evaluates Core XPath algebra expressions over one compressed instance.

    ``context`` names an existing set used for relative queries' starting
    selection; it defaults to the root singleton.  With ``copy=False`` the
    caller's instance is consumed/mutated.  :meth:`evaluate_batch` is the
    entry point, and :meth:`evaluate` is a batch of one; ``stats``
    accumulates the memo's :class:`BatchStats`, and the route that served
    each axis step, over the evaluator's lifetime.  Each ``step ∩ L[tag]``
    runs fused, as one axis call (see the module docstring).

    ``short_circuit=True`` enables the optimizer's dynamic counterpart to
    static empty-branch folding: when the left operand of an intersection
    or difference evaluates to the empty selection, the right operand is
    skipped — for a fused step too, whose tag set on the left skips the
    axis call.  The selection is the same either way; the splits the skipped
    operand would have run show only in :meth:`QueryResult.dag_count`,
    never in the served payload (:func:`repro.api.envelope.encode_result`).
    """

    def __init__(
        self,
        instance: Instance,
        context: str | None = None,
        copy: bool = True,
        short_circuit: bool = False,
    ):
        self._instance = instance.copy() if copy else instance
        self._context = context
        self._counter = 0
        self._result_counter = 0
        self._short_circuit = short_circuit
        self._trace: dict[int, str] | None = None
        self._memo: dict[tuple, str] = {}
        self.stats = BatchStats()

    @property
    def instance(self) -> Instance:
        """The working instance (inspect after evaluation to see splits)."""
        return self._instance

    def evaluate(
        self,
        query: str | AlgebraExpr,
        keep_temps: bool = False,
        trace: dict[int, str] | None = None,
    ) -> QueryResult:
        """Evaluate one query (string or compiled algebra): a batch of one.

        The result is the durable ``#q<i>`` snapshot; ``keep_temps`` is as
        in :meth:`evaluate_batch`.  ``trace``, when given, is filled with
        ``id(node) -> selection name`` for every algebra node evaluated
        (the explain ``analyze`` hook: callers read per-node actual
        cardinalities off the final instance — pass ``keep_temps=True`` so
        the traced selections survive).  A memo hit is traced to the cached
        selection; nodes skipped by short-circuiting are absent.
        """
        self._trace = trace
        try:
            return self.evaluate_batch([query], keep_temps=keep_temps).results[0]
        finally:
            self._trace = None

    def evaluate_batch(
        self,
        queries: Iterable[str | AlgebraExpr],
        keep_temps: bool = False,
        check: Callable[[], None] | None = None,
    ) -> BatchResult:
        """Evaluate ``queries`` (strings or compiled algebra) as one workload.

        Returns a :class:`BatchResult` whose per-query :class:`QueryResult`\\ s
        all share the final working instance, each holding its own durable
        ``#q<i>`` snapshot selection.  Temporaries (and with them the memo)
        are dropped at the end unless ``keep_temps`` is set; keep them to
        share subexpressions with a later call.

        ``check`` is the cooperative cancellation seam: called before each
        query, it may raise (e.g. :class:`~repro.errors.DeadlineExceededError`
        from the serving layer once no waiter's deadline is still live) to
        abort the rest of the batch — bounding how long a slow workload
        holds the instance to one query's evaluation, without preemption
        inside the engine.
        """
        exprs = [compile_query(q) if isinstance(q, str) else q for q in queries]
        before = reachable_sizes(self._instance)
        # self.stats accumulates over the evaluator's lifetime; the returned
        # BatchResult gets a snapshot of just this batch's contribution.
        mark = replace(self.stats)
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
            self._instance.drop_sets(name for name in self._instance.schema if is_temp(name))
            self._memo.clear()
        results = [
            QueryResult(
                instance=self._instance, set_name=snapshot, before=before, seconds=seconds
            )
            for snapshot, seconds in zip(snapshots, timings)
        ]
        stats = BatchStats(
            queries=self.stats.queries - mark.queries,
            nodes_total=self.stats.nodes_total - mark.nodes_total,
            nodes_evaluated=self.stats.nodes_evaluated - mark.nodes_evaluated,
            nodes_reused=self.stats.nodes_reused - mark.nodes_reused,
            frontier_steps=self.stats.frontier_steps - mark.frontier_steps,
            whole_steps=self.stats.whole_steps - mark.whole_steps,
        )
        return BatchResult(results=results, seconds=elapsed, stats=stats)

    # ------------------------------------------------------------------

    def _fresh(self) -> str:
        self._counter += 1
        return temp_set(self._counter)

    def _fresh_snapshot(self) -> str:
        """The next unused ``#q<i>`` name on the working instance."""
        while True:
            name = result_set(self._result_counter)
            self._result_counter += 1
            if not self._instance.has_set(name):
                return name

    def _eval(self, expr: AlgebraExpr) -> str:
        """The selection of ``expr``: identical subtrees materialise once."""
        self.stats.nodes_total += 1
        key = expr.structural_key()
        name = self._memo.get(key)
        if name is not None and self._instance.has_set(name):
            self.stats.nodes_reused += 1
        else:
            self.stats.nodes_evaluated += 1
            name = self._memo[key] = self._eval_node(expr)
        if self._trace is not None:
            self._trace[id(expr)] = name
        return name

    def _empty_selection(self) -> str:
        name = self._fresh()
        self._instance.ensure_set(name)
        return name

    def _is_empty_selection(self, name: str) -> bool:
        """True when the selection's raw mask plane is all zero (a pure
        popcount — no reachability restriction needed for emptiness)."""
        return self._instance.count_set(name, reachable_only=False) == 0

    def _eval_node(self, expr: AlgebraExpr) -> str:
        instance = self._instance
        if isinstance(expr, NamedSet):
            if not instance.has_set(expr.name):
                raise EvaluationError(
                    f"set {expr.name!r} is not in the instance schema; "
                    f"load the document with the tags/strings this query needs"
                )
            return expr.name
        if isinstance(expr, RootSet):
            name = self._fresh()
            instance.add_to_set(instance.root, name)
            return name
        if isinstance(expr, AllNodes):
            return instance.fill_set(self._fresh())
        if isinstance(expr, ContextSet):
            if self._context is not None:
                if not instance.has_set(self._context):
                    raise EvaluationError(f"context set {self._context!r} missing")
                return self._context
            # Default context: the document root (the paper's experiments
            # select the root as context, Figure 5 caption).
            name = self._fresh()
            instance.add_to_set(instance.root, name)
            return name
        if isinstance(expr, EmptySet):
            return self._empty_selection()
        if isinstance(expr, Intersect) and self._trace is None:
            step = _location_step(expr)
            if step is not None:
                return self._eval_step(*step)
        if isinstance(expr, (Union, Intersect, Difference)):
            left = self._eval(expr.left)
            if (
                self._short_circuit
                and not isinstance(expr, Union)
                and self._is_empty_selection(left)
            ):
                # ∅ ∩ R = ∅ and ∅ − R = ∅ for any R.
                return self._empty_selection()
            right = self._eval(expr.right)
            return self._combine(expr, left, right)
        if isinstance(expr, AxisApply):
            source = self._eval(expr.operand)
            target = self._fresh()
            self._apply_axis(expr.axis, source, target)
            return target
        if isinstance(expr, RootFilter):
            source = self._eval(expr.operand)
            name = self._fresh()
            if instance.in_set(instance.root, source):
                instance.fill_set(name)
            else:
                instance.ensure_set(name)
            return name
        raise EvaluationError(f"cannot evaluate algebra node {expr!r}")

    def _eval_step(self, step: AxisApply, test: NamedSet, test_first: bool) -> str:
        """``step ∩ test`` as one axis call whose target is then intersected
        in place with ``test``: no selection, memo entry or combine for the
        bare ``step``.  Everything else runs as in the unfused ``Intersect``:
        the operand order, short-circuiting on an empty left operand, and a
        bare step an unfused occurrence materialised earlier in the batch,
        which is read from the memo.
        """
        self.stats.nodes_total += 1
        if test_first:
            tested = self._eval(test)
            if self._short_circuit and self._is_empty_selection(tested):
                return self._empty_selection()
        cached = self._memo.get(step.structural_key())
        if cached is not None and self._instance.has_set(cached):
            self.stats.nodes_reused += 1
            selected = cached
        else:
            self.stats.nodes_evaluated += 1
            source = self._eval(step.operand)
            selected = self._fresh()
            self._apply_axis(step.axis, source, selected)
        if not test_first:
            if self._short_circuit and self._is_empty_selection(selected):
                return self._empty_selection()
            tested = self._eval(test)
        if selected is cached:
            return self._instance.combine_sets("intersect", cached, tested, self._fresh())
        _pl.intersect_into(self._instance.plane_of(selected), self._instance.plane_of(tested))
        return selected

    def _apply_axis(self, axis: str, source: str, target: str) -> None:
        """Apply one axis to the working instance, in place, counting its
        route in :attr:`stats`.  The single seam an alternative axis kernel
        overrides."""
        route = axes_compressed.run_axis(self._instance, axis, source, target)
        if route == axes_compressed.FRONTIER:
            self.stats.frontier_steps += 1
        else:
            self.stats.whole_steps += 1

    def _combine(self, expr: AlgebraExpr, left: str, right: str) -> str:
        if isinstance(expr, Union):
            op = "union"
        elif isinstance(expr, Intersect):
            op = "intersect"
        else:
            op = "difference"
        return self._instance.combine_sets(op, left, right, self._fresh())


def _location_step(expr: Intersect) -> tuple[AxisApply, NamedSet, bool] | None:
    """``(step, test, test_first)`` when ``expr`` is ``step ∩ test`` in
    either operand order — the shape of every compiled location step with a
    name test — else ``None``."""
    left, right = expr.left, expr.right
    if isinstance(left, AxisApply) and isinstance(right, NamedSet):
        return left, right, False
    if isinstance(left, NamedSet) and isinstance(right, AxisApply):
        return right, left, True
    return None


def evaluate(
    instance: Instance,
    query: str | AlgebraExpr,
    context: str | None = None,
    copy: bool = True,
) -> QueryResult:
    """One-shot convenience wrapper around :class:`CompressedEvaluator`."""
    return CompressedEvaluator(instance, context=context, copy=copy).evaluate(query)


def measure_actuals(
    instance: Instance,
    expr: AlgebraExpr,
    context: str | None = None,
    copy: bool = True,
) -> dict[int, dict]:
    """Execute ``expr`` and measure every node's selection cardinalities.

    The explain-analyze backend: returns ``id(node) -> {"dag_count",
    "tree_count"}`` for each algebra node of ``expr``, measured on the
    final instance after a full (non-short-circuited) evaluation —
    :class:`repro.api.plan.Plan` zips these with its per-node estimates.
    ``dag_count`` counts reachable selected vertices; ``tree_count`` is the
    exact number of tree nodes the selection denotes.
    """
    from repro.model.paths import selected_tree_count

    trace: dict[int, str] = {}
    evaluator = CompressedEvaluator(instance, context=context, copy=copy)
    evaluator.evaluate(expr, keep_temps=True, trace=trace)
    final = evaluator.instance
    return {
        node_id: {
            "dag_count": final.count_set(set_name),
            "tree_count": selected_tree_count(final, set_name),
        }
        for node_id, set_name in trace.items()
    }
