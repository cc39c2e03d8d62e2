"""The former name of :class:`repro.engine.evaluator.CompressedEvaluator`.

Batch evaluation is what the one evaluator does (a query is a batch of
one), so there is no separate batch engine.  The alias stays only because
``benchmarks/e2e/layers.py`` imports it, and that file changes only
together with the benchmark (ROADMAP item 5 deletes this module).
"""

from repro.engine.evaluator import CompressedEvaluator

BatchEvaluator = CompressedEvaluator
