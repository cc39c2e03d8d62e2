"""Property test pinning the served answer's history-independence.

Every batch of a :class:`QueryService` evaluates on one long-lived working
fork that keeps the splits of every earlier request, yet each payload —
``dag_count`` (counted on the master), ``tree_count``, paths — must be
byte-equal to ``encode_result`` of the same plan evaluated on a fresh copy
of the master, whatever ran before it and in whatever order.
"""

from contextlib import contextmanager
from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.api.envelope import encode_result
from repro.compress.stats import DocumentStats
from repro.engine.evaluator import CompressedEvaluator
from repro.model.paths import tree_size
from repro.server.service import QueryService
from repro.xpath.compiler import compile_query
from repro.xpath.optimizer import optimize

from tests.conftest import LABELS, random_dag_instances
from tests.property.test_optimizer_properties import _SET_NAMES, algebra_expressions

PATHS = 50


class OneInstanceCatalog:
    """Just the catalog a :class:`QueryService` reads: one in-memory master."""

    def __init__(self, instance):
        self.instance = instance
        self.stats = DocumentStats.from_instance(instance, complete_tags=True)

    def entry(self, document):
        return SimpleNamespace(name=document, registered_at=0.0, doc_version=1)

    @contextmanager
    def snapshot(self, document, entry=None):
        yield SimpleNamespace(
            entry=self.entry(document),
            load=lambda strings: (self.instance, None),
            stats=lambda master=None: self.stats,
        )


@st.composite
def query_sequences(draw):
    """3-7 random plans, two of them ``//x/following-sibling::x`` and its
    mirror: on a run ``(w, m)`` with ``w`` in ``x`` the run itself splits."""
    plans = draw(st.lists(algebra_expressions(), min_size=1, max_size=5))
    label = draw(st.sampled_from(LABELS))
    for axis in ("following-sibling", "preceding-sibling"):
        plans.append(compile_query(f"//{label}/{axis}::{label}"))
    return draw(st.permutations(plans))


def fresh_payload(master, plan) -> dict:
    working = master.copy()
    for name in _SET_NAMES:
        working.ensure_set(name)
    evaluator = CompressedEvaluator(working, copy=False, short_circuit=True)
    return encode_result(evaluator.evaluate(plan), paths=PATHS)


@given(random_dag_instances(), query_sequences())
@settings(max_examples=100, deadline=None)
def test_served_payloads_do_not_depend_on_request_history(master, plans):
    if tree_size(master) > 4000:
        return
    catalog = OneInstanceCatalog(master)
    service = QueryService(catalog)
    for index, plan in enumerate(plans):
        service.seed_compiled(f"plan-{index}", plan, _SET_NAMES, ())
    generation = master.generation
    # Forward, then backward: the second pass meets every split of the first.
    for index in [*range(len(plans)), *reversed(range(len(plans)))]:
        served = service.query("doc", f"plan-{index}", paths=PATHS)
        # The service optimizes against the catalog's statistics, as here.
        plan = optimize(plans[index], catalog.stats).expr
        expected = fresh_payload(master, plan)
        assert {key: served[key] for key in expected} == expected, (index, plan)
    assert master.generation == generation
