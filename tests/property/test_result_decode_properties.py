"""Property: the selection-guided result decode equals the brute-force walk.

On random DAGs with multiplicity runs and random selections, every prefix
of :meth:`QueryResult.iter_tree_matches` (the walk guided by the
selection's strict ancestors) must equal the same prefix of the oracle — the full
document-order enumeration :func:`repro.model.paths.iter_edge_paths`
filtered by membership — and must succeed under any ``limit`` the full
walk would have needed to reach that prefix.
"""

from itertools import islice

from hypothesis import assume, given
from hypothesis import strategies as st

from repro.engine.results import QueryResult
from repro.model.paths import (
    iter_edge_paths,
    selected_tree_count,
    tree_size,
)

from tests.conftest import random_dag_instances


@given(random_dag_instances(), st.data())
def test_guided_decode_matches_brute_force(instance, data):
    size = tree_size(instance)
    assume(size <= 300)
    chosen = data.draw(st.sets(st.integers(0, instance.num_vertices - 1)))
    instance.ensure_set("S")
    for vertex in chosen:
        instance.add_to_set(vertex, "S")

    walk = list(iter_edge_paths(instance))
    oracle = [(path, vertex) for vertex, path in walk if vertex in chosen]
    # Tree nodes the full walk has visited when it yields its k-th match
    # (the whole tree once it is asked for more matches than exist).
    reached = [i + 1 for i, (vertex, _) in enumerate(walk) if vertex in chosen]

    result = QueryResult(instance, "S")
    assert result.tree_count() == selected_tree_count(instance, "S") == len(oracle)
    assert result.tree_paths() == [path for path, _ in oracle]
    for k in range(len(oracle) + 2):
        limit = reached[k - 1] if 0 < k <= len(oracle) else size
        assert list(islice(result.iter_tree_matches(limit=limit), k)) == oracle[:k]
