"""Incremental DAG maintenance vs the shred-from-scratch oracle.

Every scenario applies a mutation batch through
:func:`repro.mutation.apply.apply_mutations` and re-shreds the edited
text from scratch; the incremental result must be *indistinguishable*:
same minimized DAG size, byte-equal statistics, and byte-identical
query results on the compressed instance.
"""

import pytest

from repro.compress.stats import DocumentStats
from repro.engine.evaluator import CompressedEvaluator
from repro.errors import MutationError
from repro.mutation.apply import apply_mutations
from repro.mutation.ops import Mutation, as_mutations
from repro.skeleton.loader import load

BIB = (
    "<bib>"
    "<book><title>t1</title><author>a1</author><author>a2</author></book>"
    "<paper><title>t2</title><author>a3</author></paper>"
    "<paper><title>t3</title><author>a4</author></paper>"
    "</bib>"
)

QUERIES = [
    "//author",
    "//paper/title",
    "/bib/book",
    "//paper[author]",
    "//title/following-sibling::author",
]


def check_against_oracle(text, mutations, attributes="ignore", queries=QUERIES):
    """Apply incrementally, re-shred from scratch, assert indistinguishable."""
    base = load(text, tags=None, attributes=attributes).instance
    outcome = apply_mutations(base, text, as_mutations(mutations), attributes=attributes)
    fresh = load(outcome.text, tags=None, attributes=attributes).instance

    assert outcome.instance.num_vertices == fresh.num_vertices
    assert outcome.instance.num_edge_entries == fresh.num_edge_entries

    # The statistics the catalog would publish for each instance.
    stats = DocumentStats.from_instance(outcome.instance, complete_tags=True)
    oracle_stats = DocumentStats.from_instance(fresh, complete_tags=True)
    assert stats.tree_nodes == oracle_stats.tree_nodes
    assert (stats.avg_depth, stats.avg_fanout, stats.avg_subtree) == (
        oracle_stats.avg_depth, oracle_stats.avg_fanout, oracle_stats.avg_subtree,
    )

    # A delete may leave a now-unpopulated tag set behind (the schema
    # keeps the name; the set is provably empty either way) — the
    # comparable content is the non-empty sets.
    def populated(stats):
        return {name: count for name, count in stats.sets.items() if count}

    assert populated(stats) == populated(oracle_stats)

    # A fresh shred of the edited text has no entry at all for a tag the
    # edit removed, while the incremental instance keeps the (empty) set;
    # align the schemas so every query runs on both.
    for name in outcome.instance.schema:
        fresh.ensure_set(name)
    for query in queries:
        mine = CompressedEvaluator(outcome.instance).evaluate(query)
        oracle = CompressedEvaluator(fresh).evaluate(query)
        assert sorted(mine.tree_paths()) == sorted(oracle.tree_paths()), query
    return outcome


def test_append_child_leaf():
    outcome = check_against_oracle(
        BIB, [{"op": "append_child", "path": [0], "xml": "<author>a5</author>"}]
    )
    assert outcome.applied == 1
    assert outcome.ops == {"append_child": 1}


def test_append_child_root():
    check_against_oracle(
        BIB,
        [{"op": "append_child", "path": [],
          "xml": "<paper><title>t4</title><author>a1</author></paper>"}],
    )


def test_delete_subtree():
    outcome = check_against_oracle(BIB, [{"op": "delete_subtree", "path": [1]}])
    assert "t2" not in outcome.text


def test_replace_subtree():
    check_against_oracle(
        BIB,
        [{"op": "replace_subtree", "path": [2],
          "xml": "<book><title>t9</title><author>a9</author></book>"}],
    )


def test_replace_root_element():
    check_against_oracle(
        BIB, [{"op": "replace_subtree", "path": [], "xml": "<bib><empty/></bib>"}]
    )


def test_batch_is_ordered_and_atomic():
    outcome = check_against_oracle(
        BIB,
        [
            {"op": "append_child", "path": [], "xml": "<paper><author>a1</author></paper>"},
            {"op": "delete_subtree", "path": [0]},
            {"op": "replace_subtree", "path": [2, 0], "xml": "<author>swap</author>"},
        ],
    )
    assert outcome.applied == 3
    assert outcome.ops == {"append_child": 1, "delete_subtree": 1, "replace_subtree": 1}


def test_attributes_as_nodes_skip_ordinals():
    text = "<r><x k='v'><y/></x></r>"
    # Path [0, 0] addresses <y>: the @k attribute node must not consume
    # an element ordinal.
    check_against_oracle(
        text,
        [{"op": "replace_subtree", "path": [0, 0], "xml": "<z m='n'/>"}],
        attributes="nodes",
        queries=["//x", "//z", "//@m", "//x/z"],
    )


def test_base_instance_is_not_mutated():
    base = load(BIB, tags=None).instance
    before = (base.num_vertices, base.num_edge_entries)
    apply_mutations(
        base, BIB, as_mutations([{"op": "delete_subtree", "path": [0]}])
    )
    assert (base.num_vertices, base.num_edge_entries) == before


def test_bad_path_rejected():
    base = load(BIB, tags=None).instance
    with pytest.raises(MutationError):
        apply_mutations(
            base, BIB, as_mutations([{"op": "delete_subtree", "path": [99]}])
        )


def test_malformed_fragment_rejected():
    base = load(BIB, tags=None).instance
    with pytest.raises(MutationError):
        apply_mutations(
            base, BIB,
            as_mutations([{"op": "append_child", "path": [], "xml": "<oops>"}]),
        )


def test_mutation_validation():
    with pytest.raises(MutationError):
        Mutation("rename", (0,))
    with pytest.raises(MutationError):
        Mutation("append_child", (0,))  # inserting op needs a fragment
    with pytest.raises(MutationError):
        Mutation("delete_subtree", (0,), xml="<x/>")  # delete takes none
    with pytest.raises(MutationError):
        as_mutations([])  # empty batch is a refused no-op
