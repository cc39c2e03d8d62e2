"""Integration tests: the figure harness end-to-end at tiny scale.

These run the exact code paths the benchmarks use — corpus generation,
Figure 6 and Figure 7 rows, Figure 5 queries — and assert the paper's
structural claims, so the reproduction's shape is enforced by ``pytest
tests/`` alone (benchmarks add timing on top).
"""

import pytest

from repro.bench.harness import figure6_row, figure7_row
from repro.bench.queries import QUERY_IDS, queries_for
from repro.corpora import generate
from repro.corpora.binary_tree import FIGURE5_QUERIES, compressed_instance
from repro.corpora.registry import QUERY_CORPORA
from repro.engine.evaluator import CompressedEvaluator
from repro.engine.pipeline import Engine, load_for_query
from tests.engine.util import Figure4Evaluator

SCALES = {
    "swissprot": 40,
    "dblp": 80,
    "treebank": 40,
    "omim": 40,
    "xmark": 48,
    "shakespeare": 12,
    "baseball": 6,
    "tpcd": 30,
}


@pytest.fixture(scope="module")
def xml_cache():
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = generate(name, SCALES[name], seed=3).xml
        return cache[name]

    return get


class TestFigure6Rows:
    @pytest.mark.parametrize("corpus", sorted(SCALES))
    def test_row_is_sane(self, xml_cache, corpus):
        row = figure6_row(corpus, xml_cache(corpus))
        assert row.tree_vertices > 100
        assert 0 < row.ratio_minus <= row.ratio_plus <= 1.0
        assert row.vertices_minus <= row.vertices_plus
        # The "+" instance always carries at least the document-root set.
        assert row.edges_plus >= row.edges_minus


class TestFigure7Rows:
    @pytest.mark.parametrize("corpus", QUERY_CORPORA)
    def test_all_queries_run(self, xml_cache, corpus):
        for query_id in QUERY_IDS:
            row = figure7_row(corpus, xml_cache(corpus), query_id)
            assert row.selected_tree >= 1
            assert row.selected_dag <= row.selected_tree
            assert row.vertices_after >= row.vertices_before or query_id == "Q1"

    @pytest.mark.parametrize("corpus", QUERY_CORPORA)
    def test_q1_never_decompresses(self, xml_cache, corpus):
        row = figure7_row(corpus, xml_cache(corpus), "Q1")
        assert (row.vertices_before, row.edges_before) == (
            row.vertices_after,
            row.edges_after,
        )
        assert row.selected_dag == row.selected_tree == 1

    def test_inplace_axes_give_same_counts(self, xml_cache):
        for corpus in ("dblp", "baseball"):
            for query_id in QUERY_IDS:
                functional = figure7_row(corpus, xml_cache(corpus), query_id)
                query_text = queries_for(corpus)[query_id]
                loaded = load_for_query(xml_cache(corpus), query_text)
                inplace = Figure4Evaluator(loaded.instance, copy=False).evaluate(query_text)
                assert functional.selected_tree == inplace.tree_count()
                assert functional.selected_dag == inplace.dag_count()


#: Corpora (registry-default size) on which Q5's sibling step splits:
#: reachable ``(|V|, |E|)`` before and after the whole query.
Q5_SIZES = {
    "swissprot": ((103, 1323), (110, 1329)),
    "dblp": ((29, 2882), (32, 2882)),
    "treebank": ((2639, 7360), (2817, 7693)),
    "omim": ((194, 1598), (197, 1598)),
    "xmark": ((48, 825), (53, 831)),
    "shakespeare": ((608, 3703), (611, 3707)),
    "baseball": ((87, 741), (88, 741)),
}


@pytest.mark.parametrize("corpus", sorted(Q5_SIZES))
def test_q5_grows_by_the_split_vertices_only(corpus):
    result = Engine(generate(corpus).xml).query(queries_for(corpus)["Q5"])
    assert (result.before, result.after) == Q5_SIZES[corpus]


class TestFigure5:
    def test_all_queries_select(self):
        instance = compressed_instance(5)
        for figure_id, query in FIGURE5_QUERIES:
            result = CompressedEvaluator(instance).evaluate(query)
            assert result.tree_count() >= 1, f"figure 5 ({figure_id})"

    def test_depth5_sizes_match_experiments_md(self):
        # The EXPERIMENTS.md Figure 5 table, pinned.
        expected = {
            "//a": (11, 5, 31),
            "//a/b": (19, 4, 15),
            "a": (11, 1, 1),
            "a/a": (13, 1, 1),
            "a/a/b": (15, 1, 1),
            "*": (11, 2, 2),
            "*/a": (11, 1, 2),
            "*/a/following::*": (19, 10, 46),
        }
        for _, query in FIGURE5_QUERIES:
            result = CompressedEvaluator(compressed_instance(5)).evaluate(query)
            after_v, _ = result.after
            assert (
                after_v,
                result.dag_count(),
                result.tree_count(),
            ) == expected[query], query

    def test_astronomical_tree(self):
        instance = compressed_instance(80)
        result = CompressedEvaluator(instance).evaluate("//a/b")
        # b nodes with an 'a' parent, exactly counted on a 2^81-1 node tree.
        assert result.tree_count() > 2**78
