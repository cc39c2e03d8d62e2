"""End-to-end evaluator tests: queries over loaded documents (section 3.3/4)."""

import pytest

from repro.engine.evaluator import CompressedEvaluator, evaluate
from repro.engine.pipeline import Engine, load_for_query, query
from repro.errors import EvaluationError
from repro.model.schema import is_temp
from repro.skeleton.loader import load_instance
from repro.xpath.algebra import AxisApply, Intersect, NamedSet

from tests.engine.util import assert_engines_agree
from tests.skeleton.test_loader import BIB_XML


class TestQueriesOnBib:
    def test_simple_path(self):
        result = query(BIB_XML, "/bib/book/author")
        assert result.tree_count() == 3
        assert result.dag_count() == 1  # the three authors share one vertex

    def test_double_slash(self):
        result = query(BIB_XML, "//author")
        assert result.tree_count() == 5

    def test_string_condition(self):
        result = query(BIB_XML, '//paper[author["Codd"]]')
        assert result.tree_count() == 1

    def test_string_condition_selects_nothing_when_absent(self):
        result = query(BIB_XML, '//paper[author["Turing"]]')
        assert result.is_empty()

    def test_tree_pattern_query_selects_root(self):
        result = query(BIB_XML, "/self::*[bib/book/author]")
        assert result.tree_count() == 1
        assert result.vertices() == {result.instance.root}

    def test_tree_pattern_query_no_match(self):
        result = query(BIB_XML, "/self::*[bib/journal]")
        assert result.is_empty()

    def test_and_condition(self):
        result = query(BIB_XML, '//book[author["Hull"] and author["Vianu"]]/title')
        assert result.tree_count() == 1

    def test_or_condition(self):
        result = query(BIB_XML, '//paper[author["Codd"] or author["Vardi"]]')
        assert result.tree_count() == 2

    def test_not_condition(self):
        # Papers without Codd: exactly the Vardi paper.
        result = query(BIB_XML, '//paper[not(author["Codd"])]')
        assert result.tree_count() == 1

    def test_following_sibling(self):
        result = query(BIB_XML, "//title/following-sibling::author")
        assert result.tree_count() == 5

    def test_preceding_sibling(self):
        result = query(BIB_XML, "//author/preceding-sibling::title")
        assert result.tree_count() == 3

    def test_parent_axis(self):
        result = query(BIB_XML, '//author["Vardi"]/parent::paper')
        assert result.tree_count() == 1

    def test_ancestor_axis(self):
        result = query(BIB_XML, '//author["Codd"]/ancestor::bib')
        assert result.tree_count() == 1

    def test_absolute_condition(self):
        everything = query(BIB_XML, "//paper[/descendant::book]")
        assert everything.tree_count() == 2  # document has a book: all papers
        nothing = query(BIB_XML, "//paper[/descendant::journal]")
        assert nothing.is_empty()

    def test_following_axis(self):
        result = query(BIB_XML, "//book/following::author")
        assert result.tree_count() == 2  # the two paper authors

    def test_not_following_selects_last(self):
        result = query(BIB_XML, "//paper[not(following::*)]")
        # Only the last paper's subtree has no following node... the last
        # *paper* is the one with no following element: the Vardi paper has
        # following nodes (its own children do not count as following).
        assert result.tree_count() == 1


class TestEvaluatorMechanics:
    def test_temporaries_dropped(self):
        instance = load_instance(BIB_XML, tags=["book", "author"])
        result = evaluate(instance, "//book/author")
        assert not any(is_temp(name) for name in result.instance.schema)
        assert result.set_name == "#q0"  # the durable snapshot of a batch of one
        assert result.tree_count() == 3

    def test_keep_temps(self):
        instance = load_instance(BIB_XML, tags=["book", "author"])
        evaluator = CompressedEvaluator(instance)
        result = evaluator.evaluate("//book/author", keep_temps=True)
        temps = [name for name in result.instance.schema if is_temp(name)]
        assert len(temps) > 1

    def test_input_instance_untouched_by_default(self):
        instance = load_instance(BIB_XML, tags=["book", "author"])
        schema_before = instance.schema
        vertices_before = instance.num_vertices
        evaluate(instance, "//book/author")
        assert instance.schema == schema_before
        assert instance.num_vertices == vertices_before

    def test_copy_false_mutates(self):
        instance = load_instance(BIB_XML, tags=["book", "author"])
        evaluate(instance, "//book/author", copy=False)
        assert "#q0" in instance.schema

    def test_missing_set_reports_helpfully(self):
        instance = load_instance(BIB_XML, tags=["book"])
        with pytest.raises(EvaluationError, match="load the document"):
            evaluate(instance, "//journal")

    def test_custom_context(self):
        instance = load_instance(BIB_XML, tags=["book", "paper", "author"])
        instance.ensure_set("ctx")
        for vertex in instance.members("book"):
            instance.add_to_set(vertex, "ctx")
        result = CompressedEvaluator(instance, context="ctx").evaluate("author")
        assert result.tree_count() == 3  # only book authors

    def test_missing_context_raises(self):
        instance = load_instance(BIB_XML, tags=["author"])
        with pytest.raises(EvaluationError, match="context"):
            CompressedEvaluator(instance, context="nope").evaluate("author")

    def test_result_summary_format(self):
        result = query(BIB_XML, "//author")
        text = result.summary()
        assert "dag" in text and "tree" in text


class TestFusedSteps:
    """``step ∩ L[tag]`` runs as one axis call (DESIGN.md section 6)."""

    def evaluator(self):
        instance = load_instance(BIB_XML, tags=["bib", "book", "author"])
        instance.ensure_set("none")
        return CompressedEvaluator(instance, short_circuit=True)

    def test_an_empty_test_on_the_left_skips_the_axis(self):
        evaluator = self.evaluator()
        step = Intersect(NamedSet("none"), AxisApply("child", NamedSet("book")))
        assert evaluator.evaluate(step).is_empty()
        assert evaluator.stats.frontier_steps + evaluator.stats.whole_steps == 0

    def test_an_empty_test_on_the_right_still_runs_the_axis(self):
        evaluator = self.evaluator()
        step = Intersect(AxisApply("child", NamedSet("book")), NamedSet("none"))
        assert evaluator.evaluate(step).is_empty()
        assert evaluator.stats.frontier_steps + evaluator.stats.whole_steps == 1

    def test_an_empty_step_on_the_left_skips_the_test(self):
        # As unfused: the test set is not even looked up, so a missing one
        # raises only when the step selected something or nothing skips.
        step = Intersect(AxisApply("child", NamedSet("none")), NamedSet("journal"))
        assert self.evaluator().evaluate(step).is_empty()
        instance = load_instance(BIB_XML, tags=["book"])
        instance.ensure_set("none")
        with pytest.raises(EvaluationError, match="load the document"):
            CompressedEvaluator(instance).evaluate(step)

    def test_a_fused_step_materialises_one_selection(self):
        evaluator = self.evaluator()
        result = evaluator.evaluate("/bib/book/author", keep_temps=True)
        assert result.tree_count() == 3
        # {root} and one selection per step: none for the bare axis results.
        assert len([name for name in result.instance.schema if is_temp(name)]) == 4
        assert evaluator.stats.nodes_total == 10  # the bare steps still count


class TestPipeline:
    def test_load_for_query_schema(self):
        result = load_for_query(BIB_XML, '//paper[author["Codd"]]')
        from repro.model.schema import DOC_SET, string_set

        assert set(result.instance.schema) == {
            DOC_SET,
            "paper",
            "author",
            string_set("Codd"),
        }

    def test_engine_reparse_and_cache_agree(self):
        fresh = Engine(BIB_XML, reparse_per_query=True)
        cached = Engine(BIB_XML, reparse_per_query=False)
        for q in ("//author", "//author", '//paper[author["Codd"]]'):
            assert fresh.query(q).tree_count() == cached.query(q).tree_count()

    def test_engine_cache_reuses_instance(self):
        engine = Engine(BIB_XML, reparse_per_query=False)
        engine.query("//author")
        first = engine.last_load
        engine.query("//author")
        assert engine.last_load is first  # no second parse

    def test_explain_renders_plan(self):
        engine = Engine(BIB_XML)
        plan = engine.explain("//book/author")
        assert "descendant" in plan and "L[book]" in plan

    def test_query_accepts_preloaded_instance(self):
        instance = load_for_query(BIB_XML, "//author").instance
        result = query(instance, "//author")
        assert result.tree_count() == 5


class TestBothEnginesOnQueries:
    @pytest.mark.parametrize(
        "q",
        [
            "/bib/book/author",
            "//author",
            '//paper[author["Codd"]]',
            "//title/following-sibling::author",
            "//book/following::author",
            "//paper[not(following::*)]",
            "/self::*[bib/book]",
            '//book[author["Hull"] and author["Vianu"]]/title',
        ],
    )
    def test_functional_inplace_and_oracle_agree(self, q):
        instance = load_for_query(BIB_XML, q).instance
        assert_engines_agree(instance, q)
