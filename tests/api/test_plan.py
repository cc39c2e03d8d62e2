"""Structured plans: node shapes, JSON stability, render identity."""

import json

from repro.api import Plan
from repro.xpath.compiler import compile_query


class TestPlanStructure:
    def test_figure3_query_plan(self):
        plan = Plan.from_query(
            "/descendant::a/child::b[child::c/child::d or not(following::*)]"
        )
        assert plan.query.startswith("/descendant::a")
        assert plan.required_tags == ("a", "b", "c", "d")
        assert plan.required_strings == ()
        assert not plan.upward_only
        assert plan.size() == compile_query(plan.query).size()

    def test_ops_and_leaves(self):
        plan = Plan.from_query('//a[b["needle"]]')
        as_dict = plan.to_dict()

        def collect(node, out):
            out.append(node["op"])
            for child in node.get("children", ()):
                collect(child, out)
            return out

        ops = collect(as_dict["algebra"], [])
        assert "axis" in ops and "named-set" in ops and "intersect" in ops
        assert as_dict["required"]["strings"] == ["needle"]

        def leaves(node, out):
            if node["op"] == "named-set":
                out.append(node["set"])
            for child in node.get("children", ()):
                leaves(child, out)
            return out

        assert set(leaves(as_dict["algebra"], [])) >= {"a", "b"}

    def test_axis_nodes_name_their_axis(self):
        as_dict = Plan.from_query("//a/following-sibling::b").to_dict()

        def axes(node, out):
            if node["op"] == "axis":
                out.append(node["axis"])
            for child in node.get("children", ()):
                axes(child, out)
            return out

        assert "following-sibling" in axes(as_dict["algebra"], [])

    def test_upward_only_flag(self):
        assert Plan.from_query("/self::*[a/b]").upward_only
        assert not Plan.from_query("//a/b").upward_only

    def test_render_is_byte_identical_to_algebra_render(self):
        for query_text in (
            "//a/b",
            '//a[b["x"] and not(following::*)]',
            "/self::*[a/b/c]",
            "//a/parent::b/preceding-sibling::c",
        ):
            assert Plan.from_query(query_text).render() == compile_query(query_text).render()

    def test_json_round_trips(self):
        plan = Plan.from_query("//a[b or c]")
        assert json.loads(plan.to_json()) == plan.to_dict()
        # Plans are pure data: no instance provenance unless attached.
        assert "instance" not in plan.to_dict()
        plan.instance = {"source": "engine", "cached": True}
        assert plan.to_dict()["instance"] == {"source": "engine", "cached": True}

    def test_str_is_render(self):
        plan = Plan.from_query("//a")
        assert str(plan) == plan.render()


class TestOptimizerAnnotations:
    """The explain contract of :mod:`repro.api.plan`'s module docstring."""

    def _optimization(self, query_text):
        from repro.compress.stats import DocumentStats
        from repro.model.instance import tree_instance
        from repro.xpath.compiler import required_strings, required_tags
        from repro.xpath.optimizer import optimize

        from tests.conftest import BIB_SPEC

        stats = DocumentStats.from_instance(
            tree_instance(BIB_SPEC), complete_tags=True
        )
        expr = compile_query(query_text)
        tags = tuple(sorted(required_tags(query_text)))
        strings = tuple(sorted(required_strings(query_text)))
        return expr, tags, strings, optimize(expr, stats)

    def test_annotated_plan_carries_estimates(self):
        expr, tags, strings, optimization = self._optimization("//book/author")
        plan = Plan.from_compiled(
            "//book/author", expr, tags, strings, optimization=optimization
        )
        as_dict = plan.to_dict()

        def walk(node):
            yield node
            for child in node.get("children", ()):
                yield from walk(child)

        for node in walk(as_dict["algebra"]):
            assert "est_cardinality" in node
        block = as_dict["optimizer"]
        assert block["optimized"] is True
        assert "unoptimized" in block
        # The unoptimized shadow tree is unannotated.
        for node in walk(block["unoptimized"]):
            assert "est_cardinality" not in node
            assert "actual" not in node

    def test_unannotated_render_stays_byte_identical(self):
        plan = Plan.from_query("//a/b")
        assert plan.render() == compile_query("//a/b").render()

    def test_annotated_render_gains_suffixes(self):
        expr, tags, strings, optimization = self._optimization("//book/author")
        plan = Plan.from_compiled(
            "//book/author", expr, tags, strings, optimization=optimization
        )
        rendered = plan.render()
        assert "[est=" in rendered

    def test_actuals_attach_per_node(self):
        from repro.engine.evaluator import measure_actuals
        from repro.model.instance import tree_instance

        from tests.conftest import BIB_SPEC

        expr, tags, strings, optimization = self._optimization("//book/author")
        instance = tree_instance(BIB_SPEC)
        actuals = measure_actuals(instance, optimization.expr)
        plan = Plan.from_compiled(
            "//book/author", expr, tags, strings,
            optimization=optimization, actuals=actuals,
        )
        root = plan.to_dict()["algebra"]
        assert root["actual"] == {"dag_count": 3, "tree_count": 3}
        assert "actual=3" in plan.render()

    def test_identity_optimization_has_no_unoptimized_shadow(self):
        # ``*`` (child::* of the context) has nothing to fold or reorder.
        expr, tags, strings, optimization = self._optimization("*")
        plan = Plan.from_compiled("*", expr, tags, strings, optimization=optimization)
        block = plan.to_dict()["optimizer"]
        assert block == {"optimized": False, "rules_applied": []}
