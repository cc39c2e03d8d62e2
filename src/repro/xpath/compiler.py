"""Compilation of Core XPath ASTs to the node-set algebra (section 3.1).

The main path is compiled *forward*: starting from {root} (absolute) or the
context set, each step applies its axis, intersects with the tag set, then
intersects with the compiled predicate sets.

Predicates are compiled *in reverse* (the Figure 3 trick): a relative path
``child::c/child::d`` used as a condition on ``n`` means "some c-child of n
has a d-child", which is the set ``parent(L_c ∩ parent(L_d))`` — each step's
axis is replaced by its inverse and the steps are traversed right-to-left,
so conditions cost plain set operations flowing towards the query root.

Absolute paths inside predicates compile through ``V|root`` (the operation
introduced for exactly this purpose in section 3.1).
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.errors import XPathCompileError
from repro.model.schema import string_set
from repro.xpath.algebra import (
    AlgebraExpr,
    AllNodes,
    AxisApply,
    ContextSet,
    Difference,
    Intersect,
    NamedSet,
    RootFilter,
    RootSet,
    Union,
)
from repro.xpath.ast import (
    INVERSE_AXIS,
    AndExpr,
    Expr,
    LocationPath,
    NotExpr,
    OrExpr,
    PathUnion,
    Step,
    StringExpr,
)
from repro.xpath.parser import parse_query


def simplify_steps(steps: tuple[Step, ...]) -> tuple[Step, ...]:
    """Fuse ``descendant-or-self::*/child::t`` into ``descendant::t``.

    This undoes the parser's ``//`` desugaring where it is safe (the
    intermediate step carries no predicates), matching how the paper
    compiles ``//a`` directly to a descendant-axis application.
    """
    out: list[Step] = []
    index = 0
    while index < len(steps):
        step = steps[index]
        if (
            step.axis == "descendant-or-self"
            and step.test == "*"
            and not step.predicates
            and index + 1 < len(steps)
            and steps[index + 1].axis == "child"
        ):
            fused = steps[index + 1]
            out.append(Step("descendant", fused.test, fused.predicates))
            index += 2
        else:
            out.append(step)
            index += 1
    return tuple(out)


def compile_query(query: str | LocationPath | PathUnion) -> AlgebraExpr:
    """Compile a query string (or parsed AST) to an algebra expression."""
    ast = parse_query(query) if isinstance(query, str) else query
    if isinstance(ast, PathUnion):
        return _fold(Union, [_compile_path_forward(path) for path in ast.paths])
    return _compile_path_forward(ast)


def _compile_path_forward(path: LocationPath) -> AlgebraExpr:
    expr: AlgebraExpr = RootSet() if path.absolute else ContextSet()
    for step in simplify_steps(path.steps):
        expr = AxisApply(step.axis, expr)
        expr = _apply_tests(expr, step)
    return expr


def _apply_tests(expr: AlgebraExpr, step: Step) -> AlgebraExpr:
    if step.test != "*":
        expr = Intersect(expr, NamedSet(step.test))
    for predicate in step.predicates:
        expr = Intersect(expr, _compile_predicate(predicate))
    return expr


def _compile_predicate(predicate: Expr) -> AlgebraExpr:
    """The set of nodes satisfying ``predicate`` (always a subset test via ∩)."""
    if isinstance(predicate, OrExpr):
        return _fold(Union, [_compile_predicate(part) for part in predicate.parts])
    if isinstance(predicate, AndExpr):
        return _fold(Intersect, [_compile_predicate(part) for part in predicate.parts])
    if isinstance(predicate, NotExpr):
        return Difference(AllNodes(), _compile_predicate(predicate.part))
    if isinstance(predicate, StringExpr):
        return NamedSet(string_set(predicate.needle))
    if isinstance(predicate, LocationPath):
        return _compile_path_reversed(predicate)
    raise XPathCompileError(f"cannot compile predicate {predicate!r}")


def _compile_path_reversed(path: LocationPath) -> AlgebraExpr:
    """Reverse-compile a path used as an existence condition.

    For steps ``a_1::t_1[p_1]/.../a_n::t_n[p_n]`` the condition set is::

        a_1^-1( t_1 ∩ p_1 ∩ a_2^-1( t_2 ∩ p_2 ∩ ... a_n^-1? ... ))

    built right-to-left.  Absolute condition paths additionally go through
    ``V|root``: the document either satisfies them everywhere or nowhere.
    """
    steps = simplify_steps(path.steps)
    expr: AlgebraExpr | None = None
    for step in reversed(steps):
        matched = _step_match_set(step)
        if expr is not None:
            matched = Intersect(matched, expr) if not isinstance(matched, AllNodes) else expr
        expr = AxisApply(INVERSE_AXIS[step.axis], matched)
    if expr is None:
        # A bare '/' condition: only the root satisfies "having a root here".
        expr = RootSet()
    if path.absolute:
        # root in expr  <=>  the absolute path matches somewhere.
        return RootFilter(expr)
    return expr


def _step_match_set(step: Step) -> AlgebraExpr:
    expr: AlgebraExpr = AllNodes() if step.test == "*" else NamedSet(step.test)
    for predicate in step.predicates:
        condition = _compile_predicate(predicate)
        expr = condition if isinstance(expr, AllNodes) else Intersect(expr, condition)
    return expr


def _fold(op, parts: list[AlgebraExpr]) -> AlgebraExpr:
    expr = parts[0]
    for part in parts[1:]:
        expr = op(expr, part)
    return expr


def required_tags(query: str | LocationPath | PathUnion) -> set[str]:
    """All tag names a query mentions — the per-query schema of section 4."""
    from repro.xpath.ast import walk

    ast = parse_query(query) if isinstance(query, str) else query
    tags: set[str] = set()
    for node in walk(ast):
        if isinstance(node, LocationPath):
            for step in node.steps:
                if step.test != "*":
                    tags.add(step.test)
    return tags


def required_strings(query: str | LocationPath | PathUnion) -> set[str]:
    """All string-containment constraints a query mentions."""
    from repro.xpath.ast import walk

    ast = parse_query(query) if isinstance(query, str) else query
    return {node.needle for node in walk(ast) if isinstance(node, StringExpr)}


class CompiledQueryCache:
    """Bounded LRU of ``query text -> (expr, tags, strings)``.

    The one compiled-query cache: the embedded ``Engine``, the
    instance-backed ``Database`` and the serving backends each hold one, so
    a repeated query text is parsed and compiled once and a hit refreshes
    its recency (the hottest texts are the last evicted).  The cluster
    dispatcher also reads a query's *string schema* from it to route by
    ``(document, string-schema)`` without evaluating anything.  Thread-safe.
    """

    def __init__(self, limit: int = 1024):
        self.limit = limit
        self._entries: OrderedDict[
            str, tuple[AlgebraExpr, tuple[str, ...], tuple[str, ...]]
        ] = OrderedDict()
        self._lock = threading.Lock()

    def cached(
        self, query_text: str
    ) -> tuple[AlgebraExpr, tuple[str, ...], tuple[str, ...]] | None:
        """:meth:`entry` on a hit, ``None`` on a miss: never parses."""
        with self._lock:
            entry = self._entries.get(query_text)
            if entry is not None:
                self._entries.move_to_end(query_text)
            return entry

    def entry(self, query_text: str) -> tuple[AlgebraExpr, tuple[str, ...], tuple[str, ...]]:
        """``(expr, tags, strings)`` for a query text, LRU-cached."""
        entry = self.cached(query_text)
        if entry is not None:
            return entry
        ast = parse_query(query_text)  # outside the lock: parsing may be slow
        expr = compile_query(ast)
        entry = (
            expr,
            tuple(sorted(required_tags(ast))),
            tuple(sorted(required_strings(ast))),
        )
        with self._lock:
            # A racing thread may have inserted this key already; evicting
            # then would drop an unrelated entry for a no-op overwrite.
            if query_text not in self._entries:
                while len(self._entries) >= self.limit:
                    self._entries.popitem(last=False)
            self._entries[query_text] = entry
        return entry

    def seed(
        self,
        query_text: str,
        expr: AlgebraExpr,
        tags: tuple[str, ...],
        strings: tuple[str, ...],
    ) -> None:
        """Adopt an externally-compiled query (a ``repro.api.PreparedQuery``).

        An existing entry is kept (and refreshed, like any cache hit), so
        racing seeds and lookups of one text are harmless.
        """
        with self._lock:
            if query_text in self._entries:
                self._entries.move_to_end(query_text)
                return
            while len(self._entries) >= self.limit:
                self._entries.popitem(last=False)
            self._entries[query_text] = (expr, tuple(tags), tuple(strings))
