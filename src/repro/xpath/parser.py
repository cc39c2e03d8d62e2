"""Recursive-descent parser for the Core XPath fragment.

Grammar (whitespace-insensitive)::

    query      := path
    path       := '/' [relpath] | '//' relpath | relpath
    relpath    := step (('/' | '//') step)*
    step       := (axis '::')? nodetest predicate*
    nodetest   := NAME | '*'
    predicate  := '[' or_expr ']'
    or_expr    := and_expr ('or' and_expr)*
    and_expr   := unary ('and' unary)*
    unary      := 'not' '(' or_expr ')' | '(' or_expr ')' | STRING | path

``//`` desugars to an explicit ``descendant-or-self::*`` step.  ``and``,
``or`` and ``not`` are reserved words inside predicates (they cannot be used
as tag names there — none of the paper's corpora need that).
"""

from __future__ import annotations

from repro.errors import XPathSyntaxError
from repro.xpath.ast import (
    AXES,
    AndExpr,
    Expr,
    LocationPath,
    NotExpr,
    OrExpr,
    PathUnion,
    Step,
    StringExpr,
)
from repro.xpath.lexer import Token, lex

_DOS_STAR = Step("descendant-or-self", "*")
_RESERVED = {"and", "or", "not"}

#: Most *terms* one query may hold: paths, their location steps (``//``
#: counts as the step it desugars to) and predicate operands (each
#: ``(...)``, ``not(...)``, string or path inside ``[...]``).  Query text is
#: outside input and parser, compiler, optimizer and evaluator all recurse
#: over what it builds: every level of nesting and every link of a chain is
#: at least one term and adds at most two levels to the compiled plan, so
#: this one number bounds nesting depth, step count and every recursion
#: downstream (~6 frames per step served; the paper's queries have < 20).
MAX_TERMS = 64


class _Parser:
    def __init__(self, query: str):
        self.query = query
        self.tokens = lex(query)
        self.index = 0
        self.terms = 0

    # -- token helpers -------------------------------------------------

    @property
    def current(self) -> Token:
        return self.tokens[self.index]

    def advance(self) -> Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def accept(self, kind: str) -> Token | None:
        if self.current.kind == kind:
            return self.advance()
        return None

    def expect(self, kind: str) -> Token:
        if self.current.kind != kind:
            raise XPathSyntaxError(
                f"expected {kind}, found {self.current.kind} ({self.current.value!r})",
                position=self.current.position,
            )
        return self.advance()

    def count_terms(self, count: int = 1) -> None:
        self.terms += count
        if self.terms > MAX_TERMS:
            raise XPathSyntaxError(
                f"query too large: more than {MAX_TERMS} steps and predicate terms",
                position=self.current.position,
            )

    # -- grammar -------------------------------------------------------

    def parse(self) -> LocationPath | PathUnion:
        paths = [self.path()]
        while self.accept("PIPE"):
            paths.append(self.path())
        if self.current.kind != "EOF":
            raise XPathSyntaxError(
                f"trailing input {self.current.value!r}", position=self.current.position
            )
        return paths[0] if len(paths) == 1 else PathUnion(tuple(paths))

    def path(self) -> LocationPath:
        absolute = True
        if self.accept("DSLASH"):
            steps = [_DOS_STAR, *self.relative_steps()]
        elif self.accept("SLASH"):
            steps = self.relative_steps() if self._at_step_start() else []
        else:
            absolute = False
            steps = self.relative_steps()
        self.count_terms(1 + len(steps))
        return LocationPath(absolute=absolute, steps=tuple(steps))

    def relative_steps(self) -> list[Step]:
        steps = [self.step()]
        while True:
            if self.accept("DSLASH"):
                steps.append(_DOS_STAR)
                steps.append(self.step())
            elif self.accept("SLASH"):
                steps.append(self.step())
            else:
                return steps

    def _at_step_start(self) -> bool:
        token = self.current
        if token.kind == "STAR":
            return True
        return token.kind == "NAME" and token.value not in _RESERVED

    def step(self) -> Step:
        axis = "child"
        token = self.current
        if token.kind == "NAME" and self.tokens[self.index + 1].kind == "AXISSEP":
            if token.value not in AXES:
                raise XPathSyntaxError(
                    f"unknown axis {token.value!r}", position=token.position
                )
            axis = token.value
            self.advance()
            self.advance()
        test = self.node_test()
        predicates = []
        while self.accept("LBRACKET"):
            predicates.append(self.or_expr())
            self.expect("RBRACKET")
        return Step(axis, test, tuple(predicates))

    def node_test(self) -> str:
        if self.accept("STAR"):
            return "*"
        token = self.current
        if token.kind == "NAME":
            if token.value in _RESERVED:
                raise XPathSyntaxError(
                    f"{token.value!r} is reserved inside predicates",
                    position=token.position,
                )
            return self.advance().value
        raise XPathSyntaxError(
            f"expected a node test, found {token.kind} ({token.value!r})",
            position=token.position,
        )

    def or_expr(self) -> Expr:
        parts = [self.and_expr()]
        while self.current.kind == "NAME" and self.current.value == "or":
            self.advance()
            parts.append(self.and_expr())
        return parts[0] if len(parts) == 1 else OrExpr(tuple(parts))

    def and_expr(self) -> Expr:
        parts = [self.unary()]
        while self.current.kind == "NAME" and self.current.value == "and":
            self.advance()
            parts.append(self.unary())
        return parts[0] if len(parts) == 1 else AndExpr(tuple(parts))

    def unary(self) -> Expr:
        self.count_terms()
        token = self.current
        if token.kind == "NAME" and token.value == "not":
            self.advance()
            self.expect("LPAREN")
            inner = self.or_expr()
            self.expect("RPAREN")
            return NotExpr(inner)
        if self.accept("LPAREN"):
            inner = self.or_expr()
            self.expect("RPAREN")
            return inner
        if token.kind == "STRING":
            return StringExpr(self.advance().value)
        if token.kind in {"SLASH", "DSLASH"} or self._at_step_start():
            return self.path()
        raise XPathSyntaxError(
            f"expected a predicate expression, found {token.kind} ({token.value!r})",
            position=token.position,
        )


def parse_query(query: str) -> LocationPath | PathUnion:
    """Parse a Core XPath query string into an AST.

    Returns a :class:`LocationPath`, or a :class:`PathUnion` for top-level
    ``path1 | path2`` queries.
    """
    return _Parser(query).parse()
