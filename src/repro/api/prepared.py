"""Prepared queries: parse and compile once, run anywhere.

A :class:`PreparedQuery` is the compile-time half of a query, derived a
single time from its text: the compiled algebra expression, the schema
key (the tags and string-containment needles the one-scan loader must
extract — section 4), and the canonical structural key the batch engine's
common-subexpression cache shares work by.  The same object feeds every
execution surface: a :class:`repro.api.Database` seeds its backend's
:class:`repro.xpath.compiler.CompiledQueryCache` with it, and the batch
evaluator consumes its expression directly — so no surface ever re-parses
a text this object already compiled.
"""

from __future__ import annotations

from repro.api.plan import Plan
from repro.xpath.algebra import AlgebraExpr

#: A schema key: (sorted tags, sorted string constraints).
SchemaKey = tuple[tuple[str, ...], tuple[str, ...]]


class PreparedQuery:
    """One query text, parsed and compiled exactly once (immutable)."""

    __slots__ = ("text", "expr", "tags", "strings", "_plan")

    def __init__(
        self,
        text: str,
        expr: AlgebraExpr,
        tags: tuple[str, ...],
        strings: tuple[str, ...],
    ):
        self.text = text
        self.expr = expr
        #: Sorted element tags the query mentions (``@name`` for attributes).
        self.tags = tuple(tags)
        #: Sorted string-containment needles the query mentions.
        self.strings = tuple(strings)
        self._plan: Plan | None = None

    @classmethod
    def compile(cls, query_text: str) -> "PreparedQuery":
        """Parse + compile ``query_text`` (one parse feeds all derivations)."""
        from repro.xpath.compiler import compile_query, required_strings, required_tags
        from repro.xpath.parser import parse_query

        ast = parse_query(query_text)
        return cls(
            query_text,
            compile_query(ast),
            tuple(sorted(required_tags(ast))),
            tuple(sorted(required_strings(ast))),
        )

    @property
    def schema_key(self) -> SchemaKey:
        """The per-schema cache key (what a one-scan load must extract)."""
        return (self.tags, self.strings)

    def structural_key(self) -> tuple:
        """The algebra tree's canonical key (batch-engine sharing unit)."""
        return self.expr.structural_key()

    def plan(self) -> Plan:
        """The structured :class:`repro.api.Plan` of this query (cached)."""
        if self._plan is None:
            self._plan = Plan.from_compiled(self.text, self.expr, self.tags, self.strings)
        return self._plan

    def run(self, database, **kwargs):
        """Execute against a :class:`repro.api.Database` (convenience)."""
        return database.execute(self, **kwargs)

    def __repr__(self) -> str:
        return f"PreparedQuery({self.text!r})"
