"""The end-to-end pipeline of section 4: document + queries -> results.

Given a query, only the tags and string constraints it mentions are needed
in the instance schema; :func:`load_for_queries` performs the paper's
one-scan extraction over exactly the **union** of a batch's schemas, and
:func:`query_batch` runs the full pipeline: one load, one working copy, and
the one evaluator (:class:`repro.engine.evaluator.CompressedEvaluator`),
which evaluates identical algebra subtrees once.  A single query is a batch
of one (:func:`query`).  :class:`Engine` caches per-schema instances for a
document so repeated queries with the same leaf sets skip the parse (the
paper re-parses per query; both behaviours are measurable in the
benchmarks).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, Sequence

from repro.compress.stats import DocumentStats
from repro.model.instance import Instance
from repro.skeleton.loader import LoadResult, load
from repro.engine.evaluator import CompressedEvaluator
from repro.engine.results import BatchResult, QueryResult
from repro.xpath.algebra import AlgebraExpr
from repro.xpath.compiler import CompiledQueryCache, required_strings, required_tags
from repro.xpath.optimizer import OptimizationResult, optimize as optimize_plan
from repro.xpath.parser import parse_query

#: A schema key: (sorted tags, sorted string constraints).
SchemaKey = tuple[tuple[str, ...], tuple[str, ...]]


def _load_for_key(text: str, key: SchemaKey) -> LoadResult:
    attributes = "nodes" if any(tag.startswith("@") for tag in key[0]) else "ignore"
    return load(text, tags=list(key[0]), strings=list(key[1]), attributes=attributes)


def load_for_query(text: str, query_text: str) -> LoadResult:
    """One-scan load of exactly the schema ``query_text`` needs (section 4).

    Queries with ``@name`` steps automatically switch the loader into
    attribute-node mode (the extension of the paper's attribute-free model).
    """
    tags = sorted(required_tags(query_text))
    strings = sorted(required_strings(query_text))
    return _load_for_key(text, (tuple(tags), tuple(strings)))


def load_for_queries(text: str, queries: Iterable) -> LoadResult:
    """One-scan load over the schema **union** of a whole query batch.

    A single extraction pass covers every query in the workload: the tag and
    string sets are the unions of what each query mentions, so one instance
    serves the entire mix (the batch engine's "one load, N queries").
    ``queries`` may be query texts or already-parsed ASTs (pass ASTs to
    avoid parsing each text twice when you also compile them).
    """
    tags: set[str] = set()
    strings: set[str] = set()
    for query in queries:
        ast = parse_query(query) if isinstance(query, str) else query
        tags |= required_tags(ast)
        strings |= required_strings(ast)
    return _load_for_key(text, (tuple(sorted(tags)), tuple(sorted(strings))))


def query(
    source: str | Instance,
    query_text: str,
    context: str | None = None,
) -> QueryResult:
    """Evaluate ``query_text`` against XML text or a pre-loaded instance.

    The :func:`query_batch` of one text: when ``source`` is XML text, the
    document is parsed into a compressed instance over the query's schema
    first (the measured pipeline of Figure 7); when it is an
    :class:`Instance`, its schema must already contain the sets the query
    mentions.
    """
    return query_batch(source, [query_text], context=context)[0]


def query_batch(
    source: str | Instance,
    query_texts: Sequence[str],
    context: str | None = None,
) -> BatchResult:
    """Evaluate a whole query mix against XML text or a pre-loaded instance.

    One load (over the union schema) and one working copy serve every query;
    identical algebra subtrees across the mix are evaluated once.  See
    :class:`repro.engine.evaluator.CompressedEvaluator`.
    """
    if isinstance(source, Instance):
        instance = source
    else:
        instance = load_for_queries(source, query_texts).instance
    return CompressedEvaluator(instance, context=context).evaluate_batch(query_texts)


class Engine:
    """A document holder answering many queries.

    ``reparse_per_query=True`` reproduces the paper's experimental setup
    (re-extract a fresh minimal instance for each query's schema);
    ``False`` caches instances per schema.

    Independently of instance caching, the engine keeps a *compiled-algebra
    cache* keyed by query text: parsing and compiling a query happens once,
    and repeats of the same query string go straight to evaluation.  The
    schema key (required tags/strings) is derived from the compile step and
    cached alongside, so a repeated query does not re-parse its text at all.
    The cache is a true LRU — a hit refreshes the entry, so under churn the
    hottest query texts are the last to be evicted.

    The cached setup also optimizes (:mod:`repro.xpath.optimizer`):
    document statistics are collected from each loaded instance (once per
    schema), compiled plans are rewritten against them, and evaluation runs
    with the dynamic short-circuit on.  The re-extract-per-query setup stays
    the paper-faithful unoptimized pipeline.

    **`last_load` contract:** after every :meth:`query` /
    :meth:`query_batch` / :meth:`instance_for` call, ``last_load`` is the
    :class:`LoadResult` describing the instance that call used — even when
    the instance came from the per-schema cache, in which case
    ``last_load_cached`` is ``True`` and ``last_load.parse_seconds`` is the
    cost paid when that schema was *first* loaded, not by this call.
    """

    def __init__(self, text: str, reparse_per_query: bool = True):
        self._text = text
        self._reparse = reparse_per_query
        self._cache: dict[SchemaKey, LoadResult] = {}
        self._compiled = CompiledQueryCache(limit=self.COMPILED_CACHE_LIMIT)
        self._stats_cache: dict[SchemaKey, DocumentStats] = {}
        self._optimized: OrderedDict[str, OptimizationResult] = OrderedDict()
        self.last_load: LoadResult | None = None
        #: True when the last load was served from the per-schema cache.
        self.last_load_cached: bool = False

    @property
    def text(self) -> str:
        """The document text this engine answers queries over."""
        return self._text

    @property
    def reparse_per_query(self) -> bool:
        """True when the paper's re-extract-per-query setup is reproduced."""
        return self._reparse

    def compiled(self, query_text: str) -> AlgebraExpr:
        """The compiled algebra of ``query_text`` (cached per query text)."""
        return self._compiled.entry(query_text)[0]

    def compiled_entry(self, query_text: str) -> tuple[AlgebraExpr, SchemaKey]:
        """``(compiled algebra, schema key)`` — the full per-text cache entry.

        The seam :class:`repro.api.PreparedQuery` is built from: both
        derivations of one parse, LRU-cached by query text.
        """
        expr, tags, strings = self._compiled.entry(query_text)
        return expr, (tags, strings)

    def adopt_compiled(self, query_text: str, expr: AlgebraExpr, key: SchemaKey) -> None:
        """Seed the compiled-algebra cache with an externally-compiled query.

        Lets a :class:`repro.api.PreparedQuery` compiled elsewhere feed this
        engine without re-parsing its text; an existing entry is kept (and
        refreshed, like any cache hit).
        """
        self._compiled.seed(query_text, expr, *key)

    def instance_cached(self, query_text: str) -> bool:
        """Would :meth:`query` serve this text's schema from the cache?"""
        if self._reparse:
            return False
        return self.compiled_entry(query_text)[1] in self._cache

    #: Bound on distinct query texts kept compiled or optimized (least
    #: recently *used* evicted first), so a long-lived engine fed generated
    #: queries cannot grow without limit.
    COMPILED_CACHE_LIMIT = 1024

    def _instance_for_key(self, key: SchemaKey) -> Instance:
        if not self._reparse:
            cached = self._cache.get(key)
            if cached is not None:
                # Record the hit: last_load describes the instance this call
                # returns (its parse cost was paid when first loaded).
                self.last_load = cached
                self.last_load_cached = True
                return cached.instance
        result = _load_for_key(self._text, key)
        self.last_load = result
        self.last_load_cached = False
        if not self._reparse:
            self._cache[key] = result
        return result.instance

    def instance_for(self, query_text: str) -> Instance:
        """The compressed instance over the query's schema (maybe cached)."""
        return self._instance_for_key(self.compiled_entry(query_text)[1])

    def _stats_for(self, key: SchemaKey, instance: Instance) -> DocumentStats:
        """Document statistics for one schema, collected once per key.

        Tree-level quantities (per-tag tree counts, depth/fanout/subtree
        aggregates) do not depend on which schema the instance was
        minimised over, so caching by key is sound even in reparse mode
        where the instance object itself is fresh each call.  The key's
        string sets are in the instance's schema, so their counts are exact.
        """
        cached = self._stats_cache.get(key)
        if cached is None:
            cached = DocumentStats.from_instance(instance)
            self._stats_cache[key] = cached
        return cached

    def _optimized_for(
        self, query_text: str, expr: AlgebraExpr, key: SchemaKey, instance: Instance
    ) -> OptimizationResult:
        entry = self._optimized.get(query_text)
        if entry is not None:
            self._optimized.move_to_end(query_text)
            return entry
        entry = optimize_plan(expr, self._stats_for(key, instance))
        while len(self._optimized) >= self.COMPILED_CACHE_LIMIT:
            self._optimized.popitem(last=False)
        self._optimized[query_text] = entry
        return entry

    def optimized_entry(self, query_text: str) -> OptimizationResult | None:
        """The optimizer's result for ``query_text`` (``None`` when re-parsing).

        Loads (or reuses) the query's instance to collect statistics — the
        same object :meth:`query` would evaluate on — so explain output
        matches what evaluation actually runs.
        """
        if self._reparse:
            return None
        expr, key = self.compiled_entry(query_text)
        instance = self._instance_for_key(key)
        return self._optimized_for(query_text, expr, key, instance)

    def query(self, query_text: str, context: str | None = None) -> QueryResult:
        """One query: the :meth:`query_batch` of one text."""
        return self.query_batch([query_text], context=context)[0]

    def query_batch(
        self, query_texts: Sequence[str], context: str | None = None
    ) -> BatchResult:
        """Evaluate a workload of queries over **one** shared working instance.

        One load covers the whole batch (the instance is extracted — or
        served from the per-schema cache — over the *union* of the batch's
        tags and strings), one ``copy()`` is paid in total, and identical
        algebra subtrees across the mix materialise their selection once
        (see :class:`repro.engine.evaluator.CompressedEvaluator`).
        Per-query results are snapshotted as durable ``#q<i>`` selections,
        so every result stays valid no matter which later query partially
        decompressed the shared instance.
        """
        entries = [self.compiled_entry(text) for text in query_texts]
        tags: set[str] = set()
        strings: set[str] = set()
        for _, (entry_tags, entry_strings) in entries:
            tags.update(entry_tags)
            strings.update(entry_strings)
        key: SchemaKey = (tuple(sorted(tags)), tuple(sorted(strings)))
        instance = self._instance_for_key(key)
        exprs = [expr for expr, _ in entries]
        optimize = not self._reparse
        if optimize:
            exprs = [
                self._optimized_for(text, expr, key, instance).expr
                for text, expr in zip(query_texts, exprs)
            ]
        evaluator = CompressedEvaluator(instance, context=context, short_circuit=optimize)
        return evaluator.evaluate_batch(exprs)

    def explain(self, query_text: str) -> str:
        """Render the compiled algebra tree (the Figure 3 view of a query)."""
        return self.compiled(query_text).render()


# Re-exported via the top-level package for the quick-start API.
def load_instance(text: str, query_text: str | None = None, **kwargs) -> Instance:
    """Load ``text`` as a compressed instance.

    With ``query_text`` the schema is derived from the query (section 4);
    otherwise pass ``tags=`` / ``strings=`` through to the skeleton loader.
    """
    if query_text is not None:
        return load_for_query(text, query_text).instance
    return load(text, **kwargs).instance
