"""The unified database façade: one object in front of every backend.

A :class:`Database` answers prepared queries over one of three backends,
behind one surface:

* **embedded text** — wraps a :class:`repro.engine.pipeline.Engine` over
  the document text: per-schema one-scan loads (cached by default), the
  compiled-algebra LRU, and batch evaluation with cross-query sharing;
* **embedded instance** — a pre-built compressed instance (e.g. a saved
  RSKL image): evaluation on a working copy, no character data;
* **served** — a :class:`repro.server.catalog.Catalog` plus
  :class:`repro.server.service.QueryService` (or a worker fleet exposing
  the same surface): load-once/query-forever over the persistent store,
  coalescing concurrent callers into shared batches.

``repro.open(path_or_text)`` picks the backend from its argument (XML
text, an XML file, a saved RSKL instance, or a catalog directory);
:meth:`Database.from_catalog` opens the served backend explicitly.  Every
backend consumes the same :class:`repro.api.PreparedQuery` (compiled
once, seeded into whichever compiled-query cache the backend maintains)
and produces the same lazy :class:`repro.api.ResultSet`.
"""

from __future__ import annotations

import os
from typing import Iterable, Sequence

from repro.api.envelope import DEFAULT_LIMIT
from repro.api.plan import Plan
from repro.api.prepared import PreparedQuery
from repro.api.results import ResultSet, ResultSetBatch
from repro.errors import ReproError
from repro.model.instance import Instance
from repro.xmlio.dom import Element
from repro.xpath.compiler import CompiledQueryCache


def _attributes_mode(tags: Iterable[str]) -> str:
    """The loader mode a schema implies (same rule as the engine pipeline)."""
    return "nodes" if any(tag.startswith("@") for tag in tags) else "ignore"


class Database:
    """One queryable document source (see module doc).  Context manager."""

    def __init__(
        self,
        *,
        engine=None,
        instance=None,
        service=None,
        owns_service=False,
    ):
        backends = sum(backend is not None for backend in (engine, instance, service))
        if backends != 1:
            raise ReproError("a Database wraps exactly one backend")
        self._engine = engine
        self._instance = instance
        self._service = service
        self._owns_service = owns_service
        # Reassembled document DOM per attributes mode (fragment tier 3).
        self._dom_cache: dict[str, Element] = {}
        # Instance-backed databases own their compiled cache (the other
        # backends delegate to the engine's / service's).
        self._compiled = CompiledQueryCache()
        self._closed = False

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_text(cls, text: str, reparse_per_query: bool = False) -> "Database":
        """An embedded database over XML text (cached one-scan loads)."""
        from repro.engine.pipeline import Engine

        return cls(engine=Engine(text, reparse_per_query=reparse_per_query))

    @classmethod
    def from_instance(cls, instance: Instance) -> "Database":
        """An embedded database over a pre-built compressed instance.

        The instance's schema is fixed: queries may only mention sets it
        already carries (plus absent tags, which select nothing).  No
        character data is available, so the fragment tier is off.
        """
        return cls(instance=instance)

    @classmethod
    def from_file(
        cls, path: str | os.PathLike, reparse_per_query: bool = False
    ) -> "Database":
        """An embedded database over an XML file or a saved instance.

        The one place a document path is opened: the bytes are read once;
        an RSKL image (``repro compress --save``, recognised by its magic
        whatever the file is called) decodes to its instance, anything else
        is UTF-8 XML.  A damaged image raises
        :class:`repro.errors.IntegrityError`, undecodable text
        :class:`repro.errors.XMLSyntaxError`.  ``reparse_per_query`` only
        applies to XML (an image holds one pre-built instance, there is
        nothing to re-parse).
        """
        from repro.skeleton.layout import SKELETON_MAGIC, decode_skeleton
        from repro.xmlio.tokenizer import decode_text

        with open(os.fspath(path), "rb") as handle:
            data = handle.read()
        if data.startswith(SKELETON_MAGIC):
            return cls.from_instance(decode_skeleton(data))
        return cls.from_text(decode_text(data), reparse_per_query=reparse_per_query)

    @classmethod
    def from_catalog(cls, root: str | os.PathLike, **service_kwargs) -> "Database":
        """A served database over a catalog directory (owned lifecycle).

        ``service_kwargs`` pass through to
        :class:`repro.server.service.QueryService` (``pool_capacity``,
        ``max_queue``, ...).  Closing the database
        closes the service.
        """
        from repro.server.catalog import Catalog
        from repro.server.service import QueryService

        service = QueryService(Catalog(os.fspath(root)), **service_kwargs)
        return cls(service=service, owns_service=True)

    @classmethod
    def from_service(cls, service) -> "Database":
        """Wrap an existing query service / worker fleet (shared lifecycle)."""
        return cls(service=service)

    # -- lifecycle -------------------------------------------------------

    @property
    def mode(self) -> str:
        """``"embedded"`` or ``"served"``."""
        return "served" if self._service is not None else "embedded"

    def close(self) -> None:
        """Release the backend (drains an owned service; embedded is free)."""
        if self._closed:
            return
        self._closed = True
        if self._service is not None and self._owns_service:
            self._service.close()
        self._dom_cache.clear()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- backend access (escape hatches, read-only by convention) --------

    @property
    def engine(self):
        """The wrapped :class:`Engine` (embedded-text databases only)."""
        if self._engine is None:
            raise ReproError("this database is not backed by an embedded engine")
        return self._engine

    @property
    def service(self):
        """The wrapped query service (served databases only)."""
        if self._service is None:
            raise ReproError("this database is not served")
        return self._service

    @property
    def last_load(self):
        """The :class:`LoadResult` of the most recent embedded evaluation."""
        return self._engine.last_load if self._engine is not None else None

    def documents(self) -> list[str]:
        """Registered document names (served databases only)."""
        return self.service.catalog.names()

    def add_document(self, name: str, xml: str, attributes: str = "ignore"):
        """Register ``xml`` in the served catalog; returns its entry."""
        return self.service.catalog.add(name, xml, attributes=attributes)

    def remove_document(self, name: str) -> None:
        """Drop a served document: catalog entry, files, pool residency."""
        self.service.catalog.remove(name)
        self.service.evict(name)

    # -- mutation (served databases only) --------------------------------

    def mutate(
        self,
        op: str,
        path: Sequence[int],
        xml: str | None = None,
        document: str | None = None,
    ) -> dict:
        """Apply one in-place edit to a served document.

        ``op`` is ``append_child``, ``replace_subtree`` or
        ``delete_subtree``; ``path`` addresses the target element by
        element-child ordinals from the root (``[]`` is the root element
        itself); ``xml`` carries the fragment for the inserting ops.  The
        edit is journaled, applied incrementally to the compressed DAG,
        and published under a new ``doc_version`` — subsequent queries on
        every surface see the new state, in-flight queries finish on the
        snapshot they started with.  Returns the publish summary (new
        ``doc_version``, ops applied, maintenance seconds).
        """
        return self.apply_patch(
            [{"op": op, "path": list(path), "xml": xml}], document=document
        )

    def apply_patch(self, mutations, document: str | None = None) -> dict:
        """Apply an ordered batch of mutation dicts atomically (all or none).

        Each element is ``{"op", "path", "xml"?}`` (or a
        :class:`repro.mutation.Mutation`).  The batch commits as one
        journal record and one version publish: a failure anywhere leaves
        the document exactly at its prior version.
        """
        if self._service is None:
            raise ReproError("mutations need a served database (catalog-backed)")
        return self._service.mutate(self._document_name(document), mutations)

    # -- preparation -----------------------------------------------------

    def prepare(self, query: str | PreparedQuery) -> PreparedQuery:
        """Compile ``query`` once, through the backend's compiled cache."""
        if isinstance(query, PreparedQuery):
            self._seed(query)
            return query
        if self._engine is not None:
            expr, (tags, strings) = self._engine.compiled_entry(query)
        elif self._service is not None:
            expr, tags, strings = self._service.compiled_entry(query)
        else:
            expr, tags, strings = self._compiled.entry(query)
        return PreparedQuery(query, expr, tags, strings)

    def _seed(self, prepared: PreparedQuery) -> None:
        """Adopt an externally-compiled query into the backend's cache."""
        if self._engine is not None:
            self._engine.adopt_compiled(
                prepared.text, prepared.expr, prepared.schema_key
            )
        elif self._service is not None:
            self._service.seed_compiled(
                prepared.text, prepared.expr, prepared.tags, prepared.strings
            )
        else:
            self._compiled.seed(
                prepared.text, prepared.expr, prepared.tags, prepared.strings
            )

    # -- execution -------------------------------------------------------

    def execute(
        self,
        query: str | PreparedQuery,
        document: str | None = None,
        context: str | None = None,
        paths: int = 0,
        limit: int = DEFAULT_LIMIT,
    ) -> ResultSet:
        """Run one query; returns a lazy :class:`ResultSet`.

        ``document`` names the catalog document (served databases only).
        ``paths``/``limit`` only matter served, where the response must
        carry its decoded paths across the service boundary; embedded
        result sets materialise lazily and ignore them.
        """
        prepared = self.prepare(query)
        if self._service is not None:
            if context is not None:
                raise ReproError("served databases do not support context sets")
            payload = self._service.query(
                self._document_name(document), prepared.text, paths=paths, limit=limit
            )
            return ResultSet.from_payload(payload)
        if document is not None:
            raise ReproError("embedded databases take no document name")
        if self._engine is not None:
            result = self._engine.query(prepared.text, context=context)
            return ResultSet.from_result(result, self._fragment_loader(prepared))
        from repro.engine.evaluator import CompressedEvaluator

        evaluator = CompressedEvaluator(self._instance, context=context)
        return ResultSet.from_result(evaluator.evaluate(prepared.expr))

    def execute_batch(
        self,
        queries: Sequence[str | PreparedQuery],
        document: str | None = None,
        context: str | None = None,
        paths: int = 0,
        limit: int = DEFAULT_LIMIT,
    ) -> ResultSetBatch:
        """Run a whole query mix (embedded: one load, one shared working copy).

        Embedded batches go through the batch evaluator — union-schema
        load, cross-query common-subexpression sharing, durable per-query
        snapshots; a served batch issues the queries through the service,
        where concurrent callers coalesce instead.
        """
        prepared = [self.prepare(query) for query in queries]
        if not prepared:
            return ResultSetBatch([])
        if self._service is not None:
            if context is not None:
                raise ReproError("served databases do not support context sets")
            name = self._document_name(document)
            # Submit concurrently: same-shard queries coalesce into shared
            # micro-batches inside the service (a sequential loop would
            # never give it concurrent callers to coalesce), and under a
            # worker fleet different shards evaluate in parallel.
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=min(len(prepared), 16)) as executor:
                payloads = list(
                    executor.map(
                        lambda one: self._service.query(
                            name, one.text, paths=paths, limit=limit
                        ),
                        prepared,
                    )
                )
            results = [ResultSet.from_payload(payload) for payload in payloads]
            return ResultSetBatch(results, seconds=sum(r.seconds for r in results))
        if document is not None:
            raise ReproError("embedded databases take no document name")
        if self._engine is not None:
            batch = self._engine.query_batch([one.text for one in prepared], context=context)
            loaders = [self._fragment_loader(one) for one in prepared]
        else:
            from repro.engine.batch import BatchEvaluator

            evaluator = BatchEvaluator(self._instance, context=context)
            batch = evaluator.evaluate_batch([one.expr for one in prepared])
            loaders = [None] * len(prepared)
        results = [
            ResultSet.from_result(result, loader)
            for result, loader in zip(batch.results, loaders)
        ]
        return ResultSetBatch(results, seconds=batch.seconds, stats=batch.stats)

    def _document_name(self, document: str | None) -> str:
        if document is not None:
            return document
        names = self.documents()
        if len(names) == 1:
            return names[0]
        raise ReproError(
            "a served database with several documents needs document=<name>; "
            f"registered: {', '.join(names) or '(none)'}"
        )

    # -- plans -----------------------------------------------------------

    def explain(
        self,
        query: str | PreparedQuery,
        document: str | None = None,
        analyze: bool = False,
    ) -> Plan:
        """The structured :class:`Plan`, with instance-provenance attached.

        A fresh plan is built per call (provenance is point-in-time: the
        engine's schema-cache state and a served document's pool residency
        change as queries run).

        When the backend optimizes (served databases by default, embedded
        engines with instance caching), the plan is the *optimized* tree
        with per-node ``est_cardinality`` and rule tags, plus the
        ``optimizer`` block of the explain contract
        (:mod:`repro.api.plan`).  ``analyze=True`` additionally executes
        the plan — on a private working copy, never mutating backend
        state — and attaches measured ``actual`` counts per node, the
        estimated-vs-actual view.
        """
        prepared = self.prepare(query)
        optimization = None
        actuals: dict[int, dict] | None = None
        if self._service is not None:
            name = self._document_name(document)
            instance = self._service.instance_info(name, prepared.strings)
            optimization = self._service.optimized_entry(name, prepared.text)
            if analyze:
                actuals = self._service.measure_plan(name, prepared.text)
        elif self._engine is not None:
            instance = {
                "source": "engine",
                "cached": self._engine.instance_cached(prepared.text),
                "reparse_per_query": self._engine.reparse_per_query,
            }
            optimization = self._engine.optimized_entry(prepared.text)
            if analyze:
                from repro.engine.evaluator import measure_actuals

                expr = optimization.expr if optimization is not None else prepared.expr
                actuals = measure_actuals(self._engine.instance_for(prepared.text), expr)
        else:
            instance = {"source": "instance", "cached": True}
            if analyze:
                from repro.engine.evaluator import measure_actuals

                actuals = measure_actuals(self._instance, prepared.expr)
        plan = Plan.from_compiled(
            prepared.text,
            prepared.expr,
            prepared.tags,
            prepared.strings,
            optimization=optimization,
            actuals=actuals,
        )
        plan.instance = instance
        return plan

    # -- document materialisation (fragment tier + round trips) ----------

    def _fragment_loader(self, prepared: PreparedQuery):
        """A lazy document-DOM loader matching the query's attributes mode."""
        if self._engine is None:
            return None
        mode = _attributes_mode(prepared.tags)
        return lambda: self._document_root(mode)

    def _document_root(self, mode: str = "ignore") -> Element:
        """The reassembled document DOM (built once per attributes mode)."""
        root = self._dom_cache.get(mode)
        if root is None:
            from repro.skeleton.loader import load
            from repro.skeleton.reassemble import reassemble_element

            loaded = load(
                self.engine.text, tags=None, collect_containers=True, attributes=mode
            )
            root = reassemble_element(loaded.instance, loaded.containers, loaded.layout)
            self._dom_cache[mode] = root
        return root

    def compression_stats(self, tags: Iterable[str] | None = None):
        """Compression statistics of a fresh load (embedded-text only).

        ``tags=None`` loads every tag as a node set (Figure 6's "+" rows),
        ``tags=()`` bare structure (the "-" rows), a list exactly those
        tags — the same modes the skeleton loader takes.  Returns
        :class:`repro.compress.stats.InstanceStats`.
        """
        from repro.compress.stats import instance_stats
        from repro.skeleton.loader import load

        return instance_stats(load(self.engine.text, tags=tags).instance)

    def to_xml(self, attributes: str = "ignore", declaration: bool = True) -> str:
        """The canonical reassembled document text (embedded-text only).

        Lossless for character data and structure; with
        ``attributes="nodes"`` attribute values survive the round trip
        too.  Comments, processing instructions and the DOCTYPE are not
        part of the skeleton model and are not restored.
        """
        from repro.xmlio.writer import serialize

        return serialize(self._document_root(attributes), declaration=declaration)

    def __repr__(self) -> str:
        if self._service is not None:
            return f"Database(served, documents={len(self.documents())})"
        backend = "engine" if self._engine is not None else "instance"
        return f"Database(embedded/{backend})"


def open_database(source: str | os.PathLike, reparse_per_query: bool = False) -> Database:
    """Open ``source`` as a :class:`Database`, picking the backend.

    * XML text (anything containing ``<``) — embedded over the text;
    * a path to an XML file — embedded over its contents;
    * a path to a saved instance (an RSKL image, any file name) — embedded
      over the instance;
    * a catalog directory (holds ``catalog.json``) — served.

    This is the ``repro.open`` entry point.
    """
    if not isinstance(source, str) or "<" not in source:
        path = os.fspath(source)
        if os.path.isdir(path):
            if not os.path.exists(os.path.join(path, "catalog.json")):
                raise ReproError(
                    f"{path!r} is a directory but not a repro catalog "
                    "(no catalog.json); use Database.from_catalog to create one"
                )
            return Database.from_catalog(path)
        return Database.from_file(path, reparse_per_query=reparse_per_query)
    return Database.from_text(source, reparse_per_query=reparse_per_query)
