"""Result sets: lazy streaming cursors over query selections.

A :class:`ResultSet` materialises a selection on demand, in three tiers of
increasing cost — exactly the decode ladder of the paper's Figure 7:

1. **DAG vertices** (:meth:`ResultSet.vertices`, :meth:`dag_count`) — the
   selected vertices of the compressed instance, free;
2. **tree paths** (:meth:`iter_paths`, :meth:`tree_count`) — the edge
   paths of the tree nodes the selection stands for, streamed lazily in
   document order (a selection-guided walk: consuming a prefix of k paths
   costs O(|DAG| + k * depth * fan-out), wherever the matches lie);
3. **XML fragments** (:meth:`iter_fragments`) — the actual subtree text
   of each match, reassembled from the skeleton/containers decomposition
   (:mod:`repro.skeleton.reassemble`) and serialised by
   :mod:`repro.xmlio.writer`.

One canonical JSON encoding (:meth:`to_json`, shared with the HTTP wire
format and the cluster worker protocol through
:mod:`repro.api.envelope`) covers both backends: an *embedded* result set
wraps a live :class:`repro.engine.results.QueryResult`, a *served* one
wraps the decoded payload a query service returned — the counts and any
requested paths, which is all that crosses the wire.
"""

from __future__ import annotations

from itertools import islice
from typing import Callable, Iterator

from repro.api.envelope import DEFAULT_LIMIT, decode_path, encode_result
from repro.engine.results import BatchStats, QueryResult
from repro.errors import ReproError
from repro.xmlio.dom import Element
from repro.xmlio.writer import serialize


def fragment_at(root: Element, path: tuple[int, ...]) -> str:
    """The XML fragment of the tree node at ``path`` under ``root``.

    ``path`` is a 1-based edge path from the virtual document root, so
    ``()`` names the document itself and ``(1,)`` the root element.
    Skeleton child slots are attributes first (when the instance was
    loaded with ``attributes="nodes"``), then element children — the same
    order the loader emitted them; an attribute node's "fragment" is its
    value text.
    """
    if not path:
        return serialize(root, declaration=False)
    if path[0] != 1:
        raise ReproError(f"edge path {path!r} does not start at the root element")
    element = root
    for depth, position in enumerate(path[1:], start=1):
        attributes = list(element.attributes.items())
        index = position - 1
        if index < len(attributes):
            if depth != len(path) - 1:
                raise ReproError(f"edge path {path!r} descends through an attribute")
            return attributes[index][1]
        element_children = [
            child for child in element.children if isinstance(child, Element)
        ]
        try:
            element = element_children[index - len(attributes)]
        except IndexError:
            raise ReproError(
                f"edge path {path!r} leaves the document at depth {depth}"
            ) from None
    return serialize(element, declaration=False)


class ResultSet:
    """A lazy cursor over one query's selection (see module doc).

    Construct via :meth:`repro.api.Database.execute` — the database wires
    in the document source fragments are reassembled from.  Never holds
    more than the requested prefix of a materialisation in memory.
    """

    def __init__(
        self,
        result: QueryResult | None = None,
        payload: dict | None = None,
        document_loader: Callable[[], Element] | None = None,
    ):
        if (result is None) == (payload is None):
            raise ReproError("a ResultSet wraps either a QueryResult or a payload")
        self._result = result
        self._payload = payload
        self._document_loader = document_loader

    # -- construction (used by Database) ---------------------------------

    @classmethod
    def from_result(
        cls, result: QueryResult, document_loader: Callable[[], Element] | None = None
    ) -> "ResultSet":
        """An embedded result set over a live evaluation result."""
        return cls(result=result, document_loader=document_loader)

    @classmethod
    def from_payload(cls, payload: dict) -> "ResultSet":
        """A served result set over a decoded service response."""
        return cls(payload=payload)

    # -- identity --------------------------------------------------------

    @property
    def served(self) -> bool:
        """True when this result crossed a service boundary (payload-backed)."""
        return self._payload is not None

    @property
    def result(self) -> QueryResult:
        """The underlying engine result (embedded result sets only)."""
        if self._result is None:
            raise ReproError("a served ResultSet has no live engine result")
        return self._result

    @property
    def info(self) -> dict:
        """Service metadata (document, batching, pool hit); ``{}`` embedded."""
        if self._payload is None:
            return {}
        return {
            key: value
            for key, value in self._payload.items()
            if key not in ("dag_count", "tree_count", "paths")
        }

    # -- tier 1: DAG vertices (free) -------------------------------------

    def vertices(self) -> set[int]:
        """The selected DAG vertices (embedded only; a fresh, mutable set)."""
        return self.result.vertices()

    def dag_count(self) -> int:
        """Selected DAG vertices: served, counted on the pooled master (what
        :meth:`to_json` reports on either backend); embedded, Figure 7 column (7)."""
        if self._payload is not None:
            return self._payload["dag_count"]
        return self._result.dag_count()

    def tree_count(self) -> int:
        """Figure 7 column (8): #tree nodes the selection represents."""
        if self._payload is not None:
            return self._payload["tree_count"]
        return self._result.tree_count()

    def is_empty(self) -> bool:
        return self.dag_count() == 0

    # -- tier 2: tree paths (streamed) -----------------------------------

    def iter_paths(self, limit: int = DEFAULT_LIMIT) -> Iterator[tuple[int, ...]]:
        """Edge paths of the selected tree nodes, lazily, in document order.

        ``limit`` guards the tree nodes the decode walk visits
        (:class:`~repro.errors.DecompressionLimitError` beyond it): only
        subtrees holding a match, a subset of a full document-order walk to
        the same paths, however large the tree.  A served result set
        yields the paths its response carried — ask for them at execute
        time via ``paths=N``.
        """
        if self._payload is not None:
            if "paths" not in self._payload:
                raise ReproError(
                    "this served result carries no paths; re-run the query "
                    "with paths=N to request them"
                )
            return (decode_path(text) for text in self._payload["paths"])
        return (path for path, _ in self._result.iter_tree_matches(limit=limit))

    def paths(
        self, max_paths: int | None = None, limit: int = DEFAULT_LIMIT
    ) -> list[tuple[int, ...]]:
        """Eager prefix of :meth:`iter_paths` (all matches when unbounded)."""
        return list(islice(self.iter_paths(limit=limit), max_paths))

    # -- tier 3: XML fragments (reassembled) -----------------------------

    def iter_fragments(self, limit: int = DEFAULT_LIMIT) -> Iterator[str]:
        """The XML text of each matched subtree, lazily, in document order.

        The first fragment pays the one-time cost of reassembling the
        document DOM from the skeleton/containers decomposition (cached on
        the owning database); each subsequent fragment is one subtree
        serialisation.  Only available on embedded result sets whose
        database holds the document text.
        """
        if self._document_loader is None:
            raise ReproError(
                "XML fragments need a text-backed embedded database "
                "(served results and saved instances carry no character data)"
            )
        root = self._document_loader()
        return (fragment_at(root, path) for path in self.iter_paths(limit=limit))

    def fragments(
        self, max_fragments: int | None = None, limit: int = DEFAULT_LIMIT
    ) -> list[str]:
        """Eager prefix of :meth:`iter_fragments`."""
        return list(islice(self.iter_fragments(limit=limit), max_fragments))

    # -- evaluation metadata ---------------------------------------------

    @property
    def seconds(self) -> float:
        """Wall-clock seconds the evaluation took."""
        if self._payload is not None:
            return float(self._payload.get("seconds", 0.0))
        return self._result.seconds

    @property
    def before(self) -> tuple[int, int] | None:
        """Instance size before evaluation (embedded only)."""
        return None if self._result is None else self._result.before

    @property
    def after(self) -> tuple[int, int] | None:
        """Instance size after evaluation (embedded only)."""
        return None if self._result is None else self._result.after

    def summary(self) -> str:
        if self._result is not None:
            return self._result.summary()
        return (
            f"query time {self.seconds * 1000:8.2f} ms | "
            f"selected {self.dag_count()} dag / {self.tree_count()} tree nodes"
        )

    # -- the canonical wire shape ----------------------------------------

    def to_json(self, paths: int = 0, limit: int = DEFAULT_LIMIT) -> dict:
        """The canonical ``{"dag_count", "tree_count", "paths"?}`` payload.

        Byte-identical to what the HTTP server and cluster workers return
        for the same selection (both encode through
        :func:`repro.api.envelope.encode_result`).
        """
        if self._result is not None:
            return encode_result(self._result, paths=paths, limit=limit)
        payload = {
            "dag_count": self._payload["dag_count"],
            "tree_count": self._payload["tree_count"],
        }
        if paths:
            carried = self._payload.get("paths")
            if carried is None:
                raise ReproError(
                    "this served result carries no paths; re-run the query "
                    "with paths=N to request them"
                )
            payload["paths"] = carried[:paths]
        return payload

    def __repr__(self) -> str:
        backend = "served" if self.served else "embedded"
        return (
            f"ResultSet({backend}, dag={self.dag_count()}, tree={self.tree_count()})"
        )


class ResultSetBatch:
    """The result sets of one batch execution (shared-instance evaluation).

    Iterable and indexable like a list; ``stats`` carries the batch
    engine's shared-work accounting when the batch ran embedded (one
    working copy, cross-query subexpression reuse) and is ``None`` for a
    served batch, where coalescing happens inside the service instead.
    """

    def __init__(
        self,
        results: list[ResultSet],
        seconds: float = 0.0,
        stats: BatchStats | None = None,
    ):
        self.results = results
        self.seconds = seconds
        self.stats = stats

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[ResultSet]:
        return iter(self.results)

    def __getitem__(self, index: int) -> ResultSet:
        return self.results[index]

    def summary(self) -> str:
        lines = [f"batch of {len(self.results)} queries in {self.seconds * 1000:.2f} ms"]
        if self.stats is not None:
            lines[0] += (
                f" | algebra nodes {self.stats.nodes_evaluated} evaluated / "
                f"{self.stats.nodes_reused} reused "
                f"({100 * self.stats.sharing_ratio:.0f}% shared)"
            )
        for index, result in enumerate(self.results):
            lines.append(f"  [{index}] {result.summary()}")
        return "\n".join(lines)
