"""The canonical wire encodings every serving surface shares.

Two shapes cross process and network boundaries, and both are defined
here — once:

* **Result payloads** — :func:`encode_result` turns a decoded selection
  into the canonical ``{"dag_count", "tree_count", "paths"?}`` JSON
  object.  ``repro.server.service.decode_result`` (the HTTP wire format
  and the cluster worker protocol) and :meth:`repro.api.ResultSet.to_json`
  all delegate here, so "server response == direct evaluation" stays a
  byte comparison of canonical JSON.  The served ``dag_count`` is the
  number of vertices of the document's instance *as loaded* (the pooled
  master) that hold at least one selected tree node — like ``tree_count``
  and the paths a function of the selected tree nodes and the document,
  never of which vertices this or an earlier evaluation split.
* **Error envelopes** — :func:`error_envelope` produces the uniform
  ``{"error": {"kind", "message", "detail"}}`` body every HTTP route
  returns, and :data:`ERROR_KINDS` names the error families the worker
  wire protocol round-trips (:func:`error_kind` / :func:`rebuild_error`),
  so a fleet worker's failure carries the same ``kind`` string a
  single-process server would have produced.
"""

from __future__ import annotations

from itertools import islice

# Distinct from builtins.TimeoutError before 3.11, an alias after.
from concurrent.futures import TimeoutError as FuturesTimeoutError

from repro.errors import (
    CatalogError,
    ClusterError,
    DeadlineExceededError,
    IntegrityError,
    MutationError,
    OverloadedError,
    QuarantinedError,
    ReproError,
    WorkerUnavailableError,
    XPathCompileError,
    XPathSyntaxError,
)

#: Guard on tree nodes visited when decoding result paths (the CLI's default).
DEFAULT_LIMIT = 1_000_000

#: Server-side cap on how many result paths one response may carry.
MAX_PATHS = 10_000

#: Error-family names crossing process/network boundaries, mapped to the
#: exception type the receiving side re-raises.  Exceptions themselves are
#: never pickled — custom ones may not round-trip, and a malformed one
#: could take down a fleet response pump.  Insertion order is
#: most-specific-first (``worker-unavailable`` before its parent
#: ``cluster``, every family before the catch-all ``engine``), so the two
#: directions of the mapping cannot drift apart.
ERROR_KINDS = {
    "quarantined": QuarantinedError,
    "integrity": IntegrityError,
    "catalog": CatalogError,
    "mutation": MutationError,
    "xpath-syntax": XPathSyntaxError,
    "xpath-compile": XPathCompileError,
    "deadline_exceeded": DeadlineExceededError,
    "overloaded": OverloadedError,
    "timeout": FuturesTimeoutError,
    "worker-unavailable": WorkerUnavailableError,
    "cluster": ClusterError,
    "engine": ReproError,
}

#: HTTP-only kinds (request-shape problems that never cross the worker
#: wire): used by the routes for envelopes with no underlying exception.
REQUEST_KINDS = ("bad-request", "not-found", "payload-too-large", "internal")


def error_kind(error: BaseException) -> str:
    """The wire name of ``error``'s family (see :data:`ERROR_KINDS`)."""
    for kind, exception_type in ERROR_KINDS.items():
        if isinstance(error, exception_type):
            return kind
    return "engine"


def rebuild_error(kind: str, message: str) -> Exception:
    """The receiving-side inverse of :func:`error_kind`."""
    return ERROR_KINDS.get(kind, ReproError)(message)


def error_detail(error: BaseException) -> dict | None:
    """Machine-readable location info some error families carry."""
    detail: dict = {}
    for attribute in ("position", "offset", "line", "column"):
        value = getattr(error, attribute, None)
        if isinstance(value, int) and value >= 0:
            detail[attribute] = value
    retry_after = getattr(error, "retry_after", None)
    if isinstance(retry_after, (int, float)) and retry_after >= 0:
        detail["retry_after"] = retry_after
    return detail or None


def error_envelope(
    error: BaseException | None = None,
    *,
    kind: str | None = None,
    message: str | None = None,
    detail: dict | None = None,
) -> dict:
    """The uniform JSON error body: ``{"error": {kind, message, detail}}``.

    Built either from an exception (``kind`` derived via
    :func:`error_kind`, location detail extracted when the error carries
    one) or from explicit parts for request-shape errors that have no
    exception behind them.
    """
    if error is not None:
        kind = kind or error_kind(error)
        message = message if message is not None else str(error)
        detail = detail if detail is not None else error_detail(error)
    return {
        "error": {
            "kind": kind or "internal",
            "message": message or "",
            "detail": detail,
        }
    }


def encode_path(path: tuple[int, ...]) -> str:
    """One edge path in the canonical dotted form (``"(root)"`` for ())."""
    return ".".join(map(str, path)) or "(root)"


def decode_path(text: str) -> tuple[int, ...]:
    """Inverse of :func:`encode_path` (used by served result cursors)."""
    if text == "(root)":
        return ()
    return tuple(int(part) for part in text.split("."))


def encode_result(result, paths: int = 0, limit: int = DEFAULT_LIMIT) -> dict:
    """Encode a :class:`repro.engine.results.QueryResult` selection.

    This is THE canonical response payload — the benchmarks build their
    expected payloads through the same function the server uses, so
    correctness gates are byte comparisons of canonical JSON.

    ``paths``: the first N paths in document order (at most
    :data:`MAX_PATHS`).  ``limit``: guard on the tree nodes the decode walk
    visits — only subtrees holding a match, a subset of a full document-order
    walk to the same paths.  The count sums the instance's cached path
    counts over ``S``'s members; the paths add one upward pass for the
    strict ancestors of ``S`` (whole-array per level on the vector tier,
    the postorder on the scalar tier) and N * depth * fan-out steps of the
    walk (:mod:`repro.model.paths`) — never O(|tree|).
    """
    payload: dict = {
        "dag_count": result.instance.count_origins(result.set_name),
        "tree_count": result.tree_count(),
    }
    if paths:
        payload["paths"] = [
            encode_path(path)
            for path, _ in islice(
                result.iter_tree_matches(limit=limit), min(paths, MAX_PATHS)
            )
        ]
    return payload
