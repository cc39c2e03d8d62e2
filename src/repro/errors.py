"""Exception hierarchy for the repro library.

All errors raised by this library derive from :class:`ReproError`, so callers
can catch one type at an API boundary.  Subsystems raise the most specific
subclass available.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class InstanceError(ReproError):
    """An instance violates a structural invariant (cycle, missing root, ...)."""


class SchemaError(ReproError):
    """A schema (set of unary relation names) is used inconsistently."""


class IncompatibleInstancesError(ReproError):
    """Two instances disagree on their shared reduct (section 2.3)."""


class DecompressionLimitError(ReproError):
    """Materialising the tree version of an instance would exceed a limit."""


class XMLSyntaxError(ReproError):
    """The XML substrate found malformed input.

    Carries the byte/character offset and (line, column) of the offending
    position when available.
    """

    def __init__(self, message: str, offset: int = -1, line: int = -1, column: int = -1):
        location = ""
        if line >= 1:
            location = f" at line {line}, column {column}"
        elif offset >= 0:
            location = f" at offset {offset}"
        super().__init__(message + location)
        self.offset = offset
        self.line = line
        self.column = column


class XPathSyntaxError(ReproError):
    """The Core XPath parser rejected a query string."""

    def __init__(self, message: str, position: int = -1):
        location = f" at position {position}" if position >= 0 else ""
        super().__init__(message + location)
        self.position = position


class XPathCompileError(ReproError):
    """A parsed query cannot be compiled to the node-set algebra."""


class EvaluationError(ReproError):
    """The engine was asked to evaluate an ill-formed algebra expression."""


class CorpusError(ReproError):
    """A corpus generator was configured with invalid parameters."""


class CatalogError(ReproError):
    """A document catalog operation failed (unknown document, bad name, ...)."""


class IntegrityError(CatalogError):
    """Stored data failed its integrity check (checksum mismatch, torn write).

    Raised when a stored image's bytes no longer hash to the digest recorded
    when it was written — or the image is missing altogether.  The catalog
    reacts by *quarantining* the document (queries then fail fast with
    :class:`QuarantinedError`) rather than silently serving wrong answers
    from corrupt bytes.
    """


class QuarantinedError(CatalogError):
    """The document is quarantined: its stored image cannot be served.

    The registry entry still exists (metadata was readable) but the image
    failed an integrity check or was published in an older on-disk layout,
    so serving is refused until the document is reloaded —
    ``repro catalog verify --repair`` or
    :meth:`repro.server.catalog.Catalog.reload` re-shreds it from the kept
    original text.  Mapped to HTTP 503: transient, operator action restores
    service, never a wrong answer.
    """


class MutationError(ReproError):
    """A document mutation request is invalid or cannot be applied.

    Raised for malformed mutation specs (unknown op, negative path steps, a
    missing or superfluous XML fragment), paths that address no element in
    the target document, and ops that would break the document shape
    (deleting the root element).  Mapped to HTTP 400: the request — not the
    catalog — is at fault, and nothing was changed.
    """


class DeadlineExceededError(ReproError):
    """The request's end-to-end deadline expired before a result was ready.

    Carried from the HTTP header / CLI flag through coalescing into batch
    evaluation and across the worker wire; wherever the budget runs out, the
    caller gets this error (HTTP 504) instead of a stale result or a request
    silently occupying a batch slot nobody is waiting on.
    """


class OverloadedError(ReproError):
    """The service shed this request at admission (queue full or rate limit).

    Mapped to HTTP 429 with a ``Retry-After`` header; ``retry_after`` is the
    suggested backoff in seconds.  Shedding at the door keeps the latency of
    *accepted* requests bounded instead of letting every request queue into
    collapse.
    """

    def __init__(self, message: str, retry_after: float = 1.0):
        super().__init__(message)
        self.retry_after = retry_after


class ClusterError(ReproError):
    """A worker-fleet operation failed (spawn, dispatch, shutdown, ...)."""


class WorkerUnavailableError(ClusterError):
    """The shard's worker died with the request in flight.

    The request was routed to a worker process that crashed (or was killed)
    before producing a response.  The dispatcher respawns the worker, so the
    condition is transient — the HTTP layer maps this to 503 so clients know
    to retry, never to a wrong answer or a hang.
    """
