"""``repro.api`` — the stable public surface of the system.

Everything the paper's pipeline can do — one-scan loading, compressed
evaluation, partial decompression, batch sharing, served catalogs — is
reachable through four objects:

* :class:`Database` — one queryable document source (embedded text or
  instance, or a served catalog), with context-manager lifecycle;
* :class:`PreparedQuery` — a query parsed and compiled exactly once,
  runnable against any database;
* :class:`ResultSet` — a lazy streaming cursor over a selection, with
  three materialisation tiers (DAG vertices -> tree paths -> XML
  fragments) and the canonical JSON encoding shared with the wire;
* :class:`Plan` — the structured, JSON-able view of a compiled query.

Quick start::

    import repro

    with repro.open("catalog.xml") as db:
        result = db.execute("//book/author")
        print(result.dag_count(), result.tree_count())
        for fragment in result.fragments(3):
            print(fragment)

The pre-façade top-level entry points (``repro.load_instance`` /
``repro.query`` / ``repro.query_batch`` / ``repro.Engine``) were removed
in 2.0.0; the engine pipeline they wrapped is still importable from
:mod:`repro.engine.pipeline`.
"""

from repro.api.database import Database, open_database
from repro.api.envelope import (
    DEFAULT_LIMIT,
    ERROR_KINDS,
    MAX_PATHS,
    encode_path,
    encode_result,
    error_envelope,
    error_kind,
    rebuild_error,
)
from repro.api.plan import Plan, PlanNode
from repro.api.prepared import PreparedQuery
from repro.api.results import ResultSet, ResultSetBatch

#: ``repro.open`` — the front door (module-level alias of the builtin-free name).
open = open_database  # noqa: A001 - intentional: repro.api.open mirrors repro.open

__all__ = [
    "DEFAULT_LIMIT",
    "ERROR_KINDS",
    "MAX_PATHS",
    "Database",
    "Plan",
    "PlanNode",
    "PreparedQuery",
    "ResultSet",
    "ResultSetBatch",
    "encode_path",
    "encode_result",
    "error_envelope",
    "error_kind",
    "open",
    "open_database",
    "rebuild_error",
]
