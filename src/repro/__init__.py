"""repro: Path Queries on Compressed XML (Buneman, Grohe, Koch; VLDB 2003).

A complete reproduction of the paper's system: XML skeletons compressed into
DAGs by subtree sharing (bisimulation) with multiplicity edges, queried
directly with a Core XPath algebra under partial decompression.

Quick start — the :mod:`repro.api` façade::

    import repro

    with repro.open(xml_text) as db:            # or a file path / catalog dir
        result = db.execute("//book/author")    # a lazy ResultSet
        print(result.dag_count(), result.tree_count())
        for path in result.paths(5):            # tree paths, streamed
            print(path)
        for fragment in result.fragments(3):    # actual XML, reassembled
            print(fragment)
        print(db.explain("//book/author").to_json(indent=2))

The same ``Database`` object fronts a served catalog
(``repro.api.Database.from_catalog(dir)``), prepared queries compile once
and run anywhere (``db.prepare`` / ``repro.api.PreparedQuery``), and every
surface — CLI, HTTP server, cluster workers — speaks the same canonical
JSON result encoding.

See README.md for the architecture overview and examples/ for runnable
scenarios.
"""

from repro.model import Instance, equivalent, tree_instance
from repro.compress import DagBuilder, common_extension, decompress, instance_stats, minimize


def _version() -> str:
    """Single-source the version from package metadata (pyproject.toml)."""
    from importlib import metadata

    try:
        return metadata.version("repro")
    except metadata.PackageNotFoundError:  # running from a source checkout
        return "2.0.0+src"


__version__ = _version()

#: Façade names importable from the top level, resolved lazily so that
#: ``import repro`` stays cheap for model-only users.
_API_EXPORTS = ("Database", "Plan", "PreparedQuery", "ResultSet", "open")

__all__ = [
    "DagBuilder",
    "Database",
    "Instance",
    "Plan",
    "PreparedQuery",
    "ResultSet",
    "api",
    "common_extension",
    "decompress",
    "equivalent",
    "instance_stats",
    "minimize",
    "open",
    "tree_instance",
    "__version__",
]


def __getattr__(name: str):
    # Heavy subsystems (engine, xpath, skeleton, server) are imported
    # lazily, on first attribute access.
    if name in _API_EXPORTS or name == "api":
        # import_module, not ``from repro import api``: the from-import
        # form resolves the attribute through this very __getattr__ while
        # the submodule is still loading, recursing forever.
        from importlib import import_module

        api = import_module("repro.api")
        return api if name == "api" else getattr(api, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")


def __dir__() -> list:
    # Lazily-exported names must be discoverable: dir(repro) lists the
    # façade alongside the eager exports.
    return sorted(set(globals()) | set(__all__))
