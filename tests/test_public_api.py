"""Public-API snapshot: the committed export surface of every public module.

An accidental rename, a dropped re-export, or a new symbol leaking out of
a package ``__init__`` is an API break for downstream users — this test
pins the exact surface so any change to it must be deliberate (update the
snapshot in the same commit, with the reasoning in the message).  The
same goes for command-line knobs: the option strings of ``repro query``
and ``repro serve`` are pinned, so a new flag is a reviewed decision.
"""

import argparse
import importlib

import pytest

#: module -> exact expected ``__all__``.  Keep sorted.
SNAPSHOT = {
    "repro": [
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
    ],
    "repro.api": [
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
    ],
    "repro.engine": [
        "BatchResult",
        "BatchStats",
        "CompressedEvaluator",
        "Engine",
        "QueryResult",
        "TreeEvaluator",
        "TreeIndex",
        "TreeResult",
        "apply_axis",
        "downward_axis_inplace",
        "evaluate",
        "evaluate_on_tree",
        "load_for_queries",
        "load_for_query",
        "load_instance",
        "query",
        "query_batch",
        "tree_axis",
    ],
    "repro.server": [
        "AdmissionController",
        "AsyncReproHTTPServer",
        "Catalog",
        "CatalogEntry",
        "CircuitBreaker",
        "Deadline",
        "FAULTS",
        "FaultInjector",
        "InstancePool",
        "MetricsRegistry",
        "PoolEntry",
        "QueryService",
        "Request",
        "Response",
        "Router",
        "ServerMetrics",
        "TokenBucket",
        "WorkerFleet",
        "create_server",
        "decode_result",
        "parse_prometheus_text",
        "serve",
        "wait_ready",
    ],
}

#: subcommand -> exact option strings (positionals excluded).  Keep sorted.
#: Every option is a configuration to test and benchmark: add one only
#: when two real callers need different values.
CLI_OPTIONS = {
    "query": ["--explain-json", "--help", "--limit", "--paths", "--workload", "-h"],
    "serve": [
        "--catalog",
        "--deadline-ms",
        "--help",
        "--host",
        "--max-queue",
        "--pool-size",
        "--port",
        "--rate-limit",
        "--verbose",
        "--worker-threads",
        "--workers",
        "-C",
        "-h",
    ],
}

#: The exact wire/envelope kind table (most-specific-first order matters
#: for subclass lookups, but the *set* of kinds is public contract).
EXPECTED_ERROR_KINDS = [
    "catalog",
    "cluster",
    "deadline_exceeded",
    "engine",
    "integrity",
    "mutation",
    "overloaded",
    "quarantined",
    "timeout",
    "worker-unavailable",
    "xpath-compile",
    "xpath-syntax",
]

#: Public (non-underscore) names that must exist on modules without
#: ``__all__`` discipline — the error hierarchy callers catch by name.
ERROR_SURFACE = [
    "CatalogError",
    "ClusterError",
    "CorpusError",
    "DeadlineExceededError",
    "DecompressionLimitError",
    "EvaluationError",
    "IncompatibleInstancesError",
    "InstanceError",
    "IntegrityError",
    "MutationError",
    "OverloadedError",
    "QuarantinedError",
    "ReproError",
    "SchemaError",
    "WorkerUnavailableError",
    "XMLSyntaxError",
    "XPathCompileError",
    "XPathSyntaxError",
]


@pytest.mark.parametrize("module_name", sorted(SNAPSHOT))
def test_all_matches_snapshot(module_name):
    module = importlib.import_module(module_name)
    assert sorted(module.__all__) == sorted(SNAPSHOT[module_name]), (
        f"{module_name}.__all__ changed; if deliberate, update "
        "tests/test_public_api.py in the same commit"
    )


@pytest.mark.parametrize("module_name", sorted(SNAPSHOT))
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    for name in SNAPSHOT[module_name]:
        assert getattr(module, name, None) is not None, f"{module_name}.{name}"


@pytest.mark.parametrize("command", sorted(CLI_OPTIONS))
def test_cli_options_match_snapshot(command):
    from repro.cli import build_parser

    subcommands = next(
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    options = sorted(
        option
        for action in subcommands.choices[command]._actions
        for option in action.option_strings
    )
    assert options == CLI_OPTIONS[command], (
        f"`repro {command}` options changed; if deliberate, update "
        "tests/test_public_api.py in the same commit"
    )


def test_top_level_dir_covers_all():
    import repro

    assert set(repro.__all__) <= set(dir(repro))


def test_error_hierarchy_is_stable():
    errors = importlib.import_module("repro.errors")
    exported = sorted(
        name
        for name in vars(errors)
        if not name.startswith("_")
        and isinstance(getattr(errors, name), type)
        and issubclass(getattr(errors, name), Exception)
    )
    assert exported == ERROR_SURFACE


def test_error_kinds_cover_the_wire_protocol():
    # The HTTP envelope and the worker wire protocol share one kind table;
    # both directions must keep resolving.
    from repro.api import ERROR_KINDS, error_kind, rebuild_error

    for kind, exception_type in ERROR_KINDS.items():
        rebuilt = rebuild_error(kind, "message")
        assert isinstance(rebuilt, exception_type)
        assert error_kind(rebuilt) == kind


def test_error_kind_table_matches_snapshot():
    # Kind strings are wire protocol: clients branch on them (retry on
    # "overloaded", give up on "deadline_exceeded"). Renames are breaks.
    from repro.api import ERROR_KINDS

    assert sorted(ERROR_KINDS) == EXPECTED_ERROR_KINDS
