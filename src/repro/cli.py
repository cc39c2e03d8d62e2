"""Command-line interface: generate corpora, compress documents, run queries.

Installed as the ``repro`` console script::

    repro corpora                         # list available corpus generators
    repro gen dblp --scale 500 -o d.xml   # generate synthetic XML
    repro compress d.xml                  # compression statistics
    repro compress d.xml --tags none      # ... structure only (Figure 6 "-")
    repro compress d.xml --save d.rskl    # ... and keep the instance (RSKL image)
    repro query d.xml '//article[author["Codd"]]'
    repro query d.xml '//article' '//inproceedings' --workload mix.txt
    repro query d.xml '//article' --explain-json   # structured plan, no eval
    repro explain '//a/b[c or not(following::*)]'
    repro explain --json '//a/b'                   # the same plan as JSON
    repro explain --file d.xml --analyze '//a/b'   # optimized plan, est vs actual
    repro catalog add dblp d.xml          # shred once into the catalog
    repro catalog update dblp --op append_child --path . --fragment new.xml
    repro serve --port 8080               # concurrent query service, in process
    repro serve --workers 4               # ... sharded over 4 worker processes

Multiple XPaths (positional and/or one per line of a ``--workload`` file)
are evaluated as one batch: a single load over the union of the queries'
schemas, one shared working instance, and cross-query reuse of identical
algebra subtrees.

Exit codes are uniform across subcommands: ``0`` success, ``2`` for
anything wrong with the *invocation or its inputs* (missing files,
malformed queries, unknown corpora or catalog documents, a damaged saved
instance — argparse uses 2 for usage errors too), ``1`` for runtime
failures inside the engine, malformed XML (bytes that are not UTF-8
included) among them.  Every error goes to stderr as one ``error: ...`` line.
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import (
    CatalogError,
    CorpusError,
    MutationError,
    ReproError,
    XPathCompileError,
    XPathSyntaxError,
)

#: Runtime failure inside the engine (evaluation blew a limit, ...).
EXIT_ERROR = 1
#: The invocation or its inputs were invalid (argparse's convention).
EXIT_USAGE = 2


def _cmd_corpora(args: argparse.Namespace) -> int:
    from repro.corpora import CORPORA

    for name, info in CORPORA.items():
        print(f"{name:12s} default scale {info.default_scale:>6}  {info.description}")
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    from repro.corpora import generate

    corpus = generate(args.corpus, args.scale, args.seed)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(corpus.xml)
        print(f"wrote {corpus.megabytes:.2f} MB to {args.output}", file=sys.stderr)
    else:
        sys.stdout.write(corpus.xml)
    return 0


def _read(path: str) -> str:
    from repro.xmlio.tokenizer import decode_text

    if path == "-":
        return decode_text(sys.stdin.buffer.read())
    with open(path, "rb") as handle:
        return decode_text(handle.read())


def _parse_tags(spec: str):
    if spec == "all":
        return None
    if spec == "none":
        return ()
    return [tag.strip() for tag in spec.split(",") if tag.strip()]


def _cmd_compress(args: argparse.Namespace) -> int:
    from repro.compress.stats import instance_stats
    from repro.skeleton.layout import write_skeleton
    from repro.skeleton.loader import load

    result = load(
        _read(args.file),
        tags=_parse_tags(args.tags),
        strings=args.string or (),
        attributes="nodes" if args.attributes else "ignore",
    )
    stats = instance_stats(result.instance)
    print(f"parse+compress time : {result.parse_seconds:.3f}s")
    print(f"skeleton nodes |V^T|: {stats.tree_vertices:,}")
    print(f"dag vertices  |V^M| : {stats.vertices:,}")
    print(f"dag edges     |E^M| : {stats.edge_entries:,}")
    print(f"ratio |E^M|/|E^T|   : {100 * stats.edge_ratio:.2f}%")
    if args.save:
        write_skeleton(args.save, result.instance)
        print(f"saved compressed instance to {args.save}", file=sys.stderr)
    if args.dot:
        print(result.instance.to_dot())
    return 0


def _read_workload(path: str) -> list[str]:
    """One XPath per line; blank lines and ``#`` comment lines are skipped."""
    queries = []
    for line in _read(path).splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            queries.append(line)
    return queries


def _print_result(result, paths: int, limit: int) -> None:
    from itertools import islice

    after_v, after_e = result.after
    print(f"query time          : {1000 * result.seconds:.2f}ms")
    print(f"instance            : {result.before[0]:,}v/{result.before[1]:,}e "
          f"-> {after_v:,}v/{after_e:,}e")
    print(f"selected dag nodes  : {result.dag_count():,}")
    print(f"selected tree nodes : {result.tree_count():,}")
    if paths:
        # islice over the lazy cursor: printing the first N matches does
        # bounded work even when the selection unfolds to millions of tree
        # nodes (the full materialise-then-slice of the old code blew up).
        for path in islice(result.iter_paths(limit=limit), paths):
            print("  " + (".".join(map(str, path)) or "(root)"))


def _cmd_query(args: argparse.Namespace) -> int:
    import json

    from repro.api import Database, PreparedQuery

    queries = list(args.xpath)
    if args.workload:
        queries.extend(_read_workload(args.workload))
    if not queries:
        print("error: no queries given (positional XPaths or --workload)", file=sys.stderr)
        return EXIT_USAGE

    # Each text is parsed and compiled exactly once, up front: malformed
    # queries fail before the (possibly huge) document is even read, and
    # the same PreparedQuery objects feed planning and execution.
    prepared = [PreparedQuery.compile(text) for text in queries]

    if args.explain_json:
        # Plans only — no document load, no evaluation (like SQL EXPLAIN).
        plans = [one.plan().to_dict() for one in prepared]
        print(json.dumps(plans[0] if len(plans) == 1 else plans, indent=2))
        return 0

    if args.file == "-":
        database = Database.from_text(_read("-"))
    else:
        database = Database.from_file(args.file)

    def parse_seconds() -> float:
        # Known only once the one-scan load ran; a saved instance parses nothing.
        load = database.last_load
        return load.parse_seconds if load is not None else 0.0

    with database as db:
        if len(prepared) == 1:
            result = db.execute(prepared[0])
            print(f"parse+compress time : {parse_seconds():.3f}s")
            _print_result(result, args.paths, args.limit)
            return 0

        # Batch: one scan over the union of all the queries' schemas, one
        # shared working copy, cross-query subexpression reuse.
        batch = db.execute_batch(prepared)
        stats = batch.stats
        print(f"parse+compress time : {parse_seconds():.3f}s")
        print(f"batch               : {len(queries)} queries in "
              f"{1000 * batch.seconds:.2f}ms")
        print(f"shared work         : {stats.nodes_reused:,} of {stats.nodes_total:,} "
              f"algebra nodes reused ({100 * stats.sharing_ratio:.0f}%)")
        for query_text, result in zip(queries, batch):
            print(f"--- {query_text}")
            _print_result(result, args.paths, args.limit)
        return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.server.http import serve

    if args.workers < 0:
        print("error: --workers must be >= 0", file=sys.stderr)
        return EXIT_USAGE
    if args.worker_threads < 1:
        print("error: --worker-threads must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    if args.deadline_ms < 0 or args.max_queue < 0 or args.rate_limit < 0:
        print(
            "error: --deadline-ms, --max-queue and --rate-limit must be >= 0",
            file=sys.stderr,
        )
        return EXIT_USAGE
    serve(
        args.catalog,
        host=args.host,
        port=args.port,
        pool_capacity=args.pool_size,
        quiet=not args.verbose,
        workers=args.workers,
        worker_threads=args.worker_threads,
        deadline_ms=args.deadline_ms,
        max_queue=args.max_queue,
        rate_limit=args.rate_limit,
    )
    return 0


def _cmd_catalog_add(args: argparse.Namespace) -> int:
    from repro.server.catalog import Catalog

    catalog = Catalog(args.catalog)
    entry = catalog.add(
        args.name,
        _read(args.file),
        attributes="nodes" if args.attributes else "ignore",
    )
    print(
        f"added {entry.name}: {entry.megabytes:.2f} MB, "
        f"{entry.skeleton_nodes:,} skeleton nodes -> {entry.dag_vertices:,} dag vertices, "
        f"skeleton {catalog.store(entry.name).size():,} B ({entry.shred_seconds:.3f}s)"
    )
    return 0


def _cmd_catalog_ls(args: argparse.Namespace) -> int:
    from repro.server.catalog import Catalog

    catalog = Catalog(args.catalog)
    entries = catalog.entries()
    if not entries:
        print(f"catalog {args.catalog!r} is empty")
        return 0
    for entry in entries:
        print(
            f"{entry.name:20s} {entry.megabytes:8.2f} MB  "
            f"{entry.dag_vertices:>9,}v/{entry.dag_edge_entries:,}e  "
            f"skeleton {catalog.store(entry.name).size():>9,} B  "
            f"attributes={entry.attributes}"
        )
    return 0


def _cmd_catalog_evict(args: argparse.Namespace) -> int:
    from repro.server.catalog import Catalog

    Catalog(args.catalog).remove(args.name)
    print(f"evicted {args.name}", file=sys.stderr)
    return 0


def _parse_tree_path(spec: str) -> list[int]:
    """``"0.2.1"`` -> ``[0, 2, 1]``; ``""`` or ``"."`` address the root element."""
    spec = spec.strip()
    if spec in ("", "."):
        return []
    try:
        return [int(step) for step in spec.replace("/", ".").split(".")]
    except ValueError:
        raise MutationError(
            f"bad --path {spec!r}: expected dot-separated element ordinals like 0.2.1"
        ) from None


def _cmd_catalog_update(args: argparse.Namespace) -> int:
    import json

    from repro.server.catalog import Catalog

    if args.patch:
        if args.op or args.path is not None or args.fragment:
            print("error: --patch replaces --op/--path/--fragment", file=sys.stderr)
            return EXIT_USAGE
        try:
            mutations = json.loads(_read(args.patch))
        except json.JSONDecodeError as error:
            print(f"error: --patch {args.patch!r} is not valid JSON: {error}",
                  file=sys.stderr)
            return EXIT_USAGE
    else:
        if not args.op:
            print("error: give --op (with --path/--fragment) or --patch FILE",
                  file=sys.stderr)
            return EXIT_USAGE
        mutation = {"op": args.op, "path": _parse_tree_path(args.path or "")}
        if args.fragment:
            mutation["xml"] = _read(args.fragment)
        mutations = [mutation]
    entry = Catalog(args.catalog).mutate(args.name, mutations)
    print(
        f"updated {entry.name} -> v{entry.doc_version}: "
        f"{entry.skeleton_nodes:,} skeleton nodes -> {entry.dag_vertices:,} dag "
        f"vertices ({entry.shred_seconds:.3f}s incremental maintenance)"
    )
    return 0


def _cmd_catalog_verify(args: argparse.Namespace) -> int:
    from repro.server.catalog import Catalog

    catalog = Catalog(args.catalog)
    report = catalog.verify(repair=args.repair)
    worst = 0
    for name in sorted(report):
        entry = report[name]
        status = entry["status"]
        line = f"{name:20s} {status:12s} skeleton {entry['skeleton_bytes']:,} B"
        if entry["problem"]:
            line += f"  {entry['problem']}"
        journal = entry.get("journal")
        if isinstance(journal, dict) and (journal.get("records") or journal.get("torn")):
            line += (
                f"  journal: {journal.get('records', 0)} record(s), "
                f"{journal.get('pending', 0)} pending"
            )
            if journal.get("torn"):
                line += ", torn tail"
            if journal.get("repaired") is not None:
                line += f", replayed {journal['repaired']}"
        print(line)
        if status in ("corrupt", "stale"):  # refused until repaired
            worst = EXIT_ERROR
    if not report:
        print(f"catalog {args.catalog!r} is empty")
    recovery = catalog.last_recovery
    if recovery.get("staging_removed") or recovery.get("manifest_tmp_removed"):
        removed = recovery.get("staging_removed") or []
        print(
            f"startup recovery: removed {len(removed)} orphaned staging dir(s)"
            + (", torn manifest tmp" if recovery.get("manifest_tmp_removed") else ""),
            file=sys.stderr,
        )
    return worst


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.api import Plan

    if args.analyze and not args.file:
        print("error: --analyze needs --file (actuals require a document)", file=sys.stderr)
        return EXIT_USAGE
    if args.file:
        # Plan against a real document: the embedded database collects
        # statistics from the loaded instance, so the printed plan is the
        # optimized one actually evaluated, annotated with per-node
        # cardinality estimates (and, under --analyze, measured actuals).
        from repro.api import Database

        database = Database.from_file(args.file)
        plan = database.explain(args.xpath, analyze=args.analyze)
    else:
        plan = Plan.from_query(args.xpath)
    if args.json:
        print(plan.to_json(indent=2))
        return 0
    print(plan.render())
    if plan.upward_only:
        print("\nupward-only: evaluation never decompresses (Corollary 3.7)")
    if plan.optimizer and plan.optimizer.get("rules_applied"):
        print("\nrewrites: " + ", ".join(plan.optimizer["rules_applied"]))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Path queries on compressed XML (Buneman/Grohe/Koch, VLDB 2003)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("corpora", help="list corpus generators").set_defaults(
        func=_cmd_corpora
    )

    gen = commands.add_parser("gen", help="generate a synthetic corpus")
    gen.add_argument("corpus")
    gen.add_argument("--scale", type=int, default=None)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("-o", "--output")
    gen.set_defaults(func=_cmd_gen)

    compress = commands.add_parser("compress", help="compress a document, print stats")
    compress.add_argument("file", help="XML file ('-' for stdin)")
    compress.add_argument(
        "--tags", default="all", help="'all', 'none', or comma-separated tag list"
    )
    compress.add_argument(
        "--string", action="append", help="string-containment set (repeatable)"
    )
    compress.add_argument(
        "--attributes", action="store_true", help="encode attributes as @name nodes"
    )
    compress.add_argument("--save", help="write the instance to a file (RSKL image)")
    compress.add_argument("--dot", action="store_true", help="print graphviz dot")
    compress.set_defaults(func=_cmd_compress)

    query = commands.add_parser(
        "query", help="evaluate Core XPath queries (several = one batch)"
    )
    query.add_argument("file", help="XML file ('-' for stdin) or a saved instance")
    query.add_argument("xpath", nargs="*", help="one or more XPath queries")
    query.add_argument(
        "--workload", help="file with one XPath per line ('#' comments allowed)"
    )
    query.add_argument("--paths", type=int, default=0, help="print up to N result paths")
    query.add_argument(
        "--limit", type=int, default=1_000_000,
        help="guard on tree nodes the --paths decode walk visits: only subtrees holding "
        "a match, a subset of a full document-order walk (default: %(default)s)",
    )
    query.add_argument(
        "--explain-json", action="store_true",
        help="print the structured query plan(s) as JSON and exit without "
        "loading the document or evaluating anything",
    )
    query.set_defaults(func=_cmd_query)

    explain = commands.add_parser("explain", help="print a query's algebra plan")
    explain.add_argument("xpath")
    explain.add_argument(
        "--json", action="store_true",
        help="structured plan JSON (per-node algebra ops + required schema) "
        "instead of the ASCII tree",
    )
    explain.add_argument(
        "--file",
        help="plan against this XML file (or saved instance): shows the optimized "
        "plan with per-node cardinality estimates",
    )
    explain.add_argument(
        "--analyze", action="store_true",
        help="execute the plan and annotate every node with its actual "
        "cardinalities (requires --file)",
    )
    explain.set_defaults(func=_cmd_explain)

    def add_catalog_dir(target) -> None:
        target.add_argument(
            "-C",
            "--catalog",
            default="repro-catalog",
            help="catalog directory (default: ./repro-catalog)",
        )

    serve = commands.add_parser(
        "serve", help="run the concurrent query service over a catalog"
    )
    add_catalog_dir(serve)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080)
    serve.add_argument(
        "--pool-size", type=int, default=8,
        help="max resident (document, schema) instances before LRU eviction",
    )
    serve.add_argument(
        "--workers", type=int, default=0,
        help="pre-forked worker processes, requests sharded by "
        "(document, string-schema) rendezvous hash (default: 0, serve in "
        "process)",
    )
    serve.add_argument(
        "--worker-threads", type=int, default=4,
        help="request threads inside each worker (same-shard concurrency "
        "still coalesces into shared batches)",
    )
    serve.add_argument(
        "--deadline-ms", type=float, default=0.0,
        help="default end-to-end deadline for requests that carry none "
        "(expired requests get a structured deadline_exceeded; 0 = unbounded)",
    )
    serve.add_argument(
        "--max-queue", type=int, default=0,
        help="max concurrently admitted requests before shedding with "
        "429 + Retry-After (0 = unbounded)",
    )
    serve.add_argument(
        "--rate-limit", type=float, default=0.0,
        help="per-client requests/second token-bucket limit, keyed by the "
        "X-Repro-Client header or peer address (0 = off)",
    )
    serve.add_argument("--verbose", action="store_true", help="log every request")
    serve.set_defaults(func=_cmd_serve)

    catalog = commands.add_parser(
        "catalog", help="manage the persistent document catalog"
    )
    actions = catalog.add_subparsers(dest="action", required=True)

    catalog_add = actions.add_parser(
        "add", help="register a document: shred it into the store once"
    )
    catalog_add.add_argument("name", help="document name (letters, digits, . _ -)")
    catalog_add.add_argument("file", help="XML file ('-' for stdin)")
    catalog_add.add_argument(
        "--attributes", action="store_true", help="encode attributes as @name nodes"
    )
    add_catalog_dir(catalog_add)
    catalog_add.set_defaults(func=_cmd_catalog_add)

    catalog_ls = actions.add_parser("ls", help="list registered documents")
    add_catalog_dir(catalog_ls)
    catalog_ls.set_defaults(func=_cmd_catalog_ls)

    catalog_evict = actions.add_parser(
        "evict", help="remove a document and its stored versions"
    )
    catalog_evict.add_argument("name")
    add_catalog_dir(catalog_evict)
    catalog_evict.set_defaults(func=_cmd_catalog_evict)

    catalog_update = actions.add_parser(
        "update", help="apply an incremental mutation to a registered document"
    )
    catalog_update.add_argument("name")
    catalog_update.add_argument(
        "--op", choices=("append_child", "replace_subtree", "delete_subtree"),
        help="the mutation operation (or use --patch for a batch)",
    )
    catalog_update.add_argument(
        "--path", default=None, metavar="ORDINALS",
        help="target element as dot-separated element-child ordinals from the "
        "root ('' or '.' = the root element itself), e.g. 0.2.1",
    )
    catalog_update.add_argument(
        "--fragment", metavar="FILE",
        help="XML fragment file ('-' for stdin) for append_child/replace_subtree",
    )
    catalog_update.add_argument(
        "--patch", metavar="FILE",
        help="JSON file ('-' for stdin) holding a list of "
        '{"op", "path", "xml"?} mutations applied as one atomic batch',
    )
    add_catalog_dir(catalog_update)
    catalog_update.set_defaults(func=_cmd_catalog_update)

    catalog_verify = actions.add_parser(
        "verify",
        help="check every document's skeleton image; exit 1 on a corrupt or stale one",
    )
    catalog_verify.add_argument(
        "--repair", action="store_true",
        help="re-shred corrupt or stale documents from their kept source text and "
        "replay/truncate any pending or torn journal records",
    )
    add_catalog_dir(catalog_verify)
    catalog_verify.set_defaults(func=_cmd_catalog_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (XPathSyntaxError, XPathCompileError) as error:
        print(f"error: invalid query: {error}", file=sys.stderr)
        return EXIT_USAGE
    except (CorpusError, CatalogError, MutationError) as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as error:
        print(f"error: file not found: {error.filename or error}", file=sys.stderr)
        return EXIT_USAGE
    except IsADirectoryError as error:
        print(f"error: expected a file, got a directory: {error.filename}", file=sys.stderr)
        return EXIT_USAGE
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
