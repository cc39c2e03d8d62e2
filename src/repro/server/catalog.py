"""A persistent multi-document catalog: one RSKL image per document version.

The serving model of the paper — and of Arion et al.'s path-partitioned
stores — is *load once, query forever*: a document is shredded into its
minimal DAG exactly once, at registration time, and every later query is
answered from the resident (or quickly re-read) instance without
touching the XML again.

A :class:`Catalog` is a directory::

    <root>/catalog.json                registry: name -> entry metadata
    <root>/<name>/journal.wal          mutation write-ahead journal (live docs)
    <root>/<name>/v<N>/document.xml    the text at ``doc_version`` N
    <root>/<name>/v<N>/skeleton.rskl   the minimal DAG, one RSKL image

Every publish — registration and each :meth:`Catalog.mutate` alike — goes
through one routine: the two files are staged privately, renamed to a
complete new version *directory* ``v<doc_version>`` and committed by the
atomic manifest rewrite, the single commit point.  Readers holding the
previous version keep valid paths until the post-publish GC, and a crashed
publish can never half-overwrite the live version.

The image is the instance the shredder (or the mutation maintainer's
re-minimisation) produced, stored as-is: same vertex ids, same schema
order, the paper's minimal bisimulation quotient — so ``dag_vertices`` in
the manifest describes the file on disk and the instance that is served.
Documents are registered with **every** tag as a node set, so any tag-only
query is served from the image alone (a *warm start*: one read, digest check,
column adoption, no XML parse).  Only queries with string-containment
predicates need the original text again — string sets are computed by the
one-scan matcher at load time — and the resulting instances are cached
upstream in the server's instance pool, keyed by their string schema.

The optimizer's statistics are not stored: they are a pure function of
the tags-only master (:meth:`DocumentStats.from_instance
<repro.compress.stats.DocumentStats.from_instance>`), derived from the
instance each publish writes and, in any other process, from the image on
first use (:meth:`Catalog.document_stats`), then held in memory per
version.

All catalog methods are thread-safe: registration and removal serialise on
one lock, and the manifest is rewritten atomically (temp file + rename).

The on-disk layout is also the fleet's replication channel: any number of
*reader* processes (the pre-forked workers of :mod:`repro.server.cluster`)
may open the same directory concurrently with one writer (the front-end).
A version's files are fully written *before* its manifest entry is
published, and the manifest itself is replaced atomically, so a reader
either sees a complete document or none at all; :meth:`Catalog.refresh`
re-reads the manifest so long-lived readers pick up registrations and
removals made by the front-end after they started.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import threading
import time
from dataclasses import asdict, dataclass, field, fields

from repro.compress.stats import DocumentStats
from repro.errors import CatalogError, IntegrityError, QuarantinedError, ReproError
from repro.model.instance import Instance
from repro.mutation.apply import apply_mutations
from repro.mutation.ops import as_mutations
from repro.server.journal import JOURNAL_FILE, Journal
from repro.server.resilience import FAULTS
from repro.skeleton.layout import read_skeleton, write_skeleton
from repro.skeleton.loader import load

_MANIFEST = "catalog.json"
_FORMAT = "repro-catalog-1"
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")
_SKELETON_FILE = "skeleton.rskl"

#: Version of the on-disk layout an entry was published with; 2 is "one
#: ``skeleton.rskl`` image of the minimal DAG per ``v<N>/`` directory".
#: An entry stamped otherwise (format-1 chunk stores, every catalog written
#: before this layout) is refused, not half-read: :meth:`Catalog.refresh`
#: quarantines it on sight and ``verify --repair`` re-shreds it.
SKELETON_FORMAT_VERSION = 2

#: Orphaned staging directories older than this are GCed even when their
#: recorded pid appears alive (pids recycle; no registration takes an hour).
_STAGING_MAX_AGE = 3600.0

#: A manifest temp file older than this is a torn write (a live writer
#: renames it within milliseconds) and is swept at startup recovery.
_MANIFEST_TMP_MAX_AGE = 60.0


@dataclass
class CatalogEntry:
    """Registry metadata for one shredded document."""

    name: str
    #: ``"ignore"`` or ``"nodes"`` — how attributes were encoded at shred time.
    attributes: str = "ignore"
    megabytes: float = 0.0
    skeleton_nodes: int = 0
    #: |V| and run-length edge entries of the minimal DAG — the counts in
    #: the version's ``skeleton.rskl`` header (``verify`` cross-checks them).
    dag_vertices: int = 0
    dag_edge_entries: int = 0
    shred_seconds: float = 0.0
    #: Tag sets available in the shredded schema (queries outside this set
    #: still work: missing sets are materialised empty at serve time).
    tags: list[str] = field(default_factory=list)
    #: Unique per registration (wall-clock stamp).  A name removed and
    #: re-registered gets a different stamp even for identical content, so
    #: :meth:`Catalog.refresh` can tell "same entry" from "replaced entry"
    #: and long-lived readers never keep a master of the replaced document.
    registered_at: float = 0.0
    #: Version stamp of the on-disk layout; defaults to 0 so entries
    #: published by older builds deserialise cleanly.  Must equal
    #: :data:`SKELETON_FORMAT_VERSION` for the entry to be served.
    skeleton_version: int = 0
    #: Monotonic per-catalog document version.  Allocated from the
    #: manifest's ``next_version`` counter on every publish — registration,
    #: re-registration under the same name, and each mutation — so caches
    #: keyed on it (instance pools, optimized plans, worker masters) can
    #: never confuse two states of a name, even when two registrations land
    #: on the same ``registered_at`` wall-clock stamp.
    doc_version: int = 0
    #: Subdirectory of ``<root>/<name>/`` holding this version's files:
    #: ``"v<doc_version>"`` for everything this build publishes.  Empty only
    #: on stale entries of the old registration layout (files in the
    #: document directory itself), which :meth:`Catalog.reload` still reads
    #: ``document.xml`` from.
    version_dir: str = ""


_ENTRY_FIELDS = frozenset(spec.name for spec in fields(CatalogEntry))


class SkeletonImage:
    """A stateless handle on one published version's ``skeleton.rskl``.

    What :meth:`Catalog.store` hands out.  It hides the on-disk format:
    callers ask for the instance, never for a file layout.  Every load maps
    the file, checks its BLAKE2b digest and decodes into private arrays
    (:func:`repro.skeleton.layout.read_skeleton`); nothing is cached, so
    there is nothing to invalidate when the version is superseded.
    """

    def __init__(self, path: str):
        self.path = path

    def size(self) -> int:
        """Bytes on disk (0 when the file is missing)."""
        try:
            return os.path.getsize(self.path)
        except OSError:
            return 0

    def load(self) -> tuple[Instance, dict]:
        """The stored instance plus how the load was served (``/stats``)."""
        try:
            instance, info = read_skeleton(self.path)
        except FileNotFoundError:
            # The image *is* the data: there is nothing to fall back to.
            raise IntegrityError(f"skeleton image {self.path} is missing") from None
        return instance, info.as_dict()

    def assemble(self) -> Instance:
        return self.load()[0]


class Catalog:
    """A directory of registered documents, shredded once, served many times."""

    def __init__(self, root: str, journal_replay: bool = True):
        self.root = root
        self._lock = threading.RLock()
        #: Serialises whole mutations (journal append through publish) per
        #: catalog, so two writers in one process cannot interleave version
        #: allocation and replay.  The registry ``_lock`` stays fine-grained.
        self._mutation_lock = threading.Lock()
        self._entries: dict[str, CatalogEntry] = {}
        #: Optimizer statistics of each name's current entry (filled by
        #: :meth:`_publish` and :meth:`document_stats`).
        self._stats: dict[str, DocumentStats] = {}
        #: Names whose image failed an integrity check or was published in
        #: another on-disk layout; serving is refused
        #: (:class:`QuarantinedError`) until :meth:`reload` re-shreds them.
        self._quarantined: set[str] = set()
        #: Next ``doc_version`` to allocate; floor 1 so version 0 always
        #: means "published before versioning existed".
        self._next_version = 1
        #: What startup recovery swept (observability; see :meth:`recover`).
        self.last_recovery: dict = {}
        #: What journal replay re-applied at startup (see :meth:`replay_journals`).
        self.last_replay: dict = {}
        self.recover()
        # One manifest-reading path for open and re-open: refresh() treats
        # a missing manifest as an empty catalog, same as a fresh directory.
        self.refresh()
        # Only the writing process replays: pre-forked reader workers open
        # the same directory concurrently, and N processes re-applying the
        # same intent would race each other's staging renames.
        if journal_replay:
            self.replay_journals()

    # -- registry --------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._entries)

    def entries(self) -> list[CatalogEntry]:
        with self._lock:
            return [self._entries[name] for name in sorted(self._entries)]

    def entry(self, name: str) -> CatalogEntry:
        with self._lock:
            try:
                return self._entries[name]
            except KeyError:
                known = ", ".join(sorted(self._entries)) or "(catalog is empty)"
                raise CatalogError(
                    f"unknown catalog document {name!r}; known: {known}"
                ) from None

    def refresh(self) -> None:
        """Re-read the manifest from disk, picking up other processes' writes.

        Entries that disappeared **or changed** are dropped (with their
        cached statistics and quarantine verdict); entries that appeared
        are added.  Safe against a concurrent writer:
        the manifest is replaced atomically and every version's files
        are on disk before the entry is published, so whatever version this
        read observes is complete.  A missing manifest means the catalog is
        (still) empty — not an error, matching ``Catalog(dir)`` on a fresh
        directory.  The manifest is outside input: unknown row keys are
        ignored (a newer build's fields, an older build's ``chunks``), any
        other malformed shape is a :class:`CatalogError`, never a traceback.
        """
        manifest_path = os.path.join(self.root, _MANIFEST)
        FAULTS.fire("catalog.manifest", path=manifest_path)
        try:
            with open(manifest_path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except FileNotFoundError:
            manifest = {"format": _FORMAT, "documents": []}
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            # A torn manifest (crash mid-write without the atomic rename, or
            # disk corruption) must be a diagnosable failure, not a raw
            # JSONDecodeError bubbling out of a serving path.
            raise CatalogError(
                f"torn or corrupt catalog manifest {manifest_path}: {error}; "
                f"restore it from backup or re-register the documents"
            ) from error
        fresh = {}
        try:
            if manifest.get("format") != _FORMAT:
                raise CatalogError(f"not a repro catalog: {self.root}")
            for raw in manifest["documents"]:
                entry = CatalogEntry(
                    **{key: value for key, value in raw.items() if key in _ENTRY_FIELDS}
                )
                fresh[entry.name] = entry
        except (AttributeError, KeyError, TypeError) as error:
            raise CatalogError(
                f"malformed catalog manifest {manifest_path}: {error!r}; "
                f"restore it from backup or re-register the documents"
            ) from error
        with self._lock:
            # The version counter only ratchets forward: the manifest's
            # persisted watermark, the highest published version, and any
            # in-memory allocations (journaled intents not yet published)
            # all hold it up.
            self._next_version = max(
                self._next_version,
                int(manifest.get("next_version") or 0),
                1 + max((entry.doc_version for entry in fresh.values()), default=0),
            )
            for name in list(self._stats):
                # Dataclass equality over every field including the
                # registration stamp: removal and replacement both
                # invalidate; an unchanged entry keeps its parsed stats.
                if fresh.get(name) != self._entries.get(name):
                    del self._stats[name]
            # A quarantined name that was removed or re-registered has a
            # fresh (or no) image; the old verdict no longer applies.
            for name in list(self._quarantined):
                if fresh.get(name) != self._entries.get(name):
                    self._quarantined.discard(name)
            # Old layouts are refused, not half-read: quarantined on sight,
            # so they ride the same 503 envelope and the same
            # ``verify --repair`` re-shred as a corrupt image.
            self._quarantined.update(
                name
                for name, entry in fresh.items()
                if entry.skeleton_version != SKELETON_FORMAT_VERSION
            )
            self._entries = fresh

    def recover(self) -> dict:
        """Crash recovery: GC orphaned staging dirs, sweep torn manifest temps.

        Run at every :class:`Catalog` construction (front-end and workers
        alike), so a crashed registration never leaks half-written files
        forever.  Only provably dead garbage is touched:

        * ``.staging-<name>-<pid>-<tid>`` directories whose recorded pid is
          gone (the registering process died between staging and publish) —
          or, as a pid-recycling backstop, older than an hour;
        * ``catalog.json.tmp`` older than a minute (a live writer renames
          within milliseconds; an old temp is a crash between write and
          rename — the canonical manifest is whichever version the atomic
          replace last published, so the temp is garbage by construction).

        Returns (and stores on ``last_recovery``) what was swept.
        """
        report: dict = {"staging_removed": [], "manifest_tmp_removed": False}
        self.last_recovery = report
        try:
            names = os.listdir(self.root)
        except FileNotFoundError:
            return report  # fresh directory: nothing to recover
        now = time.time()
        for name in names:
            if not name.startswith(".staging-"):
                continue
            path = os.path.join(self.root, name)
            try:
                age = now - os.path.getmtime(path)
            except OSError:
                continue  # a racing publish/GC renamed or removed it
            if self._staging_owner_dead(name) or age > _STAGING_MAX_AGE:
                shutil.rmtree(path, ignore_errors=True)
                report["staging_removed"].append(name)
        tmp_path = os.path.join(self.root, _MANIFEST + ".tmp")
        try:
            if now - os.path.getmtime(tmp_path) > _MANIFEST_TMP_MAX_AGE:
                os.remove(tmp_path)
                report["manifest_tmp_removed"] = True
        except OSError:
            pass  # absent, or a live writer just renamed it away
        return report

    @staticmethod
    def _staging_owner_dead(staging_name: str) -> bool:
        """Is the process that created ``.staging-<name>-<pid>-<tid>`` gone?"""
        try:
            pid = int(staging_name.rsplit("-", 2)[1])
        except (IndexError, ValueError):
            return False  # unrecognised layout: leave it to the age backstop
        if pid == os.getpid():
            return False  # our own in-flight registration
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True
        except (PermissionError, OSError):
            return False  # alive (owned by someone else) or unknowable
        return False

    def _write_manifest(self) -> None:
        manifest = {
            "format": _FORMAT,
            "next_version": self._next_version,
            "documents": [asdict(self._entries[name]) for name in sorted(self._entries)],
        }
        os.makedirs(self.root, exist_ok=True)
        temp_path = os.path.join(self.root, _MANIFEST + ".tmp")
        with open(temp_path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2)
            handle.write("\n")
        os.replace(temp_path, os.path.join(self.root, _MANIFEST))

    # -- publishing ------------------------------------------------------

    def add(self, name: str, xml: str, attributes: str = "ignore") -> CatalogEntry:
        """Register ``xml`` under ``name``: shred once, serve forever.

        The document is loaded over *all* tags (every element tag becomes a
        node set) and its minimal DAG is published as one RSKL image; the
        original text is kept beside it for string-schema reloads.  The
        (possibly slow) parse + shred runs *outside* the registry lock so a
        registration never stalls concurrent query traffic; only the
        registry update is serialised.
        """
        if not _NAME_RE.match(name):
            raise CatalogError(
                f"invalid document name {name!r} (use letters, digits, '.', '_', '-')"
            )
        with self._lock:
            if name in self._entries:
                raise CatalogError(f"document {name!r} is already in the catalog")
        result = load(xml, tags=None, attributes=attributes)
        return self._publish(
            name, None, self._allocate_version(), xml, result.instance,
            attributes, result.parse_seconds,
        )

    def _allocate_version(self) -> int:
        with self._lock:
            version = self._next_version
            self._next_version += 1
            return version

    def _publish(
        self, name: str, base_entry: CatalogEntry | None, version: int, text: str,
        instance: Instance, attributes: str, seconds: float,
    ) -> CatalogEntry:
        """Publish one document version — the only routine that does.

        ``base_entry`` is the entry the new version supersedes (``None`` for
        a registration).  The two files are staged in a private directory,
        so two racing publishes of one name never share files and the
        loser's cleanup can only ever delete its own staging area; under the
        registry lock the staging directory is renamed to ``v<version>`` and
        the manifest rewrite commits it.  The superseded version is
        collected only after that commit; the journal is never touched by GC.
        The optimizer statistics are derived here, from the instance being
        published, and cached with the entry they describe.
        """
        # The catalog shreds over *every* tag, so the tag universe is
        # complete: an unknown tag is provably empty for any future query.
        stats = DocumentStats.from_instance(instance, complete_tags=True)
        staging = os.path.join(
            self.root, f".staging-{name}-{os.getpid()}-{threading.get_ident()}"
        )
        entry = CatalogEntry(
            name=name,
            attributes=attributes,
            megabytes=len(text.encode("utf-8")) / 1e6,
            skeleton_nodes=stats.tree_nodes,
            dag_vertices=instance.num_vertices,
            dag_edge_entries=instance.num_edge_entries,
            shred_seconds=seconds,
            tags=[set_name for set_name in instance.schema if not set_name.startswith("#")],
            registered_at=time.time(),
            skeleton_version=SKELETON_FORMAT_VERSION,
            doc_version=version,
            version_dir=f"v{version}",
        )
        doc_dir = os.path.join(self.root, name)
        target = os.path.join(doc_dir, entry.version_dir)
        try:
            os.makedirs(staging)
            with open(os.path.join(staging, "document.xml"), "w", encoding="utf-8") as handle:
                handle.write(text)
            write_skeleton(os.path.join(staging, _SKELETON_FILE), instance)
            with self._lock:
                if self._entries.get(name) != base_entry:
                    # Lost a race: keep the winner's files (the finally
                    # clause garbage-collects our staging).
                    raise CatalogError(
                        f"document {name!r} is already in the catalog"
                        if base_entry is None
                        else f"document {name!r} changed underneath the mutation "
                        f"(expected version {base_entry.doc_version}); retry against "
                        f"the current version"
                    )
                # No live entry points at what is in the way.  A registration
                # owns the whole document directory: leftovers of a crash
                # between a removal's manifest write and its rmtree, or of a
                # reloaded old layout.  A mutation owns only its ``v<N>``: a
                # crashed earlier attempt at this version number.
                shutil.rmtree(doc_dir if base_entry is None else target, ignore_errors=True)
                os.makedirs(doc_dir, exist_ok=True)
                os.rename(staging, target)
                # The chaos seam between the two commit points: a kill here
                # has (journaled and) staged the version but not published
                # it, which is exactly what replay_journals() must recover.
                FAULTS.fire("catalog.journal", op="commit", name=name, doc_version=version)
                self._entries[name] = entry
                self._stats[name] = stats
                self._next_version = max(self._next_version, version + 1)
                self._write_manifest()
        finally:
            # A successful publish renamed the staging directory away; on
            # any failure (disk full, lost race) this sweeps the half-written
            # files (a mutation's journal keeps the intent for a later replay).
            shutil.rmtree(staging, ignore_errors=True)
        if base_entry is not None:
            # Post-publish housekeeping: the previous version's files are
            # unreferenced now, and the journaled intent is live in the manifest.
            self._gc_version_files(name, base_entry)
            self._journal(name).compact(version)
        return entry

    def remove(self, name: str) -> None:
        """Drop ``name`` from the registry and delete its files."""
        with self._lock:
            self.entry(name)  # raises CatalogError when unknown
            del self._entries[name]
            self._stats.pop(name, None)
            # The quarantine verdict was about an image that no longer exists.
            self._quarantined.discard(name)
            self._write_manifest()
            shutil.rmtree(os.path.join(self.root, name), ignore_errors=True)

    # -- serving ---------------------------------------------------------

    def _data_dir(self, entry: CatalogEntry) -> str:
        """Where ``entry``'s files live: ``<root>/<name>/<version_dir>``.

        An empty ``version_dir`` (the document directory itself) occurs only
        on stale entries of the old registration layout; it is still read so
        :meth:`reload` can find their kept ``document.xml``.
        """
        return os.path.join(self.root, entry.name, entry.version_dir)

    def xml(self, name: str) -> str:
        """The current document text (string-schema reloads, mutation base)."""
        return self._text(self.entry(name))

    def _text(self, entry: CatalogEntry) -> str:
        with open(
            os.path.join(self._data_dir(entry), "document.xml"), "r", encoding="utf-8"
        ) as handle:
            return handle.read()

    def _image(self, entry: CatalogEntry) -> SkeletonImage:
        return SkeletonImage(os.path.join(self._data_dir(entry), _SKELETON_FILE))

    def store(self, name: str) -> SkeletonImage:
        """A handle on the current version's skeleton image of ``name``."""
        return self._image(self.entry(name))

    def document_stats(self, name: str) -> DocumentStats:
        """The optimizer statistics of ``name``'s current version.

        A version this process published is a cache hit.  A miss (a reader
        process such as a fleet worker, or a restarted server) derives the
        statistics from the current image through :meth:`load`, so the
        digest check and the quarantine apply as for any load.  The
        statistics describe a version that was current at some moment of
        the call; a caller that must match them to one entry re-reads
        :meth:`entry` afterwards.
        """
        with self._lock:
            entry = self.entry(name)
            stats = self._stats.get(name)
        if stats is not None:
            return stats
        stats = DocumentStats.from_instance(self.load_instance(name), complete_tags=True)
        with self._lock:
            # Entries only move forward: unchanged now means the load read
            # this entry's image, not a newer one.
            if self._entries.get(name) == entry:
                self._stats[name] = stats
        return stats

    def load(
        self, name: str, strings: tuple[str, ...] = ()
    ) -> tuple[Instance, dict, CatalogEntry]:
        """A full instance of ``name`` over its tag schema plus ``strings``,
        with its provenance (the ``load`` block of ``/stats`` and plans)
        and the entry of the version it was read from.

        Without string constraints this is the warm path: the version's
        skeleton image is read, digest-checked and decoded — the XML is
        never re-parsed.  With string constraints the version's text is
        re-scanned once to compute the containment sets; callers cache the
        result.

        An image failing its digest — or missing — quarantines the document
        on the spot (the first observer gets the precise
        :class:`IntegrityError`; later requests fail fast with
        :class:`QuarantinedError` without touching disk) — corrupt bytes
        are never decoded into a served instance.  Only the *current*
        version's files can condemn a document: when a commit published a
        newer version (and collected the files of the one read) between the
        entry read and the file read, the new version is read instead, as
        if the commit had landed first — so a caller that planned against
        an entry compares it with the one returned.
        """
        entry = self.check_serveable(name)
        FAULTS.fire("catalog.load_instance", name=name, strings=strings)
        for retry in (False, True):
            try:
                if strings:
                    instance = load(
                        self._text(entry),
                        tags=None,
                        strings=list(strings),
                        attributes=entry.attributes,
                    ).instance
                    return instance, {"format": "parse", "bytes_mapped": 0}, entry
                instance, info = self._image(entry).load()
                return instance, info, entry
            except (IntegrityError, OSError) as error:
                current = self.entry(name)
                if current == entry:
                    if isinstance(error, IntegrityError):
                        self.quarantine(name)
                    raise
                if retry:
                    raise
                entry = current

    def load_instance(self, name: str, strings: tuple[str, ...] = ()) -> Instance:
        """:meth:`load` without the provenance."""
        return self.load(name, strings)[0]

    # -- mutation --------------------------------------------------------

    def _journal(self, name: str) -> Journal:
        return Journal(os.path.join(self.root, name, JOURNAL_FILE))

    def mutate(self, name: str, mutations) -> CatalogEntry:
        """Apply a mutation batch to ``name`` and publish the new version.

        The durability order is journal-first: the validated batch is
        appended to the document's write-ahead journal (fsynced) *before*
        any maintenance work, so a crash anywhere after the append is
        recoverable by replay — :meth:`replay_journals` re-applies the
        intent deterministically from the last published text.  Then the
        incremental maintainer (:func:`repro.mutation.apply.apply_mutations`)
        produces the new re-minimised instance and text, which go through
        the same :meth:`_publish` as a registration.  Readers of the
        previous version are untouched until the manifest flips; their
        files are GCed only after publish.
        """
        batch = as_mutations(mutations)
        with self._mutation_lock:
            entry = self.check_serveable(name)
            target_version = self._allocate_version()
            self._journal(name).append(
                {
                    "name": name,
                    "base_version": entry.doc_version,
                    "doc_version": target_version,
                    "mutations": [mutation.to_dict() for mutation in batch],
                    "ts": time.time(),
                }
            )
            return self._apply_and_publish(name, entry, batch, target_version)

    def _apply_and_publish(
        self, name: str, entry: CatalogEntry, batch: list, target_version: int
    ) -> CatalogEntry:
        """Maintenance + publish of one journaled mutation batch."""
        started = time.perf_counter()
        outcome = apply_mutations(
            self.load_instance(name),
            self.xml(name),
            batch,
            attributes=entry.attributes,
        )
        return self._publish(
            name, entry, target_version, outcome.text, outcome.instance,
            entry.attributes, time.perf_counter() - started,
        )

    def _gc_version_files(self, name: str, old_entry: CatalogEntry) -> None:
        """Delete the files of a superseded version (never the journal)."""
        shutil.rmtree(os.path.join(self.root, name, old_entry.version_dir), ignore_errors=True)

    def _sweep_stray_versions(self, name: str, entry) -> list[str]:
        """Remove unpublished ``v<N>`` directories (crashed staging renames)."""
        doc_dir = os.path.join(self.root, name)
        swept = []
        try:
            children = os.listdir(doc_dir)
        except OSError:
            return swept
        for child in children:
            if re.fullmatch(r"v\d+", child) and child != entry.version_dir:
                shutil.rmtree(os.path.join(doc_dir, child), ignore_errors=True)
                swept.append(child)
        return swept

    def replay_journals(self) -> dict:
        """Re-apply journaled intents the manifest never published.

        Runs at writer startup (after :meth:`recover` and :meth:`refresh`):
        for every document, torn journal tails are truncated, intent
        records newer than the published ``doc_version`` are re-applied in
        version order — each must chain from the version the previous one
        published, else replay stops (the remaining intents were written
        against a state that no longer exists, e.g. after a reload) — and
        stray ``v<N>`` directories from crashed publishes are swept.
        Returns (and stores on ``last_replay``) a per-document report.
        """
        report: dict = {}
        with self._mutation_lock:
            for name in self.names():
                entry = self.entry(name)
                journal = self._journal(name)
                records, torn = journal.records()
                if torn:
                    journal.repair()
                pending = sorted(
                    (r for r in records if r.get("doc_version", 0) > entry.doc_version),
                    key=lambda r: r.get("doc_version", 0),
                )
                replayed: list[int] = []
                for record in pending:
                    if record.get("base_version") != entry.doc_version:
                        break
                    try:
                        batch = as_mutations(record.get("mutations", []))
                        entry = self._apply_and_publish(
                            name, entry, batch, int(record["doc_version"])
                        )
                    except ReproError:
                        break
                    replayed.append(entry.doc_version)
                journal.compact(entry.doc_version)
                swept = self._sweep_stray_versions(name, entry)
                if torn or replayed or swept:
                    report[name] = {
                        "replayed": replayed,
                        "torn_truncated": torn,
                        "stray_versions_swept": swept,
                    }
        self.last_replay = report
        return report

    # -- integrity -------------------------------------------------------

    def check_serveable(self, name: str) -> CatalogEntry:
        """The entry for ``name`` — unless it is quarantined (then raise).

        A quarantined name probes the manifest first: an operator's
        ``repro catalog verify --repair`` (or re-register) runs in another
        process and publishes a fresh ``registered_at`` stamp, which
        :meth:`refresh` turns into a lifted quarantine — so service comes
        back without a restart.  The probe costs one manifest read per
        refused request, on a path that is already the error path.
        """
        entry = self.entry(name)
        with self._lock:
            quarantined = name in self._quarantined
        if quarantined:
            self.refresh()
            entry = self.entry(name)
            with self._lock:
                if name in self._quarantined:
                    raise QuarantinedError(
                        f"document {name!r} is quarantined: its stored image "
                        f"failed an integrity check or was published in an "
                        f"older on-disk layout; re-shred it from the kept text "
                        f"(repro catalog verify --repair) to restore service"
                    )
        return entry

    def quarantine(self, name: str) -> None:
        """Refuse to serve ``name`` until it is reloaded."""
        with self._lock:
            if name in self._entries:
                self._quarantined.add(name)

    def quarantined(self) -> list[str]:
        with self._lock:
            return sorted(self._quarantined)

    def verify(self, repair: bool = False) -> dict:
        """Check every image and journal; optionally repair both.

        Returns ``{name: {"status", "skeleton_bytes", "problem", "journal"}}``
        where status is ``ok`` / ``corrupt`` / ``stale`` / ``repaired`` and
        ``journal`` reports the write-ahead journal's intact record count,
        whether its tail is torn, and how many intents are still
        unpublished.  An image is ``corrupt`` when it is missing, fails its
        digest, or holds a different |V| / |E| than the manifest entry says
        (a skeleton copied under the wrong version directory); an entry is
        ``stale`` when it was published in another on-disk layout.  Both
        are quarantined; with ``repair=True`` they are immediately
        re-shredded from the kept original text (see :meth:`reload` for why
        re-shred, not patch), torn journal tails are truncated, and
        unpublished intents are replayed (:meth:`replay_journals`).
        """
        report: dict = {}
        for entry in self.entries():
            name = entry.name
            row: dict = {"status": "ok", "problem": None}
            if entry.skeleton_version != SKELETON_FORMAT_VERSION:
                row["status"] = "stale"
                row["problem"] = (
                    f"published in on-disk layout {entry.skeleton_version}, "
                    f"this build reads {SKELETON_FORMAT_VERSION}"
                )
            else:
                declared = (entry.dag_vertices, entry.dag_edge_entries)
                try:
                    instance = self._image(entry).assemble()
                except (OSError, ReproError) as error:
                    row["problem"] = str(error)
                else:
                    found = (instance.num_vertices, instance.num_edge_entries)
                    if found != declared:
                        row["problem"] = (
                            f"image holds |V|, |E| = {found}, the manifest entry "
                            f"says {declared}"
                        )
                if row["problem"]:
                    self.quarantine(name)
                    row["status"] = "corrupt"
            if repair and row["problem"]:
                entry = self.reload(name)
                row["status"] = "repaired"
            row["skeleton_bytes"] = self._image(entry).size()
            records, torn = self._journal(name).records()
            row["journal"] = {
                "records": len(records),
                "torn": torn,
                "pending": sum(
                    1 for r in records if r.get("doc_version", 0) > entry.doc_version
                ),
            }
            report[name] = row
        if repair:
            replayed = self.replay_journals()
            for name, outcome in replayed.items():
                if name in report:
                    report[name]["journal"]["repaired"] = outcome
        return report

    def reload(self, name: str) -> CatalogEntry:
        """Re-shred ``name`` from its kept original text; clears quarantine.

        Recovery always re-shreds rather than patching the image in place:
        the kept text is the only trustworthy source once stored bytes are
        wrong, and per the recompression-cost analysis in *Optimizing XML
        Compression* the shred cost is dominated by the parse — which a
        partial repair would pay anyway to recompute the subtree — so
        in-place repair saves almost nothing while adding a second publish
        path to get crash-safe.  The re-registration gets a fresh
        ``registered_at`` stamp, so pools and fleet shards drop any cached
        master built from the old image.
        """
        entry = self.entry(name)
        xml = self.xml(name)  # read the kept text BEFORE dropping the entry
        with self._lock:
            self.entry(name)  # re-check under the lock (racing remove/reload)
            del self._entries[name]
            self._stats.pop(name, None)
            self._quarantined.discard(name)
            self._write_manifest()
        # add() stages a fresh version and atomically republishes over the
        # old directory (its publish GCs the unreferenced leftover files).
        return self.add(name, xml, attributes=entry.attributes)
