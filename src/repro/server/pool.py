"""An LRU pool of resident compressed instances with per-entry locks.

The serving layer keeps one *master* instance resident per
``(document, schema-key)`` — for this repository's catalog the schema key
reduces to the sorted tuple of string-containment needles, because every
document is shredded with all of its tags (see
:mod:`repro.server.catalog`).  The pool is the concurrency seam:

* the **pool lock** guards only the LRU bookkeeping (entry lookup,
  recency updates, eviction) and is never held while loading or
  evaluating;
* each entry carries its **own lock**; the first requester of a cold key
  inserts a placeholder entry, releases the pool lock, and loads the
  instance under the entry lock, so concurrent requesters of the same key
  block on that entry alone — the instance is loaded exactly once — and
  requests for other documents proceed in parallel;
* the master instance is never handed out for mutation: callers take the
  entry lock and evaluate on the entry's working fork — one ``copy()`` of
  the master, sharing its cached traversal orders, kept across batches —
  while still holding the lock.

Eviction drops the pool's reference only; an evaluation holding the entry
keeps it alive until it finishes.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Hashable

from repro.engine.axes_compressed import warm
from repro.model.instance import Instance

#: ``(document name, sorted string needles)`` — the resident-instance key.
PoolKey = Hashable


class PoolEntry:
    """One resident master instance plus its serialisation lock."""

    __slots__ = ("key", "lock", "instance", "working", "hits", "load_info", "costs")

    def __init__(self, key: PoolKey):
        self.key = key
        self.lock = threading.Lock()
        #: The immutable master (``None`` until the first loader ran).
        self.instance: Instance | None = None
        #: The long-lived working fork batches evaluate on (lazily copied
        #: from the master; dropped and re-forked by the service).
        self.working: Instance | None = None
        self.hits = 0
        #: How the cold load was served ("skeleton" image vs "parse" of the
        #: kept text), as the loader returned it; surfaced in ``/stats``.
        self.load_info: dict | None = None
        #: Last measured service seconds per request shape on this entry,
        #: least recently measured first (see :meth:`record_cost`).  Read
        #: and written under ``lock``; dies with the entry, so a new
        #: ``doc_version`` starts with every cost unknown.
        self.costs: OrderedDict[Hashable, float] = OrderedDict()

    def record_cost(self, shape: Hashable, seconds: float, limit: int) -> None:
        """Remember ``shape``'s latest cost, keeping the ``limit`` most recent."""
        costs = self.costs
        costs[shape] = seconds
        costs.move_to_end(shape)
        if len(costs) > limit:
            costs.popitem(last=False)


class InstancePool:
    """Bounded LRU of :class:`PoolEntry`, safe for concurrent use."""

    def __init__(self, capacity: int = 8):
        if capacity < 1:
            raise ValueError(f"pool capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: OrderedDict[PoolKey, PoolEntry] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def keys(self) -> list[PoolKey]:
        with self._lock:
            return list(self._entries)

    def load_info(self, key: PoolKey) -> dict | None:
        """How ``key``'s cold load was served, or ``None`` when not resident."""
        with self._lock:
            entry = self._entries.get(key)
            return entry.load_info if entry is not None else None

    def peek(self, key: PoolKey) -> PoolEntry | None:
        """The entry for ``key`` if its master is resident, else ``None``.

        Never loads and counts nothing: a caller that goes on to use the
        entry reports it through :meth:`hit`.
        """
        with self._lock:
            entry = self._entries.get(key)
        return entry if entry is not None and entry.instance is not None else None

    def hit(self, entry: PoolEntry) -> None:
        """Count a use of a :meth:`peek`-ed entry, as :meth:`get_or_load` would."""
        with self._lock:
            if self._entries.get(entry.key) is entry:
                self._entries.move_to_end(entry.key)
            self.hits += 1
            entry.hits += 1

    def get_or_load(
        self, key: PoolKey, loader: Callable[[], tuple[Instance, dict | None]]
    ) -> PoolEntry:
        """The entry for ``key``, loading its master exactly once.

        ``loader`` returns the instance together with its provenance (the
        entry's ``load_info``) and runs under the entry lock (not the pool
        lock), so a slow load blocks only same-key requesters and the
        provenance can never describe a different load.  The returned entry's
        ``instance`` is loaded and must be treated as read-only; take
        ``entry.lock`` before copying or touching ``working``.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                entry = PoolEntry(key)
                self._entries[key] = entry
                self.misses += 1
            else:
                self._entries.move_to_end(key)
                self.hits += 1
                entry.hits += 1
            while len(self._entries) > self.capacity:
                oldest = next(iter(self._entries))
                if oldest == key:  # never evict the entry being requested
                    break
                del self._entries[oldest]
                self.evictions += 1
        with entry.lock:
            if entry.instance is None:
                try:
                    from repro.server.resilience import FAULTS

                    FAULTS.fire("pool.load", key=key)
                    instance, load_info = loader()
                except BaseException:
                    # A failed load (deadline-cancelled, corrupt image, disk
                    # error) must not leave a poisoned placeholder squatting
                    # in the LRU: drop it (if eviction didn't already) so the
                    # next requester gets a clean retry instead of inheriting
                    # an instance-less entry that counts against capacity.
                    with self._lock:
                        if self._entries.get(key) is entry:
                            del self._entries[key]
                    raise
                warm(instance)  # derive the structure caches once, pre-share
                entry.load_info = load_info
                entry.instance = instance
        return entry

    def evict(self, predicate: Callable[[PoolKey], bool]) -> int:
        """Drop every entry whose key satisfies ``predicate``; return count."""
        with self._lock:
            doomed = [key for key in self._entries if predicate(key)]
            for key in doomed:
                del self._entries[key]
            self.evictions += len(doomed)
            return len(doomed)

    def stats(self) -> dict:
        with self._lock:
            bytes_mapped = 0
            skeleton_loads = 0
            for entry in self._entries.values():
                info = entry.load_info
                if info and info.get("format") == "skeleton":
                    skeleton_loads += 1
                    bytes_mapped += info.get("bytes_mapped", 0)
            return {
                "capacity": self.capacity,
                "resident": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "skeleton_loads": skeleton_loads,
                "bytes_mapped": bytes_mapped,
            }
