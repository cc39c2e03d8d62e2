"""Incremental mutation of registered documents (the live-documents write path).

The read stack (shred once, serve forever) gains a sibling write stack:

* :mod:`repro.mutation.ops` — the mutation vocabulary (``append_child``,
  ``replace_subtree``, ``delete_subtree``) addressed by tree paths of
  element-child ordinals, with one wire/JSON shape shared by the HTTP
  route, the CLI, the journal and the Python API;
* :mod:`repro.mutation.textedit` — byte-span location and splicing on the
  kept document text, so string-schema reloads and re-shreds stay
  faithful to the mutated document;
* :mod:`repro.mutation.apply` — localized DAG maintenance: privatize the
  spine from the mutation point to the root, shred only the touched
  fragment, graft, and re-bisimulate with
  :func:`repro.compress.minimize.minimize` — O(compressed DAG) instead of
  an O(text) full re-shred.

Persistence (the write-ahead journal and the versioned publish) lives in
:mod:`repro.server.journal` and :meth:`repro.server.catalog.Catalog.mutate`.
"""

from repro.mutation.apply import MutationOutcome, apply_mutations
from repro.mutation.ops import OPS, Mutation, as_mutations

__all__ = ["Mutation", "MutationOutcome", "OPS", "apply_mutations", "as_mutations"]
