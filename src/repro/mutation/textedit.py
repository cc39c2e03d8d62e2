"""Byte-span location and splicing of elements in the kept document text.

The catalog keeps every registered document's original text beside its
skeleton image (string-schema reloads re-scan it), so a mutation must
edit *both* representations.  This module does the text half: it walks the
tokenizer's element tags — matches carrying exact byte offsets — down a
tree path of element-child ordinals, finds the target element's span, and
splices the edit in.  One pass, no DOM, and the spliced text re-parses to
exactly the mutated skeleton (the property oracle pins this).

Self-closing targets are handled structurally: appending into ``<a/>``
rewrites it as ``<a>...</a>`` (attribute blob preserved verbatim).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import MutationError
from repro.mutation.ops import Mutation
from repro.xmlio.tokenizer import _OPEN_RE, element_tags


@dataclass(frozen=True)
class ElementSpan:
    """Where one element lives in the document text."""

    #: Tag name of the element.
    name: str
    #: Offset of the ``<`` of the start tag.
    start: int
    #: Offset just past the ``>`` of the start tag.
    open_end: int
    #: Offset of the ``<`` of the end tag (== ``start`` when self-closing).
    close_start: int
    #: Offset just past the ``>`` of the end tag.
    end: int
    #: True for ``<name .../>`` forms.
    self_closing: bool


def locate(text: str, path: tuple[int, ...]) -> ElementSpan:
    """The byte span of the element at ``path`` (see :mod:`repro.mutation.ops`).

    Raises :class:`MutationError` when the path walks off the document —
    an ordinal past the last element child, or a path deeper than the tree.
    """
    target = tuple(path)
    counters = [0]  # element children seen so far at each open depth
    open_depth = 0
    match_depth = 0  # how many levels of the open chain lie on the target path
    opened = None  # the target's start tag, once the walk has reached it
    for tag, closing in element_tags(text):
        if closing:
            open_depth -= 1
            counters.pop()
        else:
            ordinal = counters[open_depth]
            counters[open_depth] += 1
            if match_depth == open_depth <= len(target):
                if ordinal == (target[open_depth - 1] if open_depth else 0):
                    match_depth = open_depth + 1
                    if open_depth == len(target):
                        opened = tag
            if not tag.group(3):
                open_depth += 1
                counters.append(0)
                continue
        # An element just ended at ``open_depth``: by its close tag, or by
        # being self-closing (then ``tag`` is its own start tag).
        if opened is not None and open_depth == len(target):
            return ElementSpan(
                name=opened.group(1),
                start=opened.start(),
                open_end=opened.end(),
                close_start=tag.start(),
                end=tag.end(),
                self_closing=not closing,
            )
        if match_depth > open_depth:
            match_depth = open_depth
    raise MutationError(
        f"path {list(target)} addresses no element in the document "
        f"(an ordinal is past the last element child, or the path is too deep)"
    )


def splice(text: str, mutation: Mutation) -> str:
    """Apply ``mutation`` to the document text; returns the new text."""
    span = locate(text, mutation.path)
    if mutation.op == "delete_subtree":
        return text[: span.start] + text[span.end :]
    if mutation.op == "replace_subtree":
        return text[: span.start] + (mutation.xml or "") + text[span.end :]
    # append_child: insert just before the close tag; a self-closing target
    # is first expanded to an explicit open/close pair.
    fragment = mutation.xml or ""
    if span.self_closing:
        open_match = _OPEN_RE.match(text, span.start)
        name, attr_blob, _ = open_match.groups()
        rebuilt = f"<{name}{attr_blob}>{fragment}</{name}>"
        return text[: span.start] + rebuilt + text[span.end :]
    return text[: span.close_start] + fragment + text[span.close_start :]
