"""Structural (SAX-like) XML parsing on top of the tokenizer.

:func:`parse_events` adds well-formedness checking to the lexical stream:
balanced and properly nested tags, exactly one root element, no character
data outside the root.  :func:`sax_parse` drives a handler object, which is
how the skeleton loader consumes documents in one scan without ever building
a tree.
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import XMLSyntaxError
from repro.xmlio.events import Event, Text
from repro.xmlio.tokenizer import tokenize


def parse_events(text: str) -> Iterator[Event]:
    """Yield checked events; adjacent text runs are coalesced.

    Comments, processing instructions and the DOCTYPE are passed through
    (they carry no skeleton information but a DOM may keep them); whitespace
    outside the root element is dropped, any other character data there is an
    error.
    """
    stack: list[str] = []
    seen_root = False
    pending_text: list[str] = []
    pending_offset = -1

    def flush() -> Iterator[Text]:
        nonlocal pending_offset
        if pending_text:
            yield Text("".join(pending_text), offset=pending_offset)
            pending_text.clear()
            pending_offset = -1

    for event in tokenize(text):
        kind = event.kind
        if kind == "text":
            if not stack:
                if event.data.strip():
                    raise XMLSyntaxError(
                        "character data outside the root element", offset=event.offset
                    )
                continue
            if not pending_text:
                pending_offset = event.offset
            pending_text.append(event.data)
            continue
        yield from flush()
        if kind == "start":
            if not stack and seen_root:
                raise XMLSyntaxError(
                    f"second root element <{event.name}>", offset=event.offset
                )
            stack.append(event.name)
            seen_root = True
            yield event
        elif kind == "end":
            if not stack:
                raise XMLSyntaxError(
                    f"closing tag </{event.name}> with no open element",
                    offset=event.offset,
                )
            expected = stack.pop()
            if expected != event.name:
                raise XMLSyntaxError(
                    f"mismatched closing tag: expected </{expected}>, got </{event.name}>",
                    offset=event.offset,
                )
            yield event
        else:
            yield event
    yield from flush()
    if stack:
        raise XMLSyntaxError(f"unclosed element <{stack[-1]}> at end of document")
    if not seen_root:
        raise XMLSyntaxError("document has no root element")


class Handler:
    """Callback interface for :func:`sax_parse`; override what you need."""

    def start_element(self, name: str, attributes: dict[str, str]) -> None:
        """Called for every ``<name ...>`` (and the open half of ``<name/>``)."""

    def end_element(self, name: str) -> None:
        """Called for every ``</name>``."""

    def characters(self, data: str) -> None:
        """Called with coalesced character data inside the root element."""

    def comment(self, data: str) -> None:
        """Called for comments (default: ignored)."""

    def processing_instruction(self, target: str, data: str) -> None:
        """Called for PIs and the XML declaration (default: ignored)."""


def sax_parse(text: str, handler: Handler) -> None:
    """Parse ``text``, driving ``handler`` — the paper's evaluation entry point."""
    for event in parse_events(text):
        kind = event.kind
        if kind == "start":
            handler.start_element(event.name, event.attributes)
        elif kind == "end":
            handler.end_element(event.name)
        elif kind == "text":
            handler.characters(event.data)
        elif kind == "comment":
            handler.comment(event.data)
        elif kind == "pi":
            handler.processing_instruction(event.target, event.data)
