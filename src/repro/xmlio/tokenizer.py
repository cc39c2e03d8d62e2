"""A from-scratch streaming XML tokenizer.

This is the lexical layer of the paper's "very fast SAX(-like) parser"
(section 4), rebuilt in Python.  It walks the document text once, emitting
:mod:`repro.xmlio.events` objects; all heavy lifting is delegated to the
:mod:`re` module (C speed), with Python code only at markup boundaries.

The tokenizer checks lexical well-formedness (tag syntax, attribute quoting,
comment/CDATA termination); *structural* well-formedness (balanced tags, a
single root) is layered on top by :mod:`repro.xmlio.parser`.
"""

from __future__ import annotations

import re
from typing import Iterator

from repro.errors import XMLSyntaxError
from repro.xmlio.escape import unescape
from repro.xmlio.events import (
    Comment,
    Doctype,
    EndElement,
    Event,
    ProcessingInstruction,
    StartElement,
    Text,
)

# Practical XML name: anything that is not whitespace, punctuation used by
# the grammar, and does not start with a character reserved for markup.
_NAME = r"[^\s<>/=!?'\"][^\s<>/=!?'\"]*"

_OPEN_RE = re.compile(
    rf"<({_NAME})"  # tag name
    r"((?:\s+[^\s<>/=]+\s*=\s*(?:\"[^\"]*\"|'[^']*'))*)"  # attributes
    r"\s*(/?)>"
)
_CLOSE_RE = re.compile(rf"</({_NAME})\s*>")
_ATTR_RE = re.compile(r"([^\s<>/=]+)\s*=\s*(?:\"([^\"]*)\"|'([^']*)')")
_PI_RE = re.compile(rf"<\?({_NAME})(?:\s+(.*?))?\?>", re.DOTALL)


def _location(text: str, offset: int) -> tuple[int, int]:
    """1-based (line, column) of ``offset`` — computed only on error paths."""
    line = text.count("\n", 0, offset) + 1
    last_newline = text.rfind("\n", 0, offset)
    return line, offset - last_newline


def _error(message: str, text: str, offset: int) -> XMLSyntaxError:
    line, column = _location(text, offset)
    return XMLSyntaxError(message, offset=offset, line=line, column=column)


def decode_text(data: bytes) -> str:
    """``data`` as UTF-8 text with universal newlines, as text-mode ``open`` reads.

    Bytes that are not UTF-8 raise :class:`XMLSyntaxError` carrying the byte
    offset, so a mis-encoded file ends in the library's own error type.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as error:
        raise XMLSyntaxError(
            f"input is not valid UTF-8 ({error.reason})", offset=error.start
        ) from None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def tokenize(text: str) -> Iterator[Event]:
    """Yield lexical events for ``text`` in document order.

    Adjacent character data (including CDATA sections) is *not* merged here;
    the parser layer coalesces it.  Raises :class:`XMLSyntaxError` with
    line/column info on malformed markup.
    """
    position = 0
    length = len(text)
    find = text.find
    while position < length:
        lt = find("<", position)
        if lt < 0:
            data = text[position:]
            if data:
                yield Text(unescape(data), offset=position)
            return
        if lt > position:
            yield Text(unescape(text[position:lt]), offset=position)
        marker = text[lt + 1] if lt + 1 < length else ""
        if marker == "/":
            match = _CLOSE_RE.match(text, lt)
            if not match:
                raise _error("malformed closing tag", text, lt)
            yield EndElement(match.group(1), offset=lt)
            position = match.end()
        elif marker == "!":
            event, position = _bang(text, lt)
            yield event
        elif marker == "?":
            match = _PI_RE.match(text, lt)
            if not match:
                raise _error("malformed processing instruction", text, lt)
            yield ProcessingInstruction(match.group(1), match.group(2) or "", offset=lt)
            position = match.end()
        else:
            match = _OPEN_RE.match(text, lt)
            if not match:
                raise _error("malformed start tag", text, lt)
            name, attr_blob, self_close = match.groups()
            attributes = _parse_attributes(attr_blob, text, lt)
            yield StartElement(name, attributes, offset=lt)
            if self_close:
                yield EndElement(name, offset=lt)
            position = match.end()


def element_tags(text: str) -> Iterator[tuple[re.Match, bool]]:
    """Yield ``(match, is_close)`` for every element tag of ``text``, in order.

    The structure-only view of :func:`tokenize` for callers that need tag
    offsets but no character data, attributes or event objects (the
    mutation text splicer runs it over the whole kept document on every
    commit): the same regexes, hence the same lexical decisions, at a
    fraction of the cost.  ``match`` is an ``_OPEN_RE`` match (group 3 is
    ``"/"`` for ``<name/>``) or a ``_CLOSE_RE`` match.
    """
    position = 0
    find = text.find
    while (lt := find("<", position)) >= 0:
        marker = text[lt + 1 : lt + 2]
        if marker == "!":
            _, position = _bang(text, lt)
            continue
        if marker == "/":
            match = _CLOSE_RE.match(text, lt)
        elif marker == "?":
            match = _PI_RE.match(text, lt)
        else:
            match = _OPEN_RE.match(text, lt)
        if not match:
            raise _error("malformed markup", text, lt)
        if marker != "?":
            yield match, marker == "/"
        position = match.end()


def _parse_attributes(blob: str, text: str, tag_offset: int) -> dict[str, str]:
    if not blob:
        return {}
    attributes: dict[str, str] = {}
    for match in _ATTR_RE.finditer(blob):
        name = match.group(1)
        value = match.group(2) if match.group(2) is not None else match.group(3)
        if name in attributes:
            raise _error(f"duplicate attribute {name!r}", text, tag_offset)
        attributes[name] = unescape(value)
    return attributes


def _bang(text: str, lt: int) -> tuple[Event, int]:
    """The event of a ``<!--``, ``<![CDATA[`` or ``<!DOCTYPE`` construct and
    the offset just past it."""
    if text.startswith("<!--", lt):
        end = text.find("-->", lt + 4)
        if end < 0:
            raise _error("unterminated comment", text, lt)
        body = text[lt + 4 : end]
        if "--" in body:
            raise _error("'--' inside comment", text, lt)
        return Comment(body, offset=lt), end + 3
    if text.startswith("<![CDATA[", lt):
        end = text.find("]]>", lt + 9)
        if end < 0:
            raise _error("unterminated CDATA section", text, lt)
        return Text(text[lt + 9 : end], offset=lt), end + 3
    if text.startswith("<!DOCTYPE", lt):
        # Skip to the matching '>' accounting for an optional internal
        # subset in [...] brackets.
        depth = 0
        for index in range(lt, len(text)):
            char = text[index]
            if char == "[":
                depth += 1
            elif char == "]":
                depth -= 1
            elif char == ">" and depth == 0:
                return Doctype(text[lt : index + 1], offset=lt), index + 1
        raise _error("unterminated DOCTYPE", text, lt)
    raise _error("malformed '<!' construct", text, lt)
