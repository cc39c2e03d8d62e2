"""Unit tests for tree-path addressing and text splicing.

:func:`repro.mutation.textedit.locate` must resolve element-child
ordinal paths to the exact byte span of the addressed element —
attributes never consume ordinals, self-closing elements are spans too
— and :func:`repro.mutation.textedit.splice` must edit the kept source
text so that re-parsing it yields the post-mutation document.
"""

import pytest

from repro.errors import MutationError
from repro.mutation.ops import Mutation
from repro.mutation.textedit import locate, splice

DOC = "<a><b><c>x</c></b><b/><d attr='v'><e>y</e></d></a>"


def test_locate_root():
    span = locate(DOC, ())
    assert (span.start, span.end) == (0, len(DOC))
    assert span.name == "a"
    assert not span.self_closing


def test_locate_nested_ordinals():
    span = locate(DOC, (0, 0))
    assert DOC[span.start:span.end] == "<c>x</c>"
    span = locate(DOC, (2, 0))
    assert DOC[span.start:span.end] == "<e>y</e>"


def test_locate_self_closing():
    span = locate(DOC, (1,))
    assert DOC[span.start:span.end] == "<b/>"
    assert span.self_closing


def test_locate_skips_markup_that_only_looks_like_tags():
    text = (
        '<?xml version="1.0"?><a x="1>2"><!-- <b/> --><![CDATA[<b></b>]]>'
        "<?pi <b>?><b>1</b><b >2</b ></a>"
    )
    span = locate(text, (1,))
    assert text[span.start:span.end] == "<b >2</b >"
    assert text[span.open_end:span.close_start] == "2"
    assert locate(text, ()).end == len(text)


def test_locate_rejects_missing():
    with pytest.raises(MutationError):
        locate(DOC, (9,))
    with pytest.raises(MutationError):
        locate(DOC, (0, 0, 0))  # <c> has no element children


def test_splice_delete():
    new_text = splice(DOC, Mutation("delete_subtree", (0, 0)))
    assert new_text == "<a><b></b><b/><d attr='v'><e>y</e></d></a>"


def test_splice_replace():
    new_text = splice(DOC, Mutation("replace_subtree", (1,), xml="<f>z</f>"))
    assert new_text == "<a><b><c>x</c></b><f>z</f><d attr='v'><e>y</e></d></a>"


def test_splice_append_into_open_element():
    new_text = splice(DOC, Mutation("append_child", (0,), xml="<g/>"))
    assert new_text == "<a><b><c>x</c><g/></b><b/><d attr='v'><e>y</e></d></a>"


def test_splice_append_reopens_self_closing():
    new_text = splice(DOC, Mutation("append_child", (1,), xml="<g/>"))
    assert "<b><g/></b>" in new_text


def test_splice_append_keeps_attributes_when_reopening():
    text = "<a><d x='1' y=\"2\"/></a>"
    new_text = splice(text, Mutation("append_child", (0,), xml="<g/>"))
    assert new_text == "<a><d x='1' y=\"2\"><g/></d></a>"


def test_splice_append_to_root():
    new_text = splice(DOC, Mutation("append_child", (), xml="<z/>"))
    assert new_text.endswith("<z/></a>")
