"""Unit tests for the XML tokenizer (lexical layer)."""

import pytest

from repro.errors import XMLSyntaxError
from repro.xmlio.escape import escape_attribute, escape_text, unescape
from repro.xmlio.tokenizer import element_tags, tokenize


def kinds(text):
    return [event.kind for event in tokenize(text)]


class TestBasicMarkup:
    def test_single_element(self):
        events = list(tokenize("<a></a>"))
        assert [e.kind for e in events] == ["start", "end"]
        assert events[0].name == "a"

    def test_self_closing_emits_both_halves(self):
        events = list(tokenize("<a/>"))
        assert [e.kind for e in events] == ["start", "end"]
        assert events[1].name == "a"

    def test_nested_elements(self):
        assert kinds("<a><b/></a>") == ["start", "start", "end", "end"]

    def test_text_between_elements(self):
        events = list(tokenize("<a>hello</a>"))
        assert events[1].kind == "text"
        assert events[1].data == "hello"

    def test_names_with_punctuation(self):
        events = list(tokenize("<ns:tag-1.x_y/>"))
        assert events[0].name == "ns:tag-1.x_y"

    def test_offsets_recorded(self):
        events = list(tokenize("ab<x/>"))
        assert events[0].offset == 0
        assert events[1].offset == 2


class TestAttributes:
    def test_double_and_single_quotes(self):
        (start, _) = tokenize('<a x="1" y=\'2\'/>')
        assert start.attributes == {"x": "1", "y": "2"}

    def test_whitespace_tolerated(self):
        (start, _) = tokenize('<a   x = "1"\n\ty="2" />')
        assert start.attributes == {"x": "1", "y": "2"}

    def test_entities_in_values(self):
        (start, _) = tokenize('<a x="&lt;&amp;&gt;"/>')
        assert start.attributes == {"x": "<&>"}

    def test_duplicate_attribute_rejected(self):
        with pytest.raises(XMLSyntaxError, match="duplicate"):
            list(tokenize('<a x="1" x="2"/>'))

    def test_unquoted_value_rejected(self):
        with pytest.raises(XMLSyntaxError):
            list(tokenize("<a x=1/>"))


class TestEntities:
    def test_predefined(self):
        (_, text, _) = tokenize("<a>&lt;&gt;&amp;&apos;&quot;</a>")
        assert text.data == "<>&'\""

    def test_numeric_decimal_and_hex(self):
        (_, text, _) = tokenize("<a>&#65;&#x42;</a>")
        assert text.data == "AB"

    def test_unknown_entity_rejected(self):
        with pytest.raises(XMLSyntaxError, match="unknown entity"):
            list(tokenize("<a>&nope;</a>"))

    def test_bare_ampersand_rejected(self):
        with pytest.raises(XMLSyntaxError, match="bare"):
            list(tokenize("<a>fish & chips</a>"))

    def test_escape_round_trip(self):
        original = 'a < b & "c" > d'
        assert unescape(escape_text(original)) == original
        assert unescape(escape_attribute(original)) == original


class TestCommentsCdataDoctypePi:
    def test_comment(self):
        events = list(tokenize("<a><!-- note --></a>"))
        assert events[1].kind == "comment"
        assert events[1].data == " note "

    def test_double_hyphen_in_comment_rejected(self):
        with pytest.raises(XMLSyntaxError, match="--"):
            list(tokenize("<a><!-- a -- b --></a>"))

    def test_unterminated_comment_rejected(self):
        with pytest.raises(XMLSyntaxError, match="unterminated comment"):
            list(tokenize("<a><!-- oops</a>"))

    def test_cdata_is_text_without_unescaping(self):
        events = list(tokenize("<a><![CDATA[<b>&amp;</b>]]></a>"))
        assert events[1].kind == "text"
        assert events[1].data == "<b>&amp;</b>"

    def test_unterminated_cdata_rejected(self):
        with pytest.raises(XMLSyntaxError, match="CDATA"):
            list(tokenize("<a><![CDATA[oops</a>"))

    def test_doctype_with_internal_subset(self):
        text = '<!DOCTYPE r [<!ELEMENT r (#PCDATA)>]><r/>'
        events = list(tokenize(text))
        assert events[0].kind == "doctype"
        assert events[1].kind == "start"

    def test_xml_declaration_is_pi(self):
        events = list(tokenize('<?xml version="1.0"?><a/>'))
        assert events[0].kind == "pi"
        assert events[0].target == "xml"

    def test_pi_with_data(self):
        events = list(tokenize("<?xslt href='x'?><a/>"))
        assert events[0].data == "href='x'"

    def test_bad_bang_rejected(self):
        with pytest.raises(XMLSyntaxError, match="'<!'"):
            list(tokenize("<a><!NOTATHING></a>"))


class TestElementTags:
    """The structure-only scan must make ``tokenize``'s lexical decisions."""

    TRICKY = (
        '<?xml version="1.0"?><!DOCTYPE r [<!ELEMENT r (#PCDATA)>]>'
        '<r a="1>2"><!-- <fake> --><b x="<"/>t &lt; u<![CDATA[<c></c>]]><?pi <d>?>'
        "<e >text</e ></r>"
    )

    def test_same_tags_and_offsets_as_tokenize(self):
        expected = [
            (event.kind, event.name, event.offset)
            for event in tokenize(self.TRICKY)
            if event.kind in ("start", "end")
        ]
        scanned = []
        for match, closing in element_tags(self.TRICKY):
            scanned.append(("end" if closing else "start", match.group(1), match.start()))
            if not closing and match.group(3):
                scanned.append(("end", match.group(1), match.start()))
        assert scanned == expected
        assert [name for _, name, _ in scanned] == ["r", "b", "b", "e", "e", "r"]

    def test_malformed_markup_rejected(self):
        with pytest.raises(XMLSyntaxError):
            list(element_tags("<a <b/>"))
        with pytest.raises(XMLSyntaxError, match="unterminated comment"):
            list(element_tags("<a><!-- never closed</a>"))


class TestErrors:
    def test_malformed_start_tag(self):
        with pytest.raises(XMLSyntaxError, match="malformed start tag"):
            list(tokenize("<a <b/>"))

    def test_malformed_closing_tag(self):
        with pytest.raises(XMLSyntaxError, match="closing"):
            list(tokenize("<a></ a>"))

    def test_error_carries_line_and_column(self):
        try:
            list(tokenize("<a>\n<b>\n<//></a>"))
        except XMLSyntaxError as error:
            assert error.line == 3
            assert "line 3" in str(error)
        else:
            pytest.fail("expected XMLSyntaxError")
