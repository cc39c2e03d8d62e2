"""Tests for the Core XPath lexer and parser, covering Appendix A syntax."""

import pytest

from repro.errors import XPathSyntaxError
from repro.xpath.ast import AndExpr, LocationPath, NotExpr, OrExpr, Step, StringExpr
from repro.xpath.lexer import lex
from repro.xpath.parser import parse_query


class TestLexer:
    def test_basic_tokens(self):
        kinds = [t.kind for t in lex('//a[b and "x"]')]
        assert kinds == [
            "DSLASH",
            "NAME",
            "LBRACKET",
            "NAME",
            "NAME",
            "STRING",
            "RBRACKET",
            "EOF",
        ]

    def test_string_quotes_stripped(self):
        tokens = lex('"double" \'single\'')
        assert tokens[0].value == "double"
        assert tokens[1].value == "single"

    def test_names_with_hyphen_dot_underscore(self):
        tokens = lex("following-sibling Clinical_Synop v1.2")
        assert [t.value for t in tokens[:3]] == [
            "following-sibling",
            "Clinical_Synop",
            "v1.2",
        ]

    def test_stray_character_rejected(self):
        with pytest.raises(XPathSyntaxError, match="unexpected character"):
            lex("/a/$b")

    def test_attribute_test_lexes_as_name(self):
        tokens = lex("/item/@id")
        assert tokens[3].kind == "NAME"
        assert tokens[3].value == "@id"


class TestPaths:
    def test_absolute_child_path(self):
        path = parse_query("/dblp/article/url")
        assert path.absolute
        assert [s.axis for s in path.steps] == ["child"] * 3
        assert [s.test for s in path.steps] == ["dblp", "article", "url"]

    def test_relative_path(self):
        path = parse_query("article/title")
        assert not path.absolute
        assert len(path.steps) == 2

    def test_double_slash_desugars(self):
        path = parse_query("//article")
        assert path.absolute
        assert [str(s) for s in path.steps] == [
            "descendant-or-self::*",
            "child::article",
        ]

    def test_inner_double_slash(self):
        path = parse_query("/a//b")
        assert [s.axis for s in path.steps] == ["child", "descendant-or-self", "child"]

    def test_explicit_axes(self):
        path = parse_query("ancestor::TEAM/following-sibling::PLAYER")
        assert [s.axis for s in path.steps] == ["ancestor", "following-sibling"]

    def test_self_star(self):
        path = parse_query("/self::*")
        assert path.steps == (Step("self", "*"),)

    def test_bare_root(self):
        path = parse_query("/")
        assert path.absolute
        assert path.steps == ()

    def test_unknown_axis_rejected(self):
        with pytest.raises(XPathSyntaxError, match="unknown axis"):
            parse_query("sideways::x")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(XPathSyntaxError, match="trailing"):
            parse_query("/a]")

    def test_missing_step_rejected(self):
        with pytest.raises(XPathSyntaxError):
            parse_query("/a/")


class TestPredicates:
    def test_string_predicate(self):
        path = parse_query('//Title["LETHAL"]')
        step = path.steps[-1]
        assert step.predicates == (StringExpr("LETHAL"),)

    def test_path_predicate(self):
        path = parse_query("/self::*[ROOT/Record/Title]")
        predicate = path.steps[0].predicates[0]
        assert isinstance(predicate, LocationPath)
        assert not predicate.absolute
        assert [s.test for s in predicate.steps] == ["ROOT", "Record", "Title"]

    def test_and_or_precedence(self):
        # a or b and c  ==  a or (b and c)
        path = parse_query("x[a or b and c]")
        predicate = path.steps[0].predicates[0]
        assert isinstance(predicate, OrExpr)
        assert isinstance(predicate.parts[1], AndExpr)

    def test_parentheses_override(self):
        path = parse_query("x[(a or b) and c]")
        predicate = path.steps[0].predicates[0]
        assert isinstance(predicate, AndExpr)
        assert isinstance(predicate.parts[0], OrExpr)

    def test_not(self):
        path = parse_query("x[not(following::*)]")
        predicate = path.steps[0].predicates[0]
        assert isinstance(predicate, NotExpr)
        assert isinstance(predicate.part, LocationPath)

    def test_nested_predicates(self):
        path = parse_query('//Record[sequence/seq["MMSARGDFLN"]]')
        outer = path.steps[-1].predicates[0]
        assert isinstance(outer, LocationPath)
        inner = outer.steps[-1].predicates[0]
        assert inner == StringExpr("MMSARGDFLN")

    def test_absolute_path_predicate(self):
        path = parse_query("//a[/descendant::b]")
        predicate = path.steps[-1].predicates[0]
        assert isinstance(predicate, LocationPath)
        assert predicate.absolute

    def test_multiple_predicates_on_step(self):
        path = parse_query('//a["x"]["y"]')
        assert len(path.steps[-1].predicates) == 2

    def test_reserved_word_as_tag_rejected(self):
        with pytest.raises(XPathSyntaxError, match="reserved"):
            parse_query("x[y/and]")


APPENDIX_A = [
    # SwissProt
    "/self::*[ROOT/Record/comment/topic]",
    "/ROOT/Record/comment/topic",
    '//Record/protein[taxo["Eukaryota"]]',
    '//Record[sequence/seq["MMSARGDFLN"] and protein/from["Rattus norvegicus"]]',
    '//Record/comment[topic["TISSUE SPECIFICITY"] and '
    'following-sibling::comment/topic["DEVELOPMENTAL STAGE"]]',
    # DBLP
    "/self::*[dblp/article/url]",
    "/dblp/article/url",
    '//article[author["Codd"]]',
    '/dblp/article[author["Chandra"] and author["Harel"]]/title',
    '/dblp/article[author["Chandra" and following-sibling::author["Harel"]]]/title',
    # Penn TreeBank
    "/self::*[alltreebank/FILE/EMPTY/S/VP/S/VP/NP]",
    "/alltreebank/FILE/EMPTY/S/VP/S/VP/NP",
    '//S//S[descendant::NNS["children"]]',
    '//VP["granting" and descendant::NP["access"]]',
    "//VP/NP/VP/NP[following::NP/VP/NP/PP]",
    # OMIM
    "/self::*[ROOT/Record/Title]",
    "/ROOT/Record/Title",
    '//Title["LETHAL"]',
    '//Record[Text["consanguineous parents"]]/Title["LETHAL"]',
    '//Record[Clinical_Synop/Part["Metabolic"]/following-sibling::Synop["Lactic acidosis"]]',
    # XMark
    "/self::*[site/regions/africa/item/description/parlist/listitem/text]",
    "/site/regions/africa/item/description/parlist/listitem/text",
    '//item[payment["Creditcard"]]',
    '//item[location["United States"] and parent::africa]',
    '//item/description/parlist/listitem["cassio" and following-sibling::*["portia"]]',
    # Shakespeare
    "/self::*[all/PLAY/ACT/SCENE/SPEECH/LINE]",
    "/all/PLAY/ACT/SCENE/SPEECH/LINE",
    '//SPEECH[SPEAKER["MARK ANTONY"]]/LINE',
    '//SPEECH[SPEAKER["CLEOPATRA"] or LINE["Cleopatra"]]',
    '//SPEECH[SPEAKER["CLEOPATRA"] and preceding-sibling::SPEECH[SPEAKER["MARK ANTONY"]]]',
    # Baseball
    "/self::*[SEASON/LEAGUE/DIVISION/TEAM/PLAYER]",
    "/SEASON/LEAGUE/DIVISION/TEAM/PLAYER",
    '//PLAYER[THROWS["Right"]]',
    '//PLAYER[ancestor::TEAM[TEAM_CITY["Atlanta"]] or (HOME_RUNS["5"] and STEALS["1"])]',
    '//PLAYER[POSITION["First Base"] and '
    'following-sibling::PLAYER[POSITION["Starting Pitcher"]]]',
]


@pytest.mark.parametrize("query", APPENDIX_A)
def test_all_appendix_a_queries_parse(query):
    path = parse_query(query)
    assert isinstance(path, LocationPath)
    assert path.absolute


class TestSizeLimit:
    """MAX_TERMS: query text is outside input, and everything recurses on it."""

    def test_limit_counts_paths_steps_and_operands(self):
        from repro.xpath.parser import MAX_TERMS

        parse_query("/a" * (MAX_TERMS - 1))  # one path + its steps
        with pytest.raises(XPathSyntaxError, match="query too large"):
            parse_query("/a" * MAX_TERMS)
        largest = max(parser_terms(query) for query in APPENDIX_A)
        assert largest < MAX_TERMS // 2  # the paper's queries are nowhere near

    @pytest.mark.parametrize(
        "query",
        [
            "/a[" + " and ".join(['"x"'] * 100) + "]",
            "/a[" + " or ".join(["b"] * 100) + "]",
            "/a" + "[b]" * 100,
            " | ".join(["/"] * 100),
            "//a" * 40,  # '//' is a step of its own
        ],
        ids=["and", "or", "predicates", "union", "double-slash"],
    )
    def test_wide_queries_compile_as_deep_as_nested_ones(self, query):
        with pytest.raises(XPathSyntaxError, match="query too large"):
            parse_query(query)


def parser_terms(query: str) -> int:
    from repro.xpath.parser import _Parser

    parser = _Parser(query)
    parser.parse()
    return parser.terms
