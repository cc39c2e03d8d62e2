"""The benchmark queries of Appendix A, verbatim.

The synthetic corpora were designed so that every query below matches the
generated structure and planted strings; all 35 queries are exactly as
printed in the paper's appendix.  Per the paper's design: Q1 is a tree
pattern selecting the root (only ``parent`` after reversal — no
decompression, Corollary 3.7); Q2 the same path forward; Q3 adds descendant
+ string constraints; Q4 branching conditions; Q5 the remaining axes.
"""

from __future__ import annotations

from repro.errors import CorpusError

QUERIES: dict[str, dict[str, str]] = {
    "swissprot": {
        "Q1": "/self::*[ROOT/Record/comment/topic]",
        "Q2": "/ROOT/Record/comment/topic",
        "Q3": '//Record/protein[taxo["Eukaryota"]]',
        "Q4": '//Record[sequence/seq["MMSARGDFLN"] and protein/from["Rattus norvegicus"]]',
        "Q5": '//Record/comment[topic["TISSUE SPECIFICITY"] and '
        'following-sibling::comment/topic["DEVELOPMENTAL STAGE"]]',
    },
    "dblp": {
        "Q1": "/self::*[dblp/article/url]",
        "Q2": "/dblp/article/url",
        "Q3": '//article[author["Codd"]]',
        "Q4": '/dblp/article[author["Chandra"] and author["Harel"]]/title',
        "Q5": '/dblp/article[author["Chandra" and following-sibling::author["Harel"]]]/title',
    },
    "treebank": {
        "Q1": "/self::*[alltreebank/FILE/EMPTY/S/VP/S/VP/NP]",
        "Q2": "/alltreebank/FILE/EMPTY/S/VP/S/VP/NP",
        "Q3": '//S//S[descendant::NNS["children"]]',
        "Q4": '//VP["granting" and descendant::NP["access"]]',
        "Q5": "//VP/NP/VP/NP[following::NP/VP/NP/PP]",
    },
    "omim": {
        "Q1": "/self::*[ROOT/Record/Title]",
        "Q2": "/ROOT/Record/Title",
        "Q3": '//Title["LETHAL"]',
        "Q4": '//Record[Text["consanguineous parents"]]/Title["LETHAL"]',
        "Q5": '//Record[Clinical_Synop/Part["Metabolic"'
        ']/following-sibling::Synop["Lactic acidosis"]]',
    },
    "xmark": {
        "Q1": "/self::*[site/regions/africa/item/description/parlist/listitem/text]",
        "Q2": "/site/regions/africa/item/description/parlist/listitem/text",
        "Q3": '//item[payment["Creditcard"]]',
        "Q4": '//item[location["United States"] and parent::africa]',
        "Q5": '//item/description/parlist/listitem["cassio" and '
        'following-sibling::*["portia"]]',
    },
    "shakespeare": {
        "Q1": "/self::*[all/PLAY/ACT/SCENE/SPEECH/LINE]",
        "Q2": "/all/PLAY/ACT/SCENE/SPEECH/LINE",
        "Q3": '//SPEECH[SPEAKER["MARK ANTONY"]]/LINE',
        "Q4": '//SPEECH[SPEAKER["CLEOPATRA"] or LINE["Cleopatra"]]',
        "Q5": '//SPEECH[SPEAKER["CLEOPATRA"] and '
        'preceding-sibling::SPEECH[SPEAKER["MARK ANTONY"]]]',
    },
    "baseball": {
        "Q1": "/self::*[SEASON/LEAGUE/DIVISION/TEAM/PLAYER]",
        "Q2": "/SEASON/LEAGUE/DIVISION/TEAM/PLAYER",
        "Q3": '//PLAYER[THROWS["Right"]]',
        "Q4": '//PLAYER[ancestor::TEAM[TEAM_CITY["Atlanta"]] or '
        '(HOME_RUNS["5"] and STEALS["1"])]',
        "Q5": '//PLAYER[POSITION["First Base"] and '
        'following-sibling::PLAYER[POSITION["Starting Pitcher"]]]',
    },
}

QUERY_IDS = ("Q1", "Q2", "Q3", "Q4", "Q5")


def queries_for(corpus: str) -> dict[str, str]:
    try:
        return QUERIES[corpus]
    except KeyError:
        raise CorpusError(f"no benchmark queries for corpus {corpus!r}") from None
