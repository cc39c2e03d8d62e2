"""Property test: random edit scripts are indistinguishable from re-shredding.

For random sequences of ``append_child`` / ``replace_subtree`` /
``delete_subtree`` over the binary-tree, relational, and xmark corpora,
the incremental maintenance path (:func:`repro.mutation.apply
.apply_mutations`) must produce exactly what shredding the edited text
from scratch produces: the same minimized DAG size, byte-equal exact
statistics, and byte-identical query results.  Paths are drawn from the
*current* document state, so scripts compound: each op edits the result
of the previous one.
"""

import xml.etree.ElementTree as ET

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.corpora import binary_tree, relational
from repro.corpora.registry import CORPORA
from repro.mutation.ops import Mutation

from tests.mutation.test_apply import check_against_oracle

CORPUS_XML = {
    "binary-tree": binary_tree.generate_xml(depth=4).xml,
    "relational": relational.generate_xml(6, 3, distinct_texts=True).xml,
    "xmark": CORPORA["xmark"].generate(15, 0).xml,
}

QUERY_POOLS = {
    "binary-tree": ["//a", "//b[a]", "/a/b/a", "//a/following-sibling::b"],
    "relational": ["//row", "//row[col0]/col1", "/table/row/col2",
                   "//col0/following-sibling::col1"],
    "xmark": ["//item", "//item/description", "//regions//item", "//site/regions"],
}

FRAGMENTS = [
    "<extra>inserted text</extra>",
    "<a><b>leaf</b></a>",
    "<row><col0>v0</col0><col1>v1</col1></row>",
    "<item><description>new thing</description></item>",
    "<wrap><a/><a/></wrap>",
]


def element_paths(text, max_paths=400):
    """Every element's tree path in document order (root element = ())."""
    paths = [()]
    stack = [(ET.fromstring(text), ())]
    while stack and len(paths) < max_paths:
        element, path = stack.pop()
        for ordinal, child in enumerate(element):
            child_path = path + (ordinal,)
            paths.append(child_path)
            stack.append((child, child_path))
    return paths


def draw_script(draw, text, size):
    """A valid, compounding edit script over the *evolving* document."""
    script = []
    current = text
    for _ in range(size):
        paths = element_paths(current)
        path = paths[draw(st.integers(min_value=0, max_value=len(paths) - 1))]
        choices = ["append_child", "replace_subtree"]
        if path:  # deleting the root element is refused by design
            choices.append("delete_subtree")
        op = draw(st.sampled_from(choices))
        if op == "delete_subtree":
            mutation = Mutation(op, path)
        else:
            fragment = draw(st.sampled_from(FRAGMENTS))
            mutation = Mutation(op, path, xml=fragment)
        script.append(mutation)
        from repro.mutation.textedit import splice

        current = splice(current, mutation)
    return script


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    corpus=st.sampled_from(sorted(CORPUS_XML)),
    size=st.integers(min_value=1, max_value=4),
    data=st.data(),
)
def test_random_edit_scripts_match_fresh_shred(corpus, size, data):
    text = CORPUS_XML[corpus]
    script = draw_script(data.draw, text, size)
    check_against_oracle(text, script, queries=QUERY_POOLS[corpus])


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(size=st.integers(min_value=1, max_value=3), data=st.data())
def test_random_edit_scripts_attribute_documents(size, data):
    text = "<r><x k='v'><y/><y n='2'/></x><x k='w'/></r>"
    script = draw_script(data.draw, text, size)
    check_against_oracle(
        text, script, attributes="nodes",
        queries=["//x", "//y", "//@k", "//x/y"],
    )
