"""Property-based tests for the XML substrate and instance persistence."""

from hypothesis import given, strategies as st

from repro.model.equivalence import equivalent
from repro.skeleton.layout import decode_skeleton, encode_skeleton
from repro.skeleton.loader import load
from repro.skeleton.reassemble import reassemble
from repro.xmlio.dom import Element, parse_document
from repro.xmlio.writer import serialize

from tests.conftest import random_dag_instances

TAGS = st.sampled_from(["a", "b", "c", "d"])
TEXTS = st.text(
    alphabet=st.characters(blacklist_categories=("Cs", "Cc")), min_size=1, max_size=12
)
ATTR_NAMES = st.sampled_from(["x", "y", "z"])


@st.composite
def random_elements(draw, max_depth: int = 3) -> Element:
    element = Element(draw(TAGS))
    for name in draw(st.lists(ATTR_NAMES, unique=True, max_size=2)):
        element.attributes[name] = draw(TEXTS)
    for _ in range(draw(st.integers(0, 3))):
        if max_depth > 0 and draw(st.booleans()):
            element.children.append(draw(random_elements(max_depth=max_depth - 1)))
        else:
            element.children.append(draw(TEXTS))
    return element


def dom_equal(a, b) -> bool:
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return (
        a.tag == b.tag
        and a.attributes == b.attributes
        and len(a.children) == len(b.children)
        and all(dom_equal(x, y) for x, y in zip(a.children, b.children))
    )


def coalesced(element: Element) -> Element:
    """Adjacent text children merged — the parser's canonical form."""
    out = Element(element.tag, dict(element.attributes))
    for child in element.children:
        if isinstance(child, str):
            if out.children and isinstance(out.children[-1], str):
                out.children[-1] += child
            else:
                out.children.append(child)
        else:
            out.children.append(coalesced(child))
    return out


@given(random_elements())
def test_serialize_parse_round_trip(element):
    """DOM -> text -> DOM is the identity up to text coalescing."""
    parsed = parse_document(serialize(element, declaration=False)).root
    assert dom_equal(parsed, coalesced(element))


@given(random_elements())
def test_full_decomposition_round_trip(element):
    """XML -> (skeleton, containers, layout) -> XML preserves the document."""
    original = serialize(element, declaration=False)
    result = load(original, collect_containers=True, attributes="nodes")
    restored = reassemble(result.instance, result.containers, result.layout)
    assert dom_equal(parse_document(restored).root, coalesced(element))


@given(random_dag_instances())
def test_instance_serialization_round_trip(instance):
    restored = decode_skeleton(encode_skeleton(instance))
    restored.validate()
    assert equivalent(restored, instance)
