"""Tests for shredded storage and query-driven partial loading (section 6)."""

import json
import os

import pytest

from repro.corpora import generate
from repro.engine.evaluator import evaluate
from repro.errors import IntegrityError, ReproError
from repro.model.equivalence import equivalent
from repro.skeleton.loader import load_instance
from repro.storage.chunked import ChunkedStore, extract_subdag
from repro.storage.prune import prunable_top_tags

from tests.skeleton.test_loader import BIB_XML


@pytest.fixture
def bib_store(tmp_path):
    instance = load_instance(BIB_XML, strings=["Codd"])
    return ChunkedStore.save(instance, str(tmp_path / "store")), instance


class TestExtractSubdag:
    def test_extracts_reachable_part(self, figure2_compressed):
        book = next(iter(figure2_compressed.members("book")))
        sub = extract_subdag(figure2_compressed, book)
        sub.validate()
        assert sub.num_vertices == 3  # book + title + author
        assert len(sub.members("book")) == 1

    def test_preserves_multiplicities(self, figure2_compressed):
        book = next(iter(figure2_compressed.members("book")))
        sub = extract_subdag(figure2_compressed, book)
        assert sorted(count for _, count in sub.children(sub.root)) == [1, 3]


class TestSaveAndAssemble:
    def test_full_round_trip(self, bib_store):
        store, original = bib_store
        assert equivalent(store.assemble(), original)

    def test_distinct_chunks_deduplicated(self, tmp_path):
        # Without string sets the two papers share one subtree -> one chunk.
        store = ChunkedStore.save(load_instance(BIB_XML), str(tmp_path / "plain"))
        assert store.num_chunks == 2  # book + shared paper

    def test_string_sets_split_chunks(self, bib_store):
        store, _ = bib_store
        # The "Codd" labeling distinguishes the papers: 3 distinct chunks.
        assert store.num_chunks == 3

    def test_partial_assembly(self, bib_store):
        store, _ = bib_store
        paper_chunks = store.chunks_with_tags({"paper"})
        partial = store.assemble(paper_chunks)
        partial.validate()
        assert len(partial.members("book")) == 0
        result = evaluate(partial, "/bib/paper/author")
        assert result.tree_count() == 2

    def test_chunk_cache(self, bib_store):
        store, _ = bib_store
        first = store.chunk(0)
        assert store.chunk(0) is first

    def test_save_requires_document_instance(self, tmp_path, figure2_compressed):
        # figure2's root has three children -> not a document instance.
        with pytest.raises(ReproError, match="document instance"):
            ChunkedStore.save(figure2_compressed, str(tmp_path / "bad"))

    def test_open_rejects_non_store(self, tmp_path):
        os.makedirs(tmp_path / "junk", exist_ok=True)
        (tmp_path / "junk" / "manifest.json").write_text(json.dumps({"format": "nope"}))
        with pytest.raises(ReproError, match="not a chunk store"):
            ChunkedStore(str(tmp_path / "junk"))

    def test_reopen_from_disk(self, tmp_path):
        instance = load_instance(BIB_XML)
        ChunkedStore.save(instance, str(tmp_path / "s"))
        reopened = ChunkedStore(str(tmp_path / "s"))
        assert equivalent(reopened.assemble(), instance)

    @pytest.mark.parametrize(
        "damage, message", [("flip", "failed its checksum"), ("remove", "missing")]
    )
    def test_damaged_chunk_is_never_decoded(self, bib_store, damage, message):
        store, _ = bib_store
        path = os.path.join(store.directory, "chunk-0.dag")
        if damage == "flip":
            with open(path, "r+b") as handle:
                handle.seek(os.path.getsize(path) // 2)
                handle.write(b"\xde\xad\xbe\xef")
        else:
            os.remove(path)
        with pytest.raises(IntegrityError, match=message):
            ChunkedStore(store.directory).assemble()


class TestPruning:
    @pytest.mark.parametrize(
        "query,expected",
        [
            ("/bib/paper/author", {"paper"}),
            ("/bib/book/title", {"book"}),
            ('/bib/paper[author["Codd"]]', {"paper"}),
            ("/bib/paper | /bib/book", {"paper", "book"}),
            ("/bib/paper//author", {"paper"}),
            ("//paper", None),  # leading // observes everything
            ("/bib/*", None),  # wildcard second step
            ("/bib/paper/following-sibling::paper", None),  # sibling axis
            ("/bib/paper[preceding-sibling::book]", None),
            ("/bib/paper[/descendant::book]", None),  # absolute condition
            ("/bib[book]/paper", None),  # predicate on the root element
            ("paper/author", None),  # relative query
            ("/bib", None),  # too short
        ],
    )
    def test_analysis(self, query, expected):
        assert prunable_top_tags(query) == expected


class TestPartialQueriesMatchFull:
    QUERIES = [
        "/bib/paper/author",
        '/bib/paper[author["Codd"]]/title',
        "/bib/book/author",
        "/bib/paper//author",
        "//paper",  # unprunable: must still be answered correctly
        "/bib/paper/following-sibling::paper",  # ditto
    ]

    @pytest.mark.parametrize("query", QUERIES)
    def test_bib(self, bib_store, query):
        store, original = bib_store
        partial, loaded = store.instance_for_query(query)
        expected = evaluate(original, query)
        actual = evaluate(partial, query)
        assert actual.tree_count() == expected.tree_count()
        assert loaded <= store.num_chunks

    def test_pruned_query_loads_fewer_chunks(self, bib_store):
        store, _ = bib_store
        _, loaded = store.instance_for_query("/bib/paper/author")
        assert loaded == 2  # both paper chunks, not the book chunk
        _, loaded_all = store.instance_for_query("//author")
        assert loaded_all == store.num_chunks

    @pytest.mark.parametrize("corpus", ["dblp", "baseball"])
    def test_corpus_scale(self, tmp_path, corpus):
        xml = generate(corpus, 20, seed=4).xml
        instance = load_instance(xml)
        store = ChunkedStore.save(instance, str(tmp_path / corpus))
        assert equivalent(store.assemble(), instance)
