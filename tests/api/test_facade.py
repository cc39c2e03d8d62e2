"""The ``repro.api`` façade: Database / PreparedQuery lifecycle and plumbing."""

import pytest

import repro
from repro.api import Database, Plan, PreparedQuery
from repro.engine.pipeline import Engine
from repro.errors import CatalogError, ReproError

BIB_XML = """\
<bib>
  <book><title>Foundations</title><author>Abiteboul</author>\
<author>Hull</author><author>Vianu</author></book>
  <paper year="1970"><title>Relational</title><author>Codd</author></paper>
  <paper><title>Complexity</title><author>Vardi</author></paper>
</bib>
"""


class TestOpen:
    def test_open_text(self):
        with repro.open(BIB_XML) as db:
            assert db.mode == "embedded"
            assert db.execute("//author").tree_count() == 5

    def test_open_xml_file(self, tmp_path):
        path = tmp_path / "bib.xml"
        path.write_text(BIB_XML, encoding="utf-8")
        with repro.open(path) as db:
            assert db.execute("//author").tree_count() == 5

    def test_open_dag_file(self, tmp_path):
        from repro.skeleton.layout import write_skeleton
        from repro.skeleton.loader import load

        # Recognised by its RSKL magic, not by what the file is called.
        path = str(tmp_path / "bib.saved")
        write_skeleton(path, load(BIB_XML).instance)
        with repro.open(path) as db:
            assert db.execute("//author").tree_count() == 5
            # No character data in a saved instance: the fragment tier is off.
            with pytest.raises(ReproError, match="fragments"):
                db.execute("//author").fragments(1)

    @pytest.mark.parametrize(
        "query",
        ["//author", "//book/author", "//title/following-sibling::author", "//paper[author]"],
    )
    def test_saved_instance_execute_is_a_batch_of_one(self, tmp_path, query):
        from repro.skeleton.layout import write_skeleton
        from repro.skeleton.loader import load

        path = str(tmp_path / "bib.saved")
        write_skeleton(path, load(BIB_XML).instance)
        with repro.open(path) as db:
            one = db.execute(query)
            (batched,) = db.execute_batch([query])
        assert one.result.set_name == batched.result.set_name == "#q0"
        assert one.to_json(paths=10) == batched.to_json(paths=10)
        assert (one.before, one.after, one.dag_count()) == (
            batched.before, batched.after, batched.dag_count()
        )

    def test_open_catalog_directory(self, tmp_path):
        with Database.from_catalog(tmp_path / "cat") as first:
            first.add_document("bib", BIB_XML)
        with repro.open(tmp_path / "cat") as db:
            assert db.mode == "served"
            assert db.documents() == ["bib"]

    def test_open_rejects_non_catalog_directory(self, tmp_path):
        with pytest.raises(ReproError, match="catalog"):
            repro.open(tmp_path)

    def test_open_missing_file(self):
        with pytest.raises(FileNotFoundError):
            repro.open("no-such-file.xml")


class TestEmbeddedDatabase:
    def test_matches_engine_exactly(self):
        db = repro.open(BIB_XML)
        engine = Engine(BIB_XML)
        for query_text in ("//author", "/bib/book/author", '//paper[author["Codd"]]'):
            mine = db.execute(query_text)
            theirs = engine.query(query_text)
            assert mine.vertices() == theirs.vertices()
            assert mine.tree_count() == theirs.tree_count()
            assert list(mine.iter_paths()) == theirs.tree_paths()

    def test_batch_matches_engine_batch(self):
        mix = ["//author", "//title", "//book/author"]
        batch = repro.open(BIB_XML).execute_batch(mix)
        expected = Engine(BIB_XML).query_batch(mix)
        assert len(batch) == len(expected.results)
        for mine, theirs in zip(batch, expected):
            assert mine.tree_count() == theirs.tree_count()
        assert batch.stats.queries == 3
        assert "batch of 3" in batch.summary()

    def test_prepared_query_runs_without_reparse(self):
        db = repro.open(BIB_XML)
        prepared = db.prepare("//book/author")
        assert prepared.tags == ("author", "book")
        assert prepared.strings == ()
        # The engine's compiled cache serves the exact prepared object back.
        assert db.prepare("//book/author").expr is prepared.expr
        assert prepared.run(db).tree_count() == 3

    def test_foreign_prepared_query_is_adopted(self):
        prepared = PreparedQuery.compile("//author")
        db = repro.open(BIB_XML)
        assert db.execute(prepared).tree_count() == 5
        # Adoption seeded the engine cache with the foreign expression.
        assert db.engine.compiled("//author") is prepared.expr

    def test_instance_backend_keeps_its_hottest_query_compiled(self):
        # One hot text interleaved with more one-off texts than the cache
        # holds: an LRU keeps it, the old clear-at-1024 dict recompiled it.
        from repro.skeleton.loader import load

        db = Database.from_instance(load(BIB_XML, tags=["book"]).instance)
        hot = db.prepare("//book")
        for i in range(1100):
            db.prepare(f"//oneoff{i}")
            assert db.prepare("//book").expr is hot.expr

    def test_structural_key_matches_algebra(self):
        prepared = PreparedQuery.compile("//a/b")
        assert prepared.structural_key() == prepared.expr.structural_key()

    def test_context_sets_pass_through(self):
        from repro.skeleton.loader import load

        instance = load(BIB_XML, tags=["book", "author"]).instance
        instance.ensure_set("start")
        book = next(v for v in instance.preorder() if instance.in_set(v, "book"))
        instance.add_to_set(book, "start")
        db = Database.from_instance(instance)
        assert db.execute("author", context="start").tree_count() == 3

    def test_document_name_rejected_embedded(self):
        with pytest.raises(ReproError, match="no document name"):
            repro.open(BIB_XML).execute("//a", document="bib")

    def test_explain_reports_engine_cache_state(self):
        db = repro.open(BIB_XML)
        plan = db.explain("//author")
        assert isinstance(plan, Plan)
        assert plan.instance == {
            "source": "engine",
            "cached": False,
            "reparse_per_query": False,
        }
        db.execute("//author")
        assert db.explain("//author").instance["cached"] is True

    def test_explain_render_matches_engine_explain(self):
        # The façade's explain is the *optimized* annotated plan; the raw
        # Figure 3 view (what Engine.explain renders) is preserved as the
        # optimizer block's unoptimized shadow.
        db = repro.open(BIB_XML)
        query_text = '//paper[author["Codd"] or not(following::*)]'
        plan = db.explain(query_text)
        assert PreparedQuery.compile(query_text).plan().render() == Engine(
            BIB_XML
        ).explain(query_text)
        assert "[est=" in plan.render()
        assert plan.optimizer is not None
        assert plan.optimizer["optimized"] is True

    def test_last_load_exposed(self):
        db = repro.open(BIB_XML)
        db.execute("//author")
        assert db.last_load is not None
        assert db.last_load.parse_seconds >= 0

    def test_to_xml_round_trip(self):
        db = repro.open(BIB_XML)
        reparsed = repro.open(db.to_xml())
        for query_text in ("//author", "//book/title"):
            assert (
                reparsed.execute(query_text).tree_count()
                == db.execute(query_text).tree_count()
            )


class TestServedDatabase:
    @pytest.fixture
    def db(self, tmp_path):
        with Database.from_catalog(tmp_path / "cat") as db:
            db.add_document("bib", BIB_XML)
            yield db

    def test_execute_matches_embedded(self, db):
        served = db.execute("//book/author", document="bib", paths=10)
        embedded = repro.open(BIB_XML).execute("//book/author")
        assert served.served and not embedded.served
        assert served.tree_count() == embedded.tree_count()
        assert served.paths() == embedded.paths(10)
        assert served.to_json(paths=5) == embedded.to_json(paths=5)
        assert served.info["document"] == "bib"

    def test_single_document_is_implied(self, db):
        assert db.execute("//author").tree_count() == 5
        assert db.explain("//author").instance["source"] == "pool"

    def test_multi_document_needs_name(self, db):
        db.add_document("tiny", "<r><x/></r>")
        with pytest.raises(ReproError, match="document=<name>"):
            db.execute("//x")
        assert db.execute("//x", document="tiny").tree_count() == 1

    def test_unknown_document_raises_catalog_error(self, db):
        with pytest.raises(CatalogError):
            db.execute("//a", document="ghost")

    def test_context_rejected_served(self, db):
        with pytest.raises(ReproError, match="context"):
            db.execute("//a", document="bib", context="start")

    def test_explain_reports_pool_residency(self, db):
        assert db.explain("//author", document="bib").instance["resident"] is False
        db.execute("//author", document="bib")
        assert db.explain("//author", document="bib").instance["resident"] is True

    def test_prepared_query_seeds_service_cache(self, db):
        prepared = PreparedQuery.compile("//title")
        assert db.execute(prepared, document="bib").tree_count() == 3
        expr, tags, strings = db.service.compiled_entry("//title")
        assert expr is prepared.expr

    def test_batch_served(self, db):
        batch = db.execute_batch(["//author", "//title"], document="bib")
        assert [r.tree_count() for r in batch] == [5, 3]
        assert batch.stats is None  # coalescing happens inside the service

    def test_batch_served_submits_concurrently(self, db):
        # Concurrent submission gives the service callers to coalesce; a
        # larger same-document mix must still come back in order, correct.
        mix = ["//author", "//title", "//book/author", "//paper/author"] * 2
        batch = db.execute_batch(mix, document="bib")
        assert [r.tree_count() for r in batch] == [5, 3, 3, 2] * 2

    def test_empty_batch(self, db):
        assert len(db.execute_batch([], document="bib")) == 0
        assert len(repro.open(BIB_XML).execute_batch([])) == 0

    def test_remove_document(self, db):
        db.add_document("tiny", "<r><x/></r>")
        db.execute("//x", document="tiny")
        db.remove_document("tiny")
        assert db.documents() == ["bib"]
        with pytest.raises(CatalogError):
            db.execute("//x", document="tiny")

    def test_close_is_idempotent(self, tmp_path):
        db = Database.from_catalog(tmp_path / "cat2")
        db.close()
        db.close()


class TestTopLevelSurface:
    def test_removed_entry_points_raise(self):
        # The PR 5 deprecation shims were removed in 2.0.0 (DESIGN.md §9).
        for name in ("Engine", "load_instance", "query", "query_batch"):
            with pytest.raises(AttributeError, match=name):
                getattr(repro, name)
            assert name not in dir(repro)
            assert name not in repro.__all__

    def test_internal_pipeline_still_answers(self):
        assert Engine(BIB_XML).query("//author").tree_count() == 5

    def test_dir_lists_lazy_exports(self):
        listed = dir(repro)
        for name in ("Database", "PreparedQuery", "ResultSet", "Plan", "open", "api"):
            assert name in listed, name

    def test_version_is_single_sourced(self):
        # Either the installed distribution's version or the source-checkout
        # fallback — never a silently drifting hardcode.
        assert repro.__version__
        import importlib.metadata as metadata

        try:
            assert repro.__version__ == metadata.version("repro")
        except metadata.PackageNotFoundError:
            assert repro.__version__.endswith("+src")
