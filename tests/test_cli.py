"""Tests for the repro command-line interface."""

import re

import pytest

import repro
from repro.cli import main
from repro.errors import IntegrityError, XMLSyntaxError


@pytest.fixture
def bib_file(tmp_path):
    from tests.skeleton.test_loader import BIB_XML

    path = tmp_path / "bib.xml"
    path.write_text(BIB_XML, encoding="utf-8")
    return str(path)


class TestCorpora:
    def test_lists_all(self, capsys):
        assert main(["corpora"]) == 0
        out = capsys.readouterr().out
        for name in ("dblp", "swissprot", "treebank", "baseball"):
            assert name in out


class TestGen:
    def test_writes_to_stdout(self, capsys):
        assert main(["gen", "tpcd", "--scale", "5"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("<?xml")
        assert "<table>" in out

    def test_writes_to_file(self, tmp_path, capsys):
        target = tmp_path / "out.xml"
        assert main(["gen", "baseball", "--scale", "2", "-o", str(target)]) == 0
        assert target.read_text(encoding="utf-8").startswith("<?xml")
        assert "wrote" in capsys.readouterr().err

    def test_unknown_corpus_fails(self, capsys):
        assert main(["gen", "nosuch"]) == 2
        assert "unknown corpus" in capsys.readouterr().err


class TestCompress:
    def test_stats_output(self, bib_file, capsys):
        assert main(["compress", bib_file]) == 0
        out = capsys.readouterr().out
        assert "|V^T|: 13" in out
        assert "ratio" in out

    def test_tags_none(self, bib_file, capsys):
        assert main(["compress", bib_file, "--tags", "none"]) == 0

    def test_tag_list(self, bib_file, capsys):
        assert main(["compress", bib_file, "--tags", "book,author"]) == 0

    def test_dot_flag(self, bib_file, capsys):
        assert main(["compress", bib_file, "--dot"]) == 0
        assert "digraph" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["compress", "/nonexistent.xml"]) == 2
        assert "error: file not found: /nonexistent.xml" in capsys.readouterr().err


class TestQuery:
    def test_counts(self, bib_file, capsys):
        assert main(["query", bib_file, "//author"]) == 0
        out = capsys.readouterr().out
        assert "selected tree nodes : 5" in out

    def test_paths_printed(self, bib_file, capsys):
        assert main(["query", bib_file, "//book/author", "--paths", "3"]) == 0
        out = capsys.readouterr().out
        assert "1.1.2" in out

    def test_bad_query_fails(self, bib_file, capsys):
        assert main(["query", bib_file, "//a[["]) == 2
        assert "error: invalid query:" in capsys.readouterr().err

    def test_no_queries_fails(self, bib_file, capsys):
        assert main(["query", bib_file]) == 2
        assert "no queries" in capsys.readouterr().err

    def test_paths_bounded_work(self, tmp_path, capsys):
        # Regression: --paths N used to materialise up to --limit full edge
        # paths before slicing; with a limit smaller than the tree that
        # raised DecompressionLimitError even though only 2 paths were
        # requested. The lazy islice path stops after N matches.
        from repro.corpora.binary_tree import generate_xml

        path = tmp_path / "deep.xml"
        path.write_text(generate_xml(depth=8).xml, encoding="utf-8")
        assert main(["query", str(path), "//a", "--paths", "2", "--limit", "20"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n  ") == 2  # exactly two path lines printed


class TestQueryBatch:
    def test_multiple_xpaths_batched(self, bib_file, capsys):
        assert main(["query", bib_file, "//author", "//title"]) == 0
        out = capsys.readouterr().out
        assert "batch               : 2 queries" in out
        assert "shared work" in out
        assert "--- //author" in out and "--- //title" in out
        assert "selected tree nodes : 5" in out  # //author
        assert "selected tree nodes : 3" in out  # //title

    def test_workload_file(self, bib_file, tmp_path, capsys):
        workload = tmp_path / "mix.txt"
        workload.write_text(
            "# the bib mix\n//author\n\n//book/title\n", encoding="utf-8"
        )
        assert main(["query", bib_file, "--workload", str(workload)]) == 0
        out = capsys.readouterr().out
        assert "batch               : 2 queries" in out
        assert "--- //book/title" in out

    def test_positional_plus_workload(self, bib_file, tmp_path, capsys):
        workload = tmp_path / "mix.txt"
        workload.write_text("//title\n", encoding="utf-8")
        assert main(["query", bib_file, "//author", "--workload", str(workload)]) == 0
        assert "batch               : 2 queries" in capsys.readouterr().out

    def test_batch_matches_single_runs(self, bib_file, capsys):
        assert main(["query", bib_file, "//author", "//paper"]) == 0
        batched = capsys.readouterr().out
        assert main(["query", bib_file, "//author"]) == 0
        single = capsys.readouterr().out
        for line in single.splitlines():
            if line.startswith("selected"):
                assert line in batched

    def test_batch_paths_printed_per_query(self, bib_file, capsys):
        assert main(["query", bib_file, "//book/author", "//paper", "--paths", "1"]) == 0
        out = capsys.readouterr().out
        assert "1.1.2" in out  # first book author

    def test_batch_on_saved_dag(self, bib_file, tmp_path, capsys):
        saved = str(tmp_path / "bib.rskl")
        assert main(["compress", bib_file, "--save", saved]) == 0
        capsys.readouterr()
        assert main(["query", saved, "//author", "//title"]) == 0
        out = capsys.readouterr().out
        assert "batch               : 2 queries" in out


def _selected(out: str) -> list[str]:
    return [line for line in out.splitlines() if line.startswith("selected")]


class TestSavedInstances:
    def test_compress_save_then_query_dag(self, bib_file, tmp_path, capsys):
        # A saved instance is recognised by its RSKL magic, whatever the suffix.
        saved = str(tmp_path / "bib.any")
        assert main(["compress", bib_file, "--save", saved]) == 0
        capsys.readouterr()
        assert main(["query", saved, "//author"]) == 0
        out = capsys.readouterr().out
        assert "selected tree nodes : 5" in out
        assert "parse+compress time : 0.000s" in out  # no XML re-parse
        assert main(["explain", "--file", saved, "--analyze", "//author"]) == 0
        assert "actual=5" in capsys.readouterr().out

    def test_compress_with_string_sets(self, bib_file, tmp_path, capsys):
        saved = str(tmp_path / "bib.rskl")
        query = '//paper[author["Codd"]]'
        assert main(["compress", bib_file, "--string", "Codd", "--save", saved]) == 0
        capsys.readouterr()
        assert main(["query", saved, query]) == 0
        from_saved = capsys.readouterr().out
        assert "selected tree nodes : 1" in from_saved
        assert main(["query", bib_file, query]) == 0
        assert _selected(capsys.readouterr().out) == _selected(from_saved)

    @pytest.mark.parametrize(
        "damage, code, error",
        [
            ("truncated", 2, IntegrityError),
            ("flipped-byte", 2, IntegrityError),
            ("wrong-version", 2, IntegrityError),
            ("bad-magic", 1, XMLSyntaxError),  # not an image, so read as (broken) XML
            ("non-utf8-xml", 1, XMLSyntaxError),
        ],
    )
    def test_damaged_file_is_one_error_line(
        self, damage, code, error, bib_file, tmp_path, capsys
    ):
        saved = tmp_path / "bib.rskl"
        assert main(["compress", bib_file, "--save", str(saved)]) == 0
        capsys.readouterr()
        image = saved.read_bytes()
        damaged = tmp_path / "damaged"
        damaged.write_bytes(
            {
                "truncated": image[: len(image) // 2],
                "flipped-byte": image[:-1] + bytes([image[-1] ^ 0xFF]),
                "wrong-version": image[:4] + b"\x09" + image[5:],
                "bad-magic": b"RSKX" + image[4:],
                "non-utf8-xml": b"<a>caf\xe9</a>",
            }[damage]
        )
        path = str(damaged)
        for argv, expected in (
            (["query", path, "//a"], code),
            (["explain", "--file", path, "//a"], code),
            (["compress", path], 1),  # compress only reads XML: all five are broken XML
        ):
            assert main(argv) == expected
            captured = capsys.readouterr()
            err = captured.err.strip()
            assert err.startswith("error: ") and "\n" not in err
            assert "Traceback" not in err and captured.out == ""
        with pytest.raises(error):
            repro.open(path)


class TestExitCodes:
    """Regression tests: 2 = bad invocation/input, 1 = engine failure.

    Before PR 3 missing files, malformed queries and unknown corpora all
    exited 1 (mixed with runtime errors) with inconsistent stderr wording.
    """

    def test_workload_file_absent(self, bib_file, capsys):
        assert main(["query", bib_file, "--workload", "/no/such/mix.txt"]) == 2
        assert "error: file not found: /no/such/mix.txt" in capsys.readouterr().err

    def test_malformed_xpath_in_batch(self, bib_file, capsys):
        assert main(["query", bib_file, "//author", "//b[["]) == 2
        assert "error: invalid query:" in capsys.readouterr().err

    def test_unknown_catalog_document(self, tmp_path, capsys):
        catalog = str(tmp_path / "cat")
        assert main(["catalog", "evict", "ghost", "-C", catalog]) == 2
        assert "error: unknown catalog document 'ghost'" in capsys.readouterr().err

    def test_query_input_file_absent(self, capsys):
        assert main(["query", "/no/such/doc.xml", "//a"]) == 2
        assert "error: file not found: /no/such/doc.xml" in capsys.readouterr().err

    def test_input_file_is_directory(self, tmp_path, capsys):
        assert main(["compress", str(tmp_path)]) == 2
        assert "expected a file" in capsys.readouterr().err

    def test_all_errors_are_single_stderr_lines(self, bib_file, capsys):
        for argv in (
            ["gen", "nosuch"],
            ["compress", "/nonexistent.xml"],
            ["query", bib_file, "//a[["],
        ):
            assert main(argv) == 2
            err = capsys.readouterr().err.strip()
            assert err.startswith("error: ") and "\n" not in err


class TestCatalogCLI:
    def test_add_ls_evict_round_trip(self, bib_file, tmp_path, capsys):
        catalog = str(tmp_path / "cat")
        assert main(["catalog", "add", "bib", bib_file, "-C", catalog]) == 0
        out = capsys.readouterr().out
        assert "added bib" in out and re.search(r"skeleton \d+ B", out)

        assert main(["catalog", "ls", "-C", catalog]) == 0
        out = capsys.readouterr().out
        assert "bib" in out and re.search(r"skeleton +\d+ B", out)

        assert main(["catalog", "verify", "-C", catalog]) == 0
        assert re.search(r"bib +ok +skeleton \d+ B", capsys.readouterr().out)

        assert main(["catalog", "evict", "bib", "-C", catalog]) == 0
        capsys.readouterr()
        assert main(["catalog", "ls", "-C", catalog]) == 0
        assert "empty" in capsys.readouterr().out

    def test_duplicate_add_fails(self, bib_file, tmp_path, capsys):
        catalog = str(tmp_path / "cat")
        assert main(["catalog", "add", "bib", bib_file, "-C", catalog]) == 0
        capsys.readouterr()
        assert main(["catalog", "add", "bib", bib_file, "-C", catalog]) == 2
        assert "already in the catalog" in capsys.readouterr().err

    def test_add_missing_file(self, tmp_path, capsys):
        assert main(["catalog", "add", "x", "/no/such.xml", "-C", str(tmp_path / "c")]) == 2
        assert "file not found" in capsys.readouterr().err

    def test_invalid_name_rejected(self, bib_file, tmp_path, capsys):
        code = main(["catalog", "add", "../escape", bib_file, "-C", str(tmp_path / "c")])
        assert code == 2
        assert "invalid document name" in capsys.readouterr().err


class TestServeParser:
    def test_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve"])
        assert args.pool_size == 8
        assert args.catalog == "repro-catalog"
        assert args.workers == 0  # in process unless a fleet is asked for
        assert args.worker_threads == 4
        assert args.stats_interval == 0.0
        with pytest.raises(SystemExit):  # the evaluation-mode selector is gone
            build_parser().parse_args(["serve", "--mode", "snapshot"])

    @pytest.mark.parametrize(
        "option",
        [
            ["--frontend", "async"],
            ["--http-threads", "4"],
            ["--window-ms", "2"],
            ["--max-batch", "64"],
        ],
        ids=lambda option: option[0],
    )
    def test_removed_transport_options_are_usage_errors(self, option, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as raised:  # one front-end, no knobs
            build_parser().parse_args(["serve", *option])
        assert raised.value.code == 2
        assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err

    def test_fleet_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--workers", "4", "--worker-threads", "2", "--stats-interval", "5"]
        )
        assert args.workers == 4
        assert args.worker_threads == 2
        assert args.stats_interval == 5.0

    def test_negative_workers_rejected(self, tmp_path, capsys):
        from repro.cli import main

        code = main(["serve", "--workers", "-1", "-C", str(tmp_path / "cat")])
        assert code == 2
        assert "--workers must be >= 0" in capsys.readouterr().err


class TestExplain:
    def test_plan_rendered(self, capsys):
        assert main(["explain", "//a/b"]) == 0
        out = capsys.readouterr().out
        assert "descendant" in out and "L[a]" in out

    def test_upward_only_noted(self, capsys):
        assert main(["explain", "/self::*[a/b]"]) == 0
        assert "Corollary 3.7" in capsys.readouterr().out

    def test_file_plan_is_annotated(self, tmp_path, capsys):
        doc = tmp_path / "doc.xml"
        doc.write_text("<a><b><c/></b><b/></a>")
        assert main(["explain", "--file", str(doc), "//b/c"]) == 0
        out = capsys.readouterr().out
        assert "[est=" in out
        assert "rewrites:" in out

    def test_analyze_attaches_actuals(self, tmp_path, capsys):
        doc = tmp_path / "doc.xml"
        doc.write_text("<a><b><c/></b><b/></a>")
        assert main(["explain", "--file", str(doc), "--analyze", "--json", "//b/c"]) == 0
        import json as json_module

        payload = json_module.loads(capsys.readouterr().out)
        assert payload["algebra"]["actual"]["tree_count"] == 1
        assert "optimizer" in payload

    def test_analyze_without_file_is_usage_error(self, capsys):
        assert main(["explain", "--analyze", "//a"]) == 2
        assert "--analyze needs --file" in capsys.readouterr().err


class TestServeValidation:
    def test_zero_worker_threads_rejected(self, tmp_path, capsys):
        from repro.cli import main

        code = main(["serve", "--worker-threads", "0", "-C", str(tmp_path / "cat")])
        assert code == 2
        assert "--worker-threads must be >= 1" in capsys.readouterr().err
