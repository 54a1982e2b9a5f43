"""Unit tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.xmltree.serialize import to_xml


@pytest.fixture
def xml_file(paper_document, tmp_path):
    path = tmp_path / "doc.xml"
    path.write_text(to_xml(paper_document))
    return str(path)


class TestCLI:
    def test_stats(self, xml_file, capsys):
        assert main(["stats", xml_file]) == 0
        out = capsys.readouterr().out
        assert "elements=28" in out
        assert "stable summary" in out

    def test_stable_and_build(self, xml_file, tmp_path, capsys):
        stable_path = str(tmp_path / "stable.json")
        sketch_path = str(tmp_path / "sketch.json")
        assert main(["stable", xml_file, "-o", stable_path]) == 0
        assert main(["build", stable_path, "--budget-kb", "0.125", "-o", sketch_path]) == 0
        out = capsys.readouterr().out
        assert "squared error" in out

    def test_build_from_xml(self, xml_file, tmp_path):
        sketch_path = str(tmp_path / "sketch.json")
        assert main(["build", xml_file, "--budget-kb", "1", "-o", sketch_path]) == 0

    def test_query_and_exact(self, xml_file, tmp_path, capsys):
        sketch_path = str(tmp_path / "sketch.json")
        main(["build", xml_file, "--budget-kb", "64", "-o", sketch_path])
        capsys.readouterr()
        assert main(["query", sketch_path, "//a (//p)"]) == 0
        approx = capsys.readouterr().out
        assert "estimated binding tuples: 4.0" in approx
        assert main(["exact", xml_file, "//a (//p)"]) == 0
        exact = capsys.readouterr().out
        assert "exact binding tuples: 4" in exact

    def test_query_preview(self, xml_file, tmp_path, capsys):
        sketch_path = str(tmp_path / "sketch.json")
        preview_path = str(tmp_path / "preview.xml")
        main(["build", xml_file, "--budget-kb", "64", "-o", sketch_path])
        assert main(["query", sketch_path, "//a (//p)", "--preview", preview_path]) == 0
        from repro.xmltree.parser import parse_xml_file

        preview = parse_xml_file(preview_path)
        assert preview.root.label == "d"

    def test_compare(self, xml_file, tmp_path, capsys):
        sketch_path = str(tmp_path / "sketch.json")
        main(["build", xml_file, "--budget-kb", "64", "-o", sketch_path])
        capsys.readouterr()
        assert main(["compare", xml_file, sketch_path, "//a (//p)"]) == 0
        out = capsys.readouterr().out
        assert "answer ESD" in out
        assert "0.0" in out  # zero-error sketch at generous budget

    def test_build_rejects_treesketch_json(self, xml_file, tmp_path, capsys):
        sketch_path = str(tmp_path / "sketch.json")
        main(["build", xml_file, "--budget-kb", "64", "-o", sketch_path])
        assert main(["build", sketch_path, "--budget-kb", "1", "-o", sketch_path]) == 2


class TestStoreCommands:
    """``build --format tsb``, ``convert``, ``inspect``."""

    def test_build_tsb_output(self, xml_file, tmp_path, capsys):
        tsb_path = str(tmp_path / "sketch.tsb")
        assert main(["build", xml_file, "--budget-kb", "64",
                     "-o", tsb_path]) == 0
        from repro.core.io import sniff_format

        assert sniff_format(tsb_path) == "tsb"
        capsys.readouterr()
        assert main(["query", tsb_path, "//a (//p)"]) == 0
        assert "estimated binding tuples: 4.0" in capsys.readouterr().out

    def test_build_format_overrides_extension(self, xml_file, tmp_path):
        path = str(tmp_path / "sketch.json")  # json name, tsb content
        assert main(["build", xml_file, "--budget-kb", "64", "-o", path,
                     "--format", "tsb"]) == 0
        from repro.core.io import sniff_format

        assert sniff_format(path) == "tsb"

    def test_convert_round_trip_is_bitwise(self, xml_file, tmp_path, capsys):
        json_path = str(tmp_path / "sketch.json")
        tsb_path = str(tmp_path / "sketch.tsb")
        back_path = str(tmp_path / "back.json")
        main(["build", xml_file, "--budget-kb", "64", "-o", json_path])
        assert main(["convert", json_path, tsb_path]) == 0
        assert main(["convert", tsb_path, back_path]) == 0
        out = capsys.readouterr().out
        assert "wrote" in out
        with open(json_path) as a, open(back_path) as b:
            assert a.read() == b.read()

    def test_convert_missing_input(self, tmp_path, capsys):
        assert main(["convert", str(tmp_path / "nope.json"),
                     str(tmp_path / "out.tsb")]) == 2
        assert "cannot load" in capsys.readouterr().err

    def test_inspect_tsb(self, xml_file, tmp_path, capsys):
        tsb_path = str(tmp_path / "sketch.tsb")
        main(["build", xml_file, "--budget-kb", "64", "-o", tsb_path])
        capsys.readouterr()
        assert main(["inspect", tsb_path]) == 0
        out = capsys.readouterr().out
        assert "tsb v1 (treesketch)" in out
        assert "node_ids" in out and "edge_off" in out  # section table
        assert "squared error" in out

    def test_inspect_json(self, xml_file, tmp_path, capsys):
        json_path = str(tmp_path / "sketch.json")
        main(["build", xml_file, "--budget-kb", "64", "-o", json_path])
        capsys.readouterr()
        assert main(["inspect", json_path]) == 0
        out = capsys.readouterr().out
        assert "json" in out and "treesketch:" in out

    def test_inspect_corrupt_store(self, xml_file, tmp_path, capsys):
        tsb_path = tmp_path / "sketch.tsb"
        main(["build", xml_file, "--budget-kb", "64", "-o", str(tsb_path)])
        raw = bytearray(tsb_path.read_bytes())
        raw[0:4] = b"XXXX"
        tsb_path.write_bytes(bytes(raw))
        capsys.readouterr()
        assert main(["inspect", str(tsb_path)]) == 2
        assert "corrupt store" in capsys.readouterr().err


class TestServeCommand:
    def test_serve_missing_sketch_file(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main(["serve", missing, "--port", "0"]) == 2
        assert "cannot load sketch" in capsys.readouterr().err

    def test_serve_duplicate_names(self, xml_file, tmp_path, capsys):
        sketch_path = str(tmp_path / "sketch.json")
        main(["build", xml_file, "--budget-kb", "1", "-o", sketch_path])
        capsys.readouterr()
        assert main(["serve", sketch_path, f"sketch={sketch_path}",
                     "--port", "0"]) == 2
        assert "already registered" in capsys.readouterr().err

    def test_gzip_sketch_through_cli(self, xml_file, tmp_path, capsys):
        """build and query accept .json.gz paths transparently."""
        sketch_path = str(tmp_path / "sketch.json.gz")
        assert main(["build", xml_file, "--budget-kb", "64",
                     "-o", sketch_path]) == 0
        capsys.readouterr()
        assert main(["query", sketch_path, "//a (//p)"]) == 0
        assert "estimated binding tuples: 4.0" in capsys.readouterr().out


class TestPythonDashM:
    """``python -m repro`` must behave exactly like the console script."""

    def _run(self, *argv):
        import os
        import pathlib
        import subprocess
        import sys

        import repro

        src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )

    def test_module_entry_stats(self, xml_file):
        proc = self._run("stats", xml_file)
        assert proc.returncode == 0
        assert "stable summary" in proc.stdout

    def test_module_entry_requires_subcommand(self):
        proc = self._run()
        assert proc.returncode == 2
        assert "usage" in proc.stderr.lower()


class TestGenCorpus:
    def test_gen_corpus_writes_files(self, tmp_path, capsys):
        assert main(["gen-corpus", str(tmp_path), "XMark-TX", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "XMark-TX" in out
        assert (tmp_path / "xmark_tx.xml").exists()
        assert (tmp_path / "corpus.json").exists()

    def test_gen_corpus_unknown_dataset(self, tmp_path, capsys):
        assert main(["gen-corpus", str(tmp_path), "nope"]) == 2

    def test_full_cli_pipeline_from_corpus(self, tmp_path, capsys):
        assert main(["gen-corpus", str(tmp_path), "IMDB-TX", "--scale", "0.02"]) == 0
        xml = str(tmp_path / "imdb_tx.xml")
        stable = str(tmp_path / "stable.json")
        sketch = str(tmp_path / "sketch.json")
        assert main(["stable", xml, "-o", stable]) == 0
        assert main(["build", stable, "--budget-kb", "2", "-o", sketch]) == 0
        capsys.readouterr()
        assert main(["compare", xml, sketch, "//movie (/title)"]) == 0
        out = capsys.readouterr().out
        assert "exact tuples" in out
        assert "answer ESD" in out
