"""CLI observability smoke tests: the --stats/--trace paths stay alive.

One test drives ``python -m repro.cli ... --stats`` in a real subprocess
(the CI smoke invocation); the rest run ``main()`` in-process for speed.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.cli import main
from repro.xmltree.serialize import to_xml

pytestmark = pytest.mark.obs


@pytest.fixture
def xml_file(paper_document, tmp_path):
    path = tmp_path / "doc.xml"
    path.write_text(to_xml(paper_document))
    return str(path)


class TestStatsFlag:
    def test_build_stats_prints_tsbuild_counters(self, xml_file, tmp_path, capsys):
        sketch = str(tmp_path / "sketch.json")
        assert main(["build", xml_file, "--budget-kb", "0.125", "-o", sketch,
                     "--stats"]) == 0
        out = capsys.readouterr().out
        assert "observability summary" in out
        assert "tsbuild.merges_applied" in out
        assert "tsbuild.heap_pops" in out
        assert "tsbuild.pool_regenerations" in out
        assert "span.tsbuild.compress_to.seconds" in out

    def test_workload_stats_prints_latency_quantiles(self, xml_file, capsys):
        assert main(["workload", xml_file, "--budget-kb", "1",
                     "--queries", "5", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "avg selectivity error" in out
        assert "workload.selectivity.query_seconds" in out
        assert "p50" in out and "p99" in out
        assert "eval.queries" in out

    def test_stats_flag_leaves_observability_disabled_after(self, xml_file,
                                                            tmp_path, capsys):
        from repro import obs

        sketch = str(tmp_path / "sketch.json")
        main(["build", xml_file, "--budget-kb", "1", "-o", sketch, "--stats"])
        capsys.readouterr()
        assert not obs.enabled()

    def test_no_stats_no_summary(self, xml_file, tmp_path, capsys):
        sketch = str(tmp_path / "sketch.json")
        assert main(["build", xml_file, "--budget-kb", "1", "-o", sketch]) == 0
        assert "observability summary" not in capsys.readouterr().out


class TestKernelFlag:
    """--kernel routes the build backend; pinned via tsbuild.kernel_*."""

    def _stats_out(self, xml_file, tmp_path, capsys, *extra):
        sketch = str(tmp_path / "sketch.json")
        assert main(["build", xml_file, "--budget-kb", "1", "-o", sketch,
                     "--stats", *extra]) == 0
        return capsys.readouterr().out

    def test_kernel_counter_reported(self, xml_file, tmp_path, capsys):
        out = self._stats_out(xml_file, tmp_path, capsys,
                              "--kernel", "arrays")
        assert "tsbuild.kernel_arrays" in out

    def test_kernel_dicts_honoured(self, xml_file, tmp_path, capsys):
        out = self._stats_out(xml_file, tmp_path, capsys, "--kernel", "dicts")
        assert "tsbuild.kernel_dicts" in out

    def test_unknown_kernel_rejected(self, xml_file, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["build", xml_file, "--budget-kb", "1",
                  "-o", str(tmp_path / "s.json"), "--kernel", "simd"])
        assert exc.value.code == 2  # argparse usage error names the choices
        assert "invalid choice: 'simd'" in capsys.readouterr().err

    def test_workload_accepts_kernel(self, xml_file, capsys):
        assert main(["workload", xml_file, "--budget-kb", "1",
                     "--queries", "3", "--kernel", "arrays"]) == 0


class TestTraceFlag:
    def test_trace_file_is_json_lines(self, xml_file, tmp_path, capsys):
        sketch = str(tmp_path / "sketch.json")
        trace = str(tmp_path / "trace.jsonl")
        assert main(["build", xml_file, "--budget-kb", "0.125", "-o", sketch,
                     "--trace", trace]) == 0
        out = capsys.readouterr().out
        assert "trace:" in out
        events = [json.loads(line)
                  for line in open(trace, encoding="utf-8").read().splitlines()]
        assert events, "trace file is empty"
        assert all(e["type"] == "span" for e in events)
        assert any(e["name"] == "tsbuild.compress_to" for e in events)


class TestSubprocessSmoke:
    def test_python_m_repro_cli_stats(self, xml_file, tmp_path):
        """The CI smoke job: the module entry point with --stats."""
        sketch = str(tmp_path / "sketch.json")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "build", xml_file,
             "--budget-kb", "0.125", "-o", sketch, "--stats"],
            capture_output=True, text=True, env=os.environ.copy(), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "tsbuild.merges_applied" in proc.stdout
