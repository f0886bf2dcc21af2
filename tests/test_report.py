"""Tests for the markdown report generator (the artifact consumer).

The report must be buildable from a runner ``--out`` directory alone —
no simulator access — and must degrade gracefully: a manifest is
optional, an empty directory is a clean error, a ``*.json`` that is
not a runner artifact is a usage error naming the file, and more
series than the CDF plot can distinguish are skipped with a note.
"""

import numpy as np
import pytest

from repro.analysis.report import (
    load_results,
    main,
    render_markdown,
)
from repro.analysis.textplot import _MARKERS
from repro.experiments.common import ExperimentResult, ShapeCheck
from repro.experiments.runner import main as runner_main


@pytest.fixture(scope="module")
def artifact_dir(tmp_path_factory):
    """A real runner artifact directory (fig13 simulates nothing)."""
    out = tmp_path_factory.mktemp("artifacts")
    store = tmp_path_factory.mktemp("store")
    assert (
        runner_main(
            [
                "--experiment",
                "fig13",
                "--out",
                str(out),
                "--store",
                str(store),
            ]
        )
        == 0
    )
    return out


def _result(**overrides) -> ExperimentResult:
    fields = {
        "experiment_id": "figX",
        "title": "Synthetic",
        "paper_expectation": "something holds",
        "rendered": "ASCII ART",
        "shape_checks": [ShapeCheck(name="holds", passed=True)],
        "series": {"values": [1.0, 2.0, 3.0]},
    }
    fields.update(overrides)
    return ExperimentResult(**fields)


class TestLoadResults:
    def test_loads_runner_artifacts(self, artifact_dir):
        results, manifest = load_results(artifact_dir)
        assert [r.experiment_id for r in results] == ["fig13"]
        assert manifest is not None
        assert manifest["store"]["misses"] == 0
        assert results[0].rendered  # full round trip, not just ids

    def test_manifest_is_optional(self, artifact_dir, tmp_path):
        bare = tmp_path / "bare"
        bare.mkdir()
        source = artifact_dir / "fig13.json"
        (bare / "fig13.json").write_text(source.read_text())
        results, manifest = load_results(bare)
        assert manifest is None
        assert [r.experiment_id for r in results] == ["fig13"]


class TestRenderMarkdown:
    def test_report_structure(self, artifact_dir):
        results, manifest = load_results(artifact_dir)
        report = render_markdown(results, manifest)
        assert report.startswith("# Reproduction report")
        assert "Run store:" in report
        assert "## fig13 —" in report
        assert "Paper expectation:" in report
        assert "| `fig13` |" in report
        assert "PASS" in report

    def test_cdf_rendered_for_flat_numeric_series(self):
        report = render_markdown([_result()])
        assert "Empirical CDFs" in report
        assert "= values" in report  # the CDF legend names the series

    def test_non_flat_series_skipped(self):
        report = render_markdown(
            [
                _result(
                    series={
                        "nested": [[1.0], [2.0]],
                        "mapping": {"a": 1},
                        "mixed": [1.0, "two"],
                        "empty": [],
                    }
                )
            ]
        )
        assert "Empirical CDFs" not in report

    def test_excess_series_noted(self):
        series = {
            f"s{i}": list(np.arange(3.0))
            for i in range(len(_MARKERS) + 2)
        }
        report = render_markdown([_result(series=series)])
        assert "2 further series omitted" in report

    def test_failed_check_flagged(self):
        report = render_markdown(
            [
                _result(
                    shape_checks=[
                        ShapeCheck(name="broken", passed=False)
                    ]
                )
            ]
        )
        assert "**FAIL**" in report
        assert "[FAIL] broken" in report


def _failure_entry(exp_id="fig9", **overrides) -> dict:
    """One manifest ``failures`` entry, as the runner writes them."""
    entry = {
        "experiment_id": exp_id,
        "title": "Broken experiment",
        "error_type": "InjectedFailure",
        "error": "injected fault (attempt 3)",
        "traceback": "Traceback (most recent call last): ...",
        "attempts": 3,
    }
    entry.update(overrides)
    return entry


class TestFailuresRendering:
    def test_partial_sweep_renders_failures_section(self):
        manifest = {
            "schema_version": 1,
            "failures": {"fig9": _failure_entry()},
        }
        report = render_markdown([_result()], manifest)
        assert "**Partial sweep:** 1 experiment(s) failed" in report
        assert "## Execution failures (1)" in report
        assert "| `fig9` | InjectedFailure: injected fault" in report
        assert "| 3 |" in report
        # The completed experiment still renders in full.
        assert "## figX —" in report
        assert "ASCII ART" in report

    def test_failures_sorted_and_counted(self):
        manifest = {
            "failures": {
                "zeta": _failure_entry("zeta"),
                "alpha": _failure_entry("alpha", attempts=0),
            }
        }
        report = render_markdown([_result()], manifest)
        assert "## Execution failures (2)" in report
        assert report.index("`alpha`") < report.index("`zeta`")
        # attempts=0 (not a sweep failure) renders as a dash.
        alpha_row = next(
            line
            for line in report.splitlines()
            if line.startswith("| `alpha`")
        )
        assert alpha_row.endswith("| — |")

    def test_clean_manifest_has_no_failures_section(self, artifact_dir):
        results, manifest = load_results(artifact_dir)
        report = render_markdown(results, manifest)
        assert "Execution failures" not in report
        assert "Partial sweep" not in report

    def test_failures_survive_the_artifact_round_trip(
        self, artifact_dir, tmp_path
    ):
        """A manifest written with failures entries (as the runner
        writes after a poisoned sweep) drives the report end to end."""
        import json

        partial = tmp_path / "partial"
        partial.mkdir()
        source = artifact_dir / "fig13.json"
        (partial / "fig13.json").write_text(source.read_text())
        manifest = {
            "schema_version": 1,
            "experiments": {"fig13": {"file": "fig13.json"}},
            "failures": {"fig9": _failure_entry()},
        }
        (partial / "manifest.json").write_text(json.dumps(manifest))
        results, loaded = load_results(partial)
        report = render_markdown(results, loaded)
        assert "## Execution failures (1)" in report
        assert "## fig13 —" in report


class TestReportCli:
    def test_writes_report_file(self, artifact_dir, tmp_path, capsys):
        out = tmp_path / "report.md"
        assert main([str(artifact_dir), "--out", str(out)]) == 0
        capsys.readouterr()
        assert out.read_text().startswith("# Reproduction report")

    def test_prints_to_stdout_by_default(self, artifact_dir, capsys):
        assert main([str(artifact_dir)]) == 0
        assert "# Reproduction report" in capsys.readouterr().out

    def test_empty_directory_is_an_error(self, tmp_path, capsys):
        assert main([str(tmp_path)]) == 1
        assert "no experiment artifacts" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name,problem",
        [("missing", "does not exist"), ("file.txt", "is not a directory")],
    )
    def test_bad_directory_is_a_usage_error(
        self, tmp_path, capsys, name, problem
    ):
        (tmp_path / "file.txt").write_text("not a directory\n")
        path = tmp_path / name
        with pytest.raises(SystemExit) as exc:
            main([str(path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"DIR {str(path)!r} {problem}" in err
        assert "Traceback" not in err

    def test_out_in_missing_directory_is_a_usage_error(
        self, artifact_dir, tmp_path, capsys
    ):
        out = tmp_path / "missing_dir" / "r.md"
        with pytest.raises(SystemExit) as exc:
            main([str(artifact_dir), "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"--out {str(out)!r} is not writable" in err
        assert "Traceback" not in err
        assert not out.parent.exists()

    @pytest.mark.parametrize(
        "name,content",
        [
            ("fig3.json", "{bad"),
            ("fig3.json", "{}"),
            ("fig3.json", "[]"),
            ("manifest.json", "{bad"),
        ],
    )
    def test_malformed_artifact_is_a_usage_error(
        self, tmp_path, capsys, name, content
    ):
        (tmp_path / name).write_text(content + "\n")
        with pytest.raises(SystemExit) as exc:
            main([str(tmp_path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"{tmp_path / name}: not a runner artifact" in err
        assert "Traceback" not in err
