"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_requires_dataset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--dataset", "nope"])

    def test_grid_defaults(self):
        args = build_parser().parse_args(["grid", "--dataset", "ricci"])
        assert args.seeds == 3
        assert "none" in args.interventions
        assert args.jobs == 1
        assert args.resume is False

    def test_grid_jobs_and_resume_flags(self):
        args = build_parser().parse_args(
            ["grid", "--dataset", "ricci", "--jobs", "4", "--resume"]
        )
        assert args.jobs == 4
        assert args.resume is True


class TestCommands:
    def test_datasets_lists_all(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("adult", "germancredit", "propublica", "ricci", "payment"):
            assert name in out

    def test_describe(self, capsys):
        assert main(["describe", "--dataset", "ricci"]) == 0
        out = capsys.readouterr().out
        assert "written" in out
        assert "incomplete rows: 0 / 118" in out

    def test_describe_with_missing(self, capsys):
        assert main(["describe", "--dataset", "adult", "--size", "1000"]) == 0
        out = capsys.readouterr().out
        assert "incomplete rows:" in out
        assert "workclass" in out

    def test_run_complete_dataset(self, capsys):
        code = main([
            "run", "--dataset", "ricci", "--no-tuning", "--seed", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "overall__accuracy" in out
        assert "group__disparate_impact" in out

    def test_run_with_intervention_and_scaler(self, capsys):
        code = main([
            "run", "--dataset", "germancredit", "--no-tuning",
            "--intervention", "reweighing", "--scaler", "minmax",
        ])
        assert code == 0
        assert "overall__accuracy" in capsys.readouterr().out

    def test_run_postprocessing_intervention(self, capsys):
        code = main([
            "run", "--dataset", "germancredit", "--no-tuning",
            "--intervention", "cal-eq-odds",
        ])
        assert code == 0

    def test_run_auto_imputation_on_adult(self, capsys):
        code = main([
            "run", "--dataset", "adult", "--size", "1500", "--no-tuning",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "imputed records" in out

    def test_auto_missing_picks_mode_only_when_values_are_missing(self):
        from repro.cli import _pick_handler
        from repro.core import ModeImputer
        from repro.datasets import load_dataset

        args = build_parser().parse_args(["run", "--dataset", "adult"])
        adult, adult_spec = load_dataset("adult", n=1500)
        ricci, ricci_spec = load_dataset("ricci")
        assert isinstance(_pick_handler(args, adult, adult_spec), ModeImputer)
        assert _pick_handler(args, ricci, ricci_spec) is None

    def test_run_protected_override(self, capsys):
        code = main([
            "run", "--dataset", "adult", "--size", "1500", "--no-tuning",
            "--protected", "sex",
        ])
        assert code == 0

    def test_grid_aggregates(self, capsys):
        code = main([
            "grid", "--dataset", "ricci", "--no-tuning", "--seeds", "2",
            "--interventions", "none", "reweighing",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "NoIntervention" in out
        assert "Reweighing" in out

    def test_grid_writes_output(self, tmp_path, capsys):
        output = str(tmp_path / "runs.jsonl")
        code = main([
            "grid", "--dataset", "ricci", "--no-tuning", "--seeds", "2",
            "--interventions", "none", "--output", output,
        ])
        assert code == 0
        from repro.core import ResultsStore

        assert len(ResultsStore(output).load()) == 2

    def test_grid_parallel_jobs(self, capsys):
        code = main([
            "grid", "--dataset", "ricci", "--no-tuning", "--seeds", "2",
            "--interventions", "none", "--jobs", "2",
        ])
        assert code == 0
        assert "NoIntervention" in capsys.readouterr().out

    def test_grid_resume_requires_output(self, capsys):
        code = main([
            "grid", "--dataset", "ricci", "--no-tuning", "--seeds", "1",
            "--interventions", "none", "--resume",
        ])
        assert code == 2
        assert "--resume requires --output" in capsys.readouterr().err

    def test_grid_resume_skips_stored_runs(self, tmp_path, capsys):
        output = str(tmp_path / "runs.jsonl")
        argv = [
            "grid", "--dataset", "ricci", "--no-tuning", "--seeds", "2",
            "--interventions", "none", "--output", output, "--resume",
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0  # second pass resumes, no duplicates appended
        from repro.core import ResultsStore

        assert len(ResultsStore(output).load()) == 2


class TestTelemetryCLI:
    @pytest.fixture(autouse=True)
    def clean_telemetry(self):
        from repro import telemetry

        telemetry.reset_for_tests()
        yield
        telemetry.reset_for_tests()

    def test_grid_trace_dir_then_trace_strict(self, tmp_path, capsys):
        trace_dir = str(tmp_path / "trace")
        code = main([
            "grid", "--dataset", "ricci", "--no-tuning", "--seeds", "1",
            "--interventions", "none", "--trace-dir", trace_dir,
        ])
        assert code == 0
        capsys.readouterr()
        assert main(["trace", "--dir", trace_dir, "--strict"]) == 0
        out = capsys.readouterr().out
        assert "1 root(s), 0 orphan(s)" in out
        assert "grid.run" in out
        assert "critical path" in out

    def test_trace_json_output(self, tmp_path, capsys):
        trace_dir = str(tmp_path / "trace")
        main([
            "grid", "--dataset", "ricci", "--no-tuning", "--seeds", "1",
            "--interventions", "none", "--trace-dir", trace_dir,
        ])
        capsys.readouterr()
        assert main(["trace", "--dir", trace_dir, "--json"]) == 0
        import json

        summary = json.loads(capsys.readouterr().out)
        assert summary["roots"] == 1
        assert "stage.train" in summary["stage_totals"]

    def test_trace_missing_dir_is_an_error(self, tmp_path, capsys):
        assert main(["trace", "--dir", str(tmp_path / "nope")]) == 2
        assert "no trace directory" in capsys.readouterr().err

    def test_trace_strict_rejects_forest(self, tmp_path, capsys):
        import json

        trace_file = tmp_path / "trace-host-1.jsonl"
        records = [
            {"kind": "span", "name": "a", "span": "h:1-1", "trace": "t",
             "ts": 0.0, "dur_s": 0.1, "pid": 1},
            {"kind": "span", "name": "b", "span": "h:1-2", "trace": "t",
             "ts": 0.2, "dur_s": 0.1, "pid": 1},
        ]
        trace_file.write_text(
            "".join(json.dumps(r) + "\n" for r in records)
        )
        assert main(["trace", "--dir", str(tmp_path), "--strict"]) == 1
        assert "expected exactly 1 root" in capsys.readouterr().err

    def test_grid_quiet_suppresses_progress_keeps_table(self, capfd):
        code = main([
            "grid", "--dataset", "ricci", "--no-tuning", "--seeds", "1",
            "--interventions", "none", "--quiet",
        ])
        assert code == 0
        captured = capfd.readouterr()
        assert "executing" not in captured.err
        assert "1/1" not in captured.err
        assert "NoIntervention" in captured.out

    def test_grid_writes_manifest_with_output(self, tmp_path, capfd):
        output = str(tmp_path / "runs.jsonl")
        code = main([
            "grid", "--dataset", "ricci", "--no-tuning", "--seeds", "1",
            "--interventions", "none", "--output", output, "--quiet",
        ])
        assert code == 0
        import json

        manifest = json.load(open(output + ".manifest.json"))
        assert manifest["dataset"] == "ricci"
        assert manifest["grid_size"] == 1
