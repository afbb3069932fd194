"""Tests for the ``python -m repro`` command-line interface."""

from __future__ import annotations

import json
import re

import pytest

from repro.cli import MODEL_CHOICES, build_parser, main
from repro.datasets import available_datasets


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_dataset_choices_match_registry(self):
        parser = build_parser()
        args = parser.parse_args(["generate", "--dataset", "lab_iot"])
        assert args.dataset in available_datasets()
        with pytest.raises(SystemExit):
            parser.parse_args(["generate", "--dataset", "not_a_dataset"])

    def test_model_choices_validated(self):
        parser = build_parser()
        for model in MODEL_CHOICES:
            assert parser.parse_args(["evaluate", "--model", model]).model == model
        with pytest.raises(SystemExit):
            parser.parse_args(["evaluate", "--model", "diffusion"])

    def test_defaults(self):
        args = build_parser().parse_args(["generate"])
        assert args.model == "kinetgan"
        assert args.epochs > 0
        assert args.output.endswith(".csv")


class TestCommands:
    def test_datasets_lists_every_registered_dataset(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in available_datasets():
            assert name in out

    def test_generate_writes_a_csv(self, tmp_path, capsys):
        output = tmp_path / "synthetic.csv"
        exit_code = main(
            [
                "generate",
                "--dataset",
                "lab_iot",
                "--model",
                "independent",
                "--records",
                "400",
                "--epochs",
                "1",
                "--samples",
                "120",
                "--output",
                str(output),
            ]
        )
        assert exit_code == 0
        assert output.exists()
        lines = output.read_text().strip().splitlines()
        assert len(lines) == 121  # header + 120 rows
        out = capsys.readouterr().out
        assert "EMD distance" in out and "knowledge-graph validity" in out

    def test_evaluate_reports_fidelity_validity_and_utility(self, capsys):
        exit_code = main(
            [
                "evaluate",
                "--dataset",
                "lab_iot",
                "--model",
                "independent",
                "--records",
                "400",
                "--epochs",
                "1",
                "--classifiers",
                "decision_tree",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Fidelity" in out
        assert "validity rate" in out
        assert "INDEPENDENT" in out and "REAL" in out


@pytest.fixture(scope="module")
def kinetgan_artifact(tmp_path_factory):
    """A saved 1-epoch KiNETGAN (conditional on the lab_iot columns)."""
    artifact = tmp_path_factory.mktemp("cli") / "kinetgan"
    argv = ["save", "--dataset", "lab_iot", "--model", "kinetgan", "--records", "400"]
    assert main(argv + ["--epochs", "1", "--artifact-dir", str(artifact)]) == 0
    return artifact


class TestServingCommands:
    def test_save_sample_serve_round_trip(self, tmp_path, capsys):
        artifact = tmp_path / "artifact"
        assert main(
            [
                "save",
                "--dataset",
                "lab_iot",
                "--model",
                "independent",
                "--records",
                "400",
                "--epochs",
                "1",
                "--artifact-dir",
                str(artifact),
            ]
        ) == 0
        assert (artifact / "manifest.json").exists()
        out = capsys.readouterr().out
        assert "Saved IndependentSampler artifact" in out

        output = tmp_path / "sampled.csv"
        assert main(
            [
                "sample",
                "--artifact",
                str(artifact),
                "--samples",
                "80",
                "--seed",
                "3",
                "--chunk-rows",
                "32",
                "--output",
                str(output),
            ]
        ) == 0
        lines = output.read_text().strip().splitlines()
        assert len(lines) == 81  # header + 80 rows
        assert "Wrote 80 synthetic rows" in capsys.readouterr().out

        assert main(
            [
                "serve",
                "--artifact",
                str(artifact),
                "--requests",
                "4",
                "--request-rows",
                "20",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "Served 4 requests / 80 rows" in out

    def test_sample_with_condition_on_conditional_model(self, kinetgan_artifact, tmp_path):
        output = tmp_path / "attack.csv"
        assert main(
            [
                "sample",
                "--artifact",
                str(kinetgan_artifact),
                "--samples",
                "40",
                "--condition",
                "event_type=traffic_flooding",
                "--output",
                str(output),
            ]
        ) == 0
        rows = output.read_text().strip().splitlines()[1:]
        assert len(rows) == 40
        # Conditioning is soft (a 1-epoch generator need not obey it); the
        # exact conditioned-sampling parity is covered in tests/serve.

    @pytest.mark.parametrize(
        ("condition", "message"),
        [
            ("event_type=not_a_real_event", "condition 'event_type': 'not_a_real_event' is not"),
            ("not_a_column=1", "unknown condition column 'not_a_column'"),
        ],
    )
    def test_sample_rejects_unknown_condition_before_writing(
        self, kinetgan_artifact, tmp_path, condition, message
    ):
        output = tmp_path / "bad.csv"
        argv = ["sample", "--artifact", str(kinetgan_artifact), "--samples", "5"]
        with pytest.raises(SystemExit, match=re.escape(message)) as exit_info:
            main(argv + ["--condition", condition, "--output", str(output)])
        assert "\n" not in str(exit_info.value)
        assert not output.exists()

    def test_serve_parser_defaults(self):
        parser = build_parser()
        args = parser.parse_args(["serve", "--artifact", "a", "--artifact", "b"])
        assert args.artifact == ["a", "b"]
        assert args.workers == "serial"
        assert args.http is False
        assert args.host == "127.0.0.1"
        assert args.queue_depth == 64
        assert args.artifact_concurrency == 8
        assert args.request_deadline is None
        with pytest.raises(SystemExit):
            parser.parse_args(["serve"])  # --artifact is required

    def test_serve_http_knob_validation(self):
        parser = build_parser()
        args = parser.parse_args(
            [
                "serve",
                "--artifact",
                "a",
                "--http",
                "--port",
                "0",
                "--queue-depth",
                "4",
                "--artifact-concurrency",
                "2",
                "--request-deadline",
                "1.5",
                "--retry-after",
                "0.5",
                "--retries",
                "1",
            ]
        )
        assert args.http and args.port == 0
        assert (args.queue_depth, args.artifact_concurrency) == (4, 2)
        assert (args.request_deadline, args.retry_after, args.retries) == (1.5, 0.5, 1)
        for bad in (
            ["serve", "--artifact", "a", "--queue-depth", "0"],
            ["serve", "--artifact", "a", "--artifact-concurrency", "0"],
            ["serve", "--artifact", "a", "--request-deadline", "0"],
            ["serve", "--artifact", "a", "--port", "-1"],
            ["serve", "--artifact", "a", "--retries", "-1"],
            ["serve", "--artifact", "a", "--workers", "gpu"],
        ):
            with pytest.raises(SystemExit):
                parser.parse_args(bad)

    def test_serve_http_starts_answers_and_drains(self, tmp_path, capsys, monkeypatch):
        """--http binds, answers a live request, and drains on Ctrl-C."""
        artifact = tmp_path / "artifact"
        assert main(
            [
                "save",
                "--dataset",
                "lab_iot",
                "--model",
                "independent",
                "--records",
                "400",
                "--epochs",
                "1",
                "--artifact-dir",
                str(artifact),
            ]
        ) == 0
        capsys.readouterr()

        import re
        import time as time_module

        from repro.serve import request_samples

        served: dict = {}

        def probe_then_interrupt(seconds):
            out = capsys.readouterr().out
            served["banner"] = out
            url = re.search(r"on (http://[\d.]+:\d+)", out).group(1)
            served["table"] = request_samples(url, str(artifact), 25, seed=4)
            raise KeyboardInterrupt

        monkeypatch.setattr(time_module, "sleep", probe_then_interrupt)
        assert main(
            ["serve", "--artifact", str(artifact), "--http", "--port", "0"]
        ) == 0
        assert "Endpoints: POST /sample" in served["banner"]
        assert served["table"].n_rows == 25
        assert "Served 1 requests" in capsys.readouterr().out

    def test_serve_rejects_nonexistent_artifact_dir(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot serve"):
            main(["serve", "--artifact", str(tmp_path / "missing")])

    def test_serve_names_every_broken_artifact(self, tmp_path):
        (tmp_path / "broken").mkdir()
        (tmp_path / "broken" / "manifest.json").write_text("not json")
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "serve",
                    "--artifact",
                    str(tmp_path / "missing"),
                    "--artifact",
                    str(tmp_path / "broken"),
                ]
            )
        message = str(excinfo.value)
        assert "missing" in message and "broken" in message


class TestRuntimeCommands:
    def test_workers_flag_accepts_executor_specs(self):
        parser = build_parser()
        assert parser.parse_args(["federated"]).workers == "serial"
        assert parser.parse_args(["federated", "--workers", "4"]).workers == "4"
        assert parser.parse_args(["distributed", "--workers", "2"]).workers == "2"
        assert parser.parse_args(["federated", "--workers", "thread"]).workers == "thread"
        assert parser.parse_args(["federated", "--workers", "thread:3"]).workers == "thread:3"
        assert parser.parse_args(["distributed", "--workers", "process:2"]).workers == "process:2"
        for bad in ("-1", "thread:0", "thread:x", "gpu"):
            with pytest.raises(SystemExit):
                parser.parse_args(["federated", "--workers", bad])

    def test_resilience_flags_parse_and_validate(self):
        parser = build_parser()
        args = parser.parse_args(
            ["federated", "--min-clients", "2", "--task-timeout", "1.5", "--retries", "3"]
        )
        assert (args.min_clients, args.task_timeout, args.retries) == (2, 1.5, 3)
        args = parser.parse_args(["distributed", "--task-timeout", "0.5", "--retries", "1"])
        assert (args.task_timeout, args.retries) == (0.5, 1)
        defaults = parser.parse_args(["federated"])
        assert (defaults.min_clients, defaults.task_timeout, defaults.retries) == (1, None, 0)
        for bad in (
            ["federated", "--min-clients", "0"],
            ["federated", "--task-timeout", "0"],
            ["distributed", "--retries", "-1"],
        ):
            with pytest.raises(SystemExit):
                parser.parse_args(bad)

    def test_federated_command_runs_serial(self, capsys):
        exit_code = main(
            [
                "federated",
                "--records",
                "400",
                "--clients",
                "2",
                "--rounds",
                "1",
                "--local-epochs",
                "1",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "federated accuracy" in out
        assert "centralised accuracy" in out

    def test_distributed_command_runs_serial(self, capsys):
        exit_code = main(
            [
                "distributed",
                "--records",
                "400",
                "--nodes",
                "2",
                "--epochs",
                "1",
                "--share-size",
                "80",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "local accuracy" in out
        assert "synthetic-sharing" in out


class TestObservabilityDumps:
    """--metrics-dump / --trace-dump write snapshots at command exit."""

    def test_generate_writes_metrics_and_trace_dumps(self, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.json"
        trace_path = tmp_path / "spans.jsonl"
        exit_code = main(
            [
                "generate",
                "--dataset", "lab_iot",
                "--model", "independent",
                "--records", "300",
                "--epochs", "1",
                "--samples", "50",
                "--output", str(tmp_path / "rows.csv"),
                "--metrics-dump", str(metrics_path),
                "--trace-dump", str(trace_path),
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert f"Wrote metrics snapshot to {metrics_path}" in out
        assert f"Wrote trace spans to {trace_path}" in out
        snapshot = json.loads(metrics_path.read_text())
        assert isinstance(snapshot, dict)
        assert trace_path.exists()
        for line in trace_path.read_text().splitlines():
            json.loads(line)  # every span line is standalone JSON

    def test_metrics_dump_enables_engine_metrics(self, tmp_path, capsys):
        """--metrics-dump turns on the engine's MetricsCallback, so a fit
        through the training engine leaves its epoch counters behind."""
        metrics_path = tmp_path / "metrics.json"
        exit_code = main(
            [
                "generate",
                "--dataset", "lab_iot",
                "--model", "kinetgan",
                "--records", "300",
                "--epochs", "1",
                "--samples", "50",
                "--output", str(tmp_path / "rows.csv"),
                "--metrics-dump", str(metrics_path),
            ]
        )
        assert exit_code == 0
        capsys.readouterr()
        snapshot = json.loads(metrics_path.read_text())
        assert "repro_engine_epochs_total" in snapshot

    def test_dtype_knob_flows_to_artifact(self, tmp_path, capsys):
        artifact = tmp_path / "artifact"
        exit_code = main(
            [
                "save",
                "--dataset", "lab_iot",
                "--model", "kinetgan",
                "--records", "300",
                "--epochs", "1",
                "--dtype", "float32",
                "--artifact", str(artifact),
            ]
        )
        assert exit_code == 0
        capsys.readouterr()
        manifest = json.loads((artifact / "manifest.json").read_text())
        assert manifest["dtype"] == "float32"

    @pytest.mark.parametrize("command", ["generate", "evaluate", "save"])
    @pytest.mark.parametrize("model", ["tvae", "pategan", "tablegan", "octgan"])
    def test_float64_only_model_rejects_float32_in_one_line(self, command, model, tmp_path):
        argv = [command, "--model", model, "--dtype", "float32", "--records", "200"]
        if command == "save":
            argv += ["--artifact-dir", str(tmp_path / "artifact")]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        message = str(excinfo.value.code)
        assert "float64 networks only" in message
        assert "\n" not in message
        assert not (tmp_path / "artifact").exists()

    def test_dtype_choices_validated(self):
        with pytest.raises(SystemExit):
            main(["generate", "--dataset", "lab_iot", "--dtype", "float16"])
