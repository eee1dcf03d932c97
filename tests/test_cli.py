"""Command-line interface."""

import pytest

from repro.cli import main


class TestListing:
    def test_models(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "vgg-19" in out and "word2vec" in out

    def test_configs(self, capsys):
        assert main(["configs"]) == 0
        out = capsys.readouterr().out
        assert "hetero-pim" in out and "neurocube" in out


class TestRun:
    def test_run_default(self, capsys):
        assert main(["run", "dcgan"]) == 0
        out = capsys.readouterr().out
        assert "Hetero PIM" in out
        assert "step time" in out
        assert "pool utilization" in out

    def test_run_other_config(self, capsys):
        assert main(["run", "dcgan", "--config", "cpu", "--steps", "1"]) == 0
        assert "CPU" in capsys.readouterr().out

    def test_run_neurocube(self, capsys):
        assert main(["run", "dcgan", "--config", "neurocube"]) == 0
        assert "Neurocube" in capsys.readouterr().out

    def test_run_frequency_scale(self, capsys):
        assert main(["run", "dcgan", "--frequency-scale", "2"]) == 0
        assert "PLL 2x" in capsys.readouterr().out

    def test_run_with_timeline(self, capsys):
        assert main(["run", "dcgan", "--timeline"]) == 0
        assert "timeline:" in capsys.readouterr().out

    def test_run_custom_batch(self, capsys):
        assert main(["run", "dcgan", "--batch-size", "8"]) == 0

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "lenet"])

    def test_zero_steps_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "dcgan", "--steps", "0"])
        assert "must be >= 1" in capsys.readouterr().err

    def test_negative_steps_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "dcgan", "--steps", "-3"])
        assert "must be >= 1" in capsys.readouterr().err

    def test_run_trace_out(self, tmp_path, capsys):
        out_file = tmp_path / "trace.json"
        assert main(["run", "dcgan", "--steps", "1",
                     "--trace-out", str(out_file)]) == 0
        assert "trace" in capsys.readouterr().out
        from repro.obs import validate_chrome_trace

        assert validate_chrome_trace(out_file)

    def test_run_reports_device_busy(self, capsys):
        assert main(["run", "dcgan", "--steps", "1"]) == 0
        assert "device busy" in capsys.readouterr().out


class TestFaults:
    @pytest.mark.parametrize(
        "text, message",
        [
            ("{not json", "not valid JSON"),
            ('[{"kind": "bank-failure"}]', "must be a JSON object"),
            ('{"events": [{"kind": "meteor", "time_s": 0}]}',
             "unknown fault kind 'meteor'"),
            (None, "No such file"),
            ('{"events": [{"kind": "bank-failure"}]}', "missing field"),
            ('{"events": [3]}', "must be a JSON object"),
            ('{"max_retires": 5}', "unknown field(s) max_retires"),
            ('{"max_retries": "3"}', "'max_retries' must be an integer"),
            ("[" * 100_000, "not valid JSON"),
        ],
        ids=[
            "invalid-json",
            "list",
            "unknown-kind",
            "missing-file",
            "missing-field",
            "event-not-object",
            "typo-field",
            "wrong-type",
            "deep-nesting",
        ],
    )
    def test_bad_spec_is_one_error_line(
        self, text, message, tmp_path, monkeypatch, capsys
    ):
        from repro import api

        def no_baseline(*args, **kwargs):
            pytest.fail("simulated before the spec was read")

        monkeypatch.setattr(api, "simulate", no_baseline)
        spec = tmp_path / "spec.json"
        if text is not None:
            spec.write_text(text)
        assert main(["faults", "lstm", "--spec", str(spec)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1


class TestProfile:
    def test_profile(self, capsys):
        assert main(["profile", "dcgan", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "Conv2DBackpropFilter" in out


class TestTrace:
    def test_trace_export(self, tmp_path, capsys):
        out_file = tmp_path / "t.json"
        assert main(["trace", "dcgan", str(out_file), "--steps", "1"]) == 0
        assert out_file.exists()
        assert "task records" in capsys.readouterr().out

    def test_trace_steps_validated(self, capsys):
        with pytest.raises(SystemExit):
            main(["trace", "dcgan", "t.json", "--steps", "-1"])
        assert "must be >= 1" in capsys.readouterr().err

    def test_trace_chrome_format(self, tmp_path, capsys):
        out_file = tmp_path / "chrome.json"
        assert main(["trace", "dcgan", str(out_file), "--steps", "1",
                     "--format", "chrome", "--config", "cpu"]) == 0
        assert "trace events" in capsys.readouterr().out
        from repro.obs import validate_chrome_trace

        events = validate_chrome_trace(out_file)
        lanes = {
            e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert "cpu" in lanes and "gpu" not in lanes


class TestExperiment:
    def test_experiment_table1(self, capsys):
        assert main(["experiment", "table1"]) == 0
        assert "Conv2DBackpropFilter" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])
