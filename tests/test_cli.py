"""Tests for the command-line interface."""

import json
from types import SimpleNamespace

import pytest

from repro.cli import main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("table1", "fig5", "fig12"):
            assert name in out

    def test_run_table1(self, capsys):
        assert main(["run", "table1", "--scale", "test"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out

    def test_run_unknown(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_topology_generation(self, tmp_path, capsys):
        out_file = tmp_path / "topo.txt"
        assert main(["topology", "--n-ases", "150", "--out", str(out_file)]) == 0
        assert out_file.exists()
        from repro.topology.loader import load_caida

        g = load_caida(out_file)
        assert len(g) == 150

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


@pytest.fixture()
def fresh_contexts():
    """Isolate from memoized SharedContexts: a warm routing cache means
    no ``bgp.propagate`` spans fire, so these assertions are
    order-dependent without it."""
    from repro.experiments.common import SharedContext

    saved = dict(SharedContext._cache)
    SharedContext._cache.clear()
    yield
    SharedContext._cache.clear()
    SharedContext._cache.update(saved)


class TestTelemetryFlags:
    def test_metrics_prints_report(self, capsys, fresh_contexts):
        assert main(["run", "fig9", "--scale", "test", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "telemetry:" in out
        assert "bgp.propagate" in out
        assert "mifo.deflections" in out

    def test_profile_prints_phases_only(self, capsys):
        assert main(["run", "table1", "--scale", "test", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "profile (wall time by phase):" in out
        assert "experiment.run" in out
        assert "counters:" not in out

    def test_plain_run_prints_no_telemetry(self, capsys):
        assert main(["run", "table1", "--scale", "test"]) == 0
        out = capsys.readouterr().out
        assert "telemetry:" not in out

    def test_trace_out_writes_valid_jsonl(self, tmp_path, capsys):
        trace_file = tmp_path / "trace.jsonl"
        assert (
            main(
                [
                    "run", "fig9",
                    "--scale", "test",
                    "--trace-out", str(trace_file),
                    "--verify",
                ]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert "trace event(s)" in captured.err
        assert "post-run invariant gate" in captured.err
        from repro.telemetry.trace import read_jsonl, validate_events

        events = read_jsonl(trace_file)
        assert events
        assert validate_events(events) == []


class TestTraceCommand:
    @pytest.fixture()
    def trace_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        assert (
            main(["run", "fig9", "--scale", "test", "--trace-out", str(path)])
            == 0
        )
        return path

    def test_summarize(self, trace_file, capsys):
        assert main(["trace", "summarize", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "event(s)" in out
        assert "deflection" in out

    def test_summarize_json(self, trace_file, capsys):
        assert main(["trace", "summarize", str(trace_file), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["events"] > 0
        assert "deflection" in summary["by_kind"]

    def test_summarize_against_schema_file(self, trace_file, capsys):
        import pathlib

        schema = (
            pathlib.Path(__file__).resolve().parent.parent
            / "docs"
            / "trace.schema.json"
        )
        assert (
            main(["trace", "summarize", str(trace_file), "--schema", str(schema)])
            == 0
        )

    def test_invalid_trace_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"kind": "teleport", "seq": 0}\n', encoding="utf-8")
        assert main(["trace", "summarize", str(bad)]) == 1
        assert "invalid trace" in capsys.readouterr().err

    def test_missing_file_rejected(self, tmp_path, capsys):
        assert main(["trace", "summarize", str(tmp_path / "nope.jsonl")]) == 2
        assert "cannot read trace" in capsys.readouterr().err


class TestSimulateCommand:
    def test_simulate_runs_all_schemes(self, capsys):
        assert (
            main(
                [
                    "simulate",
                    "--n-ases", "200",
                    "--n-flows", "60",
                    "--rate", "400",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "BGP" in out and "MIRO" in out and "MIFO" in out
        assert "Median Mbps" in out

    def test_simulate_powerlaw_single_scheme(self, capsys):
        assert (
            main(
                [
                    "simulate",
                    "--n-ases", "200",
                    "--n-flows", "50",
                    "--traffic", "powerlaw",
                    "--schemes", "MIFO",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "MIFO" in out and "powerlaw" in out

    def test_export_command(self, tmp_path, capsys):
        assert main(["export", "--out", str(tmp_path), "--scale", "test"]) == 0
        out = capsys.readouterr().out
        assert "fig8_offload.dat" in out


class TestServeCommand:
    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--events", "5", "--workers", "2"],
            ["serve", "--events", "5", "--persistent-pool"],
            ["run", "fig9", "--scale", "test", "--persistent-pool"],
            ["run", "fig9", "--scale", "test", "--solver", "full"],
            ["simulate", "--n-ases", "200", "--solver", "full"],
            ["scenario", "run", "edge_flap", "--mode", "full"],
            ["run", "fig9", "--scale", "test", "--workers", "2"],
            ["scenario", "run", "edge_flap", "--workers", "2"],
            ["verify", "--scale", "test", "--workers", "2"],
            ["export", "--scale", "test", "--workers", "2"],
            ["simulate", "--n-ases", "200", "--workers", "2"],
        ],
        ids=[
            "serve-workers",
            "serve-persistent-pool",
            "run-persistent-pool",
            "run-solver",
            "simulate-solver",
            "scenario-run-mode",
            "run-workers",
            "scenario-run-workers",
            "verify-workers",
            "export-workers",
            "simulate-workers",
        ],
    )
    def test_removed_pool_flags_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_serve_checkpoint_roundtrip_with_batching(self, tmp_path, capsys):
        ckpt = tmp_path / "svc.ckpt.json"
        assert (
            main(
                [
                    "serve",
                    "--events", "50",
                    "--n-ases", "80",
                    "--batch-max", "4",
                    "--checkpoint-every", "25",
                    "--checkpoint-out", str(ckpt),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert ckpt.exists()
        assert (
            main(
                [
                    "serve",
                    "--events", "20",
                    "--restore-from", str(ckpt),
                    "--checkpoint-every", "0",
                ]
            )
            == 0
        )
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["events"] == 70


class TestCleanErrors:
    """A library error or a file error is one stderr line and exit 2; a
    refuted invariant is one stderr line and exit 1."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["serve", "--batch-max", "0"], "batch_max must be >= 1"),
            (["serve", "--arrival-rate", "nan"], "arrival_rate must be finite"),
            (["scenario", "run", "nosuch"], "unknown scenario 'nosuch'"),
            (["serve", "--restore-from", "{tmp}/missing.json"], "No such file"),
            (["serve", "--restore-from", "{tmp}/hostile.json"], "is not JSON"),
            (["serve", "--restore-from", "{tmp}"], "Is a directory"),
        ],
    )
    def test_one_line_and_exit_2(self, argv, message, tmp_path, capsys):
        (tmp_path / "hostile.json").write_text("{]")
        assert main([arg.format(tmp=tmp_path) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_refuted_invariant_exits_1(self, monkeypatch, capsys):
        """A refuted invariant is a finding, not bad input: ``scenario
        run``'s per-event certification exits 1, as ``run --verify``
        does."""
        import repro.scenario.engine as engine

        def refuted(*args, **kwargs):
            return SimpleNamespace(ok=False, findings=())

        monkeypatch.setattr(engine, "verify_routing", refuted)
        assert main(["scenario", "run", "edge_flap", "--scale", "test"]) == 1
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error: ")]
        assert len(errors) == 1 and "refuted" in errors[0]
        assert "Traceback" not in err
