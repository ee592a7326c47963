"""The ``repro-bfs trace`` subcommand and the ``--json`` output modes."""

import json

import pytest

from repro.cli import build_parser, main
from repro.obs import read_jsonl, validate_chrome_trace


class TestTraceCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["trace"])
        assert args.command == "trace"
        assert args.scale == 14
        assert args.engine == "hybrid"
        assert args.m == 64.0 and args.n == 512.0

    def test_writes_validated_trace_and_jsonl(self, capsys, tmp_path):
        out = tmp_path / "run"
        rc = main(
            [
                "trace",
                "--scale",
                "10",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        trace_path = tmp_path / "run.trace.json"
        jsonl_path = tmp_path / "run.jsonl"
        assert trace_path.exists() and jsonl_path.exists()
        assert validate_chrome_trace(trace_path) > 0
        meta, spans, events = read_jsonl(jsonl_path)
        assert meta["scale"] == 10
        assert meta["engine"] == "hybrid"
        assert any(r.name == "bfs.hybrid" for r in spans)
        assert any(r.name == "bfs.level" for r in spans)
        assert any(e.name == "audit.switching_point" for e in events)
        out_text = capsys.readouterr().out
        assert "bfs.level" in out_text  # the summary table
        assert "mistuning report" in out_text
        assert "validated" in out_text

    def test_no_audit_flag(self, capsys, tmp_path):
        rc = main(
            [
                "trace",
                "--scale",
                "10",
                "--no-audit",
                "--out",
                str(tmp_path / "run"),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "mistuning report" not in out
        _, _, events = read_jsonl(tmp_path / "run.jsonl")
        assert not any(e.name == "audit.switching_point" for e in events)

    @pytest.mark.parametrize("engine", ["td", "bu"])
    def test_other_engines(self, capsys, tmp_path, engine):
        rc = main(
            [
                "trace",
                "--scale",
                "10",
                "--engine",
                engine,
                "--no-audit",
                "--out",
                str(tmp_path / engine),
            ]
        )
        assert rc == 0
        assert validate_chrome_trace(
            tmp_path / f"{engine}.trace.json"
        ) > 0


class TestBfsJson:
    def test_json_output_is_pure_json(self, capsys):
        rc = main(
            [
                "bfs",
                "--scale",
                "10",
                "--engine",
                "hybrid",
                "--m",
                "64",
                "--n",
                "512",
                "--json",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scale"] == 10
        assert payload["engine"] == "hybrid"
        assert payload["m"] == 64.0
        assert payload["levels"] >= 1
        assert payload["validated"] is True
        assert payload["gteps"] > 0
        assert isinstance(payload["directions"], list)

    def test_default_output_unchanged(self, capsys):
        rc = main(
            ["bfs", "--scale", "10", "--engine", "td"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "GTEPS (validated)" in out


class TestGraph500Json:
    def test_json_output(self, capsys):
        rc = main(
            [
                "graph500",
                "--scale",
                "8",
                "--edgefactor",
                "8",
                "--roots",
                "3",
                "--json",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scale"] == 8
        assert payload["nbfs"] == 3
        assert len(payload["roots"]) == 3
        assert payload["harmonic_mean_teps"] > 0
        assert set(payload["time_stats"]) == {
            "min",
            "q1",
            "median",
            "q3",
            "max",
            "mean",
            "stddev",
            "harmonic_mean",
        }
