"""Command-line interface."""

import json
import subprocess
import sys

import pytest

from repro.cli import main


@pytest.fixture()
def db_path(tmp_path):
    return str(tmp_path / "cli.db")


def write_log(tmp_path, lines, name="input.log"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return str(path)


SSH_LINES = [
    f"Accepted password for user{i} from 10.0.0.{i} port {41000 + i} ssh2"
    for i in range(8)
]


class TestMine:
    def test_mine_prints_patterns(self, tmp_path, db_path, capsys):
        log = write_log(tmp_path, SSH_LINES)
        assert main(["--db", db_path, "mine", log, "--service", "sshd"]) == 0
        out = capsys.readouterr().out
        assert "%srcip%" in out
        assert "%srcport%" in out

    def test_mine_persists(self, tmp_path, db_path, capsys):
        log = write_log(tmp_path, SSH_LINES)
        main(["--db", db_path, "mine", log, "--service", "sshd"])
        capsys.readouterr()
        main(["--db", db_path, "stats"])
        out = capsys.readouterr().out
        assert "patterns: 1" in out

    def test_mine_honours_batch_size(self, tmp_path, capsys):
        """One message per mining call never meets the siblings it would
        generalise with: a pattern per user instead of one for all."""
        log = write_log(tmp_path, SSH_LINES)
        mined = {}
        for size in ("1", "100000"):
            db = str(tmp_path / f"batch{size}.db")
            main(["--db", db, "mine", log, "--service", "sshd", "--batch-size", size])
            mined[size] = capsys.readouterr()
        assert len(mined["100000"].out.splitlines()) == 1
        assert len(mined["1"].out.splitlines()) == len(SSH_LINES)
        assert "8 messages -> 8 new patterns" in mined["1"].err


class TestParse:
    def test_parse_reports_matches(self, tmp_path, db_path, capsys):
        log = write_log(tmp_path, SSH_LINES)
        main(["--db", db_path, "mine", log, "--service", "sshd"])
        capsys.readouterr()
        new = write_log(
            tmp_path,
            ["Accepted password for eve99 from 9.9.9.9 port 1234 ssh2",
             "something unknown entirely"],
            name="new.log",
        )
        main(["--db", db_path, "parse", new, "--service", "sshd"])
        out_lines = capsys.readouterr().out.strip().splitlines()
        first = json.loads(out_lines[0])
        assert first["matched"] is True
        assert first["fields"]["srcip"] == "9.9.9.9"
        assert json.loads(out_lines[1])["matched"] is False


class TestServe:
    def test_serve_ingests_json_lines(self, tmp_path, db_path, capsys):
        lines = [
            json.dumps({"service": "sshd", "message": m}) for m in SSH_LINES
        ] + ["malformed junk"]
        stream = write_log(tmp_path, lines, name="stream.jsonl")
        assert main(
            ["--db", db_path, "serve", stream, "--batch-size", "4"]
        ) == 0
        err = capsys.readouterr().err
        assert "ingested 8 records (1 malformed) in 2 batches" in err

    def test_serve_with_metrics_port(self, tmp_path, db_path, capsys,
                                     monkeypatch):
        """`serve --metrics-port` announces the endpoint and serves the
        miner's registry while the stream runs."""
        import urllib.request

        from repro.obs.server import MetricsServer

        scrapes = []
        original_close = MetricsServer.close

        def scraping_close(self):
            if self._httpd is not None:
                with urllib.request.urlopen(self.url, timeout=5) as response:
                    scrapes.append(response.read().decode("utf-8"))
            original_close(self)

        monkeypatch.setattr(MetricsServer, "close", scraping_close)
        lines = [json.dumps({"service": "sshd", "message": m}) for m in SSH_LINES]
        stream = write_log(tmp_path, lines, name="stream.jsonl")
        assert main(
            ["--db", db_path, "serve", stream, "--batch-size", "4",
             "--metrics-port", "0"]
        ) == 0
        err = capsys.readouterr().err
        assert "metrics: http://127.0.0.1:" in err
        (body,) = scrapes
        assert "rtg_batches_total 2" in body
        assert "rtg_stage_latency_seconds_bucket" in body


class TestMetricsCommand:
    def _mine(self, tmp_path, db_path):
        log = write_log(tmp_path, SSH_LINES)
        main(["--db", db_path, "mine", log, "--service", "sshd"])

    def test_prometheus_snapshot(self, tmp_path, db_path, capsys):
        self._mine(tmp_path, db_path)
        capsys.readouterr()
        assert main(["--db", db_path, "metrics"]) == 0
        out = capsys.readouterr().out
        assert 'rtg_patterndb_rows{table="patterns"} 1' in out
        assert 'rtg_patterndb_patterns{service="sshd"} 1' in out

    def test_json_snapshot(self, tmp_path, db_path, capsys):
        self._mine(tmp_path, db_path)
        capsys.readouterr()
        assert main(["--db", db_path, "metrics", "--format", "json"]) == 0
        dump = json.loads(capsys.readouterr().out)
        assert dump["rtg_patterndb_rows"]["kind"] == "gauge"


class TestExport:
    def _mine(self, tmp_path, db_path):
        log = write_log(tmp_path, SSH_LINES)
        main(["--db", db_path, "mine", log, "--service", "sshd"])

    def test_export_syslog_ng(self, tmp_path, db_path, capsys):
        self._mine(tmp_path, db_path)
        capsys.readouterr()
        main(["--db", db_path, "export", "--format", "syslog-ng"])
        out = capsys.readouterr().out
        assert "<patterndb" in out and "@IPv4:srcip@" in out

    def test_export_grok_with_filters(self, tmp_path, db_path, capsys):
        self._mine(tmp_path, db_path)
        capsys.readouterr()
        main(["--db", db_path, "export", "--format", "grok", "--min-count", "1"])
        assert "grok {" in capsys.readouterr().out

    def test_export_yaml(self, tmp_path, db_path, capsys):
        self._mine(tmp_path, db_path)
        capsys.readouterr()
        main(["--db", db_path, "export", "--format", "yaml"])
        assert "patterndb:" in capsys.readouterr().out


class TestFlags:
    def test_single_digit_time_flag(self, tmp_path, db_path, capsys):
        lines = [f"evt at 20171224-0:7:{i}:444 code {i}" for i in range(10, 16)]
        log = write_log(tmp_path, lines)
        main(["--db", db_path, "--single-digit-time", "mine", log, "--service", "app"])
        out = capsys.readouterr().out
        assert "%msgtime%" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_python_dash_m_repro(self):
        proc = subprocess.run([sys.executable, "-m", "repro", "--help"],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert "usage: sequence-rtg" in proc.stdout

    @pytest.mark.parametrize("stage", ["scanner", "parser", "analyzer"])
    def test_backend_flags_are_gone(self, stage, tmp_path, db_path):
        log = write_log(tmp_path, SSH_LINES)
        with pytest.raises(SystemExit) as exit_:
            main(["--db", db_path, f"--{stage}-backend", "compiled",
                  "mine", log, "--service", "sshd"])
        assert exit_.value.code == 2


class TestMaintenance:
    def test_prune(self, tmp_path, db_path, capsys):
        log = write_log(tmp_path, SSH_LINES + ["one rare oddball message here"])
        main(["--db", db_path, "mine", log, "--service", "sshd"])
        capsys.readouterr()
        main(["--db", db_path, "prune", "--threshold", "3"])
        err = capsys.readouterr().err
        assert "pruned 1 patterns" in err

    def test_merge(self, tmp_path, capsys):
        db_a = str(tmp_path / "a.db")
        db_b = str(tmp_path / "b.db")
        log1 = write_log(tmp_path, SSH_LINES, name="a.log")
        log2 = write_log(
            tmp_path,
            [f"job j{i} finished in {i} ms" for i in range(6)],
            name="b.log",
        )
        main(["--db", db_a, "mine", log1, "--service", "sshd"])
        main(["--db", db_b, "mine", log2, "--service", "batch"])
        capsys.readouterr()
        main(["--db", db_a, "merge", db_b])
        capsys.readouterr()
        main(["--db", db_a, "stats"])
        out = capsys.readouterr().out
        assert "patterns: 2" in out
        assert "services: 2" in out


class TestEvaluateAndArtifact:
    def test_evaluate_prints_scores(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        main(["evaluate", "Apache", "--mode", "both"])
        out = capsys.readouterr().out
        assert "Apache raw:" in out and "Apache preprocessed:" in out
        # evaluation mines in memory: the default --db is never opened
        assert list(tmp_path.iterdir()) == []

    def test_artifact_export(self, tmp_path, db_path, capsys):
        out_dir = str(tmp_path / "bundle")
        main(["--db", db_path, "artifact", out_dir, "--datasets", "Apache"])
        import os
        assert os.path.exists(os.path.join(out_dir, "manifest.json"))
        assert os.path.exists(os.path.join(out_dir, "Apache_mapping.csv"))
