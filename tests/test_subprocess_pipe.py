"""Real-process pipe integration.

The production deployment runs Sequence-RTG as a child process of
syslog-ng with logs piped to its standard input (paper Fig. 6: "syslog-ng
starts Sequence-RTG (or uses an already running instance) and pipes the
log to its standard input").  These tests exercise that path literally:
the CLI runs in a separate Python process and receives JSON lines over a
pipe.
"""

import json
import subprocess
import sys

import pytest

from repro.core.patterndb import PatternDB


def run_cli(args, stdin_text, timeout=120):
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        input=stdin_text,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


@pytest.fixture()
def db_path(tmp_path):
    return str(tmp_path / "pipe.db")


def stream_text(n=40):
    lines = []
    for i in range(n):
        lines.append(
            json.dumps(
                {
                    "service": "sshd",
                    "message": f"Accepted publickey for u{i} from 10.0.{i % 9}.{i % 7} port {40000 + i} ssh2",
                }
            )
        )
    return "\n".join(lines) + "\n"


class TestServeOverPipe:
    def test_batches_processed_from_stdin(self, db_path):
        proc = run_cli(
            ["--db", db_path, "serve", "-", "--batch-size", "10"], stream_text(40)
        )
        assert proc.returncode == 0, proc.stderr
        assert "ingested 40 records" in proc.stderr
        assert proc.stderr.count("batch:") == 4
        with PatternDB(db_path) as db:
            assert db.counts()["patterns"] >= 1

    def test_partial_final_batch_flushed_on_eof(self, db_path):
        proc = run_cli(
            ["--db", db_path, "serve", "-", "--batch-size", "30"], stream_text(40)
        )
        assert proc.returncode == 0
        assert "in 2 batches" in proc.stderr

    def test_malformed_lines_survive(self, db_path):
        text = "not json\n" + stream_text(10) + "{broken\n"
        proc = run_cli(["--db", db_path, "serve", "-"], text)
        assert proc.returncode == 0
        assert "(2 malformed)" in proc.stderr


class TestServeWithWorkerPool:
    def test_worker_pool_over_stdin_pipe(self, db_path):
        proc = run_cli(
            ["--db", db_path, "serve", "-", "--batch-size", "10", "--workers", "2"],
            stream_text(40),
        )
        assert proc.returncode == 0, proc.stderr
        assert "ingested 40 records" in proc.stderr
        assert proc.stderr.count("batch:") == 4
        with PatternDB(db_path) as db:
            assert db.counts()["patterns"] >= 1

    def test_pool_database_identical_to_serial(self, db_path, tmp_path):
        serial_path = str(tmp_path / "serial.db")
        text = stream_text(40)
        run_cli(["--db", serial_path, "serve", "-", "--batch-size", "10"], text)
        proc = run_cli(
            ["--db", db_path, "serve", "-", "--batch-size", "10", "--workers", "2"],
            text,
        )
        assert proc.returncode == 0, proc.stderr

        def fingerprint(path):
            with PatternDB(path) as db:
                return sorted(
                    (r.id, r.service, r.pattern_text, r.match_count)
                    for r in db.rows()
                )

        assert fingerprint(db_path) == fingerprint(serial_path)

    def test_no_pipeline_flag(self, db_path):
        """The file feed has one path: its bypass and tuning flags are gone."""
        flags = ["--no-pipeline", "--ingest-join-timeout=1"]
        proc = run_cli(["--db", db_path, "serve", "-", *flags], stream_text(4))
        assert proc.returncode == 2
        assert "unrecognized arguments: " + " ".join(flags) in proc.stderr


class TestParseOverPipe:
    def test_parse_stdin_json_output(self, db_path):
        run_cli(["--db", db_path, "serve", "-", "--batch-size", "10"], stream_text(40))
        proc = run_cli(
            ["--db", db_path, "parse", "-", "--service", "sshd"],
            "Accepted publickey for eve from 203.0.113.5 port 2222 ssh2\n",
        )
        assert proc.returncode == 0
        result = json.loads(proc.stdout.strip())
        assert result["matched"] is True
        assert result["fields"]["srcip"] == "203.0.113.5"
