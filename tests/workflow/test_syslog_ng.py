"""syslog-ng simulacrum: routing and test-case-validated promotion."""

from repro.analyzer.pattern import Pattern
from repro.core.records import LogRecord
from repro.parser.compiled import CompiledParser
from repro.parser.parser import Parser
from repro.scanner.compiled import CompiledScanner
from repro.scanner.scanner import Scanner
from repro.workflow.syslog_ng import SyslogNG


def auth_pattern() -> Pattern:
    pattern = Pattern.from_text(
        "Accepted password for %alphanum% from %srcip% port %srcport% ssh2", "sshd"
    )
    pattern.add_example("Accepted password for u1 from 1.2.3.4 port 22 ssh2")
    return pattern


class TestRouting:
    def test_unmatched_before_promotion(self):
        ng = SyslogNG()
        result = ng.route(LogRecord("sshd", "Accepted password for u1 from 1.2.3.4 port 22 ssh2"))
        assert not result.matched
        assert ng.n_unmatched == 1

    def test_matched_after_promotion(self):
        ng = SyslogNG()
        report = ng.promote([auth_pattern()])
        assert report.promoted == 1
        result = ng.route(
            LogRecord("sshd", "Accepted password for u9 from 9.9.9.9 port 2222 ssh2")
        )
        assert result.matched
        assert result.pattern_id == auth_pattern().id
        assert result.fields["srcip"] == "9.9.9.9"

    def test_service_scoping(self):
        ng = SyslogNG()
        ng.promote([auth_pattern()])
        result = ng.route(
            LogRecord("httpd", "Accepted password for u9 from 9.9.9.9 port 2222 ssh2")
        )
        assert not result.matched


class TestPromotion:
    def test_idempotent(self):
        ng = SyslogNG()
        ng.promote([auth_pattern()])
        report = ng.promote([auth_pattern()])
        assert report.promoted == 0
        assert ng.n_patterns == 1

    def test_rejects_pattern_failing_own_test_case(self):
        bad = Pattern.from_text("totally %integer% different", "sshd")
        bad.add_example("this example does not match at all")
        report = SyslogNG().promote([bad])
        assert report.rejected == 1
        assert report.promoted == 0

    def test_conflict_when_example_matches_existing(self):
        """§IV: test cases 'would match more than one pattern. In these
        instances, the most correct pattern would be promoted and the
        other discarded.'"""
        ng = SyslogNG()
        ng.promote([auth_pattern()])
        duplicate = Pattern.from_text(
            "Accepted password for %string% from %srcip% port %srcport% %string1%",
            "sshd",
        )
        duplicate.add_example("Accepted password for u2 from 2.2.2.2 port 22 ssh2")
        report = ng.promote([duplicate])
        assert report.conflicts == 1
        assert ng.n_patterns == 1

    def test_pattern_without_examples_promotes(self):
        pattern = Pattern.from_text("bare %integer% pattern", "svc")
        assert SyslogNG().promote([pattern]).promoted == 1


class TestCompiledPath:
    def test_routes_and_validates_on_token_columns(self, monkeypatch):
        """Promotion test cases and routing scan to token columns and
        match those: no token-building ``scan`` and no token ``match``,
        of the reference classes or the compiled ones, runs."""
        pattern = auth_pattern()

        def refuse(*args, **kwargs):
            raise AssertionError("token path called")

        for cls in (Scanner, CompiledScanner):
            monkeypatch.setattr(cls, "scan", refuse)
        for cls in (Parser, CompiledParser):
            monkeypatch.setattr(cls, "match", refuse)
        ng = SyslogNG()
        assert ng.promote([pattern]).promoted == 1
        result = ng.route(
            LogRecord("sshd", "Accepted password for u9 from 9.9.9.9 port 2222 ssh2")
        )
        assert result.matched and result.fields["srcip"] == "9.9.9.9"
