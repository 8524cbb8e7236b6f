"""Fig. 3 / Fig. 4 — pattern export renderings.

Regenerates the two export figures for the paper's running example
(``%action% from %srcip% port %srcport%``): the syslog-ng patterndb rule
with test cases (Fig. 3) and the Logstash Grok filter tagged with the
pattern id (Fig. 4), then exports a database of several hundred mined
patterns, one rule per pattern.
"""

from repro.analyzer.pattern import Pattern
from repro.core.export import export_patterns
from repro.core.patterndb import PatternDB
from repro.core.pipeline import SequenceRTG
from repro.workflow.stream import ProductionStream, StreamConfig


def _example_db() -> PatternDB:
    db = PatternDB()
    pattern = Pattern.from_text("%action% from %srcip% port %srcport%", "sshd")
    pattern.support = 42
    pattern.add_example("Accepted password from 192.168.1.5 port 22")
    pattern.add_example("Failed none from 10.0.0.8 port 59404")
    db.upsert(pattern)
    return db


def test_fig3_syslog_ng_rendering():
    xml = export_patterns(_example_db(), "syslog-ng")
    assert "@ESTRING:action: @from @IPv4:srcip@ port @NUMBER:srcport@" in xml
    assert "test_message" in xml
    print("\n--- Fig. 3 (syslog-ng patterndb) ---")
    print(xml)


def test_fig4_grok_rendering():
    out = export_patterns(_example_db(), "grok")
    assert (
        'match => {"message" => "%{DATA:action} from %{IP:srcip} port %{INT:srcport}"}'
        in out
    )
    assert '"pattern_id"]' in out
    print("\n--- Fig. 4 (Logstash Grok) ---")
    print(out)


def test_export_many_patterns():
    """Export a few hundred mined patterns (review-time workload)."""
    rtg = SequenceRTG(db=PatternDB())
    stream = ProductionStream(StreamConfig(n_services=60, seed=2))
    rtg.analyze_by_service(list(stream.records(4_000)))
    n_patterns = rtg.db.counts()["patterns"]
    assert n_patterns > 100
    assert export_patterns(rtg.db, "syslog-ng").count("<rule ") == n_patterns
