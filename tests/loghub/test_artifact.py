"""Artifact bundle export (paper AVAILABILITY section)."""

import csv
import json
import os

import pytest

from repro.loghub.artifact import export_artifact


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("artifact"))
    manifest = export_artifact(out, datasets=("Apache", "Proxifier"), n_lines=300)
    return out, manifest


class TestBundle:
    def test_manifest_written(self, bundle):
        out, manifest = bundle
        with open(os.path.join(out, "manifest.json")) as fh:
            data = json.load(fh)
        assert data["datasets"] == ["Apache", "Proxifier"]
        assert set(data["accuracy_raw"]) == {"Apache", "Proxifier"}

    def test_json_files_per_dataset(self, bundle):
        out, _ = bundle
        for name in ("Apache", "Proxifier"):
            with open(os.path.join(out, f"{name}_full.json")) as fh:
                full = json.load(fh)
            with open(os.path.join(out, f"{name}_preprocessed.json")) as fh:
                pre = json.load(fh)
            assert len(full) == len(pre) == 300

    def test_mapping_csv_covers_every_line(self, bundle):
        out, _ = bundle
        with open(os.path.join(out, "Apache_mapping.csv")) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 300
        assert rows[0]["line"] == "1"
        assert all(r["event_label"].startswith("E") for r in rows)
        # pattern ids are SHA1s (or explicit unmatched markers)
        assert all(
            len(r["pattern_id"]) == 40 or r["pattern_id"].startswith("<unmatched")
            for r in rows
        )

    def test_mapping_consistent_with_accuracy(self, bundle):
        """The CSV is exactly what the accuracy was computed from: lines
        with the same pattern id within a correct dataset share labels."""
        out, manifest = bundle
        assert manifest.accuracy_raw["Apache"] > 0.95
        with open(os.path.join(out, "Apache_mapping.csv")) as fh:
            rows = list(csv.DictReader(fh))
        by_pattern = {}
        for row in rows:
            by_pattern.setdefault(row["pattern_id"], set()).add(row["event_label"])
        pure = sum(1 for labels in by_pattern.values() if len(labels) == 1)
        assert pure / len(by_pattern) > 0.9


class TestPatternDbDumpMerge:
    def test_merge_from_accumulates(self):
        from repro.core.patterndb import PatternDB
        from repro.analyzer.pattern import Pattern

        a, b = PatternDB(), PatternDB()
        p1 = Pattern.from_text("x %integer%", "s1")
        p1.support = 2
        a.upsert(p1)
        p2 = Pattern.from_text("x %integer%", "s1")
        p2.support = 3
        b.upsert(p2)
        p3 = Pattern.from_text("y %string%", "s2")
        p3.support = 1
        b.upsert(p3)

        merged = a.merge_from(b)
        assert merged == 2
        rows = {r.pattern_text: r.match_count for r in a.rows()}
        assert rows == {"x %integer%": 5, "y %string%": 1}
