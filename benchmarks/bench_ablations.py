"""Ablations over the design choices DESIGN.md calls out.

Each ablation isolates one Sequence-RTG mechanism and measures its
effect, turning the paper's design arguments into numbers:

* **service partitioning** (Fig. 2 first partition) — mining a mixed
  stream with vs without per-service separation: quality ("better
  quality patterns compared with processing them as a single group");
* **batch size** (§IV Fig. 5 discussion) — time and peak trie size per
  batch size, the memory/latency trade-off behind the 100k choice;
* **save threshold** (§IV limitations) — how many one-shot patterns the
  threshold keeps out of the database;
* **constant folding** (limitation 4) — variables per pattern with and
  without the quality-control fix;
* **single-digit time fix** (§VI) — HealthApp raw accuracy repaired;
* **path FSM** (§VI) — path-heavy events unified.
"""

import pytest

from repro.analyzer.analyzer import AnalyzerConfig
from repro.core.config import RTGConfig
from repro.core.patterndb import PatternDB
from repro.core.pipeline import SequenceRTG
from repro.core.records import LogRecord
from repro.loghub import evaluate_sequence_rtg, load_dataset
from repro.scanner.scanner import ScannerConfig
from repro.workflow.stream import ProductionStream, StreamConfig


def _stream_records(n: int, seed: int = 3):
    return list(ProductionStream(StreamConfig(n_services=50, seed=seed)).records(n))


class TestServicePartitioning:
    def test_mixed_stream_quality(self, benchmark, table_writer):
        """Partitioned mining yields fewer, better patterns than one
        mixed-service trie over the same records."""
        records = _stream_records(4_000)

        def run():
            rtg = SequenceRTG(db=PatternDB())
            rtg.analyze_by_service(records)
            legacy = SequenceRTG(db=PatternDB()).analyze_legacy(records)
            return rtg, legacy

        rtg, legacy_patterns = benchmark.pedantic(run, rounds=1, iterations=1)
        partitioned = rtg.db.rows()
        mixed_all_var = sum(1 for p in legacy_patterns if p.complexity >= 0.999)
        part_all_var = sum(1 for r in partitioned if r.complexity >= 0.999)
        part_cx = sum(r.complexity for r in partitioned) / len(partitioned)
        mixed_cx = sum(p.complexity for p in legacy_patterns) / len(legacy_patterns)
        table_writer(
            "ablation_service_partitioning.md",
            ["mode", "patterns", "mean complexity", "all-variable patterns"],
            [
                ["AnalyzeByService", len(partitioned), f"{part_cx:.3f}", part_all_var],
                ["legacy Analyze (mixed)", len(legacy_patterns), f"{mixed_cx:.3f}",
                 mixed_all_var],
            ],
        )
        # partitioning keeps more static text per pattern (lower
        # complexity) and avoids the fully-variable garbage patterns the
        # mixed trie produces by over-merging across services
        assert part_all_var <= mixed_all_var
        assert part_cx <= mixed_cx + 0.02


class TestBatchSize:
    @pytest.mark.parametrize("batch_size", [250, 1_000, 4_000])
    def test_batch_size_tradeoff(self, benchmark, batch_size):
        """Bigger batches: fewer runs but larger tries (memory risk)."""
        records = _stream_records(4_000)
        config = RTGConfig(batch_size=batch_size)

        def run():
            # first batch against an empty database: every record reaches
            # the analyser, so the trie size reflects the batch size (the
            # memory-pressure scenario of the paper's Fig. 5 discussion)
            rtg = SequenceRTG(db=PatternDB(), config=config)
            result = rtg.analyze_by_service(records[:batch_size])
            return result.max_trie_nodes

        peak = benchmark.pedantic(run, rounds=1, iterations=1)
        if not hasattr(TestBatchSize, "_peaks"):
            TestBatchSize._peaks = {}
        TestBatchSize._peaks[batch_size] = peak
        assert peak > 0

    def test_batch_size_summary(self, benchmark, table_writer):
        peaks = getattr(TestBatchSize, "_peaks", {})
        if len(peaks) < 3:
            pytest.skip("sweep did not run")
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        table_writer(
            "ablation_batch_size.md",
            ["batch size", "peak analysis-trie nodes"],
            [[k, v] for k, v in sorted(peaks.items())],
        )
        sizes = sorted(peaks)
        # the paper's memory argument: trie size grows with batch size
        assert peaks[sizes[0]] <= peaks[sizes[-1]]


class TestSaveThreshold:
    def test_threshold_blocks_one_shot_patterns(self, benchmark, table_writer):
        records = _stream_records(3_000, seed=9)
        rows = []
        results = {}

        def run():
            for threshold in (1, 3, 10):
                rtg = SequenceRTG(
                    db=PatternDB(), config=RTGConfig(save_threshold=threshold)
                )
                res = rtg.analyze_by_service(records)
                results[threshold] = (
                    rtg.db.counts()["patterns"],
                    res.n_below_threshold,
                )
            return results

        benchmark.pedantic(run, rounds=1, iterations=1)
        for threshold, (saved, blocked) in sorted(results.items()):
            rows.append([threshold, saved, blocked])
        table_writer(
            "ablation_save_threshold.md",
            ["save threshold", "patterns saved", "patterns blocked"],
            rows,
        )
        assert results[10][0] < results[1][0]
        assert results[10][1] > 0


class TestConstantFolding:
    def test_folding_reduces_variables(self, benchmark, table_writer):
        """Limitation 4: without folding, 'Sequence tends to add too many
        variables into patterns'."""
        records = [
            LogRecord("svc", f"conn from 10.0.0.{i % 20} port 22 proto 2 ok")
            for i in range(40)
        ]

        def run():
            on = SequenceRTG(db=PatternDB())
            on.analyze_by_service(records)
            off = SequenceRTG(
                db=PatternDB(),
                config=RTGConfig(analyzer=AnalyzerConfig(fold_constants=False)),
            )
            off.analyze_by_service(records)
            return on.db.rows(), off.db.rows()

        rows_on, rows_off = benchmark.pedantic(run, rounds=1, iterations=1)
        cx_on = sum(r.complexity for r in rows_on) / len(rows_on)
        cx_off = sum(r.complexity for r in rows_off) / len(rows_off)
        table_writer(
            "ablation_constant_folding.md",
            ["folding", "patterns", "mean complexity"],
            [["on (RTG)", len(rows_on), f"{cx_on:.3f}"],
             ["off (limitation 4)", len(rows_off), f"{cx_off:.3f}"]],
        )
        assert cx_on < cx_off


class TestFutureWorkFixes:
    def test_single_digit_time_repairs_healthapp_raw(self, benchmark, table_writer):
        dataset = load_dataset("HealthApp")

        def run():
            default = evaluate_sequence_rtg(dataset, "raw")
            fixed = evaluate_sequence_rtg(
                dataset,
                "raw",
                config=RTGConfig(scanner=ScannerConfig(allow_single_digit_time=True)),
            )
            return default, fixed

        default, fixed = benchmark.pedantic(run, rounds=1, iterations=1)
        table_writer(
            "ablation_single_digit_time.md",
            ["scanner", "HealthApp raw accuracy"],
            [["published (leading zero required)", f"{default:.3f}"],
             ["future-work fix (single digits ok)", f"{fixed:.3f}"]],
        )
        assert fixed > default + 0.1

    def test_path_fsm_unifies_path_events(self, benchmark, table_writer):
        # digit-free paths: without the path FSM these are plain literal
        # words, too few and too dissimilar to merge, so one event yields
        # one pattern per path (the §IV path limitation)
        records = [
            LogRecord("fs", f"mount of /srv/{name}/data failed badly")
            for name in ("alpha", "beta", "gamma")
            for _ in range(3)
        ]

        def run():
            default = SequenceRTG(db=PatternDB())
            n_default = default.analyze_by_service(records).n_new_patterns
            fixed = SequenceRTG(
                db=PatternDB(),
                config=RTGConfig(scanner=ScannerConfig(enable_path_fsm=True)),
            )
            n_fixed = fixed.analyze_by_service(records).n_new_patterns
            return n_default, n_fixed

        n_default, n_fixed = benchmark.pedantic(run, rounds=1, iterations=1)
        table_writer(
            "ablation_path_fsm.md",
            ["scanner", "patterns for one path event"],
            [["published (no path FSM)", n_default],
             ["future-work path FSM", n_fixed]],
        )
        assert n_fixed <= n_default


class TestSemiConstantExpansion:
    def test_expansion_creates_per_value_patterns(self, benchmark, table_writer):
        """§VI future work: semi-constant variables become one pattern per
        value, each with a constant at its position."""
        records = [
            LogRecord(
                "net",
                f"link eth{i % 2} changed state to {'up' if i % 3 else 'down'} at step {i}",
            )
            for i in range(60)
        ]

        def run():
            published = SequenceRTG(db=PatternDB())
            n_published = published.analyze_by_service(records).n_new_patterns
            expanded = SequenceRTG(
                db=PatternDB(),
                config=RTGConfig(
                    analyzer=AnalyzerConfig(semi_constant_max_values=4)
                ),
            )
            n_expanded = expanded.analyze_by_service(records).n_new_patterns
            return n_published, n_expanded

        n_published, n_expanded = benchmark.pedantic(run, rounds=1, iterations=1)
        table_writer(
            "ablation_semi_constant.md",
            ["analyser", "patterns"],
            [["published (single variable)", n_published],
             ["future-work semi-constant expansion", n_expanded]],
        )
        assert n_expanded > n_published


class TestParallelScaleOut:
    def test_service_sharded_speedup(self, benchmark, table_writer):
        """§IV: scaling out by sending groups of services to several
        Sequence-RTG instances, each with its own database; the shards
        are independent, so their union is the serial pattern set and
        wall-clock time drops on multicore."""
        import time

        from repro.core.parallel import PersistentParallelSequenceRTG

        records = _stream_records(12_000, seed=12)

        def run():
            t0 = time.perf_counter()
            serial = SequenceRTG(db=PatternDB())
            serial.analyze_by_service(records)
            t_serial = time.perf_counter() - t0

            t0 = time.perf_counter()
            with PersistentParallelSequenceRTG(
                db=PatternDB(), n_workers=4
            ) as parallel:
                parallel.analyze_by_service(records)
            t_parallel = time.perf_counter() - t0
            return t_serial, t_parallel, serial, parallel

        t_serial, t_parallel, serial, parallel = benchmark.pedantic(
            run, rounds=1, iterations=1
        )
        table_writer(
            "ablation_parallel.md",
            ["mode", "wall-clock", "patterns"],
            [
                ["serial", f"{t_serial:.2f}s", serial.db.counts()["patterns"]],
                ["4 sharded instances", f"{t_parallel:.2f}s",
                 parallel.db.counts()["patterns"]],
            ],
        )
        serial_ids = {r.id for r in serial.db.rows()}
        parallel_ids = {r.id for r in parallel.db.rows()}
        assert serial_ids == parallel_ids  # no crossover between services
        # multicore hosts should see a real speedup; on a loaded or
        # single-core machine we still require no pathological slowdown
        assert t_parallel < t_serial * 1.5


class TestLegacyVsRtgQuality:
    def test_partitioned_vs_single_trie_accuracy(self, benchmark, table_writer):
        """Seminal ``Analyze`` vs ``AnalyzeByService`` on labelled data.

        The trade-off behind the paper's §III quality claim, quantified:
        the legacy pairwise comparison merges *any* two similar siblings,
        which helps datasets whose variables take only 2-3 values but
        over-merges distinct events elsewhere (OpenSSH collapses), while
        the partitioned analyser's threshold is conservative.  The paper
        chose the conservative side for production: a missed merge is a
        reviewable extra pattern, an over-merge silently mislabels
        traffic.
        """
        from repro.loghub import evaluate_sequence_rtg, load_dataset
        from repro.loghub.evaluation import evaluate_legacy_sequence

        names = ("HDFS", "OpenSSH", "Mac", "Linux")

        def run():
            rows = []
            for name in names:
                dataset = load_dataset(name)
                rows.append(
                    (
                        name,
                        evaluate_sequence_rtg(dataset, "raw"),
                        evaluate_legacy_sequence(dataset, "raw"),
                    )
                )
            return rows

        rows = benchmark.pedantic(run, rounds=1, iterations=1)
        table_writer(
            "ablation_legacy_quality.md",
            ["dataset", "AnalyzeByService", "legacy Analyze"],
            [[n, f"{a:.3f}", f"{l:.3f}"] for n, a, l in rows],
        )
        scores = {n: (a, l) for n, a, l in rows}
        # the legacy merge-anything strategy collapses distinct OpenSSH
        # events into one pattern; the partitioned analyser does not
        assert scores["OpenSSH"][0] > scores["OpenSSH"][1] + 0.15
        # both solve the easy dataset
        assert scores["HDFS"][0] > 0.95 and scores["HDFS"][1] > 0.95
