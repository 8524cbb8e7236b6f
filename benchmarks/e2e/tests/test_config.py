import dataclasses

from benchmarks.e2e import config
from benchmarks.e2e.layers import PER_LAYER


@dataclasses.dataclass
class WithBackend:
    backend: str = "reference"


@dataclasses.dataclass
class WithoutBackend:
    window: int = 3


def test_select_compiled_with_and_without_a_backend_field():
    part = WithBackend()
    config.select_compiled(part)
    assert part.backend == "compiled"
    bare = WithoutBackend()
    config.select_compiled(bare)  # the knob is gone: nothing to choose, nothing raised
    assert bare == WithoutBackend()


def test_supported_drops_knobs_the_class_no_longer_has():
    assert config.supported(WithoutBackend, window=5, enable_fastpath=True) == {"window": 5}


def test_production_config_is_the_fast_configuration():
    cfg = config.production_config()
    assert cfg.enable_fastpath and cfg.enable_metrics
    assert cfg.batch_size == config.BATCH_SIZE
    assert {cfg.scanner.backend, cfg.parser.backend, cfg.analyzer.backend} == {"compiled"}
    drift = config.drift_config()
    assert drift.mode == "stream"
    assert drift.streaming.micro_batch_size == config.DRIFT["micro_batch_size"]


def test_sizes_scale_in_whole_batches():
    full = config.sizes(1.0)
    assert full["steady_measured"] == 200_000 and full["steady_prefix"] == 50_000
    assert full["cold_rounds"] == 30 and full["drift_loghub_lines"] == 2_400
    quick = config.sizes(config.QUICK_SCALE)
    assert quick["steady_measured"] % config.BATCH_SIZE == 0
    assert quick["steady_prefix"] == config.BATCH_SIZE
    assert quick["cold_rounds"] == 2
    assert quick["drift_loghub_lines"] % config.DRIFT["days"] == 0


def test_benchmark_json_lists_exactly_the_catalogue():
    benchmark = config.load_benchmark_json()
    listed = {m["name"]: (m["unit"], m["better"]) for m in benchmark["per_layer"]}
    assert listed == PER_LAYER
    assert [w["name"] for w in benchmark["workloads"]] == list(config.WORKLOADS)
    assert benchmark["paths"] == ["benchmarks/e2e"]
    names = {m["name"] for m in benchmark["end_to_end"]}
    assert "setup_s" in names and not names & set(config.EXTRA_END_TO_END)
