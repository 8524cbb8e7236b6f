"""Production simulation: the Fig. 7 dynamics at test scale."""

import pytest

from repro.workflow import ProductionSimulation, SimulationConfig, StreamConfig


@pytest.fixture(scope="module")
def history():
    config = SimulationConfig(
        days=9,
        msgs_per_day=(1200, 1500),
        batch_size=300,
        review_every_days=2,
        promote_min_count=5,
        churn_templates_per_day=2,
        stream=StreamConfig(n_services=30),
    )
    sim = ProductionSimulation(config)
    return sim, sim.run()


class TestBootstrap:
    def test_initial_unmatched_75_to_85_percent(self, history):
        _, days = history
        # paper: 75-80% unmatched before Sequence-RTG
        assert 0.70 <= days[0].unmatched_fraction <= 0.88

    def test_bootstrap_promotes_some_patterns(self, history):
        sim, _ = history
        assert sim.syslog.n_patterns > 0


class TestDynamics:
    def test_unmatched_fraction_drops(self, history):
        _, days = history
        assert days[-1].unmatched_fraction < days[0].unmatched_fraction - 0.2

    def test_promotions_happen_on_review_days(self, history):
        _, days = history
        promoted_days = [d.day for d in days if d.n_promoted > 0]
        assert promoted_days
        assert all(day % 2 == 0 for day in promoted_days)

    def test_patterndb_grows_monotonically(self, history):
        _, days = history
        sizes = [d.patterndb_size for d in days]
        assert sizes == sorted(sizes)

    def test_batch_fill_time_grows(self, history):
        """§IV: as patterns are promoted the unmatched stream thins and
        the time to fill a batch grows (15 -> 25-30 minutes in prod)."""
        _, days = history
        assert days[-1].batch_fill_minutes >= days[0].batch_fill_minutes

    def test_day_accounting(self, history):
        _, days = history
        for d in days:
            assert d.n_matched + d.n_unmatched == d.n_messages
            assert d.analysis_seconds >= 0.0


class TestSinks:
    def test_everything_indexed(self, history):
        sim, days = history
        total = sum(d.n_messages for d in days)
        assert sim.es.total_documents() == total

    def test_daily_indices(self, history):
        sim, days = history
        assert len(sim.es.indices()) == len(days)

