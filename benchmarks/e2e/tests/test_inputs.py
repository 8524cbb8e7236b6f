import hashlib

from benchmarks.e2e import inputs


def digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_steady_is_deterministic_per_seed_and_differs_across_seeds():
    prefix, measured = inputs.steady(3, 200, 800)
    assert (len(prefix), len(measured)) == (200, 800)
    again = inputs.steady(3, 200, 800)
    assert digest(prefix + measured) == digest(again[0] + again[1])
    other = inputs.steady(4, 200, 800)
    assert digest(prefix + measured) != digest(other[0] + other[1])


def test_cold_is_deterministic_per_seed_and_differs_across_seeds():
    assert digest(inputs.cold(5, 2, 300)) == digest(inputs.cold(5, 2, 300))
    assert digest(inputs.cold(5, 2, 300)) != digest(inputs.cold(6, 2, 300))


def test_drift_days_and_labels():
    days, labelled = inputs.drift(7, 160, 50)
    assert len(days) == 16
    assert all(len(day) == 50 + 16 * 10 for day in days)
    assert len(labelled) == 16 * 160  # fewer lines than the 2,000-line sample cap
    again_days, again_labelled = inputs.drift(7, 160, 50)
    assert [digest(day) for day in days] == [digest(day) for day in again_days]
    assert digest(labelled) == digest(again_labelled)
    other_days, _ = inputs.drift(8, 160, 50)
    assert digest(days[0]) != digest(other_days[0])
