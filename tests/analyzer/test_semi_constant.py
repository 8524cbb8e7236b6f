"""Semi-constant value expansion (§VI future work).

"it would be more interesting to create as many patterns as there are
variations of this semi-constant variable, each pattern having a
constant value at its position."

Rule A merges a word position only above four distinct values, so the
state column below takes five.
"""

from repro.analyzer import Analyzer, AnalyzerConfig
from repro.parser import Parser
from repro.scanner import Scanner

SC = Scanner()


def analyze(messages, **config_kwargs):
    config = AnalyzerConfig(**config_kwargs)
    return Analyzer(config).analyze([SC.scan(m) for m in messages])


STATES = ("up", "down", "dormant", "testing", "unknown")
STATE_MESSAGES = [
    f"link eth0 changed state to {s} at step {i}"
    for i, s in enumerate(STATES * 3)
]


def state_of(text):
    (value,) = [s for s in STATES if f" {s} " in f" {text} "]
    return value


class TestDisabledByDefault:
    def test_published_behaviour_single_pattern(self):
        patterns = analyze(STATE_MESSAGES)
        assert [p.text for p in patterns] == [
            "link eth0 changed state to %string% at step %integer%"
        ]


class TestExpansion:
    def test_one_pattern_per_value(self):
        patterns = analyze(STATE_MESSAGES, semi_constant_max_values=5)
        texts = sorted(p.text for p in patterns)
        assert texts == sorted(
            f"link eth0 changed state to {s} at step %integer%" for s in STATES
        )

    def test_supports_split_by_value(self):
        patterns = analyze(STATE_MESSAGES, semi_constant_max_values=5)
        assert sorted(p.support for p in patterns) == [3] * 5

    def test_many_valued_variables_not_expanded(self):
        messages = [f"request id req{i} served" for i in range(30)]
        patterns = analyze(messages, semi_constant_max_values=3)
        assert len(patterns) == 1
        assert "%alphanum%" in patterns[0].text

    def test_limit_respected(self):
        # 5 distinct values but limit 4: no expansion
        modes = ("auto", "manual", "hybrid", "eco", "boost")
        messages = [f"mode set to {m} now ok" for m in modes * 4]
        patterns = analyze(messages, semi_constant_max_values=4)
        assert [p.text for p in patterns] == ["mode set to %string% now ok"]

    def test_time_never_expanded(self):
        messages = ["tick at 08:12:33 done", "tick at 08:12:34 done"] * 3
        patterns = analyze(messages, semi_constant_max_values=5)
        assert len(patterns) == 1
        assert "%msgtime%" in patterns[0].text

    def test_expanded_patterns_parse_their_traffic(self):
        patterns = analyze(STATE_MESSAGES, semi_constant_max_values=5)
        parser = Parser(patterns)
        for message in STATE_MESSAGES:
            hit = parser.match(SC.scan(message))
            assert hit is not None
            assert state_of(hit.pattern.text) == state_of(message)

    def test_examples_filtered_per_value(self):
        patterns = analyze(STATE_MESSAGES, semi_constant_max_values=5)
        for pattern in patterns:
            for example in pattern.examples:
                assert state_of(example) == state_of(pattern.text)
