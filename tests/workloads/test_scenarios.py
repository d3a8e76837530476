"""Property tests of the scenario workload generators.

Every generator must satisfy the stream contract (seeded determinism,
timestamp monotonicity, tag-arity bounds) plus its scenario-shape
invariant: trending keeps its top topics persistent across report rounds
and re-emits plateau anchors with exact per-round multiplicities, burst
spikes the arrival rate, diurnal modulates it periodically, and
adversarial churn keeps the first-occurrence type fraction per round at or
above 85%.
"""

import collections
import dataclasses
import math

import pytest

from repro.workloads import (
    SCENARIO_GENERATORS,
    SCENARIO_NAMES,
    AdversarialChurnGenerator,
    BurstGenerator,
    DiurnalGenerator,
    ScenarioGenerator,
    TrendingGenerator,
    TwitterLikeGenerator,
    WorkloadConfig,
    make_generator,
    scenario_preset,
)

#: Keeps the property tests fast while spanning several report rounds.
TPS = 50.0


def _preset(name, **overrides):
    overrides.setdefault("tweets_per_second", TPS)
    overrides.setdefault("seed", 13)
    return scenario_preset(name, **overrides)


def _stream_key(documents):
    return [(d.doc_id, d.timestamp, d.tags) for d in documents]


class TestScenarioRegistry:
    def test_registry_covers_every_scenario_name(self):
        assert tuple(SCENARIO_GENERATORS) == SCENARIO_NAMES

    def test_make_generator_dispatches_on_config_scenario(self):
        for name, cls in SCENARIO_GENERATORS.items():
            generator = make_generator(_preset(name))
            assert type(generator) is cls
            assert isinstance(generator, ScenarioGenerator)

    def test_legacy_scenario_is_the_plain_generator(self):
        assert SCENARIO_GENERATORS["legacy"] is TwitterLikeGenerator

    def test_scenario_preset_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            scenario_preset("viral")

    def test_explicit_overrides_beat_preset_values(self):
        config = scenario_preset("trending", n_topics=7)
        assert config.n_topics == 7
        assert config.scenario == "trending"
        # A preset field the caller left alone keeps the preset value.
        assert config.new_topic_rate == 0.0

    def test_legacy_preset_matches_plain_config_defaults(self):
        # Adding the scenario subsystem must not move the legacy workload:
        # the preset equals a plain WorkloadConfig except for `scenario`.
        assert scenario_preset("legacy") == WorkloadConfig(scenario="legacy")


class TestStreamContract:
    """Seeded determinism, monotone timestamps, bounded tag arity."""

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_same_seed_same_stream(self, name):
        config = _preset(name)
        first = make_generator(config).generate(600)
        second = make_generator(config).generate(600)
        assert _stream_key(first) == _stream_key(second)

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_different_seed_different_stream(self, name):
        first = make_generator(_preset(name, seed=1)).generate(600)
        second = make_generator(_preset(name, seed=2)).generate(600)
        assert _stream_key(first) != _stream_key(second)

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_timestamps_monotone_and_ids_sequential(self, name):
        documents = make_generator(_preset(name)).generate(600)
        timestamps = [d.timestamp for d in documents]
        assert all(b >= a for a, b in zip(timestamps, timestamps[1:]))
        assert [d.doc_id for d in documents] == list(range(600))

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_tag_arity_bounded(self, name):
        config = _preset(name)
        documents = make_generator(config).generate(600)
        # The adversarial generator floors arity at 2 (1-tag documents
        # contribute no reportable type); every scenario stays within the
        # configured Zipf maximum.
        limit = max(config.max_tags_per_tweet, 2)
        assert all(len(d.tags) <= limit for d in documents)
        assert any(d.tags for d in documents)

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_generate_seconds_matches_generate(self, name):
        config = _preset(name)
        by_count = make_generator(config).generate(300)
        by_time = make_generator(config).generate_seconds(
            by_count[-1].timestamp + 1e-9
        )
        assert _stream_key(by_time) == _stream_key(by_count)


class TestTrendingShape:
    ROUND = 30.0  # divides cadence(3) * pool(5) = 15 into 1500 docs

    def _anchor_rounds(self, documents):
        """Per-round multiplicity of every anchor tagset."""
        rounds = collections.defaultdict(collections.Counter)
        for document in documents:
            if any("_anchor" in tag for tag in document.tags):
                rounds[int(document.timestamp // self.ROUND)][document.tags] += 1
        return rounds

    def test_plateau_anchor_multiplicity_is_exact_across_rounds(self):
        documents = make_generator(_preset("trending")).generate(7500)
        rounds = self._anchor_rounds(documents)
        # Full-plateau rounds observe an anchor exactly
        # docs_per_round / (cadence * pool) = 1500 / 15 = 100 times; at
        # least one anchor type must recur with that exact count in
        # consecutive rounds.
        expected = int(TPS * self.ROUND) // 15
        recurrences = 0
        for index in sorted(rounds)[1:]:
            for tags, count in rounds[index].items():
                if count == expected and rounds[index - 1].get(tags) == expected:
                    recurrences += 1
        assert recurrences > 0

    def test_anchor_tags_are_reserved(self):
        # Anchor tags never leak into non-anchor documents, so a clean
        # anchor type cannot be dirtied by an overlapping background type.
        documents = make_generator(_preset("trending")).generate(4000)
        for document in documents:
            anchored = {tag for tag in document.tags if "_anchor" in tag}
            if anchored:
                assert anchored == set(document.tags)

    def test_top_topics_persist_across_rounds(self):
        # The trending preset disables topic churn: the most-used base
        # topics of one round stay heavily used in the next (unlike the
        # legacy workload, whose churn replaces them).
        documents = make_generator(_preset("trending")).generate(6000)
        per_round = collections.defaultdict(collections.Counter)
        for document in documents:
            for tag in document.tags:
                if tag.startswith("topic"):
                    topic = tag.split("_", 1)[0]
                    per_round[int(document.timestamp // self.ROUND)][topic] += 1
        indexes = sorted(per_round)
        assert len(indexes) >= 3
        for previous, current in zip(indexes, indexes[1:]):
            top_prev = {t for t, _ in per_round[previous].most_common(5)}
            top_now = {t for t, _ in per_round[current].most_common(5)}
            assert len(top_prev & top_now) >= 3

    def test_trend_lifecycle_rises_and_dies(self):
        generator = make_generator(_preset("trending"))
        generator.generate(6000)
        config = generator.config
        lifetime = (config.trend_rise_seconds + config.trend_plateau_seconds
                    + config.trend_decay_seconds)
        live = generator.live_trends
        # Steady state: about trend_pool trends live, none older than a
        # lifetime.
        assert 1 <= len(live) <= config.trend_pool + 1
        for trend in live:
            assert generator.current_time - trend.birth_time <= lifetime


class TestBurstShape:
    def test_burst_multiplies_rate_and_flavours_documents(self):
        config = _preset("burst", burst_rate_per_minute=1.0,
                         burst_intensity=4.0)
        documents = make_generator(config).generate(6000)
        per_second = collections.Counter(int(d.timestamp) for d in documents)
        rates = sorted(per_second.values())
        median = rates[len(rates) // 2]
        # Outside bursts the stream runs at the base rate; inside, at
        # burst_intensity times that.
        assert median == pytest.approx(TPS, rel=0.1)
        assert max(rates) >= 2.0 * median
        burst_documents = [
            d for d in documents
            if any(tag.startswith("burst") for tag in d.tags)
        ]
        assert burst_documents, "flash-crowd topics never surfaced"

    def test_zero_burst_rate_degenerates_to_legacy_shape(self):
        config = _preset("burst", burst_rate_per_minute=0.0)
        documents = make_generator(config).generate(2000)
        assert not any(
            tag.startswith("burst") for d in documents for tag in d.tags
        )
        span = documents[-1].timestamp - documents[0].timestamp
        assert span == pytest.approx(2000 / TPS, rel=0.01)


class TestDiurnalShape:
    def test_rate_oscillates_with_the_configured_period(self):
        period = 120.0
        config = _preset("diurnal", diurnal_period_seconds=period,
                         diurnal_amplitude=0.6)
        documents = make_generator(config).generate(9000)
        per_second = collections.Counter(int(d.timestamp) for d in documents)
        span = int(documents[-1].timestamp)
        interior = {s: per_second[s] for s in range(5, span - 5)}
        peak = max(interior.values())
        trough = min(interior.values())
        assert peak >= 2.0 * trough
        # Periodicity: the rate profile correlates with the configured
        # sinusoid far better than with chance.
        seconds = sorted(interior)
        mean = sum(interior.values()) / len(interior)
        num = sum(
            (interior[s] - mean) * math.sin(2 * math.pi * (s + 0.5) / period)
            for s in seconds
        )
        den = math.sqrt(
            sum((interior[s] - mean) ** 2 for s in seconds)
            * sum(math.sin(2 * math.pi * (s + 0.5) / period) ** 2
                  for s in seconds)
        )
        assert num / den > 0.8

    def test_topic_mix_swings_between_pools(self):
        period = 120.0
        config = _preset("diurnal", diurnal_period_seconds=period,
                         diurnal_amplitude=0.9)
        generator = make_generator(config)
        documents = generator.generate(9000)
        day_tags = {t for topic in generator._day_pool for t in topic.tags}
        # Day-pool share around the sine peak vs around the sine trough.
        def share(lo, hi):
            day = total = 0
            for d in documents:
                if lo <= d.timestamp % period < hi and d.tags:
                    total += 1
                    if set(d.tags) <= day_tags:
                        day += 1
            return day / max(1, total)

        assert share(20.0, 40.0) > share(80.0, 100.0) + 0.2


class TestAdversarialShape:
    ROUND = 30.0

    def test_first_occurrence_fraction_at_least_85_percent(self):
        documents = make_generator(_preset("adversarial")).generate(4500)
        seen = set()
        per_round = collections.defaultdict(lambda: [0, 0])
        for document in documents:
            if len(document.tags) < 2:
                continue
            bucket = per_round[int(document.timestamp // self.ROUND)]
            if document.tags not in seen:
                seen.add(document.tags)
                bucket[0] += 1
            bucket[1] += 1
        assert per_round
        for first, total in per_round.values():
            assert first / total >= 0.85

    def test_repeats_stay_within_the_recent_window(self):
        config = _preset("adversarial", adversarial_repeat_window=25)
        documents = make_generator(config).generate(3000)
        last_seen = {}
        for index, document in enumerate(documents):
            if document.tags in last_seen:
                # A repeated type was minted at most window non-repeat
                # documents ago; with repeats interleaved the document gap
                # stays within ~2x the window.
                assert index - last_seen[document.tags] <= 2 * 25
            last_seen[document.tags] = index

    def test_tags_never_reused_across_types(self):
        documents = make_generator(_preset("adversarial")).generate(2000)
        owner = {}
        for document in documents:
            for tag in document.tags:
                owner.setdefault(tag, document.tags)
                assert owner[tag] == document.tags


class TestWorkloadConfigValidation:
    def test_new_topic_rate_zero_disables_births_cleanly(self):
        # Regression: rate 0 must mean "no births" (infinite birth gap),
        # not a degenerate expovariate draw.
        config = WorkloadConfig(seed=3, tweets_per_second=TPS,
                                n_topics=10, tags_per_topic=5,
                                new_topic_rate=0.0)
        generator = TwitterLikeGenerator(config)
        generator.generate(500)
        assert len(generator.topic_model.topics) == 10

    @pytest.mark.parametrize("value", [-1.0, float("nan"), float("inf")])
    def test_new_topic_rate_rejects_non_finite_and_negative(self, value):
        with pytest.raises(ValueError, match="new_topic_rate"):
            WorkloadConfig(new_topic_rate=value).validate()

    @pytest.mark.parametrize("value", [-0.1, float("nan"), float("inf")])
    def test_topic_decay_rate_rejects_non_finite_and_negative(self, value):
        with pytest.raises(ValueError, match="topic_decay_rate"):
            WorkloadConfig(topic_decay_rate=value).validate()

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="scenario"):
            WorkloadConfig(scenario="viral").validate()

    @pytest.mark.parametrize("field, value", [
        ("trend_pool", 0),
        ("trend_rise_seconds", 0.0),
        ("trend_plateau_seconds", -1.0),
        ("trend_decay_seconds", 0.0),
        ("trend_anchor_share", 1.0),
        ("trend_mix", 1.5),
        ("burst_rate_per_minute", -1.0),
        ("burst_duration_seconds", 0.0),
        ("burst_intensity", 0.5),
        ("burst_share", -0.1),
        ("diurnal_period_seconds", 0.0),
        ("diurnal_amplitude", 1.0),
        ("adversarial_repeat_fraction", 1.0),
        ("adversarial_repeat_window", 0),
    ])
    def test_scenario_knob_bounds(self, field, value):
        config = dataclasses.replace(WorkloadConfig(), **{field: value})
        with pytest.raises(ValueError):
            config.validate()
