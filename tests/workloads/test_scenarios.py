"""Property tests of the scenario workload generators.

Every generator must satisfy the stream contract (seeded determinism,
timestamp monotonicity, tag-arity bounds) plus its scenario-shape
invariant: trending keeps its top topics persistent across report rounds
and re-emits plateau anchors with exact per-round multiplicities.
"""

import collections
import dataclasses
import sys

import pytest

from repro.workloads import (
    SCENARIO_GENERATORS,
    SCENARIO_NAMES,
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
            assert isinstance(generator, TwitterLikeGenerator)

    def test_legacy_scenario_is_the_plain_generator(self):
        assert SCENARIO_GENERATORS["legacy"] is TwitterLikeGenerator

    def test_trending_scenario_is_the_trending_generator(self):
        assert SCENARIO_NAMES == ("legacy", "trending")
        assert SCENARIO_GENERATORS["trending"] is TrendingGenerator

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
        # Every scenario stays within the configured Zipf maximum.
        assert all(len(d.tags) <= config.max_tags_per_tweet for d in documents)
        assert any(d.tags for d in documents)

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_generate_seconds_matches_generate(self, name):
        config = _preset(name)
        by_count = make_generator(config).generate(300)
        by_time = make_generator(config).generate_seconds(
            by_count[-1].timestamp + 1e-9
        )
        assert _stream_key(by_time) == _stream_key(by_count)


class TestTagsetTables:
    """Generated tagsets are built from a set, so a frozenset's table is
    sized to fit (472 bytes for 5-7 tags, not the 728 of one grown by
    inserts); every document's own frozenset is what the pipeline pins."""

    @pytest.mark.parametrize("intra", [0.0, 1.0])
    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_tagsets_are_sized_to_fit(self, name, intra):
        # intra 1.0: every background tagset from one topic; 0.0: every
        # one mixed from two or three topics.
        documents = make_generator(
            _preset(name, intra_topic_probability=intra)).generate(1500)
        assert any(len(d.tags) >= 5 for d in documents)
        for document in documents:
            assert sys.getsizeof(document.tags) == sys.getsizeof(
                frozenset(set(document.tags))), sorted(document.tags)

    def test_trend_picks_are_sized_to_fit(self):
        generator = make_generator(_preset("trending", trend_mix=1.0))
        documents = generator.generate(3000)
        picks = [d for d in documents if any("_tag" in t and t.startswith("trend")
                                             for t in d.tags)]
        assert any(len(d.tags) >= 5 for d in picks)
        for document in picks:
            assert sys.getsizeof(document.tags) == sys.getsizeof(
                frozenset(set(document.tags)))


class TestArrivals:
    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_every_gap_is_the_fixed_interarrival(self, name):
        """No scenario modulates the rate: the clock advances by
        ``1 / tweets_per_second`` per document, accumulated."""
        documents = make_generator(_preset(name)).generate(500)
        clock = 0.0
        for document in documents:
            assert document.timestamp == clock
            clock += 1.0 / TPS


class TestRemovedScenarios:
    """``burst``, ``diurnal`` and ``adversarial`` are gone with their knobs."""

    @pytest.mark.parametrize("name", ["burst", "diurnal", "adversarial"])
    def test_removed_scenario_names_are_refused(self, name):
        with pytest.raises(ValueError, match="scenario must be one of legacy, trending"):
            WorkloadConfig(scenario=name).validate()
        with pytest.raises(ValueError, match="unknown scenario"):
            scenario_preset(name)

    @pytest.mark.parametrize("field", [
        "burst_rate_per_minute", "burst_duration_seconds", "burst_intensity",
        "burst_share", "diurnal_period_seconds", "diurnal_amplitude",
        "adversarial_repeat_fraction", "adversarial_repeat_window",
    ])
    def test_removed_fields_are_refused(self, field):
        # So the workload of a trace recorded before the removal replays
        # its documents but no longer rebuilds as a config.
        with pytest.raises(TypeError, match=field):
            WorkloadConfig(**{field: 1})
        assert len(dataclasses.fields(WorkloadConfig)) == 19


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
    ])
    def test_scenario_knob_bounds(self, field, value):
        config = dataclasses.replace(WorkloadConfig(), **{field: value})
        with pytest.raises(ValueError):
            config.validate()
