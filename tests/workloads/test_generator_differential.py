"""Differential suite: the generator emits the reference's documents.

``repro.workloads`` re-weights only decaying topics per document and picks
with ``bisect_left`` over cached running sums; ``reference_generator`` is
the linear-scan code it replaced.  "Bit-identical streams" is checked here
document by document — ``doc_id``, ``repr(timestamp)`` and the sorted tags
— over every scenario, the default configuration and a long-horizon stream
whose population more than doubles by topic births (the committed golden
traces are 40 documents long and never reach a birth).
"""

import dataclasses
import random
from bisect import bisect_left
from itertools import accumulate

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_generator as reference
from repro.workloads import WorkloadConfig, make_generator, scenario_preset
from repro.workloads.topics import Topic, TopicModel


def _stream(documents):
    return [(d.doc_id, repr(d.timestamp), sorted(d.tags)) for d in documents]


def _assert_same_stream(config_factory, n_documents):
    generator = make_generator(config_factory())
    new = generator.generate(n_documents)
    old_config = config_factory()
    old = reference.REFERENCE_GENERATORS[old_config.scenario](old_config).generate(n_documents)
    new_stream, old_stream = _stream(new), _stream(old)
    for index, (got, want) in enumerate(zip(new_stream, old_stream)):
        assert got == want, f"document {index} differs"
    assert len(new_stream) == len(old_stream) == n_documents
    return generator


def _long_horizon():
    # 5 documents per second and 6 births per minute: 20 000 documents span
    # 4 000 s and ~430 births on top of the 400 initial topics.
    return WorkloadConfig(tweets_per_second=5.0, new_topic_rate=6.0)


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("scenario", list(reference.REFERENCE_GENERATORS))
def test_every_scenario_matches_the_reference(scenario, seed):
    _assert_same_stream(
        lambda: scenario_preset(scenario, seed=seed, tweets_per_second=50.0), 5_000
    )


def test_default_config_matches_the_reference():
    _assert_same_stream(WorkloadConfig, 5_000)


def test_long_horizon_stream_matches_the_reference():
    generator = _assert_same_stream(_long_horizon, 20_000)
    assert len(generator.topic_model.topics) > 800


# --------------------------------------------------------------------- #
# The topic model after a caller changes its population
# --------------------------------------------------------------------- #
def _draws(model, now, seed, n=300):
    rng = random.Random(seed)
    return [model.sample_topic(now, rng).name for _ in range(n)]


def _draw_sets(model, now, seed, n=100):
    rng = random.Random(seed)
    return [[t.name for t in model.sample_topics(3, now, rng)] for _ in range(n)]


def _twin_models():
    return TopicModel(n_topics=40, tags_per_topic=3), reference.TopicModel(
        n_topics=40, tags_per_topic=3
    )


def test_appending_after_a_sample_resamples_like_the_reference():
    new, old = _twin_models()
    assert _draws(new, 0.0, 1) == _draws(old, 0.0, 1)
    # A decaying topic, then a non-decaying one behind it, appended by the
    # caller rather than through spawn_topic.
    for cls, model in ((Topic, new), (reference.Topic, old)):
        model.topics.append(
            cls(name="late0", tags=["x0"], weight=3.0, birth_time=5.0, decay_rate=0.01)
        )
    assert _draws(new, 60.0, 2) == _draws(old, 60.0, 2)
    assert _draw_sets(new, 60.0, 3) == _draw_sets(old, 60.0, 3)
    for cls, model in ((Topic, new), (reference.Topic, old)):
        model.topics.append(cls(name="late1", tags=["x1"], weight=2.5))
    assert _draws(new, 90.0, 4) == _draws(old, 90.0, 4)
    assert "late1" in _draws(new, 90.0, 4)


def test_spawning_a_non_decaying_topic_after_a_sample_resamples_like_the_reference():
    new, old = _twin_models()
    _draws(new, 0.0, 1)
    new.spawn_topic(10.0, weight=4.0)
    old.spawn_topic(10.0, random.Random(0), weight=4.0)
    assert new.topics[-1].decay_rate == 0.0
    assert _draws(new, 20.0, 5) == _draws(old, 20.0, 5)


def test_replacing_the_topics_list_rebuilds():
    new, old = _twin_models()
    _draws(new, 0.0, 1)
    # A new list as long as the old one: only the cached prefix tells them apart.
    new.topics = [Topic(name=f"n{i}", tags=["a"], weight=1.0 + i) for i in range(40)]
    old.topics = [reference.Topic(name=f"n{i}", tags=["a"], weight=1.0 + i) for i in range(40)]
    assert _draws(new, 0.0, 6) == _draws(old, 0.0, 6)


def test_removing_topics_rebuilds():
    new, old = _twin_models()
    _draws(new, 0.0, 1)
    for model in (new, old):
        del model.topics[:30]
    assert _draws(new, 0.0, 8) == _draws(old, 0.0, 8)


@pytest.mark.parametrize("index", [0, 39, 40])
def test_replacing_a_topic_in_place_resamples_like_the_reference(index):
    """Same length, same list: the first and last cached static topic, and
    the first decaying one (replaced by a static topic)."""
    new, old = _decaying_twins()
    assert _draws(new, 30.0, 1) == _draws(old, 30.0, 1)
    new.topics[index] = Topic(name="hot", tags=["h"], weight=100.0)
    old.topics[index] = reference.Topic(name="hot", tags=["h"], weight=100.0)
    assert _draws(new, 30.0, 9) == _draws(old, 30.0, 9)
    assert "hot" in _draws(new, 30.0, 9)


@pytest.mark.parametrize("index", [5, 41])
def test_deleting_then_appending_resamples_like_the_reference(index):
    """The population keeps its size; a static or a decaying topic goes."""
    new, old = _decaying_twins()
    assert _draws(new, 30.0, 1) == _draws(old, 30.0, 1)
    for cls, model in ((Topic, new), (reference.Topic, old)):
        del model.topics[index]
        model.topics.append(cls(name="late", tags=["x"], weight=50.0))
    assert _draws(new, 30.0, 10) == _draws(old, 30.0, 10)
    assert "late" in _draws(new, 30.0, 10)


def _decaying_twins():
    """40 static topics followed by three decaying ones born at 10."""
    new, old = _twin_models()
    for cls, model in ((Topic, new), (reference.Topic, old)):
        model.topics.extend(
            cls(name=f"d{i}", tags=["d"], weight=2.0, birth_time=10.0, decay_rate=0.05)
            for i in range(3)
        )
    return new, old


def test_a_leading_topic_weight_cannot_change_under_the_cache():
    model = TopicModel(n_topics=10, tags_per_topic=2)
    _draws(model, 0.0, 1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.topics[0].weight = 100.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.topics[0].decay_rate = 1.0


def test_sample_topics_weighs_the_population_once_per_call(monkeypatch):
    # Two topics hold most of the weight, so distinct picks take retries.
    model = TopicModel(
        topics=[Topic(name=f"t{i}", tags=["a"], weight=1.0 if i < 2 else 0.05) for i in range(10)]
    )
    calls = []
    sampler = TopicModel._sampler

    def counting(self, now):
        calls.append(now)
        return sampler(self, now)

    class CountingRandom(random.Random):
        draws = 0

        def random(self):
            self.draws += 1
            return super().random()

    monkeypatch.setattr(TopicModel, "_sampler", counting)
    rng = CountingRandom(0)
    chosen = model.sample_topics(3, 0.0, rng)
    assert len({topic.name for topic in chosen}) == 3
    assert rng.draws > 3
    assert calls == [0.0]


class _ScriptedRandom(random.Random):
    """Returns the scripted ``random()`` values in turn."""

    def __init__(self, values):
        super().__init__(0)
        self._values = iter(values)

    def random(self):
        return next(self._values)


@pytest.mark.parametrize("n_static", [0, 1, 2, 4])
def test_picks_on_every_running_sum_boundary_match_the_reference(n_static):
    """At ``now`` = birth every weight is undecayed, so with weights 1, 0,
    1, 2 (total 4) a ``random()`` of k/4 lands exactly on a running sum —
    on the static side, on the static/decaying seam, or inside the tail."""

    def model(topic_cls, model_cls):
        return model_cls(topics=[
            topic_cls(name=f"b{i}", tags=["a"], weight=weight,
                      decay_rate=0.0 if i < n_static else 0.5)
            for i, weight in enumerate((1.0, 0.0, 1.0, 2.0))
        ])

    new, old = model(Topic, TopicModel), model(reference.Topic, reference.TopicModel)
    for value in (0.0, 0.25, 0.5, 0.75, 0.9999999999):
        got = new.sample_topic(0.0, _ScriptedRandom([value])).name
        assert got == old.sample_topic(0.0, _ScriptedRandom([value])).name, value


def test_a_pick_past_every_running_sum_matches_the_reference():
    """10 000 weights of 1e-16 behind a 1.0 vanish from the left-to-right
    running sums but not from a compensated ``sum`` (CPython >= 3.12): a
    high pick then passes every running sum and the scan falls through to
    the last topic.  Where ``sum`` adds left to right both totals are 1.0."""

    def model(topic_cls, model_cls):
        weights = [1.0] + [1e-16] * 10_000
        return model_cls(topics=[
            topic_cls(name=f"w{i}", tags=["a"], weight=w) for i, w in enumerate(weights)
        ])

    new, old = model(Topic, TopicModel), model(reference.Topic, reference.TopicModel)
    for value in (0.5, 1.0 - 1e-13):
        got = new.sample_topic(0.0, _ScriptedRandom([value])).name
        assert got == old.sample_topic(0.0, _ScriptedRandom([value])).name, value


def test_zero_total_falls_back_to_a_uniform_choice_like_the_reference():
    new = TopicModel(topics=[Topic(name=f"z{i}", tags=["a"], weight=0.0) for i in range(6)])
    old = reference.TopicModel(
        topics=[reference.Topic(name=f"z{i}", tags=["a"], weight=0.0) for i in range(6)]
    )
    assert _draws(new, 0.0, 7) == _draws(old, 0.0, 7)


@given(
    skew=st.sampled_from([0.0, 0.5, 1.0, 2.0, 40.0]),
    size=st.integers(1, 30),
    count=st.integers(0, 35),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_sample_tags_matches_the_reference(skew, size, count, seed):
    tags = [f"tag{i}" for i in range(size)]
    got = Topic(name="t", tags=tags, tag_skew=skew).sample_tags(count, random.Random(seed))
    want = reference.Topic(name="t", tags=tags, tag_skew=skew).sample_tags(
        count, random.Random(seed)
    )
    assert got == want


# --------------------------------------------------------------------- #
# bisect_left over running sums against the linear scan it replaced
# --------------------------------------------------------------------- #
def _linear_scan(weights, pick):
    cumulative = 0.0
    for index, weight in enumerate(weights):
        cumulative += weight
        if pick <= cumulative:
            return index
    return len(weights)


weights_lists = st.lists(
    st.sampled_from([0.0, 0.0, 1.0, 0.1, 1e-300, 3.5])
    | st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False),
    max_size=40,
)


@given(weights=weights_lists, fraction=st.floats(0.0, 1.0, exclude_max=True))
@settings(max_examples=500, deadline=None)
@example(weights=[0.0, 0.0, 1.0], fraction=0.0)
@example(weights=[0.1, 0.2, 0.3], fraction=0.5)
def test_bisect_left_is_the_linear_scan(weights, fraction):
    cumulative = list(accumulate(weights))
    picks = [0.0, -1.0, fraction * sum(weights), *cumulative]  # every boundary, exactly
    picks += [c + d for c in cumulative for d in (-1e-12, 1e-12)]
    for pick in picks:
        assert bisect_left(cumulative, pick) == _linear_scan(weights, pick)


@given(weights=weights_lists, split=st.integers(0, 40))
@settings(max_examples=300, deadline=None)
def test_continued_running_sums_match_one_pass(weights, split):
    """The topic model's static sums plus a tail continued from their last
    value are the single left-to-right pass, entry for entry."""
    split = min(split, len(weights))
    head = list(accumulate(weights[:split]))
    tail = list(accumulate(weights[split:], initial=head[-1] if head else 0.0))
    assert head + tail[1:] == list(accumulate(weights))
