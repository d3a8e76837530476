"""Unit tests for the topic model."""

import random

import pytest

from repro.workloads.topics import Topic, TopicModel, uniform_topics


class TestTopic:
    def test_sample_tags_are_distinct_and_from_vocabulary(self):
        topic = Topic(name="t", tags=[f"tag{i}" for i in range(10)])
        rng = random.Random(0)
        tags = topic.sample_tags(5, rng)
        assert len(tags) == len(set(tags)) == 5
        assert set(tags) <= set(topic.tags)

    def test_sample_more_than_vocabulary(self):
        topic = Topic(name="t", tags=["a", "b"])
        tags = topic.sample_tags(5, random.Random(0))
        assert sorted(tags) == ["a", "b"]

    def test_sample_zero(self):
        topic = Topic(name="t", tags=["a"])
        assert topic.sample_tags(0, random.Random(0)) == []

    def test_popularity_decays(self):
        topic = Topic(name="t", tags=["a"], weight=1.0, decay_rate=0.1, birth_time=0.0)
        assert topic.popularity(0.0) == pytest.approx(1.0)
        assert topic.popularity(10.0) == pytest.approx(0.5)

    def test_no_decay(self):
        topic = Topic(name="t", tags=["a"], weight=2.0)
        assert topic.popularity(1e6) == 2.0

    def test_zipfian_tag_popularity(self):
        topic = Topic(name="t", tags=[f"tag{i}" for i in range(20)], tag_skew=1.5)
        rng = random.Random(1)
        counts = {}
        for _ in range(2000):
            (tag,) = topic.sample_tags(1, rng)
            counts[tag] = counts.get(tag, 0) + 1
        assert counts.get("tag0", 0) > counts.get("tag19", 0)


class TestTopicModel:
    def test_constructs_requested_topics(self):
        model = TopicModel(n_topics=12, tags_per_topic=5)
        assert len(model.topics) == 12
        assert len(model.vocabulary()) == 60

    def test_vocabularies_are_disjoint(self):
        model = TopicModel(n_topics=10, tags_per_topic=7)
        vocabulary = model.vocabulary()
        assert len(vocabulary) == len(set(vocabulary))

    def test_sample_topic_prefers_popular(self):
        model = TopicModel(n_topics=30, tags_per_topic=3, topic_skew=1.5)
        rng = random.Random(0)
        counts = {}
        for _ in range(3000):
            topic = model.sample_topic(0.0, rng)
            counts[topic.name] = counts.get(topic.name, 0) + 1
        assert counts.get("topic0", 0) > counts.get("topic29", 0)

    def test_spawn_topic_extends_population(self):
        model = TopicModel(n_topics=3, tags_per_topic=2)
        topic = model.spawn_topic(now=100.0, weight=5.0)
        assert topic in model.topics
        assert topic.weight == 5.0
        assert topic.birth_time == 100.0
        assert topic.decay_rate == 0.0

    def test_spawn_topic_takes_its_decay_rate(self):
        model = TopicModel(n_topics=3, tags_per_topic=2)
        topic = model.spawn_topic(now=5.0, decay_rate=0.25)
        assert model.topics[-1] is topic
        assert topic.decay_rate == 0.25
        assert topic.weight == pytest.approx(1.0 / 4)  # rank 4's Zipf weight

    def test_sample_topics_distinct(self):
        model = TopicModel(n_topics=10, tags_per_topic=2)
        topics = model.sample_topics(3, 0.0, random.Random(2))
        names = [t.name for t in topics]
        assert len(names) == len(set(names)) == 3


class TestUniformTopics:
    def test_shape(self):
        topics = uniform_topics(4, 3)
        assert len(topics) == 4
        assert all(len(t.tags) == 3 for t in topics)
        assert all(t.tag_skew == 0.0 for t in topics)
