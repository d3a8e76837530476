"""Unit tests for the synthetic Twitter-like workload generator."""

import pytest

from repro.theory.zipf_model import PAPER_SKEW
from repro.workloads.generator import TwitterLikeGenerator, WorkloadConfig, generate_documents
from repro.workloads.stats import compute_statistics


class TestWorkloadConfig:
    def test_defaults_are_valid(self):
        WorkloadConfig().validate()

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            WorkloadConfig(tweets_per_second=0).validate()

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            WorkloadConfig(intra_topic_probability=1.5).validate()

    def test_invalid_topics(self):
        with pytest.raises(ValueError):
            WorkloadConfig(n_topics=0).validate()
        with pytest.raises(ValueError):
            WorkloadConfig(max_tags_per_tweet=0).validate()


class TestGenerator:
    def test_deterministic_given_seed(self):
        config = WorkloadConfig(seed=5, n_topics=20, tags_per_topic=10)
        first = TwitterLikeGenerator(config).generate(200)
        second = TwitterLikeGenerator(config).generate(200)
        assert [d.tags for d in first] == [d.tags for d in second]
        assert [d.timestamp for d in first] == [d.timestamp for d in second]

    def test_different_seeds_differ(self):
        first = TwitterLikeGenerator(WorkloadConfig(seed=1)).generate(100)
        second = TwitterLikeGenerator(WorkloadConfig(seed=2)).generate(100)
        assert [d.tags for d in first] != [d.tags for d in second]

    def test_doc_ids_consecutive(self):
        documents = generate_documents(50, WorkloadConfig(seed=0))
        assert [d.doc_id for d in documents] == list(range(50))

    def test_timestamps_follow_arrival_rate(self):
        config = WorkloadConfig(seed=0, tweets_per_second=10.0)
        documents = TwitterLikeGenerator(config).generate(101)
        assert documents[-1].timestamp == pytest.approx(10.0, abs=1e-6)

    def test_generate_seconds(self):
        config = WorkloadConfig(seed=0, tweets_per_second=20.0)
        documents = TwitterLikeGenerator(config).generate_seconds(5.0)
        # 5 seconds at 20 tweets/s; floating-point interarrival accumulation
        # may include one extra boundary document.
        assert len(documents) in (100, 101)
        assert documents[0].timestamp == 0.0
        assert documents[-1].timestamp <= 5.0 + 1e-6

    def test_max_tags_respected(self):
        config = WorkloadConfig(seed=3, max_tags_per_tweet=4)
        documents = TwitterLikeGenerator(config).generate(500)
        assert max(len(d.tags) for d in documents) <= 4

    def test_untagged_disabled(self):
        config = WorkloadConfig(seed=3, untagged_allowed=False)
        documents = TwitterLikeGenerator(config).generate(300)
        assert all(d.tags for d in documents)

    def test_tags_come_from_topic_vocabulary(self):
        config = WorkloadConfig(seed=1, new_topic_rate=0.0)
        generator = TwitterLikeGenerator(config)
        vocabulary = set(generator.vocabulary())
        documents = generator.generate(300)
        used = set().union(*(d.tags for d in documents if d.tags))
        assert used <= vocabulary

    def test_new_topics_appear_over_time(self):
        config = WorkloadConfig(
            seed=1, tweets_per_second=10.0, new_topic_rate=30.0, n_topics=5
        )
        generator = TwitterLikeGenerator(config)
        before = len(generator.topic_model.topics)
        generator.generate(2000)  # 200 seconds of stream
        after = len(generator.topic_model.topics)
        assert after > before
        # Born decaying: spawn_topic takes the rate, nothing sets it later.
        born = generator.topic_model.topics[before:]
        assert {topic.decay_rate for topic in born} == {config.topic_decay_rate}

    def test_stream_iterator(self):
        generator = TwitterLikeGenerator(WorkloadConfig(seed=1))
        stream = generator.stream()
        first = next(stream)
        second = next(stream)
        assert second.doc_id == first.doc_id + 1


class TestGeneratedStructure:
    def test_tags_per_tweet_is_zipf_like(self):
        """Rank frequencies should be monotonically decreasing with a small
        fitted skew, matching the paper's measurement (s = 0.25)."""
        config = WorkloadConfig(seed=7, tags_per_tweet_skew=PAPER_SKEW)
        documents = TwitterLikeGenerator(config).generate(20000)
        stats = compute_statistics(documents)
        histogram = stats.tags_per_tweet_histogram
        counts = [histogram.get(m, 0) for m in range(0, 4)]
        assert all(a >= b for a, b in zip(counts, counts[1:]))
        fitted = stats.tags_per_tweet_skew()
        assert fitted == pytest.approx(PAPER_SKEW, abs=0.15)

    def test_intra_topic_probability_controls_connectivity(self):
        """Lower alpha (more cross-topic tweets) produces fewer, larger
        connected components — the mechanism discussed in Section 5.1."""
        from repro.analysis.connectivity import window_connectivity

        pure = WorkloadConfig(seed=2, intra_topic_probability=1.0, new_topic_rate=0)
        mixed = WorkloadConfig(seed=2, intra_topic_probability=0.5, new_topic_rate=0)
        pure_docs = TwitterLikeGenerator(pure).generate(4000)
        mixed_docs = TwitterLikeGenerator(mixed).generate(4000)
        pure_stats = window_connectivity(pure_docs)
        mixed_stats = window_connectivity(mixed_docs)
        assert mixed_stats.max_tag_fraction > pure_stats.max_tag_fraction
