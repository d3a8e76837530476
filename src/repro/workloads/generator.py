"""Synthetic Twitter-like tweet stream generator.

The paper evaluates on six hours of real tweets from the Twitter streaming
API.  Real traces are not available offline, so the generator reproduces the
structural properties the paper measures and reasons about:

* the number of tags per tweet follows Zipf's law with skew ``s = 0.25``
  and a maximum of ``mmax`` tags (Section 5.1),
* tags come from topic-specific vocabularies; with probability
  ``1 - intra_topic_probability`` a tweet mixes tags from several topics,
  which is the mechanism that can grow a giant connected component,
* topic and in-topic tag popularity are Zipf-distributed, so a small number
  of tags carry most of the load (what makes load balancing hard),
* new topics appear over time and old ones decay, driving the partition
  dynamics of Section 7,
* tweets arrive at a configurable rate (``tweets_per_second``), so windows
  of "5 minutes" contain the same number of documents as the paper's.

The generator is fully deterministic given its seed.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterator

from ..core.documents import Document
from ..theory.zipf_model import PAPER_MMAX, PAPER_SKEW, zipf_frequencies
from .topics import TopicModel

#: Every workload scenario a :class:`WorkloadConfig` may name: ``legacy`` is
#: :class:`TwitterLikeGenerator` below, ``trending`` lives in
#: ``workloads/scenarios.py``; construct through ``scenarios.make_generator``.
SCENARIO_NAMES = ("legacy", "trending")


@dataclass(slots=True)
class WorkloadConfig:
    """Configuration of the synthetic stream.

    Attributes
    ----------
    tweets_per_second:
        Arrival rate; the paper uses 1300 (real-world rate) and 2600.
    n_topics, tags_per_topic:
        Size of the topic population and of each topic vocabulary.
    topic_skew, tag_skew:
        Zipf skews of topic popularity and of in-topic tag popularity.
    tags_per_tweet_skew, max_tags_per_tweet:
        Parameters of the Zipf tags-per-tweet distribution (paper: 0.25, 8).
    intra_topic_probability:
        The ``α`` of Section 5.1: probability that all tags of a tweet come
        from a single topic vocabulary.
    untagged_allowed:
        Whether tweets with zero tags are generated (rank 1 of the Zipf
        distribution).  The pipeline drops them at the Parser, so disabling
        them simply makes every generated document useful.
    new_topic_rate:
        Expected number of newly born topics per minute (trend dynamics).
        ``0`` disables topic births entirely (a fixed topic population).
    topic_decay_rate:
        Exponential decay rate (per second) applied to newly born topics.
    scenario:
        Which generator interprets this config: ``"legacy"`` (the original
        churny synthetic point) or ``"trending"`` (``workloads.scenarios``).
        Construct via ``scenarios.make_generator``.
    seed:
        Master seed; every run with the same config is identical.

    The ``trend_*`` fields parameterise the trending generator and are
    ignored by the legacy one; see ``workloads/scenarios.py`` for their
    semantics.
    """

    tweets_per_second: float = 1300.0
    n_topics: int = 400
    tags_per_topic: int = 25
    topic_skew: float = 1.0
    tag_skew: float = 1.0
    tags_per_tweet_skew: float = PAPER_SKEW
    max_tags_per_tweet: int = PAPER_MMAX
    intra_topic_probability: float = 0.95
    untagged_allowed: bool = True
    new_topic_rate: float = 0.5
    topic_decay_rate: float = 0.0005
    scenario: str = "legacy"
    seed: int = 42

    # --- trending scenario -------------------------------------------- #
    #: Number of anchor slots / concurrently live trends (sets the birth
    #: cadence).  For maximal carry reuse pick it so that
    #: ``round(1 / trend_anchor_share) * trend_pool`` divides the number
    #: of documents per report round (``tweets_per_second *
    #: report_interval_seconds``); the default 5 pairs with the default
    #: anchor share (cadence 3) to divide any multiple of 15.
    trend_pool: int = 5
    #: Hazard-curve phase durations of one trend (seconds).
    trend_rise_seconds: float = 30.0
    trend_plateau_seconds: float = 90.0
    trend_decay_seconds: float = 45.0
    #: Fraction of documents that are deterministic anchor re-emissions of
    #: a plateau trend's signature tagset (the carry-friendly recurrence).
    trend_anchor_share: float = 0.3
    #: Probability that a non-anchor document is about a live trend
    #: (sampled from its non-anchor vocabulary) instead of a base topic.
    trend_mix: float = 0.35

    def validate(self) -> None:
        if self.tweets_per_second <= 0:
            raise ValueError("tweets_per_second must be positive")
        if not 0.0 <= self.intra_topic_probability <= 1.0:
            raise ValueError("intra_topic_probability must lie in [0, 1]")
        if self.max_tags_per_tweet < 1:
            raise ValueError("max_tags_per_tweet must be at least 1")
        if self.n_topics < 1 or self.tags_per_topic < 1:
            raise ValueError("need at least one topic with at least one tag")
        # new_topic_rate=0 must mean "no births" (birth gap = infinity), so
        # the field has to be a finite non-negative number: a negative or
        # NaN rate would silently disable births while *looking* like a
        # configured trend dynamic, and +inf would spin the birth loop.
        if not self.new_topic_rate >= 0 or self.new_topic_rate == float("inf"):
            raise ValueError("new_topic_rate must be a finite number >= 0")
        if not self.topic_decay_rate >= 0 or self.topic_decay_rate == float("inf"):
            raise ValueError("topic_decay_rate must be a finite number >= 0")
        if self.scenario not in SCENARIO_NAMES:
            raise ValueError(
                f"scenario must be one of {', '.join(SCENARIO_NAMES)}"
            )
        if self.trend_pool < 1:
            raise ValueError("trend_pool must be at least 1")
        if (self.trend_rise_seconds <= 0 or self.trend_plateau_seconds <= 0
                or self.trend_decay_seconds <= 0):
            raise ValueError("trend phase durations must be positive")
        if not 0.0 <= self.trend_anchor_share < 1.0:
            raise ValueError("trend_anchor_share must lie in [0, 1)")
        if not 0.0 <= self.trend_mix <= 1.0:
            raise ValueError("trend_mix must lie in [0, 1]")


class TwitterLikeGenerator:
    """Generates a deterministic stream of :class:`Document` objects."""

    def __init__(self, config: WorkloadConfig | None = None) -> None:
        self.config = config or WorkloadConfig()
        self.config.validate()
        self._rng = random.Random(self.config.seed)
        self._topics = TopicModel(
            n_topics=self.config.n_topics,
            tags_per_topic=self.config.tags_per_topic,
            topic_skew=self.config.topic_skew,
            tag_skew=self.config.tag_skew,
        )
        weights = zipf_frequencies(
            self.config.max_tags_per_tweet, self.config.tags_per_tweet_skew)
        if not self.config.untagged_allowed:
            total = sum(weights[1:])
            weights = [0.0] + [w / total for w in weights[1:]]
        self._tag_count_sums = list(accumulate(weights))
        self._next_doc_id = 0
        self._clock = 0.0
        self._interarrival = 1.0 / self.config.tweets_per_second
        self._next_topic_birth = self._sample_topic_birth_gap()

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    @property
    def topic_model(self) -> TopicModel:
        """The underlying topic population (useful for analysis/tests)."""
        return self._topics

    @property
    def current_time(self) -> float:
        """Simulation time of the next document to be generated."""
        return self._clock

    def generate(self, n_documents: int) -> list[Document]:
        """Generate the next ``n_documents`` documents of the stream."""
        return [self._next_document() for _ in range(n_documents)]

    def generate_seconds(self, seconds: float) -> list[Document]:
        """Generate all documents arriving within the next ``seconds``."""
        deadline = self._clock + seconds
        documents = []
        while self._clock < deadline:
            documents.append(self._next_document())
        return documents

    def stream(self) -> Iterator[Document]:
        """An endless iterator over the stream."""
        while True:
            yield self._next_document()

    def vocabulary(self) -> list[str]:
        """All tags currently known to the topic model."""
        return self._topics.vocabulary()

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _sample_topic_birth_gap(self) -> float:
        rate_per_second = self.config.new_topic_rate / 60.0
        if rate_per_second <= 0:
            return float("inf")
        return self._clock + self._rng.expovariate(rate_per_second)

    def _maybe_spawn_topics(self) -> None:
        while self._clock >= self._next_topic_birth:
            # New trends start popular and decay, mimicking bursts.
            self._topics.spawn_topic(self._clock, weight=0.5 + self._rng.random(),
                                     decay_rate=self.config.topic_decay_rate)
            self._next_topic_birth = self._sample_topic_birth_gap()

    def _advance_dynamics(self) -> None:
        """Per-document population dynamics hook (scenario override point)."""
        self._maybe_spawn_topics()

    def _sample_n_tags(self) -> int:
        # A pick past the last running sum is the largest count.
        return min(bisect_left(self._tag_count_sums, self._rng.random()),
                   self.config.max_tags_per_tweet)

    def _sample_tags(self, n_tags: int) -> frozenset[str]:
        if n_tags == 0:
            return frozenset()
        if self._rng.random() < self.config.intra_topic_probability:
            topic = self._topics.sample_topic(self._clock, self._rng)
            tags = topic.sample_tags(n_tags, self._rng)
        else:
            # Cross-topic tweet: pull tags from 2 (or more) distinct topics.
            n_sources = min(1 + self._rng.randint(1, 2), max(n_tags, 1))
            sources = self._topics.sample_topics(n_sources, self._clock, self._rng)
            tags = []
            for index, topic in enumerate(sources):
                share = n_tags // len(sources) + (1 if index < n_tags % len(sources) else 0)
                tags.extend(topic.sample_tags(share, self._rng))
        # Built from a set, a frozenset's table is sized to fit (472 bytes
        # for 5-7 tags); built from a list it grows as for inserts (728).
        return frozenset(set(tags))

    def _next_document(self) -> Document:
        self._advance_dynamics()
        n_tags = self._sample_n_tags()
        tags = self._sample_tags(n_tags)
        document = Document(
            doc_id=self._next_doc_id,
            tags=tags,
            timestamp=self._clock,
        )
        self._next_doc_id += 1
        self._clock += self._interarrival
        return document


def generate_documents(
    n_documents: int, config: WorkloadConfig | None = None
) -> list[Document]:
    """One-shot helper: generate ``n_documents`` with a fresh generator."""
    return TwitterLikeGenerator(config).generate(n_documents)
