"""The linear-scan workload sampling the production generator is held to.

``repro.workloads.topics`` keeps running sums of the topics whose weight
cannot change and re-weights only the decaying ones per document; every
weighted pick is one ``bisect_left``.  This module is the code that
replaced: ``Topic``, ``TopicModel``, ``TwitterLikeGenerator`` and the
trending generator exactly as they stood before, one ``popularity()``
call per topic and one ``cumulative += weight`` scan per pick — kept (the
``tests/oracle.py`` pattern) so that "the same documents" is checked
document by document over long streams, not only by 40-document golden
traces.  Nothing under ``src/`` imports it; do not make it fast.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator

from repro.core.documents import Document
from repro.theory.zipf_model import zipf_frequencies
from repro.workloads.generator import WorkloadConfig


@dataclass(slots=True)
class Topic:
    """A topic with its tag vocabulary and popularity weight."""

    name: str
    tags: list[str]
    weight: float = 1.0
    tag_skew: float = 1.0
    birth_time: float = 0.0
    decay_rate: float = 0.0

    def popularity(self, now: float) -> float:
        """Topic weight at time ``now`` after exponential decay since birth."""
        if self.decay_rate <= 0:
            return self.weight
        age = max(0.0, now - self.birth_time)
        return self.weight * (2.0 ** (-self.decay_rate * age))

    def sample_tags(self, count: int, rng: random.Random) -> list[str]:
        """Sample ``count`` distinct tags from the topic's Zipfian vocabulary."""
        count = min(count, len(self.tags))
        if count <= 0:
            return []
        weights = [1.0 / ((rank + 1) ** self.tag_skew) for rank in range(len(self.tags))]
        chosen: list[str] = []
        available = list(range(len(self.tags)))
        local_weights = list(weights)
        for _ in range(count):
            total = sum(local_weights)
            pick = rng.random() * total
            cumulative = 0.0
            for position, weight in enumerate(local_weights):
                cumulative += weight
                if pick <= cumulative:
                    chosen.append(self.tags[available[position]])
                    del available[position]
                    del local_weights[position]
                    break
        return chosen


@dataclass(slots=True)
class TopicModel:
    """A population of topics with Zipf-distributed popularity.

    Parameters
    ----------
    n_topics:
        Number of topics created at construction time.
    tags_per_topic:
        Vocabulary size of each topic.
    topic_skew:
        Zipf skew of topic popularity (larger = few topics dominate).
    tag_skew:
        Zipf skew of tag popularity within a topic.
    seed:
        Seed for reproducible topic construction.
    """

    n_topics: int = 200
    tags_per_topic: int = 30
    topic_skew: float = 1.0
    tag_skew: float = 1.0
    seed: int = 7
    topics: list[Topic] = field(default_factory=list)
    _next_topic_id: int = 0

    def __post_init__(self) -> None:
        rng = random.Random(self.seed)
        if not self.topics:
            for _ in range(self.n_topics):
                self.topics.append(self._new_topic(rng, birth_time=0.0))

    def _new_topic(self, rng: random.Random, birth_time: float) -> Topic:
        topic_id = self._next_topic_id
        self._next_topic_id += 1
        rank = topic_id + 1
        tags = [f"topic{topic_id}_tag{i}" for i in range(self.tags_per_topic)]
        return Topic(
            name=f"topic{topic_id}",
            tags=tags,
            weight=1.0 / (rank**self.topic_skew),
            tag_skew=self.tag_skew,
            birth_time=birth_time,
        )

    def spawn_topic(self, now: float, rng: random.Random, weight: float | None = None) -> Topic:
        """Introduce a new topic (a breaking trend) at time ``now``."""
        topic = self._new_topic(rng, birth_time=now)
        if weight is not None:
            topic.weight = weight
        self.topics.append(topic)
        return topic

    def vocabulary(self) -> list[str]:
        """All tags of all topics."""
        tags: list[str] = []
        for topic in self.topics:
            tags.extend(topic.tags)
        return tags

    def sample_topic(self, now: float, rng: random.Random) -> Topic:
        """Sample a topic proportionally to its current popularity."""
        weights = [topic.popularity(now) for topic in self.topics]
        total = sum(weights)
        if total <= 0:
            return rng.choice(self.topics)
        pick = rng.random() * total
        cumulative = 0.0
        for topic, weight in zip(self.topics, weights):
            cumulative += weight
            if pick <= cumulative:
                return topic
        return self.topics[-1]

    def sample_topics(
        self, count: int, now: float, rng: random.Random
    ) -> list[Topic]:
        """Sample ``count`` distinct topics (used for cross-topic tweets)."""
        count = min(count, len(self.topics))
        chosen: list[Topic] = []
        seen: set[str] = set()
        attempts = 0
        while len(chosen) < count and attempts < 20 * count:
            topic = self.sample_topic(now, rng)
            attempts += 1
            if topic.name not in seen:
                seen.add(topic.name)
                chosen.append(topic)
        return chosen


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
            seed=self.config.seed,
        )
        self._tag_count_weights = zipf_frequencies(
            self.config.max_tags_per_tweet, self.config.tags_per_tweet_skew
        )
        if not self.config.untagged_allowed:
            weights = self._tag_count_weights[1:]
            total = sum(weights)
            self._tag_count_weights = [0.0] + [w / total for w in weights]
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
            weight = 0.5 + self._rng.random()
            topic = self._topics.spawn_topic(self._clock, self._rng, weight=weight)
            topic.decay_rate = self.config.topic_decay_rate
            self._next_topic_birth = self._sample_topic_birth_gap()

    def _advance_dynamics(self) -> None:
        """Per-document population dynamics hook (scenario override point)."""
        self._maybe_spawn_topics()

    def _next_interarrival(self) -> float:
        """Gap to the next arrival (scenario generators modulate the rate)."""
        return self._interarrival

    def _sample_n_tags(self) -> int:
        pick = self._rng.random()
        cumulative = 0.0
        for m, weight in enumerate(self._tag_count_weights):
            cumulative += weight
            if pick <= cumulative:
                return m
        return self.config.max_tags_per_tweet

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
        return frozenset(tags)

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
        self._clock += self._next_interarrival()
        return document


# --------------------------------------------------------------------- #
# Trending
# --------------------------------------------------------------------- #
#: Tags reserved per trend for its anchor tagset (never sampled into
#: background documents, so plateau recurrence stays structurally clean).
ANCHOR_TAGS_PER_TREND = 3


@dataclass(slots=True)
class _Trend:
    """One trend's lifecycle state: hazard curve plus reserved vocabulary."""

    name: str
    anchor: frozenset[str]
    body_tags: list[str]
    birth_time: float
    rise: float
    plateau: float
    decay: float
    weight: float = 1.0

    def phase(self, now: float) -> str:
        age = now - self.birth_time
        if age < 0:
            return "unborn"
        if age < self.rise:
            return "rise"
        if age < self.rise + self.plateau:
            return "plateau"
        if age < self.rise + self.plateau + self.decay:
            return "decay"
        return "dead"

    def popularity(self, now: float) -> float:
        """Hazard-curve weight: linear rise, flat plateau, linear decay."""
        age = now - self.birth_time
        if age < 0:
            return 0.0
        if age < self.rise:
            return self.weight * (age / self.rise)
        age -= self.rise
        if age < self.plateau:
            return self.weight
        age -= self.plateau
        if age < self.decay:
            return self.weight * (1.0 - age / self.decay)
        return 0.0


class TrendingGenerator(TwitterLikeGenerator):
    """Persistent topics plus rise/plateau/decay trends with anchor slots.

    Deterministic structure: trend births follow a fixed schedule (one
    every ``lifetime / trend_pool`` seconds), so trends with the same id
    residue modulo ``trend_pool`` are spaced exactly one lifetime apart —
    each of the ``trend_pool`` *slots* is owned by at most one live trend.
    Every ``cadence``-th document (``cadence = round(1 /
    trend_anchor_share)``) is an anchor position; position ``p`` belongs
    to slot ``(p // cadence) % trend_pool`` and re-emits that slot's
    anchor tagset iff the slot's trend is on its plateau.  A report round
    of ``D`` documents therefore observes each plateau anchor exactly
    ``D / (cadence * trend_pool)`` times whenever that product divides
    ``D``.
    """

    def __init__(self, config: WorkloadConfig | None = None) -> None:
        super().__init__(config)
        cfg = self.config
        lifetime = (cfg.trend_rise_seconds + cfg.trend_plateau_seconds
                    + cfg.trend_decay_seconds)
        self._trend_birth_gap = lifetime / cfg.trend_pool
        # Offset the birth schedule so phase transitions (birth + rise,
        # + plateau, + decay) never coincide with report-round boundaries
        # — a transition exactly on a boundary lets float clock drift
        # decide which round sees the first/last anchor emission.
        self._next_trend_birth = 0.2 * self._trend_birth_gap
        self._next_trend_id = 0
        self._trends: list[_Trend] = []
        self._slots: dict[int, _Trend] = {}
        # Anchor cadence: every cadence-th document is an anchor position.
        self._anchor_cadence = (
            max(2, round(1.0 / cfg.trend_anchor_share))
            if cfg.trend_anchor_share > 0 else 0
        )
        # Mid-cadence anchor offset: with cadence * trend_pool dividing
        # the documents-per-round, offset-0 anchor positions would land
        # exactly on round boundaries — and the tick that closes a round
        # fires one document late whenever accumulated float clock drift
        # puts the boundary document's timestamp a hair below the
        # boundary, so the closing round steals the *next* document.
        # Mid-cadence keeps every anchor several interarrivals away from
        # either edge, so a +/-1-document boundary wobble only ever moves
        # background documents between rounds.
        self._anchor_offset = self._anchor_cadence // 2 if self._anchor_cadence else 0
        self._docs_emitted = 0

    @property
    def live_trends(self) -> list[_Trend]:
        """Trends currently inside their hazard curve (tests/analysis)."""
        return [t for t in self._trends if t.phase(self._clock) != "dead"]

    def _advance_dynamics(self) -> None:
        super()._advance_dynamics()
        cfg = self.config
        while self._clock >= self._next_trend_birth:
            trend_id = self._next_trend_id
            self._next_trend_id += 1
            base = f"trend{trend_id}"
            anchor = frozenset(
                f"{base}_anchor{i}" for i in range(ANCHOR_TAGS_PER_TREND)
            )
            body = [f"{base}_tag{i}" for i in range(cfg.tags_per_topic)]
            trend = _Trend(
                name=base,
                anchor=anchor,
                body_tags=body,
                birth_time=self._next_trend_birth,
                rise=cfg.trend_rise_seconds,
                plateau=cfg.trend_plateau_seconds,
                decay=cfg.trend_decay_seconds,
                weight=1.0 + 0.5 * self._rng.random(),
            )
            self._trends.append(trend)
            # The previous slot owner dies exactly when its successor is
            # born (same-slot births are one lifetime apart).
            self._slots[trend_id % cfg.trend_pool] = trend
            self._next_trend_birth += self._trend_birth_gap
        if self._trends and self._trends[0].phase(self._clock) == "dead":
            self._trends = [
                trend for trend in self._trends
                if trend.phase(self._clock) != "dead"
            ]

    def _sample_tags(self, n_tags: int) -> frozenset[str]:
        # Deterministic anchor schedule first: independent of the rng
        # stream and of plateau-set membership, so per-round anchor
        # multiplicities are exact.
        if self._anchor_cadence:
            position = self._docs_emitted
            self._docs_emitted += 1
            if position % self._anchor_cadence == self._anchor_offset:
                slot = (position // self._anchor_cadence) % self.config.trend_pool
                trend = self._slots.get(slot)
                if trend is not None and trend.phase(self._clock) == "plateau":
                    return trend.anchor
        if n_tags == 0:
            return frozenset()
        # Trend-flavoured background: sample a live trend by hazard weight.
        if self._trends and self._rng.random() < self.config.trend_mix:
            weights = [t.popularity(self._clock) for t in self._trends]
            total = sum(weights)
            if total > 0:
                pick = self._rng.random() * total
                cumulative = 0.0
                trend = self._trends[-1]
                for candidate, weight in zip(self._trends, weights):
                    cumulative += weight
                    if pick <= cumulative:
                        trend = candidate
                        break
                count = min(n_tags, len(trend.body_tags))
                return frozenset(self._rng.sample(trend.body_tags, count))
        return super()._sample_tags(n_tags)


REFERENCE_GENERATORS: dict[str, type[TwitterLikeGenerator]] = {
    "legacy": TwitterLikeGenerator,
    "trending": TrendingGenerator,
}
