"""Topic model of the synthetic Twitter-like workload.

The theoretical analysis of Section 5.1 argues that, as long as users select
tags from topic-specific vocabularies, the tag co-occurrence graph falls
apart into one connected component per topic — which is what makes the DS
algorithm viable.  Mixing tags across topics (probability ``1 - α``) lets a
giant component grow.  The synthetic workload reproduces exactly that
structure:

* a fixed or evolving population of topics, each with its own vocabulary of
  tags and a popularity weight (Zipf-distributed so a few topics dominate),
* within a topic, tag popularity is again Zipf-distributed,
* topics can be born and can decay over time to model trend dynamics
  (Section 7's motivation for evolving partitions).

Per document, Python-level topic-weight work is O(decaying topics): the
running sums of the leading topics whose weight cannot change
(``decay_rate <= 0``; topics are frozen) are built once per population,
only decaying topics are re-weighted, in one comprehension, and a pick is
one ``bisect_left``.  Two C-level passes stay O(population): the check that
the cached prefix is still the list's, and the total's ``sum``.  Zipf
tag-weight rows are cached per (vocabulary size, skew).  Each pick is the
one the old linear ``cumulative += weight`` scan made
(``tests/workloads/reference_generator.py``): the running sums are the same
left-to-right float additions (``itertools.accumulate``), the totals the
same ``sum`` (compensated on CPython >= 3.12), the random draws the same —
bit-identical streams.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate
from typing import Callable


@lru_cache(maxsize=64, typed=True)
def _zipf_row(size: int, skew: float) -> tuple[tuple[float, ...], tuple[float, ...], float]:
    """Zipf tag weights of a vocabulary, their running sums and their total."""
    weights = tuple(1.0 / ((rank + 1) ** skew) for rank in range(size))
    return weights, tuple(accumulate(weights)), sum(weights)


@dataclass(frozen=True, slots=True)
class Topic:
    """A topic with its tag vocabulary and popularity weight (frozen)."""

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
        weights, cumulative, total = _zipf_row(len(self.tags), self.tag_skew)
        chosen: list[str] = []
        available, local_weights = list(self.tags), list(weights)
        for _ in range(count):
            # Over running sums of non-negative weights, bisect_left is where the
            # ``cumulative += weight; if pick <= cumulative`` scan stops (len if never).
            position = bisect_left(cumulative, rng.random() * total)
            if position < len(local_weights):
                chosen.append(available.pop(position))
                del local_weights[position]
                if len(chosen) < count:
                    cumulative, total = list(accumulate(local_weights)), sum(local_weights)
        return chosen


@dataclass(slots=True)
class TopicModel:
    """A population of topics with Zipf-distributed popularity.

    The running sums of the leading non-decaying ``topics`` are built by the
    first sample and rebuilt when a topic of that prefix changes; topics
    appended later are re-weighted per document.

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
    """

    n_topics: int = 200
    tags_per_topic: int = 30
    topic_skew: float = 1.0
    tag_skew: float = 1.0
    topics: list[Topic] = field(default_factory=list)
    _next_topic_id: int = 0
    #: ``(static prefix of topics, its weights, their running sums)``.
    _static: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.topics:
            for _ in range(self.n_topics):
                self.spawn_topic(0.0)

    def spawn_topic(self, now: float, weight: float | None = None,
                    decay_rate: float = 0.0) -> Topic:
        """Append a topic born at ``now`` (weight: its Zipf rank's by default)."""
        topic_id = self._next_topic_id
        self._next_topic_id += 1
        topic = Topic(
            name=f"topic{topic_id}",
            tags=[f"topic{topic_id}_tag{i}" for i in range(self.tags_per_topic)],
            weight=1.0 / ((topic_id + 1) ** self.topic_skew) if weight is None else weight,
            tag_skew=self.tag_skew,
            birth_time=now,
            decay_rate=decay_rate,
        )
        self.topics.append(topic)
        return topic

    def vocabulary(self) -> list[str]:
        """All tags of all topics."""
        return [tag for topic in self.topics for tag in topic.tags]

    def _sampler(self, now: float) -> Callable[[random.Random], Topic]:
        """Draws one topic proportionally to its popularity at ``now``."""
        topics = self.topics
        static = self._static
        if static is None or topics[:len(static[0])] != static[0]:
            n = next((i for i, t in enumerate(topics) if not t.decay_rate <= 0), len(topics))
            weights = [topic.weight for topic in topics[:n]]
            static = self._static = (topics[:n], weights, list(accumulate(weights)))
        prefix, weights, static_sums = static
        n_static = len(prefix)
        decaying = [  # Topic.popularity, inlined
            t.weight if t.decay_rate <= 0 else t.weight * (
                2.0 ** (-t.decay_rate * (now - t.birth_time if now > t.birth_time else 0.0)))
            for t in topics[n_static:]
        ]
        # Starts with the last static sum, so tail index i is topic n_static + i - 1.
        tail = list(accumulate(decaying, initial=static_sums[-1] if static_sums else 0.0))
        total = sum(weights + decaying)

        def draw(rng: random.Random) -> Topic:
            if total <= 0:
                return rng.choice(topics)
            pick = rng.random() * total
            if static_sums and pick <= static_sums[-1]:
                return topics[bisect_left(static_sums, pick)]
            return topics[min(n_static + bisect_left(tail, pick, 1) - 1, len(topics) - 1)]

        return draw

    def sample_topic(self, now: float, rng: random.Random) -> Topic:
        """Sample a topic proportionally to its current popularity."""
        return self._sampler(now)(rng)

    def sample_topics(self, count: int, now: float, rng: random.Random) -> list[Topic]:
        """Sample ``count`` distinct topics (used for cross-topic tweets)."""
        count = min(count, len(self.topics))
        draw = self._sampler(now)
        chosen: dict[str, Topic] = {}
        for _ in range(20 * count):
            if len(chosen) == count:
                break
            topic = draw(rng)
            chosen.setdefault(topic.name, topic)
        return list(chosen.values())


def uniform_topics(
    n_topics: int, tags_per_topic: int, prefix: str = "t"
) -> list[Topic]:
    """Equally popular topics with uniform in-topic tag usage (for tests)."""
    topics = []
    for topic_id in range(n_topics):
        tags = [f"{prefix}{topic_id}_{i}" for i in range(tags_per_topic)]
        topics.append(Topic(name=f"{prefix}{topic_id}", tags=tags, tag_skew=0.0))
    return topics
