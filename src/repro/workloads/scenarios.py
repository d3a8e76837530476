"""Scenario workload generators: trending, burst, diurnal, adversarial.

The legacy synthetic point (:class:`TwitterLikeGenerator` with
``new_topic_rate=5.0``) churns its topic population so fast that ~90% of
tagset types per report round are first occurrences — hostile to the
paper's trending-hashtag premise.  This module adds the workload shapes
the system actually exists for, all deterministic given
``WorkloadConfig.seed`` and all emitting the same :class:`Document` stream
interface:

``trending``
    A persistent base topic population plus *trends* that follow a
    rise → plateau → decay hazard curve.  While a trend sits on its
    plateau, its signature **anchor tagset** is re-emitted on a fixed
    document-position schedule, so consecutive report rounds observe the
    same types with the same multiplicities.  Anchor tags are reserved
    (never sampled into background documents), so the recurrence is
    structural, not accidental.

``burst``
    The legacy stream with superimposed flash crowds: at seeded random
    times a burst spawns a fresh small-vocabulary topic, multiplies the
    arrival rate by ``burst_intensity`` for ``burst_duration_seconds``,
    and routes ``burst_share`` of the burst-window documents to the burst
    topic.  Short-lived load spikes + sudden hot tags — the repartition
    policies' stress case.

``diurnal``
    Sinusoidal arrival rate (period ``diurnal_period_seconds``, relative
    amplitude ``diurnal_amplitude``) with topic-mix modulation: the topic
    population is split into a "day" and a "night" pool and the sampling
    weight swings with the same phase, so both the rate *and* the tag
    distribution drift periodically.

``adversarial``
    Worst-case type churn: every non-repeat document is a brand-new
    tagset type over never-reused tags, and the only repeats re-emit types
    created within the last ``adversarial_repeat_window`` documents — so
    types (almost) never recur across report rounds and the subset cache
    never warms.  First-occurrence type fraction per round stays >= 85% by
    construction.

``make_generator`` dispatches a :class:`WorkloadConfig` on its
``scenario`` field; ``scenario_preset`` builds a tuned config per
scenario.  Recorded traces of any generator replay through
``workloads/replay.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterator, Protocol, runtime_checkable

from ..core.documents import Document
from .generator import SCENARIO_NAMES, TwitterLikeGenerator, WorkloadConfig
from .topics import Topic


@runtime_checkable
class ScenarioGenerator(Protocol):
    """What every workload scenario generator provides.

    :class:`TwitterLikeGenerator` and all scenario subclasses satisfy this
    structurally; the pipeline, the replay recorder and the benchmarks
    depend only on this surface.
    """

    config: WorkloadConfig

    @property
    def current_time(self) -> float: ...

    def generate(self, n_documents: int) -> list[Document]: ...

    def generate_seconds(self, seconds: float) -> list[Document]: ...

    def stream(self) -> Iterator[Document]: ...

    def vocabulary(self) -> list[str]: ...


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


# --------------------------------------------------------------------- #
# Burst / flash crowd
# --------------------------------------------------------------------- #
#: Vocabulary size of one flash-crowd topic (small: a burst is one story).
BURST_TOPIC_TAGS = 6


class BurstGenerator(TwitterLikeGenerator):
    """Legacy stream with superimposed short-lived flash-crowd spikes.

    Burst starts are a seeded Poisson process; while at least one burst is
    live the arrival rate is multiplied by ``burst_intensity`` and
    ``burst_share`` of the documents are about the burst's fresh topic.
    """

    def __init__(self, config: WorkloadConfig | None = None) -> None:
        super().__init__(config)
        self._burst_topics: list[Topic] = []
        self._burst_ends = 0.0
        self._next_burst_id = 0
        self._next_burst = self._sample_burst_gap()

    def _sample_burst_gap(self) -> float:
        rate = self.config.burst_rate_per_minute / 60.0
        if rate <= 0:
            return float("inf")
        return self._clock + self._rng.expovariate(rate)

    @property
    def in_burst(self) -> bool:
        """Whether the next document arrives inside a live burst window."""
        return self._clock < self._burst_ends

    def _advance_dynamics(self) -> None:
        super()._advance_dynamics()
        while self._clock >= self._next_burst:
            burst_id = self._next_burst_id
            self._next_burst_id += 1
            topic = Topic(
                name=f"burst{burst_id}",
                tags=[f"burst{burst_id}_tag{i}" for i in range(BURST_TOPIC_TAGS)],
                tag_skew=self.config.tag_skew,
                birth_time=self._clock,
            )
            self._burst_topics.append(topic)
            self._burst_ends = max(
                self._burst_ends,
                self._next_burst + self.config.burst_duration_seconds,
            )
            self._next_burst = self._sample_burst_gap()
        if not self.in_burst and self._burst_topics:
            self._burst_topics = []

    def _next_interarrival(self) -> float:
        if self.in_burst:
            return self._interarrival / self.config.burst_intensity
        return self._interarrival

    def _sample_tags(self, n_tags: int) -> frozenset[str]:
        if (n_tags > 0 and self.in_burst and self._burst_topics
                and self._rng.random() < self.config.burst_share):
            topic = self._burst_topics[-1]
            return frozenset(topic.sample_tags(n_tags, self._rng))
        return super()._sample_tags(n_tags)


# --------------------------------------------------------------------- #
# Diurnal
# --------------------------------------------------------------------- #
class DiurnalGenerator(TwitterLikeGenerator):
    """Sinusoidal arrival rate plus day/night topic-mix modulation.

    ``rate(t) = tweets_per_second * (1 + amplitude * sin(2*pi*t/period))``;
    the topic population is split into a day pool (even indices) and a
    night pool (odd indices) and the probability of sampling from the day
    pool swings with the same phase, so the *content* of the stream drifts
    with the clock, not just its volume.
    """

    def __init__(self, config: WorkloadConfig | None = None) -> None:
        super().__init__(config)
        topics = self._topics.topics
        self._day_pool = topics[0::2]
        self._night_pool = topics[1::2] or topics[0::2]

    def _phase(self) -> float:
        """Sine of the current diurnal phase, in [-1, 1]."""
        return math.sin(
            2.0 * math.pi * self._clock / self.config.diurnal_period_seconds
        )

    def _next_interarrival(self) -> float:
        rate = self.config.tweets_per_second * (
            1.0 + self.config.diurnal_amplitude * self._phase()
        )
        return 1.0 / rate

    def _sample_pool_tags(self, pool: list[Topic], n_tags: int) -> frozenset[str]:
        weights = [topic.popularity(self._clock) for topic in pool]
        total = sum(weights)
        pick = self._rng.random() * total if total > 0 else 0.0
        cumulative = 0.0
        chosen = pool[-1]
        for topic, weight in zip(pool, weights):
            cumulative += weight
            if pick <= cumulative:
                chosen = topic
                break
        return frozenset(chosen.sample_tags(n_tags, self._rng))

    def _sample_tags(self, n_tags: int) -> frozenset[str]:
        if n_tags == 0:
            return frozenset()
        if self._rng.random() < self.config.intra_topic_probability:
            day_share = 0.5 * (1.0 + self._phase())
            pool = (
                self._day_pool
                if self._rng.random() < day_share else self._night_pool
            )
            return self._sample_pool_tags(pool, n_tags)
        return super()._sample_tags(n_tags)


# --------------------------------------------------------------------- #
# Adversarial churn
# --------------------------------------------------------------------- #
class AdversarialChurnGenerator(TwitterLikeGenerator):
    """Worst-case tagset-type churn.

    Every non-repeat document is a brand-new tagset type over
    never-reused tags (a monotone tag counter), so no type — and no tag —
    recurs across report rounds; repeats only re-emit types created within
    the last ``adversarial_repeat_window`` documents, keeping the repeat
    horizon far below a report round.
    """

    def __init__(self, config: WorkloadConfig | None = None) -> None:
        super().__init__(config)
        self._next_tag_id = 0
        self._recent_types: list[frozenset[str]] = []

    def _advance_dynamics(self) -> None:
        # No topic population at all: the churn is the workload.
        return

    def _sample_tags(self, n_tags: int) -> frozenset[str]:
        if n_tags == 0:
            return frozenset()
        cfg = self.config
        if (self._recent_types
                and self._rng.random() < cfg.adversarial_repeat_fraction):
            return self._rng.choice(self._recent_types)
        n_tags = max(2, n_tags)  # 1-tag documents produce no reportable type
        start = self._next_tag_id
        self._next_tag_id += n_tags
        tags = frozenset(f"adv{start + i}" for i in range(n_tags))
        self._recent_types.append(tags)
        if len(self._recent_types) > cfg.adversarial_repeat_window:
            del self._recent_types[: -cfg.adversarial_repeat_window]
        return tags

    def vocabulary(self) -> list[str]:
        """Tags minted so far (the universe grows with the stream)."""
        return [f"adv{i}" for i in range(self._next_tag_id)]


# --------------------------------------------------------------------- #
# Registry, factory, presets
# --------------------------------------------------------------------- #
SCENARIO_GENERATORS: dict[str, type[TwitterLikeGenerator]] = {
    "legacy": TwitterLikeGenerator,
    "trending": TrendingGenerator,
    "burst": BurstGenerator,
    "diurnal": DiurnalGenerator,
    "adversarial": AdversarialChurnGenerator,
}
assert tuple(SCENARIO_GENERATORS) == SCENARIO_NAMES

#: Per-scenario WorkloadConfig overrides applied by :func:`scenario_preset`.
#: Values chosen so a laptop-scale run (50 tps, a few thousand documents)
#: exhibits the scenario's shape within a handful of report rounds.
SCENARIO_PRESETS: dict[str, dict[str, Any]] = {
    "legacy": {},
    "trending": {
        "new_topic_rate": 0.0,      # the base population persists
        "intra_topic_probability": 0.95,
        "n_topics": 60,
    },
    "burst": {
        "new_topic_rate": 0.2,
        "n_topics": 80,
    },
    "diurnal": {
        "new_topic_rate": 0.0,
        "n_topics": 80,
    },
    "adversarial": {
        "untagged_allowed": False,  # every document churns the type space
    },
}


def make_generator(config: WorkloadConfig) -> ScenarioGenerator:
    """The scenario generator selected by ``config.scenario``."""
    config.validate()
    return SCENARIO_GENERATORS[config.scenario](config)


def scenario_preset(name: str, **overrides: Any) -> WorkloadConfig:
    """A tuned :class:`WorkloadConfig` for the named scenario.

    Explicit ``overrides`` always win over the preset values, so CLI
    arguments can refine a preset without losing its shape.
    """
    if name not in SCENARIO_PRESETS:
        raise ValueError(
            f"unknown scenario {name!r}; available: {', '.join(SCENARIO_NAMES)}"
        )
    values: dict[str, Any] = {"scenario": name}
    values.update(SCENARIO_PRESETS[name])
    values.update(overrides)
    return WorkloadConfig(**values)
