"""The trending workload generator, and the factory over every scenario.

The legacy synthetic point (:class:`TwitterLikeGenerator` with
``new_topic_rate=5.0``) churns its topic population so fast that ~90% of
tagset types per report round are first occurrences — hostile to the
paper's trending-hashtag premise.  This module adds the workload shape
the system actually exists for, deterministic given
``WorkloadConfig.seed`` and emitting the same :class:`Document` stream:

``trending``
    A persistent base topic population plus *trends* that follow a
    rise → plateau → decay hazard curve.  While a trend sits on its
    plateau, its signature **anchor tagset** is re-emitted on a fixed
    document-position schedule, so consecutive report rounds observe the
    same types with the same multiplicities.  Anchor tags are reserved
    (never sampled into background documents), so the recurrence is
    structural, not accidental.

``make_generator`` dispatches a :class:`WorkloadConfig` on its
``scenario`` field; ``scenario_preset`` builds a tuned config per
scenario.  Recorded streams of either generator replay through
``workloads/replay.py``.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import Any

from .generator import SCENARIO_NAMES, TwitterLikeGenerator, WorkloadConfig


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
                index = bisect_left(list(accumulate(weights)), self._rng.random() * total)
                trend = self._trends[min(index, len(weights) - 1)]
                count = min(n_tags, len(trend.body_tags))
                return frozenset(set(self._rng.sample(trend.body_tags, count)))
        return super()._sample_tags(n_tags)


# --------------------------------------------------------------------- #
# Registry, factory, presets
# --------------------------------------------------------------------- #
SCENARIO_GENERATORS: dict[str, type[TwitterLikeGenerator]] = {
    "legacy": TwitterLikeGenerator,
    "trending": TrendingGenerator,
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
}


def make_generator(config: WorkloadConfig) -> TwitterLikeGenerator:
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
