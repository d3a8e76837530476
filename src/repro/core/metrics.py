"""Evaluation metrics used throughout the paper's experiments.

* **Communication** (Section 8.2.1): average number of messages sent from
  the Disseminator to Calculators per received tagset, ignoring tagsets that
  reach no Calculator.
* **Processing load / Gini coefficient** (Section 8.2.2): the share of
  notifications each Calculator receives; imbalance is summarised with the
  Gini coefficient of those shares (derived from the Lorenz curve).
* **Jaccard accuracy** (Section 8.2.3): the mean absolute error of reported
  coefficients against a centralised exact baseline, restricted to tagsets
  seen more than ``sn`` times.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np


def gini_coefficient(values: Sequence[float]) -> float:
    """Gini coefficient of a non-negative distribution.

    Returns 0.0 for perfectly balanced loads (or for empty/all-zero input)
    and approaches ``1 - 1/n`` for maximally unbalanced ones.
    """
    data = np.asarray(list(values), dtype=float)
    if data.size == 0:
        return 0.0
    if np.any(data < 0):
        raise ValueError("gini_coefficient expects non-negative values")
    total = data.sum()
    if total == 0:
        return 0.0
    data = np.sort(data)
    n = data.size
    # Standard formulation based on the order statistics of the sample; the
    # result is clamped to [0, 1] to absorb floating-point round-off on
    # perfectly balanced inputs.
    index = np.arange(1, n + 1)
    value = (2.0 * np.sum(index * data) - (n + 1) * total) / (n * total)
    return float(min(max(value, 0.0), 1.0))


def lorenz_curve(values: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Lorenz curve of a non-negative distribution.

    Returns the cumulative population share and the cumulative value share,
    both starting at 0.0 and ending at 1.0.
    """
    data = np.sort(np.asarray(list(values), dtype=float))
    if data.size == 0 or data.sum() == 0:
        return np.array([0.0, 1.0]), np.array([0.0, 1.0])
    cumulative = np.concatenate(([0.0], np.cumsum(data)))
    population = np.linspace(0.0, 1.0, data.size + 1)
    return population, cumulative / cumulative[-1]


def load_shares(loads: Sequence[float]) -> list[float]:
    """Normalise absolute loads to shares that sum to 1 (0s if all zero)."""
    total = float(sum(loads))
    if total == 0:
        return [0.0] * len(loads)
    return [load / total for load in loads]


def max_load_share(loads: Sequence[float]) -> float:
    """The paper's ``maxLoad``: the largest share of notifications."""
    shares = load_shares(loads)
    return max(shares) if shares else 0.0


def load_variance(loads: Sequence[float]) -> float:
    """Variance of the load shares (alternative imbalance measure)."""
    shares = load_shares(loads)
    if not shares:
        return 0.0
    return float(np.var(shares))


@dataclass(slots=True)
class CommunicationTracker:
    """Running average of notifications sent per routed tagset.

    The Disseminator uses one of these both for global experiment metrics and
    for the rolling quality statistics of Section 7.2.
    """

    notifications: int = 0
    routed_tagsets: int = 0
    unrouted_tagsets: int = 0

    def record(self, n_notifications: int) -> None:
        """Record how many Calculators one incoming tagset was sent to."""
        if n_notifications <= 0:
            self.unrouted_tagsets += 1
            return
        self.notifications += n_notifications
        self.routed_tagsets += 1

    @property
    def average(self) -> float:
        """Average notifications per routed tagset (the Communication metric)."""
        if self.routed_tagsets == 0:
            return 0.0
        return self.notifications / self.routed_tagsets

    def reset(self) -> None:
        self.notifications = 0
        self.routed_tagsets = 0
        self.unrouted_tagsets = 0


@dataclass(slots=True)
class LoadTracker:
    """Per-Calculator notification counts and derived imbalance measures."""

    counts: dict[int, int] = field(default_factory=dict)

    def record(self, calculator: int, n: int = 1) -> None:
        self.counts[calculator] = self.counts.get(calculator, 0) + n

    def loads(self, k: int | None = None) -> list[int]:
        """Counts per Calculator index; missing Calculators count as 0."""
        if k is None:
            k = (max(self.counts) + 1) if self.counts else 0
        return [self.counts.get(index, 0) for index in range(k)]

    def gini(self, k: int | None = None) -> float:
        return gini_coefficient(self.loads(k))

    def max_share(self, k: int | None = None) -> float:
        return max_load_share(self.loads(k))

    def reset(self) -> None:
        self.counts.clear()


@dataclass(slots=True)
class JaccardErrorReport:
    """Accuracy of reported coefficients against a ground-truth mapping."""

    mean_absolute_error: float
    max_absolute_error: float
    n_compared: int
    n_missing: int

    @property
    def coverage(self) -> float:
        """Fraction of ground-truth tagsets that received some coefficient."""
        total = self.n_compared + self.n_missing
        if total == 0:
            return 1.0
        return self.n_compared / total


def jaccard_error(
    reported: Mapping[Hashable, float],
    ground_truth: Mapping[Hashable, float],
) -> JaccardErrorReport:
    """Compare reported coefficients against the centralised baseline.

    Only tagsets present in ``ground_truth`` are evaluated (the baseline
    already restricts itself to tagsets seen more than ``sn`` times, as in
    Section 8.2.3).  Ground-truth tagsets missing from ``reported`` count as
    missing, not as error.  ``reported`` must accept ``ground_truth``'s
    keys (frozensets, or the sorted tag tuples the pipeline uses); each is
    probed once, with ``get``.  Errors are summed in ``ground_truth``'s
    order, so the mean's bits depend on it.
    """
    errors = []
    missing = 0
    get = reported.get
    for tagset, truth in ground_truth.items():
        value = get(tagset)
        if value is None:
            missing += 1
        else:
            errors.append(abs(value - truth))
    if errors:
        mean_error = float(np.mean(errors))
        max_error = float(np.max(errors))
    else:
        mean_error = 0.0
        max_error = 0.0
    return JaccardErrorReport(
        mean_absolute_error=mean_error,
        max_absolute_error=max_error,
        n_compared=len(errors),
        n_missing=missing,
    )


def replication_cost(partition_tag_sets: Iterable[Iterable[str]]) -> int:
    """Total replication: sum over tags of (#partitions containing it).

    This is criterion 2 of the problem statement; a value equal to the
    number of distinct tags means zero replication.
    """
    count = 0
    seen: set[str] = set()
    duplicates = 0
    for tags in partition_tag_sets:
        for tag in tags:
            count += 1
            if tag in seen:
                duplicates += 1
            seen.add(tag)
    return count
