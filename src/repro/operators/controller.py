"""Online repartitioning decisions: policies over rolling quality statistics.

The Disseminator observes every routing decision; this controller turns
those observations into the Section 7 control actions — *when* to request a
full repartition and *when* a missing tagset has earned a Single Addition.
Extracting the decision logic from the bolt serves two purposes: the same
policy code can be replayed offline against a recorded run (the
``tests/analysis`` cross-checks of the Figure-6 trace), and alternative
policies can be swapped in without touching the routing hot path.

Policies
--------
``threshold``
    The paper's rule (Section 7.2): over every window of ``z`` routed
    tagsets, request a repartition when the rolling average communication
    *or* the rolling maximum load share exceeds its reference value (from
    the installed partitioning) by more than ``thr``.
``fixed``
    Deterministic swaps at configured document counts
    (``SystemConfig.repartition_at``) — the lever the equivalence and
    fault-injection suites use to force a swap at a known point.
``never``
    No post-bootstrap swaps at all (the bootstrap install still happens
    unless an initial assignment is seeded).

All policies leave Single Additions active; only full-swap triggering
differs.
"""

from __future__ import annotations

from ..core.metrics import CommunicationTracker, LoadTracker

REPARTITION_POLICIES = ("threshold", "fixed", "never")

#: Reasons (re-exported by :mod:`.disseminator` for Figure 6's breakdown).
REASON_COMMUNICATION = "communication"
REASON_LOAD = "load"
REASON_BOTH = "both"


class RepartitionController:
    """Decides full swaps vs. single additions from rolling statistics.

    The controller owns the rolling trackers (the Disseminator records into
    them via :meth:`record_route`), the reference quality of the installed
    assignment, the missing-tagset counters behind Single Additions, and
    the forced-swap schedule of the ``fixed`` policy.  It never emits
    anything — the Disseminator turns its decisions into control tuples.
    """

    def __init__(
        self,
        k: int,
        policy: str = "threshold",
        threshold: float = 0.5,
        single_addition_threshold: int = 3,
        quality_check_interval: int = 1000,
        forced_points: tuple[int, ...] = (),
    ) -> None:
        if policy not in REPARTITION_POLICIES:
            raise ValueError(
                f"unknown repartition policy {policy!r}; "
                f"expected one of {REPARTITION_POLICIES}"
            )
        if threshold < 0:
            raise ValueError("repartition_threshold must be non-negative")
        if single_addition_threshold < 1:
            raise ValueError("single_addition_threshold must be at least 1")
        self.k = k
        self.policy = policy
        self.thr = threshold
        self.sn = single_addition_threshold
        self.z = quality_check_interval
        self._forced = tuple(sorted({int(point) for point in forced_points}))
        self._next_forced = 0
        self._reference_avg_com: float = 1.0
        self._reference_max_load: float = 1.0
        self.rolling_com = CommunicationTracker()
        self.rolling_load = LoadTracker()
        self._missing_counts: dict[frozenset[str], int] = {}
        self._requested_additions: set[frozenset[str]] = set()

    # ------------------------------------------------------------------ #
    # Reference state (set on every install)
    # ------------------------------------------------------------------ #
    @property
    def reference_avg_com(self) -> float:
        return self._reference_avg_com

    @property
    def reference_max_load(self) -> float:
        return self._reference_max_load

    def set_reference(self, avg_com: float | None, max_load: float | None) -> None:
        """Adopt a freshly installed assignment's quality as the reference.

        Mirrors the historical install semantics exactly: missing values
        default to 1.0 and both references are floored at ``1e-9``.  Also
        resets the rolling window and the missing-tagset counters (the new
        map may cover previously missing tagsets).
        """
        self._reference_avg_com = max(
            float(avg_com) if avg_com is not None else 1.0, 1e-9
        )
        self._reference_max_load = max(
            float(max_load) if max_load is not None else 1.0, 1e-9
        )
        self.reset_window()
        self._missing_counts.clear()
        self._requested_additions.clear()

    # ------------------------------------------------------------------ #
    # Rolling window
    # ------------------------------------------------------------------ #
    def record_route(self, n_notifications: int, partition_indices) -> None:
        """Account one routed tagset into the rolling window."""
        self.rolling_com.record(n_notifications)
        record_load = self.rolling_load.record
        for index in partition_indices:
            record_load(index)

    def window_ready(self) -> bool:
        """Whether a full window of ``z`` routed tagsets has accumulated."""
        return self.rolling_com.routed_tagsets >= self.z

    def reset_window(self) -> None:
        self.rolling_com.reset()
        self.rolling_load.reset()

    def evaluate_window(self) -> str | None:
        """Policy decision for the completed window: a reason, or ``None``.

        Reads (but does not reset) the rolling trackers; the caller records
        its quality snapshot and then calls :meth:`reset_window`.
        """
        current_com = self.rolling_com.average
        current_load = self.rolling_load.max_share(self.k)
        if self.policy == "threshold":
            return self._evaluate_threshold(current_com, current_load)
        return None

    def _evaluate_threshold(
        self, current_com: float, current_load: float
    ) -> str | None:
        """The paper's either-or rule, ported 1:1 from the Disseminator."""
        com_degraded = current_com > self._reference_avg_com * (1.0 + self.thr)
        load_degraded = current_load > self._reference_max_load * (1.0 + self.thr)
        if com_degraded and load_degraded:
            return REASON_BOTH
        if com_degraded:
            return REASON_COMMUNICATION
        if load_degraded:
            return REASON_LOAD
        return None

    # ------------------------------------------------------------------ #
    # Forced swaps (``fixed`` policy)
    # ------------------------------------------------------------------ #
    def forced_swap_due(
        self, documents_seen: int, has_assignment: bool, awaiting: bool
    ) -> bool:
        """Whether a configured swap point has been crossed.

        Consumes every schedule point at or below ``documents_seen`` — a
        point crossed while no assignment is installed (or while a previous
        request is still in flight) is dropped, not deferred, so a stale
        point can never fire at an unpredictable later document.
        """
        due = False
        while (
            self._next_forced < len(self._forced)
            and documents_seen >= self._forced[self._next_forced]
        ):
            self._next_forced += 1
            due = True
        return due and self.policy == "fixed" and has_assignment and not awaiting

    # ------------------------------------------------------------------ #
    # Single additions (Section 7.1)
    # ------------------------------------------------------------------ #
    def record_missing(self, tagset: frozenset[str]) -> int | None:
        """Count one uncovered occurrence; return the count when a Single
        Addition becomes due (the ``sn``-th occurrence), else ``None``."""
        if tagset in self._requested_additions:
            return None
        count = self._missing_counts.get(tagset, 0) + 1
        self._missing_counts[tagset] = count
        if count < self.sn:
            return None
        self._requested_additions.add(tagset)
        return count

    def addition_applied(self, tagset: frozenset[str]) -> None:
        """The Merger placed the tagset — stop counting it."""
        self._missing_counts.pop(tagset, None)
        self._requested_additions.discard(tagset)
