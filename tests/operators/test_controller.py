"""Unit tests of the repartition controller (Section 7's decision logic).

Windows are synthesized from explicit route patterns (tuples of notified
partition indices, cycled to fill the window), so the rolling
communication average and maximum load share are exact by construction.
"""

import pytest

from repro.cli import main
from repro.core.metrics import max_load_share
from repro.operators.controller import (
    REASON_BOTH,
    REASON_COMMUNICATION,
    REASON_LOAD,
    REPARTITION_POLICIES,
    RepartitionController,
)
from repro.pipeline import SystemConfig, TagCorrelationSystem
from repro.workloads import TwitterLikeGenerator, WorkloadConfig

K = 4
THR = 0.5
#: Window size; divisible by every pattern length below, so the synthetic
#: windows hit their target communication/share values exactly.
WINDOW = 120

# Named route patterns (com = notifications per route, share = max
# partition fraction of notifications).
BALANCED_COM2 = [(0, 1), (2, 3), (0, 2), (1, 3)]                   # com 2.0, share 0.25
BALANCED_COM3 = [(0, 1, 2), (1, 2, 3), (2, 3, 0), (3, 0, 1)]       # com 3.0, share 0.25
HOT_NODE_COM2 = [(0, 1), (0, 2), (0, 3)]                           # com 2.0, share 0.50
HOT_NODE_COM3 = [(0, 1, 2), (0, 2, 3), (0, 3, 1)]                  # com 3.0, share 1/3
#: com 1.2 at perfect balance: 4 two-target + 16 one-target routes.
MILD_COM = (
    [(0, 1), (2, 3), (0, 2), (1, 3)]
    + [(0,), (1,), (2,), (3,)] * 4
)
#: com 2.5 with share 0.34 — against a (2.0, 0.25) reference both ratios
#: (1.25 and 1.36) stay below the 1.5 trigger.
COMPOUND = (
    [(0, 1, 2)] * 4 + [(0, 2, 3)] * 3 + [(0, 3, 1)] * 3
    + [(0, 1)] * 2 + [(0, 2)] * 2 + [(0, 3)] * 3
    + [(1, 3), (2, 3), (1, 2)]
)


def _controller(policy="threshold", reference=(None, None), **kwargs):
    controller = RepartitionController(
        k=K, policy=policy, threshold=THR, quality_check_interval=WINDOW,
        **kwargs,
    )
    controller.set_reference(*reference)
    return controller


def _fill_window(controller, pattern):
    for index in range(WINDOW):
        targets = pattern[index % len(pattern)]
        controller.record_route(len(targets), targets)
    assert controller.window_ready()


def test_policies_are_the_papers_rule_plus_two_levers():
    assert REPARTITION_POLICIES == ("threshold", "fixed", "never")


def test_unknown_policy_rejected():
    with pytest.raises(ValueError, match="unknown repartition policy"):
        RepartitionController(k=K, policy="capacity")


def test_capacity_policy_refused_by_the_cli(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--documents", "10", "--repartition-policy", "capacity"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'capacity'" in capsys.readouterr().err


def test_pattern_windows_are_exact():
    controller = _controller()
    _fill_window(controller, COMPOUND)
    assert controller.rolling_com.average == 2.5
    assert controller.rolling_load.max_share(K) == 17 / 50


# --------------------------------------------------------------------- #
# threshold
# --------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "reference,pattern,expected",
    [
        # Fan-out rises at stable balance.
        ((1.0, 0.25), BALANCED_COM3, REASON_COMMUNICATION),
        # Fan-out at the reference, load collapses onto one node.
        ((2.0, 0.3), HOT_NODE_COM2, REASON_LOAD),
        # Both degrade past (1 + thr) x their reference.
        ((1.0, 0.2), HOT_NODE_COM3, REASON_BOTH),
        # Raw fan-out 2x a reference below one notification per route.
        ((0.6, 0.25), MILD_COM, REASON_COMMUNICATION),
        # Each metric within budget: the either-or rule holds.
        ((2.0, 0.25), COMPOUND, None),
        # Same shape as the reference.
        ((2.0, 0.25), BALANCED_COM2, None),
    ],
)
def test_threshold_reason(reference, pattern, expected):
    controller = _controller(reference=reference)
    _fill_window(controller, pattern)
    assert controller.evaluate_window() == expected


def test_threshold_comparison_is_strict():
    # BALANCED_COM3 has com 3.0 and share 0.25: references of exactly
    # 3.0 / 1.5 and 0.25 / 1.5 put both at (1 + thr) x the reference.
    controller = _controller(reference=(2.0, 0.25 / (1.0 + THR)))
    _fill_window(controller, BALANCED_COM3)
    assert controller.rolling_load.max_share(K) == 0.25
    assert controller.reference_max_load * (1.0 + THR) == 0.25
    assert controller.reference_avg_com * (1.0 + THR) == 3.0
    assert controller.evaluate_window() is None


def test_evaluate_window_reads_without_resetting():
    controller = _controller(reference=(1.0, 0.25))
    _fill_window(controller, BALANCED_COM3)
    assert controller.evaluate_window() == REASON_COMMUNICATION
    assert controller.window_ready()
    controller.reset_window()
    assert not controller.window_ready()
    assert controller.rolling_com.routed_tagsets == 0


# --------------------------------------------------------------------- #
# set_reference
# --------------------------------------------------------------------- #
def test_set_reference_defaults_missing_values_to_one():
    controller = _controller(reference=(None, None))
    assert controller.reference_avg_com == 1.0
    assert controller.reference_max_load == 1.0
    controller.set_reference(None, 0.3)
    assert (controller.reference_avg_com, controller.reference_max_load) == (1.0, 0.3)
    controller.set_reference(2.5, None)
    assert (controller.reference_avg_com, controller.reference_max_load) == (2.5, 1.0)


def test_set_reference_floors_both_references():
    controller = _controller(reference=(0.0, -1.0))
    assert controller.reference_avg_com == 1e-9
    assert controller.reference_max_load == 1e-9


def test_set_reference_clears_missing_counters_and_window():
    controller = _controller(single_addition_threshold=2)
    tagset = frozenset({"a", "b"})
    assert controller.record_missing(tagset) is None
    controller.record_route(2, (0, 1))
    controller.set_reference(2.0, 0.5)
    assert controller.rolling_com.routed_tagsets == 0
    # The count restarted: one more occurrence is again not enough.
    assert controller.record_missing(tagset) is None
    assert controller.record_missing(tagset) == 2
    # A requested addition is forgotten too, so it can be requested anew.
    controller.set_reference(2.0, 0.5)
    assert controller.record_missing(tagset) is None
    assert controller.record_missing(tagset) == 2


# --------------------------------------------------------------------- #
# fixed and never
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("policy", ["fixed", "never"])
@pytest.mark.parametrize("pattern", [BALANCED_COM3, HOT_NODE_COM3, MILD_COM])
def test_fixed_and_never_never_return_a_reason(policy, pattern):
    controller = _controller(policy=policy, reference=(0.5, 0.1))
    _fill_window(controller, pattern)
    assert controller.evaluate_window() is None


def test_forced_swap_fires_at_each_point_once():
    controller = _controller(policy="fixed", forced_points=(300, 100, 100))
    assert not controller.forced_swap_due(99, True, False)
    assert controller.forced_swap_due(100, True, False)
    assert not controller.forced_swap_due(101, True, False)
    assert controller.forced_swap_due(300, True, False)
    assert not controller.forced_swap_due(10_000, True, False)


def test_forced_swap_before_bootstrap_is_dropped():
    controller = _controller(policy="fixed", forced_points=(100, 200))
    assert not controller.forced_swap_due(150, False, False)
    # Point 100 was consumed, not deferred: the assignment arriving later
    # does not revive it.
    assert not controller.forced_swap_due(151, True, False)
    assert controller.forced_swap_due(200, True, False)


def test_forced_swap_while_awaiting_is_dropped():
    controller = _controller(policy="fixed", forced_points=(100, 200))
    assert not controller.forced_swap_due(100, True, True)
    assert not controller.forced_swap_due(101, True, False)
    assert controller.forced_swap_due(200, True, False)


def test_forced_points_ignored_outside_the_fixed_policy():
    controller = _controller(policy="threshold", forced_points=(100,))
    assert not controller.forced_swap_due(100, True, False)


# --------------------------------------------------------------------- #
# Single Additions
# --------------------------------------------------------------------- #
def test_record_missing_fires_once_at_the_sn_th_occurrence():
    controller = _controller(single_addition_threshold=3)
    tagset = frozenset({"x", "y"})
    assert controller.record_missing(tagset) is None
    assert controller.record_missing(tagset) is None
    assert controller.record_missing(tagset) == 3
    for _ in range(5):
        assert controller.record_missing(tagset) is None
    # Other tagsets count independently.
    assert controller.record_missing(frozenset({"z"})) is None


def test_record_missing_fires_again_only_after_addition_applied():
    controller = _controller(single_addition_threshold=2)
    tagset = frozenset({"x", "y"})
    controller.record_missing(tagset)
    assert controller.record_missing(tagset) == 2
    assert controller.record_missing(tagset) is None
    controller.addition_applied(tagset)
    assert controller.record_missing(tagset) is None
    assert controller.record_missing(tagset) == 2


def test_threshold_run_history_replays_the_rule():
    """Every quality snapshot of a threshold-policy run replays offline.

    The reference in force at each snapshot is the quality of the latest
    ``PartitionInstall`` before it (installs adopt their quality as the
    controller reference; the install a snapshot triggers lands at the
    same document); a snapshot fired exactly when its window
    degraded past ``(1 + thr)x`` that reference on either metric.  At
    ``thr = 0.1`` this stream repartitions twice, on load.
    """
    thr = 0.1
    documents = TwitterLikeGenerator(
        WorkloadConfig(
            seed=47,
            tweets_per_second=50.0,
            n_topics=100,
            tags_per_topic=14,
            new_topic_rate=5.0,
            intra_topic_probability=0.9,
        )
    ).generate(1500)
    config = SystemConfig(
        algorithm="DS",
        k=K,
        n_partitioners=3,
        window_mode="count",
        window_size=500,
        bootstrap_documents=200,
        quality_check_interval=120,
        repartition_threshold=thr,
        report_interval_seconds=30.0,
        include_centralized_baseline=False,
    )
    report = TagCorrelationSystem(config).run(documents)
    assert report.history, "run produced no quality snapshots"
    installs = sorted(report.partition_installs, key=lambda i: i.documents_processed)
    assert installs, "run never installed a partition map"

    fired = 0
    for snapshot in report.history:
        active = [
            install
            for install in installs
            if install.documents_processed < snapshot.documents_processed
        ]
        if not active:
            assert snapshot.repartition_reason is None
            continue
        reference = active[-1]
        controller = _controller(reference=(reference.avg_com, reference.max_load))
        com_degraded = snapshot.avg_communication > (
            controller.reference_avg_com * (1.0 + thr)
        )
        load_degraded = max_load_share(snapshot.calculator_loads) > (
            controller.reference_max_load * (1.0 + thr)
        )
        offline_fires = com_degraded or load_degraded
        assert (snapshot.repartition_reason is not None) == offline_fires, (
            f"snapshot at {snapshot.documents_processed} docs recorded "
            f"{snapshot.repartition_reason!r}"
        )
        fired += offline_fires
    assert fired == report.n_repartitions == 2
