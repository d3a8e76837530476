"""The sketch-mode Calculator: approximate tracking via MinHash + Count-Min.

Drop-in replacement for the exact :class:`~repro.operators.CalculatorBolt`
(Section 6.2) selected with ``SystemConfig(calculator="sketch")``.  Instead
of exact subset counters and inclusion–exclusion, it feeds every incoming
notification into a :class:`~repro.sketches.SketchJaccardEstimator`:

* the document id of each notification updates one MinHash signature per
  owned tag, so the Jaccard coefficient of any tagset is later estimated
  directly from the signatures (standard error ``1/sqrt(num_perm)``);
* a Count-Min sketch supplies the support counts ``CN(s_i)`` that the
  Tracker uses to deduplicate reports from replicated tags.

Per-document work drops from enumerating all ``2^m`` subsets of an
``m``-tag notification to ``m`` signature updates plus the ``O(m^4)``
tracked report keys, and counter memory is bounded by the sketch widths
instead of the number of observed tag combinations.  Reporting cadence and
counter resets mirror the exact Calculator, so the two modes are directly
comparable in the Figure-5 error curves.
"""

from __future__ import annotations

from ..core.jaccard import JaccardResult
from ..sketches import SketchJaccardEstimator
from .calculator import BaseCalculatorBolt


class SketchCalculatorBolt(BaseCalculatorBolt):
    """Estimates Jaccard coefficients from sketches instead of exact counters."""

    mode = "sketch"

    def __init__(
        self,
        report_interval: float = 300.0,
        max_tags_per_document: int = 12,
        num_perm: int = 512,
        seed: int = 1,
        countmin_epsilon: float = 0.002,
        countmin_delta: float = 0.01,
        max_subset_size: int = 4,
    ) -> None:
        super().__init__(report_interval=report_interval)
        self.estimator = SketchJaccardEstimator(
            num_perm=num_perm,
            seed=seed,
            countmin_epsilon=countmin_epsilon,
            countmin_delta=countmin_delta,
            max_subset_size=max_subset_size,
            max_tags_per_document=max_tags_per_document,
        )
        self._fallback_doc_id = 0

    def _observe(self, tags, doc_id) -> None:
        if doc_id is None:
            # Unique synthetic id; only reached by hand-built test tuples —
            # the Disseminator always forwards the Parser's doc_id.
            self._fallback_doc_id += 1
            doc_id = ("_synthetic", self.task_id, self._fallback_doc_id)
        self.estimator.observe(tags, doc_id)

    def _report(self, reset: bool) -> list[JaccardResult]:
        return self.estimator.report(min_size=2, reset=reset)

    def _migration_reset(self) -> None:
        # Same reset a resetting report performs: drop the signatures,
        # tracked keys and Count-Min counters wholesale.
        self.estimator.clear()

    @property
    def observations(self) -> int:
        return self.estimator.observations
