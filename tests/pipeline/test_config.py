"""Unit tests for the system configuration."""

import pytest

from repro.pipeline.config import PAPER_DEFAULTS, SystemConfig


class TestValidation:
    def test_defaults_valid(self):
        SystemConfig().validate()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"k": 0},
            {"n_partitioners": 0},
            {"window_mode": "weird"},
            {"window_size": 0},
            {"bootstrap_documents": 0},
            {"repartition_threshold": -0.1},
            {"repartition_threshold": float("nan")},
            {"repartition_threshold": float("inf")},
            {"single_addition_threshold": 0},
            {"quality_check_interval": 0},
            {"report_interval_seconds": 0.0},
            {"report_interval_seconds": -60.0},
            {"max_tags_per_document": 0},
            {"max_tags_per_document": -3},
            {"executor": "threads"},
            {"workers": -1},
            {"repartition_policy": "sometimes"},
            {"repartition_policy": "capacity"},
            {"repartition_policy": "fixed", "repartition_at": (0,)},
            {"repartition_at": (100,)},
            {"repartition_handoff": "copy"},
            {"subset_cache_size": 0},
            {"counter_store": "disk"},
            {"spill_threshold": 0},
            {"tracker_store": "disk"},
            {"tracker_spill_threshold": 0},
            {"service_queue_limit": 0},
        ],
    )
    def test_invalid_values_rejected(self, overrides):
        with pytest.raises(ValueError):
            SystemConfig(**overrides).validate()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"k": 1},
            {"n_partitioners": 1},
            {"repartition_policy": "fixed", "repartition_at": (1,)},
            {"tracker_spill_threshold": 1},
            {"max_tags_per_document": 1},
            {"quality_check_interval": 1},
            {"service_queue_limit": 1},
        ],
    )
    def test_smallest_allowed_values_accepted(self, overrides):
        SystemConfig(**overrides).validate()

    @pytest.mark.parametrize(
        "knob",
        [
            "n_parsers",
            "n_disseminators",
            "tick_interval_seconds",
            "notification_batch_size",
            "link_batch_size",
            "report_chunk_size",
            "algorithm_options",
            "minhash_seed",
            "countmin_epsilon",
            "countmin_delta",
            "sketch_max_subset_size",
            "calculator",
            "minhash_permutations",
        ],
    )
    def test_removed_knobs_are_not_fields(self, knob):
        # Parser and Disseminator parallelism are 1 and the tick interval is
        # the Cluster's own default; none of them is configurable.  The
        # notification batch, link batch and report/drain chunking are
        # physical cadences no logical metric observes, and the partitioner
        # options had no caller with another value; they live as constants
        # and constructor defaults instead.  The sketch tracking mode and
        # its knobs are gone: the Calculators always count exactly.
        with pytest.raises(TypeError):
            SystemConfig(**{knob: 1})


class TestFactories:
    def test_paper_defaults_match_section_8(self):
        config = SystemConfig.paper_defaults("SCC")
        assert config.algorithm == "SCC"
        assert config.k == PAPER_DEFAULTS["k"] == 10
        assert config.n_partitioners == 10
        assert config.repartition_threshold == 0.5
        assert config.single_addition_threshold == 3
        assert config.quality_check_interval == 1000
        assert config.report_interval_seconds == 300.0

    def test_paper_defaults_with_overrides(self):
        config = SystemConfig.paper_defaults("DS", k=20)
        assert config.k == 20

    def test_scaled_down_preserves_ratios(self):
        config = SystemConfig.scaled_down("DS", scale=0.01)
        assert config.window_size >= 200
        assert config.bootstrap_documents <= config.window_size
        config.validate()

    def test_scaled_down_invalid_scale(self):
        with pytest.raises(ValueError):
            SystemConfig.scaled_down(scale=0)

    def test_with_overrides_returns_copy(self):
        base = SystemConfig()
        changed = base.with_overrides(k=7)
        assert changed.k == 7
        assert base.k == 10
        assert changed is not base


class TestExecutorConfig:
    def test_inline_is_default(self):
        config = SystemConfig()
        assert config.executor == "inline"
        assert config.workers == 0

    def test_explicit_workers_resolve_verbatim(self):
        assert SystemConfig(workers=7).resolved_workers() == 7

    def test_auto_workers_bounded(self):
        assert 1 <= SystemConfig(workers=0).resolved_workers() <= 4

    def test_process_executor_refuses_migrate_handoff(self):
        with pytest.raises(ValueError, match="driver-side layers only"):
            SystemConfig(
                executor="process", workers=2, repartition_handoff="migrate"
            ).validate()
