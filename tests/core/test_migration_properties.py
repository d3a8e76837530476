"""Property-style migration invariants of the exact counting core.

The live-repartitioning handoff migrates Calculator state in two phases:
``JaccardCalculator.report_triples(reset=False)`` (side-effect-free
payload) and ``reset_counts()`` (commit).  These tests pin the invariants
the handoff protocol relies on, over seeded-random observe/migrate/observe
interleavings:

* *prepare is pure*: computing the payload never changes the counters, the
  observed types, the counted-tagset view or the observation count — so an
  aborted migration is a true no-op;
* *payload equals a drain*: the migrated triples are exactly what an
  end-of-stream drain of the same state would ship;
* *commit equals a fresh start*: after migrate + reset, continued
  observation reports exactly what a fresh Calculator fed only the
  post-migration segment reports;
* *no loss, no duplication*: the payloads of the migrations plus the final
  drain cover each observation segment exactly once.
"""

import random

import pytest

from repro.core.jaccard import JaccardCalculator

VOCABULARY = [f"t{i}" for i in range(14)]


def _random_tagsets(rng, n, max_tags=5):
    """Seeded tagset stream with repeated types (exercises multiplicities)."""
    tagsets = []
    for _ in range(n):
        size = rng.randint(1, max_tags)
        tagsets.append(frozenset(rng.sample(VOCABULARY, size)))
    return tagsets


def _triples_key(triples):
    """Canonical comparison form of a triple list (order-insensitive)."""
    return sorted((tuple(sorted(tagset)), jaccard, support)
                  for tagset, jaccard, support in triples)


def _segments(rng, n_segments, per_segment):
    return [
        _random_tagsets(rng, rng.randint(1, per_segment))
        for _ in range(n_segments)
    ]


@pytest.mark.parametrize("seed", [3, 17, 92])
def test_migration_payload_is_side_effect_free(seed):
    rng = random.Random(seed)
    calculator = JaccardCalculator()
    for tags in _random_tagsets(rng, 120):
        calculator.observe(tags)

    counts_before = dict(calculator._counts)
    types_before = list(calculator._types)
    view_before = sorted(map(tuple, map(sorted, calculator.counted_tagsets())))
    observations_before = calculator.observations

    first = calculator.report_triples(reset=False)
    second = calculator.report_triples(reset=False)

    # Idempotent and pure: repeated prepares agree, nothing moved.
    assert _triples_key(first) == _triples_key(second)
    assert dict(calculator._counts) == counts_before
    assert list(calculator._types) == types_before
    assert sorted(
        map(tuple, map(sorted, calculator.counted_tagsets()))
    ) == view_before
    assert calculator.observations == observations_before


@pytest.mark.parametrize("seed", [5, 41])
def test_migration_payload_equals_drain(seed):
    rng = random.Random(seed)
    tagsets = _random_tagsets(rng, 150)

    migrating = JaccardCalculator()
    draining = JaccardCalculator()
    for tags in tagsets:
        migrating.observe(tags)
        draining.observe(tags)

    assert _triples_key(migrating.report_triples(reset=False)) == _triples_key(
        draining.report_triples(reset=True)
    )


@pytest.mark.parametrize("seed", [7, 23, 61])
def test_observe_migrate_observe_matches_fresh_segments(seed):
    """Interleaved migrations report per segment what fresh counters would.

    Also pins the cross-migration totals: concatenating every migration
    payload with the final drain covers the whole stream with no tagset
    counted twice and none lost.
    """
    rng = random.Random(seed)
    segments = _segments(rng, n_segments=4, per_segment=60)

    calculator = JaccardCalculator()
    collected = []
    for segment in segments:
        for tags in segment:
            calculator.observe(tags)
        payload = calculator.report_triples(reset=False)
        calculator.reset_counts()
        assert calculator.observations == 0
        assert len(calculator) == 0
        assert calculator.counted_tagsets() == []
        collected.append(payload)

    for index, segment in enumerate(segments):
        fresh = JaccardCalculator()
        for tags in segment:
            fresh.observe(tags)
        assert _triples_key(collected[index]) == _triples_key(
            fresh.report_triples(reset=True)
        ), f"segment {index} diverged after migration reset"

    # Support totals are additive over segments: every observation of a
    # tagset type lands in exactly one payload.
    support_totals: dict = {}
    for payload in collected:
        for tagset, _, support in payload:
            key = tuple(sorted(tagset))
            support_totals[key] = support_totals.get(key, 0) + support
    fresh_all = JaccardCalculator()
    whole_stream_counts: dict = {}
    for segment in segments:
        for tags in segment:
            fresh_all.observe(tags)
    for tagset, _, support in fresh_all.report_triples(reset=True):
        whole_stream_counts[tuple(sorted(tagset))] = support
    assert support_totals == whole_stream_counts


@pytest.mark.parametrize("seed", [13, 37])
def test_reset_counts_preserves_the_cache_only(seed):
    """``JaccardCalculator.reset_counts()`` (the commit reset) keeps the
    subset cache only."""
    rng = random.Random(seed)
    counter = JaccardCalculator()
    tagsets = _random_tagsets(rng, 80)
    for tags in tagsets:
        counter.observe(tags)
    assert len(counter) > 0
    cache_len = len(counter.cache)

    counter.reset_counts()

    assert len(counter) == 0
    assert counter.counted_tagsets() == []
    assert counter._types == {}
    # The subset-enumeration cache is observation-history-derived and
    # survives (trending tagsets of the next window are the same types).
    assert len(counter.cache) == cache_len
    # Re-observing reproduces the same counts as the first pass.
    for tags in tagsets:
        counter.observe(tags)
    reference = JaccardCalculator()
    for tags in tagsets:
        reference.observe(tags)
    assert dict(counter._counts) == dict(reference._counts)
