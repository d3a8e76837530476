"""The storage seam: one handle picks each table, one interface per kind.

``counter_table`` and ``tracker_table`` turn a ``StoreConfig | None``
handle into the Calculator's and the Tracker's table (``None`` = in RAM).
The owners delegate without asking which table they hold, so both tables
of a kind must answer every call of the shared interface alike.
"""

import random

import pytest

from repro.store import (
    DictCounterStore,
    DictTrackerStore,
    SpillingCounterStore,
    SpillingTrackerStore,
    StoreConfig,
    counter_table,
    tracker_table,
)

TAGS = [f"t{i}" for i in range(9)]


def spill_config(tmp_path, threshold=7):
    return StoreConfig(spill_dir=str(tmp_path), spill_threshold=threshold)


def test_the_handle_selects_the_table(tmp_path):
    assert type(counter_table(None)) is DictCounterStore
    assert type(tracker_table(None)) is DictTrackerStore
    counts = counter_table(spill_config(tmp_path))
    table = tracker_table(spill_config(tmp_path))
    assert isinstance(counts, SpillingCounterStore)
    assert isinstance(table, SpillingTrackerStore)
    assert counts.config.spill_threshold == table.config.spill_threshold == 7


def test_counter_tables_answer_alike(tmp_path):
    rng = random.Random(11)
    ram, spill = counter_table(None), counter_table(spill_config(tmp_path))
    keys = set()
    for _ in range(80):
        batch = [tuple(sorted(rng.sample(TAGS, rng.randint(1, 3))))
                 for _ in range(rng.randint(1, 4))]
        keys.update(batch)
        ram.update(batch)
        spill.update(batch)
    assert spill.stats()["runs_written"] > 0 and ram.stats() is None
    ram_lookup, spill_lookup = ram.window_lookup(), spill.window_lookup()
    for key in sorted(keys) + [("never", "seen")]:
        assert ram_lookup(key) == spill_lookup(key) == ram[key] == spill[key]
        assert ram.get(key, 0) == spill.get(key, 0)
    assert sorted(ram.items()) == sorted(spill.items())
    assert len(ram) == len(spill)
    for table in (ram, spill):
        table.close()
        assert len(table) == 0
    assert list(tmp_path.iterdir()) == []


def test_tracker_tables_answer_alike(tmp_path):
    rng = random.Random(5)
    ram, spill = tracker_table(None), tracker_table(spill_config(tmp_path, 4))
    seen = set()
    for _ in range(30):
        batch = []
        for _ in range(rng.randint(1, 6)):
            tags = frozenset(rng.sample(TAGS, rng.randint(2, 3)))
            seen.add(tags)
            batch.append((tags, rng.choice((0.25, 0.5, 1.0)), rng.randint(1, 5)))
        assert ram.ingest(batch) == spill.ingest(batch)
    assert spill.stats()["runs_written"] > 0 and ram.stats() is None
    for tags in sorted(seen, key=sorted) + [frozenset({"never", "seen"})]:
        assert ram.get(tags) == spill.get(tags)
        assert ram.get(tuple(sorted(tags))) == spill.get(tags)
    assert sorted(ram.iter_entries(), key=lambda row: sorted(row[0])) == (
        sorted(spill.iter_entries(), key=lambda row: sorted(row[0]))
    )
    assert len(ram) == len(spill) == len(seen)
    snapshots = [table.snapshot(3, 10, 2) for table in (ram, spill)]
    try:
        assert snapshots[0].digest() == snapshots[1].digest()
        assert snapshots[0].top_k(5) == snapshots[1].top_k(5)
        for snapshot in snapshots:
            assert (snapshot.round_index, snapshot.reports_received,
                    snapshot.duplicate_reports) == (3, 10, 2)
            assert len(snapshot) == len(seen)
    finally:
        snapshots[1].close()
    for table in (ram, spill):
        table.close()
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("kind", ["counter", "tracker"])
def test_spill_tables_take_only_a_config(kind, tmp_path):
    cls = SpillingCounterStore if kind == "counter" else SpillingTrackerStore
    with pytest.raises(TypeError):
        cls(spill_dir=str(tmp_path), spill_threshold=4)
    with pytest.raises(TypeError):
        cls()
