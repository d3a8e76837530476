"""Spill-store lifecycle: directories, durability ordering, abort hygiene.

The spilling store owns real on-disk state, so beyond the mapping
semantics (spill timing must be unobservable) these tests pin the
*lifecycle* contract:

* every artefact lives inside the store's private ``mkdtemp`` under the
  configured ``spill_dir``; ``clear()`` removes all run files, ``close()``
  removes the directory itself — no orphans, ever;
* a run is *published* only after its bytes are fsync'd: the data-file
  ``fsync`` strictly precedes the ``os.replace`` rename (crash before the
  rename loses at most an unpublished ``.tmp``);
* a report fold reads the runs through the checked decoder: a truncated
  or corrupt run fails it with ``RunFormatError``, and ``close()`` still
  leaves nothing behind;
* ``compact_runs`` over many small runs at a tiny fan-in exercises the
  layered merge, with identical results;
* pickling ships a run-file *manifest*, not decoded tables.
"""

import os
import pickle
import random
from collections import Counter

import pytest

from repro.core.jaccard import SubsetCounter
from repro.store import (
    RunFormatError,
    RunReader,
    SpillingCounterStore,
    compact_runs,
    decode_key,
    encode_key,
)
from repro.store import spill as spill_module

KEY_POOL = [
    tuple(sorted(sample))
    for sample in [
        ("beer",), ("munich",), ("soccer",), ("beer", "munich"),
        ("beer", "soccer"), ("munich", "soccer"), ("beer", "munich", "soccer"),
        ("pizza",), ("beer", "pizza"), ("oktoberfest",),
    ]
]


def feed(store, n_updates, seed=7, pool=None):
    """Drive seeded-random updates into ``store`` and a reference Counter."""
    rng = random.Random(seed)
    pool = pool or [
        (f"tag{i}", f"tag{j}")
        for i in range(40)
        for j in range(i + 1, 44)
    ]
    reference = Counter()
    for _ in range(n_updates):
        keys = rng.sample(pool, rng.randint(1, 4))
        store.update(keys)
        reference.update(keys)
    return reference


def disk_artifacts(directory):
    return sorted(
        name for name in os.listdir(directory)
        if name.endswith(".run") or name.endswith(".tmp")
    )


class TestLifecycle:
    def test_artifacts_live_under_spill_dir(self, tmp_path):
        store = SpillingCounterStore(spill_dir=str(tmp_path), spill_threshold=50)
        feed(store, 200)
        directory = store.directory
        assert directory is not None
        assert os.path.dirname(directory) == str(tmp_path)
        assert store.stats()["runs_written"] >= 2
        assert disk_artifacts(directory)  # published runs, no strays
        assert all(name.endswith(".run") for name in disk_artifacts(directory))
        store.close()

    def test_clear_removes_every_run_file(self, tmp_path):
        store = SpillingCounterStore(spill_dir=str(tmp_path), spill_threshold=50)
        feed(store, 200)
        directory = store.directory
        store.clear()
        assert disk_artifacts(directory) == []
        assert os.path.isdir(directory)  # the dir survives for the next round
        assert len(store) == 0
        store.close()

    def test_close_removes_the_directory(self, tmp_path):
        store = SpillingCounterStore(spill_dir=str(tmp_path), spill_threshold=50)
        feed(store, 200)
        directory = store.directory
        store.close()
        assert not os.path.exists(directory)
        assert os.listdir(tmp_path) == []

    def test_stray_tmp_swept_on_clear(self, tmp_path):
        """A ``.tmp`` left by a killed writer (simulated) is garbage the
        next clear() collects."""
        store = SpillingCounterStore(spill_dir=str(tmp_path), spill_threshold=50)
        feed(store, 200)
        stray = os.path.join(store.directory, "run-999999.run.tmp")
        with open(stray, "wb") as handle:
            handle.write(b"half a run")
        store.clear()
        assert disk_artifacts(store.directory) == []
        store.close()

    def test_two_stores_never_collide(self, tmp_path):
        a = SpillingCounterStore(spill_dir=str(tmp_path), spill_threshold=10)
        b = SpillingCounterStore(spill_dir=str(tmp_path), spill_threshold=10)
        feed(a, 50, seed=1)
        feed(b, 50, seed=2)
        assert a.directory != b.directory
        a.close()
        assert os.path.isdir(b.directory)
        b.close()


class TestDurabilityOrdering:
    def test_fsync_precedes_publish(self, tmp_path, monkeypatch):
        """The run's bytes are durable before the rename makes it visible:
        for every published run, ``fsync(data fd)`` happens strictly
        before the ``os.replace`` that drops the ``.tmp`` suffix."""
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def spy_fsync(fd):
            events.append(("fsync", fd))
            return real_fsync(fd)

        def spy_replace(src, dst):
            events.append(("replace", src, dst))
            return real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", spy_fsync)
        monkeypatch.setattr(os, "replace", spy_replace)
        store = SpillingCounterStore(spill_dir=str(tmp_path), spill_threshold=25)
        feed(store, 100)
        publishes = [e for e in events if e[0] == "replace"
                     and e[2].endswith(".run")]
        assert publishes  # spills actually happened under the spies
        for publish in publishes:
            position = events.index(publish)
            assert any(e[0] == "fsync" for e in events[:position]), (
                "run published before any fsync"
            )
            # The event immediately preceding each publish is its own
            # data-file fsync (write_run syncs, then renames).
            assert events[position - 1][0] == "fsync"
        store.close()


class TestWindowReadChecks:
    """The fold reads every run through the reader's checked decoder: a
    damaged run fails the fold with the reader's own error, and the
    store still leaves nothing on disk once closed."""

    def make_runs(self, tmp_path, n_runs=6):
        store = SpillingCounterStore(
            spill_dir=str(tmp_path), spill_threshold=1 << 30,
        )
        for index in range(n_runs):
            store.update([(f"tag{index}", f"tag{index + 1}")])
            store.spill()
        assert store.stats()["runs_written"] == n_runs
        return store

    def test_truncated_run_fails_the_fold(self, tmp_path):
        store = self.make_runs(tmp_path)
        directory = store.directory
        victim = os.path.join(directory, disk_artifacts(directory)[-1])
        with open(victim, "r+b") as handle:
            handle.truncate(os.path.getsize(victim) // 2)
        with pytest.raises(RunFormatError):
            store.window_lookup()
        store.close()
        assert not os.path.exists(directory)
        assert os.listdir(tmp_path) == []

    def test_corrupt_block_fails_the_fold(self, tmp_path):
        """A mangled entry inside a block (the header and index intact):
        the window read decodes it and raises, never a wrong count."""
        store = SpillingCounterStore(spill_dir=str(tmp_path), spill_threshold=40)
        feed(store, 200)
        directory = store.directory
        victim = os.path.join(directory, disk_artifacts(directory)[0])
        with open(victim, "r+b") as handle:
            handle.seek(32)  # first entry: shared-prefix length must be 0
            handle.write(b"\x7f")
        with pytest.raises(RunFormatError, match="prefix length"):
            store.window_lookup()
        store.close()
        assert os.listdir(tmp_path) == []

    def test_damaged_run_fails_the_report_fold(self, tmp_path):
        """The same error surfaces through SubsetCounter's report fold."""
        counter = SubsetCounter(
            counter_store="spill", spill_dir=str(tmp_path), spill_threshold=8,
        )
        for index in range(30):
            counter.observe({f"t{index % 7}", f"t{index % 5}", "x"})
        directory = counter._counts.directory
        victim = os.path.join(directory, disk_artifacts(directory)[0])
        with open(victim, "r+b") as handle:
            handle.truncate(40)
        with pytest.raises(RunFormatError):
            counter.report_triples()
        counter.close()
        assert os.listdir(tmp_path) == []


class TestLayeredMerges:
    def test_compact_runs_matches_reference(self, tmp_path):
        """``compact_runs`` (the tracker store's compaction) over count
        runs: a tiny fan-in forces several layers, consumed inputs are
        unlinked, and the one output sums to the reference Counter."""
        store = SpillingCounterStore(spill_dir=str(tmp_path), spill_threshold=40)
        reference = feed(store, 400)
        store.spill()
        paths = [reader.path for reader in store._runs]
        assert len(paths) > 4  # more than two layers at fan-in 2
        outputs = []

        def make_path(layer, index):
            outputs.append(str(tmp_path / f"merge{layer}-{index}.run"))
            return outputs[-1]

        result = compact_runs(paths, make_path, fan_in=2, block_size=256)
        assert result.merges == len(paths) - 1
        assert result.path == outputs[-1]
        assert not any(os.path.exists(path) for path in paths + outputs[:-1])
        reader = RunReader(result.path)
        try:
            assert result.entries == len(reference)
            assert {
                decode_key(key): count for key, count in reader.entries()
            } == dict(reference)
        finally:
            reader.close()
        os.unlink(result.path)
        store._runs = []
        store.close()

    def test_nothing_under_the_store_reads_the_core_count(self):
        """Merges are serial by measurement (docs/PERFORMANCE.md "Spill
        cost"): the host's core count must not pick a code path."""
        store_dir = os.path.dirname(spill_module.__file__)
        for name in sorted(os.listdir(store_dir)):
            if name.endswith(".py"):
                with open(os.path.join(store_dir, name)) as source:
                    text = source.read()
                assert "cpu_count" not in text, name
                assert "import multiprocessing" not in text, name


class TestMappingSemantics:
    def test_spill_timing_is_unobservable(self, tmp_path):
        """Same observations, wildly different spill thresholds → the same
        mapping: lookups, membership, items() order, length."""
        thresholds = [1, 17, 1 << 30]
        stores = [
            SpillingCounterStore(spill_dir=str(tmp_path), spill_threshold=t)
            for t in thresholds
        ]
        references = [feed(store, 300, seed=13) for store in stores]
        assert references[0] == references[1] == references[2]
        reference = references[0]
        baseline_items = list(stores[0].items())
        for store in stores:
            for key, count in reference.items():
                assert store[key] == count
                assert store.get(key) == count
                assert key in store
            absent = ("never", "observed")
            assert store[absent] == 0
            assert store.get(absent) is None
            assert store.get(absent, 0) == 0
            assert absent not in store
            assert len(store) == len(reference)
            assert list(store.items()) == baseline_items
            store.close()

    def test_window_lookup_is_count_preserving(self, tmp_path):
        """A window read answers every key like the reference Counter and
        leaves the store itself untouched (same runs, same items)."""
        store = SpillingCounterStore(spill_dir=str(tmp_path), spill_threshold=30)
        reference = feed(store, 250)
        before = dict(store.items())
        runs = store.stats()["runs_live"]
        lookup = store.window_lookup()
        for key, count in reference.items():
            assert lookup(key) == count
        assert lookup(("never", "observed")) == 0
        stats = store.stats()
        assert stats["runs_live"] == runs > 1
        assert stats["window_reads"] == 1
        assert stats["window_entries_max"] == len(reference)
        assert stats["window_read_seconds"] > 0.0
        assert dict(store.items()) == before == dict(reference)
        store.close()


class TestPickling:
    def test_manifest_round_trip(self, tmp_path):
        store = SpillingCounterStore(spill_dir=str(tmp_path), spill_threshold=40)
        reference = feed(store, 300)
        state = store.__getstate__()
        # The wire payload is a manifest of published paths plus the small
        # hot tail — never RunReader objects or decoded tables.
        assert all(isinstance(path, str) for path in state["manifest"])
        assert len(state["hot"]) < 40
        clone = pickle.loads(pickle.dumps(store))
        assert dict(clone.items()) == dict(reference)
        assert clone.stats()["runs_written"] == store.stats()["runs_written"]
        clone.close()  # the clone adopted the directory and its cleanup
        assert not os.path.exists(store.directory)


class TestConstruction:
    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError, match="spill_threshold"):
            SpillingCounterStore(spill_threshold=0)

    def test_defaults_are_sane(self):
        assert spill_module.DEFAULT_SPILL_THRESHOLD >= 1024
        assert spill_module.COUNTER_STORES == ("dict", "spill")
