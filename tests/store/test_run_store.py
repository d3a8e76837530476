"""The run lifecycle both spilling stores share (``RunStore``).

Both stores own real on-disk state through the one lifecycle, so each
behaviour below is pinned for the counter store and the tracker store
alike:

* every artefact lives inside the store's private ``mkdtemp`` under the
  configured ``spill_dir``; two stores never share one;
* ``clear()`` removes every run file (a stray ``.tmp`` too) and keeps the
  directory, ``close()`` removes the directory, and a GC finalizer
  backstops a forgotten ``close()`` — no orphans, ever;
* a failed publish (and, in the tracker store, a failed compaction) leaves
  no ``.run`` / ``.tmp`` behind;
* the pickling rule: a store pickles only while it holds no records, and
  then ships its config and cumulative counters — never a directory.
"""

import gc
import os
import pickle
import random

import pytest

from repro.store import SpillingCounterStore, SpillingTrackerStore, StoreConfig
from repro.store import tracker as tracker_module

STORES = ["counter", "tracker"]


def make_store(kind, root, threshold=10, **overrides):
    cls = SpillingCounterStore if kind == "counter" else SpillingTrackerStore
    return cls(
        StoreConfig(spill_dir=str(root), spill_threshold=threshold, **overrides)
    )


def fill(store, n=60, seed=7):
    """Seeded records into ``store``: counter keys or tracker triples."""
    rng = random.Random(seed)
    tags = [f"tag{i}" for i in range(30)]
    for _ in range(n):
        tagset = tuple(sorted(rng.sample(tags, rng.randint(1, 3))))
        if isinstance(store, SpillingCounterStore):
            store.update([tagset])
        else:
            store.ingest([(tagset, rng.random(), rng.randint(1, 50))])


def disk_artifacts(directory):
    return sorted(
        name for name in os.listdir(directory)
        if name.endswith(".run") or name.endswith(".tmp")
    )


@pytest.mark.parametrize("kind", STORES)
class TestLifecycle:
    def test_artifacts_live_under_spill_dir(self, tmp_path, kind):
        store = make_store(kind, tmp_path)
        fill(store)
        directory = store.directory
        assert directory is not None
        assert os.path.dirname(directory) == str(tmp_path)
        assert store.stats()["runs_written"] >= 2
        assert disk_artifacts(directory)  # published runs, no strays
        assert all(name.endswith(".run") for name in disk_artifacts(directory))
        store.close()

    def test_clear_removes_every_run_file_and_keeps_the_directory(
        self, tmp_path, kind
    ):
        """Runs and a ``.tmp`` left by a killed writer (simulated) are
        garbage the next clear() collects; the dir survives the round."""
        store = make_store(kind, tmp_path)
        fill(store)
        directory = store.directory
        stray = os.path.join(directory, "run-999999.run.tmp")
        with open(stray, "wb") as handle:
            handle.write(b"half a run")
        store.clear()
        assert disk_artifacts(directory) == []
        assert os.path.isdir(directory)
        assert len(store) == 0
        assert list(store._merged_encoded()) == []
        assert store.stats()["runs_live"] == store.stats()["hot_entries"] == 0
        store.close()

    def test_close_removes_the_directory(self, tmp_path, kind):
        store = make_store(kind, tmp_path)
        fill(store)
        directory = store.directory
        store.close()
        assert not os.path.exists(directory)
        assert os.listdir(tmp_path) == []

    def test_gc_finalizer_backstops_close(self, tmp_path, kind):
        store = make_store(kind, tmp_path)
        fill(store)
        assert os.listdir(tmp_path) != []
        del store
        gc.collect()
        assert os.listdir(tmp_path) == []

    def test_two_stores_never_collide(self, tmp_path, kind):
        a = make_store(kind, tmp_path)
        b = make_store(kind, tmp_path)
        fill(a, seed=1)
        fill(b, seed=2)
        assert a.directory != b.directory
        a.close()
        assert os.path.isdir(b.directory)
        assert disk_artifacts(b.directory)
        b.close()

    def test_failed_publish_leaves_nothing_behind(
        self, tmp_path, kind, monkeypatch
    ):
        """A spill whose data-file fsync fails publishes nothing and
        leaves no ``.tmp``: the directory holds exactly the runs it held
        before, and close() still removes everything."""
        store = make_store(kind, tmp_path, threshold=1 << 30)
        fill(store, n=20, seed=3)
        store.spill()
        before = disk_artifacts(store.directory)
        fill(store, n=20, seed=4)

        def failing_fsync(fd):
            raise OSError("injected fsync failure")

        monkeypatch.setattr(os, "fsync", failing_fsync)
        with pytest.raises(OSError, match="injected"):
            store.spill()
        monkeypatch.undo()
        assert disk_artifacts(store.directory) == before
        assert store.stats()["runs_written"] == 1
        store.close()
        assert os.listdir(tmp_path) == []


def test_failed_merge_sweeps_run_files(tmp_path, monkeypatch):
    """An aborted tracker compaction leaves no orphaned runs on disk."""
    store = make_store("tracker", tmp_path, threshold=2, merge_fan_in=2)
    fill(store, n=1, seed=8)  # below the compaction trigger

    def exploding(sources, destination, *, block_size, combine=None):
        raise RuntimeError("injected merge failure")

    monkeypatch.setattr(tracker_module, "merge_runs", exploding)
    store.spill()  # one live run
    with pytest.raises(RuntimeError, match="injected"):
        fill(store, n=40, seed=9)
    assert disk_artifacts(store.directory) == []
    store.close()
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("kind", STORES)
class TestPickling:
    def test_live_runs_refuse_and_the_sender_keeps_its_directory(
        self, tmp_path, kind
    ):
        """A store holding runs refuses to pickle (a copy would be a
        second owner of its directory); the sender keeps spilling, and
        close() still removes its directory."""
        store = make_store(kind, tmp_path)
        fill(store, n=100)
        assert store.stats()["runs_live"] > 0
        with pytest.raises(TypeError, match="is not picklable"):
            pickle.dumps(store)
        written = store.stats()["runs_written"]
        fill(store, n=100, seed=8)
        store.spill()
        assert store.stats()["runs_written"] > written
        directory = store.directory
        store.close()
        assert not os.path.exists(directory)
        assert os.listdir(tmp_path) == []

    def test_a_closed_store_round_trips_its_stats(self, tmp_path, kind):
        """What the process executor sends back from a worker: a drained,
        closed store — config and counters cross, no directory does."""
        store = make_store(kind, tmp_path, block_size=512)
        fill(store, n=100)
        store.close()
        clone = pickle.loads(pickle.dumps(store))
        assert type(clone) is type(store)
        assert clone.config == store.config
        assert clone.stats() == store.stats()
        assert clone.stats()["runs_written"] > 0
        assert clone.directory is None
        assert len(clone) == 0
        fill(clone, n=100, seed=5)  # a working store again
        assert clone.directory is not None
        clone.close()
        assert os.listdir(tmp_path) == []
