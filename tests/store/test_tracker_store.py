"""The spilling tracker store: dedup-as-merge-combiner, spills, snapshots.

The Tracker's dedup rule (max-support wins, ties keep the incumbent,
report counts sum) must behave identically whether a tagset's reports all
land in the hot dict or are sliced arbitrarily across spilled runs and
layered compactions.  These tests pin that equivalence against a plain
dict model, plus the machinery around it: the raw-value run format the
store spills into, duplicate accounting across segments, crash/abort
hygiene of the spill directory, the refusal to be pickled (the store never
leaves its process), and the run-backed service snapshot
(immutable, digest-identical to the dict snapshot, stable under further
ingest).
"""

import os
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.operators.tracker import TrackerSnapshot
from repro.store import (
    FLAG_RAW_VALUES,
    RunFormatError,
    RunReader,
    SpillingTrackerStore,
    StoreConfig,
    combine_max_support,
    encode_key,
    write_run,
)
from repro.store.merge import merge_runs
from repro.store.tracker import decode_value, encode_value


def make_store(tmp_path, threshold=4, **overrides):
    config = StoreConfig(
        spill_dir=str(tmp_path),
        spill_threshold=threshold,
        **overrides,
    )
    return SpillingTrackerStore(config=config)


class DictModel:
    """The in-RAM dedup rule, verbatim from the dict-backed TrackerBolt."""

    def __init__(self):
        self.best = {}
        self.received = 0
        self.duplicates = 0

    def ingest(self, triples):
        for tags, jaccard, support in triples:
            self.received += 1
            key = frozenset(tags)
            entry = self.best.get(key)
            if entry is None:
                self.best[key] = [float(jaccard), int(support), 1]
            else:
                self.duplicates += 1
                entry[2] += 1
                if support > entry[1]:
                    entry[0] = float(jaccard)
                    entry[1] = int(support)

    def records(self):
        return {key: tuple(entry) for key, entry in self.best.items()}


# --------------------------------------------------------------------- #
# Value codec + combiner
# --------------------------------------------------------------------- #
records = st.tuples(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    st.integers(1, 1 << 40),
    st.integers(1, 1 << 20),
)


class TestCodecAndCombiner:
    @given(record=records)
    @settings(max_examples=200, deadline=None)
    def test_round_trip_is_exact(self, record):
        jaccard, support, reports = decode_value(encode_value(*record))
        # Bit-exact double round-trip: repr() must match what the
        # Calculator emitted (the digest equivalence depends on it).
        assert repr(jaccard) == repr(record[0])
        assert (support, reports) == record[1:]

    def test_strictly_greater_support_displaces(self):
        folded = combine_max_support(
            encode_value(0.5, 10, 3), encode_value(0.9, 11, 2)
        )
        assert decode_value(folded) == (0.9, 11, 5)

    def test_equal_support_keeps_incumbent(self):
        folded = combine_max_support(
            encode_value(0.5, 10, 3), encode_value(0.9, 10, 2)
        )
        assert decode_value(folded) == (0.5, 10, 5)

    @pytest.mark.parametrize("damaged", [
        b"",
        b"\x00" * 7,                              # shorter than the double
        b"\x00" * 8,                              # no support varint
        b"\x00" * 8 + b"\x01",                    # no reports varint
        b"\x00" * 8 + b"\x81",                    # support varint cut short
        b"\x00" * 8 + b"\x81\x01",                # 10 bytes, but not 1 + 1
        b"\x00" * 8 + b"\x01\x01\xff\xff",        # trailing bytes
        b"\x00" * 8 + b"\x01\x81\x01\x00",        # trailing byte, slow path
    ])
    def test_damaged_record_is_a_format_error(self, damaged):
        """A damaged raw-value run must not mis-decode a coefficient: too
        short (used to leak ``struct.error``) and trailing bytes (used to
        be ignored) are both the reader's pinned error."""
        with pytest.raises(RunFormatError):
            decode_value(damaged)
        with pytest.raises(RunFormatError):
            combine_max_support(encode_value(0.5, 3, 1), damaged)

    @given(values=st.lists(records, min_size=2, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_any_segmentation_folds_identically(self, values):
        """Associativity over the report sequence: folding left-to-right
        one at a time equals folding any prefix first."""
        encoded = [encode_value(*value) for value in values]
        sequential = encoded[0]
        for value in encoded[1:]:
            sequential = combine_max_support(sequential, value)
        for split in range(1, len(encoded)):
            left = encoded[0]
            for value in encoded[1:split]:
                left = combine_max_support(left, value)
            right = encoded[split]
            for value in encoded[split + 1:]:
                right = combine_max_support(right, value)
            assert combine_max_support(left, right) == sequential


# --------------------------------------------------------------------- #
# Raw-value run format
# --------------------------------------------------------------------- #
class TestRawValueFormat:
    def rows(self):
        table = {
            ("beer",): (0.25, 14, 2),
            ("beer", "munich"): (0.5, 10, 1),
            ("münchen",): (1.0, 3, 7),
        }
        return sorted(
            (encode_key(key), encode_value(*value))
            for key, value in table.items()
        )

    def test_round_trip(self, tmp_path):
        path = tmp_path / "raw.run"
        rows = self.rows()
        result = write_run(path, rows, block_size=24, raw_values=True)
        assert result.entries == len(rows)
        reader = RunReader(path)
        try:
            assert reader.raw_values is True
            assert list(reader.entries()) == rows
            for key, value in rows:
                assert reader.get(key) == value
            assert reader.get(encode_key(("nope",))) is None
        finally:
            reader.close()

    def test_count_runs_report_no_raw_flag(self, tmp_path):
        path = tmp_path / "counts.run"
        write_run(path, [(encode_key(("beer",)), 3)])
        reader = RunReader(path)
        try:
            assert reader.raw_values is False
        finally:
            reader.close()

    def test_unknown_flag_bits_rejected(self, tmp_path):
        path = tmp_path / "raw.run"
        write_run(path, self.rows(), raw_values=True)
        data = bytearray(path.read_bytes())
        data[6] |= 0x80  # set an undefined flag bit
        bad = tmp_path / "future.run"
        bad.write_bytes(bytes(data))
        with pytest.raises(RunFormatError, match="flag"):
            RunReader(bad)

    def test_empty_values_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_run(
                tmp_path / "x.run",
                [(encode_key(("beer",)), b"")],
                raw_values=True,
            )

    def test_mixed_raw_and_count_merge_rejected(self, tmp_path):
        raw = tmp_path / "raw.run"
        counts = tmp_path / "counts.run"
        write_run(raw, self.rows(), raw_values=True)
        write_run(counts, [(encode_key(("beer",)), 3)])
        with pytest.raises(ValueError, match="raw-value"):
            merge_runs([str(raw), str(counts)], str(tmp_path / "out.run"))

    def test_raw_merge_uses_the_combiner(self, tmp_path):
        a = tmp_path / "a.run"
        b = tmp_path / "b.run"
        key = encode_key(("beer",))
        write_run(a, [(key, encode_value(0.5, 10, 3))], raw_values=True)
        write_run(b, [(key, encode_value(0.9, 10, 2))], raw_values=True)
        merge_runs(
            [str(a), str(b)], str(tmp_path / "out.run"),
            combine=combine_max_support,
        )
        reader = RunReader(tmp_path / "out.run")
        try:
            # Oldest-first fold: equal support keeps a's record.
            assert decode_value(reader.get(key)) == (0.5, 10, 5)
        finally:
            reader.close()


# --------------------------------------------------------------------- #
# Store ≡ dict model
# --------------------------------------------------------------------- #
def random_triples(seed, n, vocabulary=40):
    rng = random.Random(seed)
    tags = [f"tag{i}" for i in range(vocabulary)]
    triples = []
    for _ in range(n):
        size = rng.randint(1, 3)
        tagset = tuple(sorted(rng.sample(tags, size)))
        triples.append((tagset, rng.random(), rng.randint(1, 50)))
    return triples


class TestStoreEqualsDictModel:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("threshold", [2, 7, 10_000])
    def test_records_and_duplicates_identical(self, tmp_path, seed, threshold):
        """Any spill timing — every two entries, every seven, or never —
        folds back to the dict model's exact records and duplicate count."""
        triples = random_triples(seed, 600)
        model = DictModel()
        model.ingest(triples)
        store = make_store(tmp_path, threshold=threshold)
        try:
            received, duplicates = store.ingest(triples)
            assert received == len(triples)
            assert duplicates == model.duplicates
            assert len(store) == len(model.best)
            folded = {
                key: (jaccard, support, reports)
                for key, jaccard, support, reports in store.iter_entries()
            }
            assert folded == model.records()
            for key, expected in model.records().items():
                assert store.get(key) == expected
                assert key in store
            assert store.get(frozenset({"never-reported"})) is None
            if threshold <= 7:
                assert store.stats()["runs_written"] > 0
        finally:
            store.close()

    def test_iteration_order_is_spill_invariant(self, tmp_path):
        triples = random_triples(5, 300)
        a = make_store(tmp_path, threshold=3)
        b = make_store(tmp_path, threshold=50)
        try:
            a.ingest(triples)
            b.ingest(triples)
            assert list(a.iter_entries()) == list(b.iter_entries())
        finally:
            a.close()
            b.close()

    def test_compaction_bounds_live_runs(self, tmp_path):
        store = make_store(tmp_path, threshold=2, merge_fan_in=3)
        try:
            store.ingest(random_triples(6, 400))
            assert store.stats()["runs_live"] < 3
            assert store.stats()["merges"] > 0
        finally:
            store.close()


# --------------------------------------------------------------------- #
# Directory hygiene
# --------------------------------------------------------------------- #
class TestHygiene:
    def test_close_removes_the_spill_directory(self, tmp_path):
        store = make_store(tmp_path, threshold=2)
        store.ingest(random_triples(7, 50))
        assert store.directory is not None
        store.close()
        assert os.listdir(tmp_path) == []

    def test_clear_keeps_directory_but_drops_records(self, tmp_path):
        store = make_store(tmp_path, threshold=2)
        try:
            store.ingest(random_triples(7, 50))
            store.clear()
            assert len(store) == 0
            assert list(store.iter_entries()) == []
            assert store.stats()["runs_live"] == 0
        finally:
            store.close()

    def test_failed_merge_sweeps_run_files(self, tmp_path, monkeypatch):
        """An aborted compaction leaves no orphaned runs on disk."""
        from repro.store import merge as merge_module

        store = make_store(tmp_path, threshold=2, merge_fan_in=2)
        store.ingest(random_triples(8, 6))  # below the compaction trigger

        def exploding(sources, destination, *, block_size, combine=None):
            raise RuntimeError("injected merge failure")

        monkeypatch.setattr(merge_module, "merge_runs", exploding)
        store.spill()  # force a second run
        with pytest.raises(RuntimeError, match="injected"):
            store.ingest(random_triples(9, 40))
        directory = store.directory
        assert not any(
            name.endswith((".run", ".tmp")) for name in os.listdir(directory)
        )
        store.close()
        assert os.listdir(tmp_path) == []

    def test_gc_finalizer_backstops_close(self, tmp_path):
        store = make_store(tmp_path, threshold=2)
        store.ingest(random_triples(10, 50))
        del store
        import gc

        gc.collect()
        assert os.listdir(tmp_path) == []


# --------------------------------------------------------------------- #
# Pickling (refused: the store never leaves its process)
# --------------------------------------------------------------------- #
class TestPickle:
    @pytest.mark.parametrize("threshold", [5, 10_000])  # spilled / unspilled
    def test_pickling_is_refused_clearly(self, tmp_path, threshold):
        store = make_store(tmp_path, threshold=threshold)
        store.ingest(random_triples(11, 300))
        before = list(store.iter_entries())
        try:
            with pytest.raises(TypeError, match="SpillingTrackerStore is not picklable"):
                pickle.dumps(store)
            # The refusal detached nothing: the store still answers and
            # still owns (and removes) its directory.
            assert list(store.iter_entries()) == before
        finally:
            store.close()
        assert os.listdir(tmp_path) == []


# --------------------------------------------------------------------- #
# Run-backed snapshots (service mode)
# --------------------------------------------------------------------- #
class TestRunBackedSnapshot:
    def dict_snapshot(self, model, round_index=3):
        entries = {
            key: (entry[0], entry[1]) for key, entry in model.best.items()
        }
        return TrackerSnapshot(
            round_index=round_index,
            reports_received=model.received,
            duplicate_reports=model.duplicates,
            layers=(entries,),
            size=len(entries),
        )

    def test_digest_and_top_k_match_the_dict_snapshot(self, tmp_path):
        triples = random_triples(13, 500)
        model = DictModel()
        model.ingest(triples)
        store = make_store(tmp_path, threshold=7)
        try:
            store.ingest(triples)
            snapshot = store.snapshot(3, model.received, model.duplicates)
            reference = self.dict_snapshot(model)
            try:
                assert snapshot.digest() == reference.digest()
                assert snapshot.top_k(k=25) == reference.top_k(k=25)
                assert snapshot.top_k(k=10, min_support=5) == (
                    reference.top_k(k=10, min_support=5)
                )
                assert len(snapshot) == len(reference)
                for key, entry in model.best.items():
                    assert snapshot.coefficient(key) == (entry[0], entry[1])
                assert snapshot.coefficient(frozenset({"nope"})) is None
            finally:
                snapshot.close()
        finally:
            store.close()

    def test_snapshot_is_stable_under_further_ingest(self, tmp_path):
        """The snapshot keeps answering its round even after the store
        spills, compacts and unlinks the files it was opened over."""
        first = random_triples(14, 200)
        store = make_store(tmp_path, threshold=5, merge_fan_in=2)
        try:
            store.ingest(first)
            snapshot = store.snapshot(1, len(first), 0)
            try:
                digest = snapshot.digest()
                top = snapshot.top_k(k=10)
                store.ingest(random_triples(15, 400))  # spills + compacts
                assert snapshot.digest() == digest
                assert snapshot.top_k(k=10) == top
            finally:
                snapshot.close()
        finally:
            store.close()

    def test_snapshot_close_releases_the_run_files(self, tmp_path):
        store = make_store(tmp_path, threshold=5)
        try:
            store.ingest(random_triples(16, 100))
            snapshot = store.snapshot(1, 100, 0)
            assert len(snapshot._readers) > 0
            snapshot.close()
            assert all(reader._map.closed for reader in snapshot._readers)
        finally:
            store.close()
