"""Reader fuzz: a damaged run raises ``RunFormatError`` or decodes — nothing else.

Single-byte flips, truncations and extensions of the committed golden run
and of a generated raw-value run.  Opening the file, draining
``entries()``, probing ``get()`` and decoding what comes back (keys, and
the Tracker's coefficient records) must either return or raise the one
pinned error; an ``IndexError``, ``struct.error``, ``UnicodeDecodeError``,
``OverflowError`` or ``MemoryError`` escaping the reader is a bug, and so
is a key or value longer than the file it came from.
"""

import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.store import RunFormatError, RunReader, decode_key, encode_key, write_run
from repro.store.tracker import decode_value, encode_value
from test_format import GOLDEN_PATH, GOLDEN_TABLE, sorted_entries

GOLDEN_BYTES = GOLDEN_PATH.read_bytes()

RAW_TABLE = {
    ("beer",): (0.25, 14, 2),
    ("beer", "munich"): (0.5, 10, 1),
    ("beer", "munich", "soccer"): (1 / 3, 200, 1),     # two-byte support
    ("münchen",): (1.0, 3, 300),                        # two-byte reports
    ("friday", "sunny"): (0.125, 1, 1),
    ("a" * 130,): (0.75, 1 << 20, 1 << 20),
}


@pytest.fixture(scope="module")
def raw_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "raw.run"
    rows = sorted(
        (encode_key(key), encode_value(*value)) for key, value in RAW_TABLE.items()
    )
    write_run(path, rows, block_size=48, raw_values=True)
    return path.read_bytes()


def exercise(data: bytes):
    """Everything a store does with a run, over ``data`` as the file.
    Returns the drained entries, or ``None`` if the reader refused it."""
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "fuzzed.run")
        with open(path, "wb") as handle:
            handle.write(data)
        try:
            reader = RunReader(path)
        except RunFormatError:
            return None
        try:
            entries = list(reader.entries())
            for key, value in entries:
                assert len(key) <= len(data)
                if reader.raw_values:
                    assert len(value) <= len(data)
                reader.get(key)
            reader.get(b"")
            reader.get(b"\xff" * 8)
        except RunFormatError:
            return None
        finally:
            reader.close()
        for key, value in entries:
            try:
                decode_key(key)
                if isinstance(value, bytes):
                    decode_value(value)
            except RunFormatError:
                pass
        return entries


mutations = st.one_of(
    st.tuples(st.just("flip"), st.floats(0, 1, exclude_max=True), st.integers(1, 255)),
    st.tuples(st.just("truncate"), st.floats(0, 1, exclude_max=True), st.just(0)),
    st.tuples(st.just("extend"), st.integers(1, 40), st.integers(0, 255)),
)


def flip(data: bytes, position: int, mask: int) -> bytes:
    return data[:position] + bytes([data[position] ^ mask]) + data[position + 1:]


def mutate(data: bytes, mutation) -> bytes:
    kind, where, value = mutation
    if kind == "flip":
        return flip(data, int(where * len(data)), value)
    if kind == "truncate":
        return data[:int(where * len(data))]
    return data + bytes([value]) * where


class TestReaderFuzz:
    def test_unmodified_golden_run_decodes_to_the_golden_table(self):
        assert exercise(GOLDEN_BYTES) == sorted_entries(GOLDEN_TABLE)

    def test_unmodified_raw_run_decodes_to_its_table(self, raw_bytes):
        decoded = {
            decode_key(key): decode_value(value)
            for key, value in exercise(raw_bytes)
        }
        assert decoded == RAW_TABLE

    @given(mutation=mutations)
    @settings(max_examples=400, deadline=None)
    def test_damaged_count_run(self, mutation):
        exercise(mutate(GOLDEN_BYTES, mutation))

    @given(mutation=mutations)
    @settings(max_examples=400, deadline=None)
    def test_damaged_raw_value_run(self, raw_bytes, mutation):
        exercise(mutate(raw_bytes, mutation))

    def test_every_single_byte_flip_of_the_golden_run(self):
        """Exhaustive over positions (one mask each way): small enough to
        sweep, and the header and index bytes are where extents live."""
        for position in range(len(GOLDEN_BYTES)):
            for mask in (0x01, 0x80, 0xFF):
                exercise(flip(GOLDEN_BYTES, position, mask))

    def test_invalid_utf8_in_a_key_is_a_format_error(self):
        with pytest.raises(RunFormatError, match="utf-8"):
            decode_key(b"\x01\x02\xff\xfe")
