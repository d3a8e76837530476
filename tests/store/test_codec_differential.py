"""Differential suite: the fast codec writes and reads the reference's bytes.

``repro.store.format`` / ``repro.store.tracker`` take every per-entry step
in a handful of C-level calls; ``reference_codec`` is the byte-at-a-time
code they replaced.  "Same RSC1 bytes on disk" is asserted here as a
property — new writer ≡ reference writer byte for byte, new reader over
reference bytes ≡ reference reader over new bytes — with strategies aimed
at every place a fast path hands over to the varint loop: lengths,
prefixes, counts and values of 127 / 128 / 16 383 / 16 384, strict-prefix
neighbours, one-entry blocks, multi-byte tags, and a tag vocabulary larger
than the chunk cache.
"""

import os
import struct
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_codec as reference
from repro.store import RunReader, encode_key, write_run
from repro.store import format as run_format
from repro.store.tracker import combine_max_support, decode_value, encode_value

#: One- / two- / three-byte uvarint boundaries, and their neighbours.
BOUNDARIES = (0, 1, 126, 127, 128, 129, 16_383, 16_384)

lengths = st.sampled_from(BOUNDARIES) | st.integers(0, 40)

# --------------------------------------------------------------------- #
# Runs: arbitrary strictly sorted byte keys, count and raw values
# --------------------------------------------------------------------- #
#: A family of keys sharing ``prefix_len`` bytes of one fill byte.  Few
#: distinct fill bytes, so families overlap and a shorter family's bare
#: prefix (the empty suffix) is a strict prefix of its successors.
families = st.tuples(
    st.sampled_from((0x00, 0x61, 0x7F, 0x80, 0xFF)),
    lengths,
    st.lists(
        st.binary(max_size=6)
        | st.builds(lambda fill, n: bytes([fill]) * n, st.integers(0, 255), lengths),
        min_size=1, max_size=5,
    ),
)


@st.composite
def sorted_keys(draw):
    keys = set()
    for fill, prefix_len, suffixes in draw(st.lists(families, min_size=1, max_size=4)):
        prefix = bytes([fill]) * prefix_len
        keys.update(prefix + suffix for suffix in suffixes)
    return sorted(keys)


counts = st.sampled_from((1, 127, 128, 16_383, 16_384, (1 << 63) - 1)) | st.integers(1, 300)
raw_values = st.builds(
    lambda fill, n: bytes([fill]) * n,
    st.integers(0, 255),
    st.sampled_from((1, 10, 127, 128, 16_383, 16_384)) | st.integers(1, 40),
)
block_sizes = st.sampled_from((1, 64, 4096, 1 << 20))


@st.composite
def runs(draw):
    """``(entries, raw, block_size)`` of one valid run."""
    keys = draw(sorted_keys())
    raw = draw(st.booleans())
    values = draw(st.lists(
        raw_values if raw else counts, min_size=len(keys), max_size=len(keys)
    ))
    return list(zip(keys, values)), raw, draw(block_sizes)


def drain(path):
    reader = RunReader(path)
    try:
        return list(reader.entries())
    finally:
        reader.close()


def file_bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


class TestRunBytes:
    @given(run=runs())
    @settings(max_examples=150, deadline=None)
    def test_writer_and_reader_match_the_reference(self, run):
        entries, raw, block_size = run
        with tempfile.TemporaryDirectory() as work:
            fast = os.path.join(work, "fast.run")
            slow = os.path.join(work, "slow.run")
            fast_result = write_run(
                fast, entries, block_size=block_size, raw_values=raw
            )
            slow_result = reference.write_run(
                slow, entries, block_size=block_size, raw_values=raw
            )
            assert file_bytes(fast) == file_bytes(slow)
            assert fast_result.entries == slow_result.entries == len(entries)
            assert fast_result.blocks == slow_result.blocks
            assert fast_result.file_bytes == slow_result.file_bytes
            # new reader over reference bytes = reference reader over new bytes
            assert drain(slow) == reference.read_run(fast) == entries
            reader = RunReader(slow)
            try:
                for key, value in entries:
                    assert reader.get(key) == value
            finally:
                reader.close()

    def test_one_entry_blocks_restart_every_prefix(self, tmp_path):
        """``block_size=1`` closes a block after each entry, so every key
        is a block's first key and is stored whole."""
        entries = [(b"a" * n, n + 1) for n in (1, 127, 128, 129)]
        fast, slow = tmp_path / "fast.run", tmp_path / "slow.run"
        result = write_run(fast, entries, block_size=1)
        reference.write_run(slow, entries, block_size=1)
        assert result.blocks == len(entries)
        assert file_bytes(fast) == file_bytes(slow)
        assert drain(fast) == entries


# --------------------------------------------------------------------- #
# Keys
# --------------------------------------------------------------------- #
def tag_of_encoded_length(char, n):
    """A tag of ``char`` whose utf-8 form is as close to ``n`` bytes as
    whole characters allow."""
    return char * (n // len(char.encode("utf-8")))


boundary_tags = st.builds(
    tag_of_encoded_length,
    st.sampled_from(("a", "ü", "世", "🍺")),
    st.sampled_from((126, 127, 128, 129, 130, 132, 16_383, 16_384, 16_386)),
)
tags = st.text(max_size=12) | boundary_tags
keys = st.lists(tags, max_size=5).map(tuple) | st.builds(
    # 127 / 128 tags: the tag *count* crosses the one-byte boundary too
    lambda n, tag: (tag,) * n, st.sampled_from((127, 128, 129)), st.text(max_size=3)
)


class TestKeyBytes:
    @given(key=keys)
    @settings(max_examples=300, deadline=None)
    def test_encode_key_matches_the_reference(self, key):
        assert encode_key(key) == reference.encode_key(key)

    def test_empty_key(self):
        assert encode_key(()) == reference.encode_key(()) == b"\x00"

    def test_vocabulary_larger_than_the_chunk_cache(self):
        """Evicted tags re-encode to the same bytes, and the cache stays
        bounded however many distinct tags pass through."""
        vocabulary = [
            f"tag{index}-é" for index in range(run_format.TAG_CHUNK_CACHE_SIZE + 500)
        ]
        table = [
            tuple(vocabulary[index:index + 3]) for index in range(len(vocabulary))
        ]
        for _sweep in range(2):  # the second sweep re-enters evicted tags
            for key in table:
                assert encode_key(key) == reference.encode_key(key)
        info = run_format._tag_chunk.cache_info()
        assert info.maxsize == run_format.TAG_CHUNK_CACHE_SIZE
        assert info.currsize <= info.maxsize


# --------------------------------------------------------------------- #
# The Tracker's coefficient record
# --------------------------------------------------------------------- #
small_or_large = st.sampled_from((0, 1, 126, 127, 128, 129, 16_383, 16_384, 1 << 40))
jaccards = st.floats(allow_nan=False) | st.sampled_from((0.0, -0.0, 1.0, 5e-324, 1 / 3))
records = st.tuples(jaccards, small_or_large, small_or_large)


def same_record(a, b):
    """Records equal down to the jaccard's sign bit (``-0.0 == 0.0``)."""
    return struct.pack("<d", a[0]) == struct.pack("<d", b[0]) and a[1:] == b[1:]


class TestRecordBytes:
    @given(record=records)
    @settings(max_examples=300, deadline=None)
    def test_encode_and_decode_match_the_reference(self, record):
        data = encode_value(*record)
        assert data == reference.encode_value(*record)
        assert same_record(decode_value(data), reference.decode_value(data))
        assert same_record(decode_value(data), record)

    @given(old=records, new=records)
    @settings(max_examples=300, deadline=None)
    def test_combine_matches_the_reference(self, old, new):
        """Over both paths: either side, and the summed report count, may
        sit on the fixed 10-byte layout or on the varint one."""
        old_bytes, new_bytes = encode_value(*old), encode_value(*new)
        assert combine_max_support(old_bytes, new_bytes) == (
            reference.combine_max_support(old_bytes, new_bytes)
        )

    def test_report_sum_crossing_128_leaves_the_fixed_layout(self):
        folded = combine_max_support(
            encode_value(0.5, 9, 100), encode_value(0.9, 9, 28)
        )
        assert len(folded) == 11
        assert decode_value(folded) == (0.5, 9, 128)
