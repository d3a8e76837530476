"""Versioned on-disk format of spilled counter runs.

A *run* is an immutable, sorted snapshot of one frozen counter segment —
the out-of-core half of :class:`repro.store.SpillingCounterStore`.  The
layout follows the classic search-engine posting file (sorted runs →
blocked, prefix-compressed records + an in-RAM lexicon; see SNIPPETS.md):

::

    ┌────────────────────────────────────────────────────────────┐
    │ header (32 bytes, little-endian)                           │
    │   magic "RSC1" · version u16 · flags u16 · block_size u32  │
    │   n_entries u64 · n_blocks u32 · index_offset u64          │
    ├────────────────────────────────────────────────────────────┤
    │ block 0 … block n−1   (back to back, ~block_size payload)  │
    │   entry := uvarint shared_prefix_len                       │
    │            uvarint suffix_len · suffix bytes               │
    │            uvarint count            (flags = 0)            │
    │          | uvarint value_len · value bytes  (RAW_VALUES)   │
    │   (prefix lengths are relative to the previous entry of    │
    │    the same block; the first entry restarts at 0)          │
    ├────────────────────────────────────────────────────────────┤
    │ lexicon / fence-pointer index (kept in RAM by readers)     │
    │   per block: uvarint key_len · first key bytes ·           │
    │              offset u64 · length u32 · n_entries u32       │
    └────────────────────────────────────────────────────────────┘

Keys are tag tuples encoded as ``uvarint n_tags · (uvarint len · utf-8)*``
and ordered by their *encoded bytes* — a total order that every writer,
merger and reader shares, so equal keys collate across runs regardless of
which segment spilled them.  A run carries one of two value layouts,
declared by the header flags: the default (flags = 0) stores strictly
positive uvarint *counts* (observations only ever increment, which is what
lets readers treat "absent" as 0); :data:`FLAG_RAW_VALUES` stores opaque
length-prefixed byte strings instead — the Tracker's coefficient records —
whose meaning is the caller's business.  Readers reject flag bits they do
not understand, so pre-flag files (always written with flags = 0) stay
readable forever.

Writers are crash-safe: the file is written to a ``.tmp`` sibling,
``fsync``'d, and only then renamed into place (the *manifest publish* — a
run either exists completely or not at all).  Readers memory-map the file,
hold only the lexicon in RAM and decode blocks on demand through a shared
LRU :class:`BlockCache`; any structural damage (bad magic, unknown
version, truncated varints, out-of-range block extents) raises
:class:`RunFormatError` instead of returning garbage counts.

The writer's entry loop, :func:`encode_key` and the block decoder avoid
per-byte Python loops (almost every varint of a run is one byte).  The
byte-at-a-time code they replaced is kept verbatim in
``tests/store/reference_codec.py`` and the differential suite holds these
paths to it byte for byte — change both or neither.
"""

from __future__ import annotations

import itertools
import mmap
import os
import struct
from bisect import bisect_right
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Iterable, Iterator

#: First four bytes of every run file ("Repro Subset Counters", layout 1).
MAGIC = b"RSC1"

#: Bumped on any change to the byte layout; readers reject other versions.
FORMAT_VERSION = 1

#: Header flag: entry values are opaque length-prefixed byte strings
#: rather than uvarint counts (the tracker store's coefficient records).
FLAG_RAW_VALUES = 1

#: Every flag bit this reader understands; anything else is a foreign file.
_KNOWN_FLAGS = FLAG_RAW_VALUES

#: Target payload bytes per block.  Small enough that decoding one block on
#: a cache miss stays cheap, large enough that prefix compression has
#: context to work with.
DEFAULT_BLOCK_SIZE = 4096

_HEADER = struct.Struct("<4sHHIQIQ")
_INDEX_TAIL = struct.Struct("<QII")

#: The one-byte uvarints.  Almost every length, prefix and count of a run
#: is below 128, so the codec's fast paths never enter the varint loops.
_ONE_BYTE = tuple(bytes((value,)) for value in range(128))

#: Tags whose encoded chunk :func:`encode_key` keeps (LRU).
TAG_CHUNK_CACHE_SIZE = 4096

#: Process-wide token source distinguishing readers inside a shared
#: :class:`BlockCache` (ids of dead readers must never collide with new
#: ones, so plain ``id()`` cannot key the cache).
_READER_TOKENS = itertools.count(1)


class RunFormatError(RuntimeError):
    """A run file is structurally invalid (corrupt, truncated or foreign)."""


# --------------------------------------------------------------------- #
# Varints and the key codec
# --------------------------------------------------------------------- #
def _write_uvarint(out: bytearray, value: int) -> None:
    while True:
        septet = value & 0x7F
        value >>= 7
        if value:
            out.append(septet | 0x80)
        else:
            out.append(septet)
            return


def _read_uvarint(data, pos: int, end: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= end:
            raise RunFormatError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 63:
            raise RunFormatError("varint overflows 64 bits")


def _uvarint(value: int) -> bytes:
    if value < 128:
        return _ONE_BYTE[value]
    out = bytearray()
    _write_uvarint(out, value)
    return bytes(out)


@lru_cache(maxsize=TAG_CHUNK_CACHE_SIZE)
def _tag_chunk(tag: str) -> bytes:
    """One tag as it sits inside an encoded key: ``uvarint len · utf-8``.

    Bounded on purpose: an out-of-core store must not grow a table with
    the tag vocabulary, and an evicted tag just costs one re-encode.
    """
    raw = tag.encode("utf-8")
    return _uvarint(len(raw)) + raw


def encode_key(key: tuple[str, ...]) -> bytes:
    """A tag tuple as the canonical sort-and-storage byte string."""
    return _uvarint(len(key)) + b"".join(map(_tag_chunk, key))


def decode_key(data: bytes) -> tuple[str, ...]:
    """Inverse of :func:`encode_key` (strict: trailing bytes are an error)."""
    end = len(data)
    count, pos = _read_uvarint(data, 0, end)
    tags = []
    for _ in range(count):
        length, pos = _read_uvarint(data, pos, end)
        if pos + length > end:
            raise RunFormatError("truncated tag in encoded key")
        try:
            tags.append(data[pos:pos + length].decode("utf-8"))
        except UnicodeDecodeError:
            raise RunFormatError("invalid utf-8 in encoded key") from None
        pos += length
    if pos != end:
        raise RunFormatError("trailing bytes after encoded key")
    return tuple(tags)


# --------------------------------------------------------------------- #
# Writing
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class RunWriteResult:
    """What one :func:`write_run` produced."""

    path: str
    entries: int
    blocks: int
    file_bytes: int


def _fsync_directory(path: str) -> None:
    # Persist the rename itself; best-effort on filesystems that refuse
    # directory fds.
    try:
        fd = os.open(path or ".", os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)


def write_run(
    path,
    entries: Iterable[tuple[bytes, int]],
    *,
    block_size: int = DEFAULT_BLOCK_SIZE,
    raw_values: bool = False,
) -> RunWriteResult:
    """Write ``entries`` — ``(encoded_key, count)`` strictly sorted by key —
    as one run file, atomically.

    With ``raw_values=True`` the second tuple element is an opaque
    non-empty ``bytes`` value instead of a count, stored length-prefixed
    and flagged in the header (:data:`FLAG_RAW_VALUES`).

    The data is staged in ``<path>.tmp``, fsync'd, then renamed over
    ``path`` (and the directory fsync'd): the run is *published* only once
    every byte of it is durable, and an aborted write leaves nothing
    behind.
    """
    final_path = os.fspath(path)
    tmp_path = final_path + ".tmp"
    index: list[tuple[bytes, int, int, int]] = []
    n_entries = 0
    try:
        with open(tmp_path, "wb") as out:
            out.write(b"\x00" * _HEADER.size)
            offset = _HEADER.size
            block = bytearray()
            append = block.append
            block_first: bytes | None = None
            block_entries = 0
            prev_key = b""
            prev_len = 0
            from_bytes = int.from_bytes
            for key, value in entries:
                if n_entries and key <= prev_key:
                    raise ValueError(
                        "run entries must be strictly sorted by encoded key"
                    )
                if raw_values:
                    if not isinstance(value, bytes) or not value:
                        raise ValueError(
                            "raw-value runs require non-empty bytes values"
                        )
                    number = len(value)
                elif value <= 0:
                    raise ValueError("run counts must be positive")
                else:
                    number = value
                key_len = len(key)
                if block_first is None:
                    block_first = key
                    shared = 0
                else:
                    # Shared-prefix length without a loop over bytes: the
                    # XOR of the two common-length heads, read as
                    # big-endian integers, has its top set bit inside the
                    # first differing byte (0 when one key is a prefix of
                    # the other).
                    limit = key_len if key_len < prev_len else prev_len
                    differing = (
                        from_bytes(key[:limit], "big")
                        ^ from_bytes(prev_key[:limit], "big")
                    )
                    shared = limit - (differing.bit_length() + 7 >> 3)
                suffix_len = key_len - shared
                if shared < 128 and suffix_len < 128 and number < 128:
                    append(shared)
                    append(suffix_len)
                    block += key[shared:]
                    append(number)
                else:
                    _write_uvarint(block, shared)
                    _write_uvarint(block, suffix_len)
                    block += key[shared:]
                    _write_uvarint(block, number)
                if raw_values:
                    block += value
                prev_key = key
                prev_len = key_len
                block_entries += 1
                n_entries += 1
                if len(block) >= block_size:
                    out.write(block)
                    index.append((block_first, offset, len(block), block_entries))
                    offset += len(block)
                    block.clear()
                    block_first = None
                    block_entries = 0
            if block_first is not None:
                out.write(block)
                index.append((block_first, offset, len(block), block_entries))
                offset += len(block)
            index_offset = offset
            tail = bytearray()
            for first_key, block_offset, length, block_count in index:
                _write_uvarint(tail, len(first_key))
                tail += first_key
                tail += _INDEX_TAIL.pack(block_offset, length, block_count)
            out.write(tail)
            file_bytes = index_offset + len(tail)
            out.seek(0)
            out.write(_HEADER.pack(
                MAGIC, FORMAT_VERSION,
                FLAG_RAW_VALUES if raw_values else 0, block_size,
                n_entries, len(index), index_offset,
            ))
            out.flush()
            os.fsync(out.fileno())
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    os.replace(tmp_path, final_path)
    _fsync_directory(os.path.dirname(final_path))
    return RunWriteResult(final_path, n_entries, len(index), file_bytes)


# --------------------------------------------------------------------- #
# Reading
# --------------------------------------------------------------------- #
class BlockCache:
    """Shared LRU cache of decoded run blocks.

    One cache typically serves every run of one store: report folds look
    up thousands of nearby subsets, so decoded blocks (plain ``bytes →
    count`` dicts) are reused across lookups and across runs.  Keyed by
    ``(reader token, block index)``; eviction is least-recently-used by
    whole blocks.  ``hits``/``misses``/``evictions`` feed
    ``RunReport.store_stats``.
    """

    __slots__ = ("capacity", "_blocks", "hits", "misses", "evictions")

    def __init__(self, capacity: int = 512) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self._blocks: OrderedDict[tuple[int, int], dict[bytes, int]] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def lookup(self, reader: "RunReader", block_index: int) -> dict[bytes, int]:
        key = (reader._token, block_index)
        blocks = self._blocks
        block = blocks.get(key)
        if block is not None:
            self.hits += 1
            blocks.move_to_end(key)
            return block
        self.misses += 1
        block = dict(reader._decode_block(block_index))
        blocks[key] = block
        while len(blocks) > self.capacity:
            blocks.popitem(last=False)
            self.evictions += 1
        return block

    def forget(self, token: int) -> None:
        """Drop every cached block of one (closed) reader."""
        stale = [key for key in self._blocks if key[0] == token]
        for key in stale:
            del self._blocks[key]

    def stats(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": len(self._blocks),
            "capacity": self.capacity,
        }


class RunReader:
    """mmap-backed random and sequential access to one run file.

    Holds the lexicon (per-block first keys + extents) in RAM; block
    payloads stay on disk until :meth:`get` or :meth:`get_sorted` fault
    them in through the shared :class:`BlockCache`.  :meth:`entries`
    streams the whole run in key order without touching the cache.
    """

    __slots__ = ("path", "n_entries", "raw_values", "_file", "_map", "_cache",
                 "_token", "_first_keys", "_offsets", "_lengths", "_counts")

    def __init__(self, path, cache: BlockCache | None = None) -> None:
        self.path = os.fspath(path)
        self._cache = cache if cache is not None else BlockCache(8)
        self._token = next(_READER_TOKENS)
        self._file = open(self.path, "rb")
        try:
            size = os.fstat(self._file.fileno()).st_size
            if size < _HEADER.size:
                raise RunFormatError(
                    f"{self.path}: {size} bytes is too short for a run header"
                )
            self._map = mmap.mmap(
                self._file.fileno(), 0, access=mmap.ACCESS_READ
            )
        except BaseException:
            self._file.close()
            raise
        try:
            self._parse(size)
        except BaseException:
            self.close()
            raise

    def _parse(self, size: int) -> None:
        magic, version, flags, _block_size, n_entries, n_blocks, index_offset = (
            _HEADER.unpack_from(self._map, 0)
        )
        if magic != MAGIC:
            raise RunFormatError(
                f"{self.path}: bad magic {magic!r} (not a counter run file)"
            )
        if version != FORMAT_VERSION:
            raise RunFormatError(
                f"{self.path}: unsupported run format version {version} "
                f"(this reader understands {FORMAT_VERSION})"
            )
        if flags & ~_KNOWN_FLAGS:
            raise RunFormatError(
                f"{self.path}: unknown header flags 0x{flags:04x} "
                f"(this reader understands 0x{_KNOWN_FLAGS:04x})"
            )
        self.raw_values = bool(flags & FLAG_RAW_VALUES)
        if not _HEADER.size <= index_offset <= size:
            raise RunFormatError(
                f"{self.path}: index offset {index_offset} outside the file "
                f"({size} bytes)"
            )
        self.n_entries = n_entries
        data = self._map
        first_keys: list[bytes] = []
        offsets: list[int] = []
        lengths: list[int] = []
        counts: list[int] = []
        pos = index_offset
        for _ in range(n_blocks):
            try:
                key_len, pos = _read_uvarint(data, pos, size)
            except RunFormatError as error:
                raise RunFormatError(
                    f"{self.path}: block index: {error}"
                ) from None
            if pos + key_len + _INDEX_TAIL.size > size:
                raise RunFormatError(f"{self.path}: truncated block index")
            first_key = bytes(data[pos:pos + key_len])
            pos += key_len
            offset, length, block_count = _INDEX_TAIL.unpack_from(data, pos)
            pos += _INDEX_TAIL.size
            if not _HEADER.size <= offset or offset + length > index_offset:
                raise RunFormatError(
                    f"{self.path}: block extent [{offset}, {offset + length}) "
                    f"outside the data area"
                )
            if first_keys and first_key <= first_keys[-1]:
                raise RunFormatError(
                    f"{self.path}: block index keys out of order"
                )
            first_keys.append(first_key)
            offsets.append(offset)
            lengths.append(length)
            counts.append(block_count)
        if pos != size:
            raise RunFormatError(
                f"{self.path}: {size - pos} trailing bytes after the index"
            )
        if sum(counts) != n_entries:
            raise RunFormatError(
                f"{self.path}: header claims {n_entries} entries but the "
                f"index accounts for {sum(counts)}"
            )
        self._first_keys = first_keys
        self._offsets = offsets
        self._lengths = lengths
        self._counts = counts

    def _decode_block(self, index: int) -> list[tuple[bytes, int]]:
        try:
            return self._decode_block_raw(index)
        except RunFormatError as error:
            if str(error).startswith(self.path):
                raise
            raise RunFormatError(
                f"{self.path}: block {index}: {error}"
            ) from None

    def _decode_block_raw(self, index: int) -> list[tuple[bytes, int]]:
        # One copy out of the mmap, then plain ``bytes`` indexing: a varint
        # below 128 is the byte itself, anything else (a continuation
        # byte, or the end of the block) goes through _read_uvarint and
        # its checks.
        start = self._offsets[index]
        data = self._map[start:start + self._lengths[index]]
        end = len(data)
        raw = self.raw_values
        entries: list[tuple[bytes, int]] = []
        append = entries.append
        prev = b""
        pos = 0
        while pos < end:
            shared = data[pos]
            if shared < 128:
                pos += 1
            else:
                shared, pos = _read_uvarint(data, pos, end)
            if pos < end and data[pos] < 128:
                suffix_len = data[pos]
                pos += 1
            else:
                suffix_len, pos = _read_uvarint(data, pos, end)
            if shared > len(prev):
                raise RunFormatError(
                    f"{self.path}: block {index} prefix length {shared} "
                    f"exceeds the previous key"
                )
            if pos + suffix_len > end:
                raise RunFormatError(
                    f"{self.path}: truncated entry in block {index}"
                )
            key = prev[:shared] + data[pos:pos + suffix_len]
            pos += suffix_len
            if pos < end and data[pos] < 128:
                number = data[pos]
                pos += 1
            else:
                number, pos = _read_uvarint(data, pos, end)
            if raw:
                if pos + number > end:
                    raise RunFormatError(
                        f"{self.path}: truncated value in block {index}"
                    )
                append((key, data[pos:pos + number]))
                pos += number
            else:
                append((key, number))
            prev = key
        if len(entries) != self._counts[index]:
            raise RunFormatError(
                f"{self.path}: block {index} decoded {len(entries)} entries, "
                f"index promised {self._counts[index]}"
            )
        return entries

    def get(self, encoded_key: bytes):
        """The value of one encoded key (count, or raw bytes for
        :data:`FLAG_RAW_VALUES` runs), or ``None`` when absent."""
        first_keys = self._first_keys
        index = bisect_right(first_keys, encoded_key) - 1
        if index < 0:
            return None
        return self._cache.lookup(self, index).get(encoded_key)

    def get_sorted(self, encoded_keys: Iterable[bytes]) -> Iterator[tuple]:
        """``(key, value)`` for each of the ascending ``encoded_keys`` this
        run holds; the block cursor only moves forward, so each block is
        fetched (through the cache) at most once."""
        first_keys = self._first_keys
        current = -1
        for key in encoded_keys:
            index = bisect_right(first_keys, key, max(current, 0)) - 1
            if index < 0:
                continue
            if index != current:
                current = index
                block = self._cache.lookup(self, index)
            value = block.get(key)
            if value is not None:
                yield key, value

    def entries(self) -> Iterator[tuple[bytes, int]]:
        """All ``(encoded_key, value)`` pairs in key order, block by block
        through the checked decoder (uncached; a file truncated since it
        was opened is refused, not read as the mapping's zero-filled tail)."""
        if os.fstat(self._file.fileno()).st_size != len(self._map):
            raise RunFormatError(f"{self.path}: truncated since it was opened")
        for index in range(len(self._first_keys)):
            yield from self._decode_block(index)

    def __len__(self) -> int:
        return self.n_entries

    def close(self) -> None:
        self._cache.forget(self._token)
        mapping = getattr(self, "_map", None)
        if mapping is not None:
            mapping.close()
        self._file.close()


def merged_entries(
    streams: list[Iterator[tuple[bytes, int]]],
    combine=None,
) -> Iterator[tuple[bytes, int]]:
    """K-way merge of sorted entry streams, folding values of equal keys.

    The default fold sums counts: counts are additive non-negative
    integers, so the merged value of a key is independent of how
    observations were split across segments — the invariant the
    spill ≡ dict equivalence rests on.

    ``combine(old, new)`` replaces the sum for non-additive values (the
    tracker store's max-support rule).  ``heapq.merge`` is stable across
    streams, so equal keys reach the fold in *stream order*: pass older
    segments first and ``combine`` sees values oldest → newest, exactly
    the order the in-RAM dict would have applied them.
    """
    import heapq

    if not streams:
        return
    if len(streams) == 1:
        merged: Iterator[tuple[bytes, int]] = streams[0]
    else:
        merged = heapq.merge(*streams, key=itemgetter(0))
    current_key: bytes | None = None
    current_value = 0
    if combine is None:
        for key, value in merged:
            if key == current_key:
                current_value += value
            else:
                if current_key is not None:
                    yield current_key, current_value
                current_key = key
                current_value = value
    else:
        for key, value in merged:
            if key == current_key:
                current_value = combine(current_value, value)
            else:
                if current_key is not None:
                    yield current_key, current_value
                current_key = key
                current_value = value
    if current_key is not None:
        yield current_key, current_value


def merge_runs(
    sources: list[str],
    destination,
    *,
    block_size: int = DEFAULT_BLOCK_SIZE,
    combine=None,
) -> str:
    """Merge ``sources`` into a single run at ``destination``.

    Streams block-by-block — peak memory is one decoded block per source
    plus one output block, regardless of run sizes.  Sources are left in
    place; the caller deletes them once the merged run is published.

    ``combine`` is handed to :func:`merged_entries` (``None`` sums counts);
    sources must be passed oldest first so a non-commutative combiner sees
    equal keys in the order the segments spilled.  The output inherits the
    sources' value layout (raw values stay raw).
    """
    readers = [RunReader(path) for path in sources]
    try:
        raw = readers[0].raw_values if readers else False
        if any(reader.raw_values != raw for reader in readers):
            raise ValueError("cannot merge raw-value runs with count runs")
        write_run(
            destination,
            merged_entries(
                [reader.entries() for reader in readers], combine=combine
            ),
            block_size=block_size,
            raw_values=raw,
        )
    finally:
        for reader in readers:
            reader.close()
    return os.fspath(destination)
