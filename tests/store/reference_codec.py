"""The byte-at-a-time RSC1 codec the production fast paths are held to.

``repro.store.format`` and ``repro.store.tracker`` encode and decode runs
with slice compares, inline one-byte varints and a fixed-width record fast
path.  This module is the code they replaced — the writer, the key
encoder, the block decoder and the coefficient-record codec exactly as
they stood before, one interpreted step per byte — kept (the
``tests/oracle.py`` pattern) so that "same bytes on disk" is a property
the differential suite checks on every boundary, not one golden fixture.
Nothing under ``src/`` imports it; do not make it fast.
"""

from __future__ import annotations

import os
import struct
from typing import Iterable

from repro.store.format import (
    _HEADER,
    _INDEX_TAIL,
    DEFAULT_BLOCK_SIZE,
    FLAG_RAW_VALUES,
    FORMAT_VERSION,
    MAGIC,
    RunFormatError,
    RunReader,
    RunWriteResult,
    _fsync_directory,
)

_JACCARD = struct.Struct("<d")


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


def encode_key(key: tuple[str, ...]) -> bytes:
    """A tag tuple as the canonical sort-and-storage byte string."""
    out = bytearray()
    _write_uvarint(out, len(key))
    for tag in key:
        raw = tag.encode("utf-8")
        _write_uvarint(out, len(raw))
        out += raw
    return bytes(out)


# --------------------------------------------------------------------- #
# Writing
# --------------------------------------------------------------------- #
def write_run(
    path,
    entries: Iterable[tuple[bytes, int]],
    *,
    block_size: int = DEFAULT_BLOCK_SIZE,
    raw_values: bool = False,
) -> RunWriteResult:
    final_path = os.fspath(path)
    tmp_path = final_path + ".tmp"
    index: list[tuple[bytes, int, int, int]] = []
    n_entries = 0
    try:
        with open(tmp_path, "wb") as out:
            out.write(b"\x00" * _HEADER.size)
            offset = _HEADER.size
            block = bytearray()
            block_first: bytes | None = None
            block_entries = 0
            prev_key = b""
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
                elif value <= 0:
                    raise ValueError("run counts must be positive")
                if block_first is None:
                    block_first = key
                    shared = 0
                else:
                    limit = min(len(key), len(prev_key))
                    shared = 0
                    while shared < limit and key[shared] == prev_key[shared]:
                        shared += 1
                suffix = key[shared:]
                _write_uvarint(block, shared)
                _write_uvarint(block, len(suffix))
                block += suffix
                if raw_values:
                    _write_uvarint(block, len(value))
                    block += value
                else:
                    _write_uvarint(block, value)
                prev_key = key
                block_entries += 1
                n_entries += 1
                if len(block) >= block_size:
                    out.write(block)
                    index.append((block_first, offset, len(block), block_entries))
                    offset += len(block)
                    block = bytearray()
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
def _decode_block_raw(self: RunReader, index: int) -> list[tuple[bytes, int]]:
    """``RunReader._decode_block_raw`` as it was: every varint and every
    slice read through the ``mmap``, byte by byte."""
    start = self._offsets[index]
    end = start + self._lengths[index]
    data = self._map
    raw = self.raw_values
    entries: list[tuple[bytes, int]] = []
    prev = b""
    pos = start
    while pos < end:
        shared, pos = _read_uvarint(data, pos, end)
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
        key = prev[:shared] + bytes(data[pos:pos + suffix_len])
        pos += suffix_len
        if raw:
            value_len, pos = _read_uvarint(data, pos, end)
            if pos + value_len > end:
                raise RunFormatError(
                    f"{self.path}: truncated value in block {index}"
                )
            value = bytes(data[pos:pos + value_len])
            pos += value_len
            entries.append((key, value))
        else:
            count, pos = _read_uvarint(data, pos, end)
            entries.append((key, count))
        prev = key
    if len(entries) != self._counts[index]:
        raise RunFormatError(
            f"{self.path}: block {index} decoded {len(entries)} entries, "
            f"index promised {self._counts[index]}"
        )
    return entries


def read_run(path) -> list[tuple[bytes, int]]:
    """Every entry of the run at ``path`` through the reference block
    decoder (header and lexicon parsing are shared with ``RunReader`` —
    this PR did not touch them)."""
    reader = RunReader(path)
    try:
        return [
            entry
            for index in range(len(reader._first_keys))
            for entry in _decode_block_raw(reader, index)
        ]
    finally:
        reader.close()


# --------------------------------------------------------------------- #
# The Tracker's coefficient record
# --------------------------------------------------------------------- #
def encode_value(jaccard: float, support: int, reports: int) -> bytes:
    out = bytearray(_JACCARD.pack(jaccard))
    _write_uvarint(out, support)
    _write_uvarint(out, reports)
    return bytes(out)


def decode_value(data: bytes) -> tuple[float, int, int]:
    jaccard = _JACCARD.unpack_from(data, 0)[0]
    end = len(data)
    support, pos = _read_uvarint(data, _JACCARD.size, end)
    reports, pos = _read_uvarint(data, pos, end)
    return jaccard, support, reports


def combine_max_support(old: bytes, new: bytes) -> bytes:
    old_j, old_s, old_r = decode_value(old)
    new_j, new_s, new_r = decode_value(new)
    if new_s > old_s:
        return encode_value(new_j, new_s, old_r + new_r)
    return encode_value(old_j, old_s, old_r + new_r)
