"""Stream groupings: how tuples are routed to the tasks of a consumer.

Storm offers several rules for distributing the tuples of a producing
component over the multiple task instances of a consuming bolt
(Section 6.1 of the paper).  The simulator implements the ones the paper's
topology uses — shuffle, fields, all, direct.

With the slot-tuple wire format the cluster routes :class:`EmissionBatch`
lists, calling :meth:`Grouping.select_batch` **once per batch** per
subscriber; fields grouping compiles the field names to slot indices per
:class:`~repro.streamsim.tuples.StreamSchema` the first time it sees a
stream, so steady-state routing does no name lookups.  Every grouping
selects exactly the same tasks as the old dict-backed format (pinned by
``tests/streamsim/test_groupings.py`` against recorded fixtures).
"""

from __future__ import annotations

import abc
import random
import zlib
from typing import Sequence

from .tuples import StreamSchema, TupleMessage


def stable_hash(value: object) -> int:
    """Process-independent hash used by fields grouping.

    Python's built-in ``hash`` of strings is salted per process, which would
    make experiment runs non-reproducible; a CRC over the ``repr`` is stable.
    """
    return zlib.crc32(repr(value).encode("utf-8"))


class Grouping(abc.ABC):
    """Decides which task indices of the consumer receive a tuple."""

    @abc.abstractmethod
    def select(self, message: TupleMessage, n_tasks: int) -> Sequence[int]:
        """Task indices (0-based, within the consumer) receiving ``message``."""

    def select_batch(
        self, messages: Sequence[TupleMessage], n_tasks: int
    ) -> list[Sequence[int]]:
        """Per-message task indices for one emission batch.

        The cluster calls this once per routed batch.  The default defers
        to :meth:`select` per message; stateful groupings must consume
        exactly one :meth:`select` step per message so batched and
        per-message routing pick identical tasks.
        """
        select = self.select
        return [select(message, n_tasks) for message in messages]


class ShuffleGrouping(Grouping):
    """Distribute tuples (pseudo-)randomly but evenly over the tasks.

    Uses round-robin with a randomised starting offset, which matches
    Storm's guarantee that each instance receives approximately the same
    number of tuples while remaining deterministic under a fixed seed.
    """

    def __init__(self, seed: int | None = 0) -> None:
        self._rng = random.Random(seed)
        self._counter = self._rng.randrange(1_000_000)

    def select(self, message: TupleMessage, n_tasks: int) -> Sequence[int]:
        if n_tasks <= 0:
            return []
        index = self._counter % n_tasks
        self._counter += 1
        return [index]

    def select_batch(
        self, messages: Sequence[TupleMessage], n_tasks: int
    ) -> list[Sequence[int]]:
        if n_tasks <= 0:
            return [[] for _ in messages]
        counter = self._counter
        selections = [[(counter + offset) % n_tasks] for offset in range(len(messages))]
        self._counter = counter + len(messages)
        return selections


class FieldsGrouping(Grouping):
    """Route by the hash of one or more tuple fields.

    Tuples with equal values in the grouping fields always reach the same
    task — the property the Partitioner relies on to see consistent tagsets.
    Field names are compiled to slot indices per stream schema on first
    contact; a field the schema does not carry hashes as ``None``, exactly
    like the old dict format's ``message.get``.
    """

    #: Bound on the routing memo (distinct values per grouping); the memo is
    #: cleared, not evicted, beyond this — selection stays correct either way.
    _MEMO_LIMIT = 100_000

    def __init__(self, fields: Sequence[str]) -> None:
        if not fields:
            raise ValueError("fields grouping needs at least one field")
        self._fields = tuple(fields)
        #: Per-schema compiled slots (``None`` = field absent from layout).
        self._slots: dict[StreamSchema, tuple[int | None, ...]] = {}
        #: Memoised selections of single-field groupings over value types
        #: whose equality implies equal reprs (str, frozenset): trending
        #: tagsets recur thousands of times, and one dict probe replaces the
        #: sorted-repr + CRC walk.  Keyed by (n_tasks, raw value).
        self._memo: dict[tuple[int, object], int] = {}

    @property
    def fields(self) -> tuple[str, ...]:
        """The grouping fields (topology validation reads these)."""
        return self._fields

    def _slots_for(self, schema: StreamSchema) -> tuple[int | None, ...]:
        slots = self._slots.get(schema)
        if slots is None:
            index = schema.index
            slots = tuple(index.get(field) for field in self._fields)
            self._slots[schema] = slots
        return slots

    def select(self, message: TupleMessage, n_tasks: int) -> Sequence[int]:
        if n_tasks <= 0:
            return []
        values = message.values
        slots = self._slots_for(message.schema)
        if len(slots) == 1:
            slot = slots[0]
            raw = values[slot] if slot is not None else None
            # Memoisation is restricted to types where equal values have
            # equal reprs, so the cached index is exactly what the hash
            # walk would recompute.
            if type(raw) is frozenset or type(raw) is str:
                memo_key = (n_tasks, raw)
                index = self._memo.get(memo_key)
                if index is None:
                    index = stable_hash((self._hashable(raw),)) % n_tasks
                    if len(self._memo) >= self._MEMO_LIMIT:
                        self._memo.clear()
                    self._memo[memo_key] = index
                return [index]
            return [stable_hash((self._hashable(raw),)) % n_tasks]
        hashable = self._hashable
        key = tuple(
            hashable(values[slot]) if slot is not None else None for slot in slots
        )
        return [stable_hash(key) % n_tasks]

    @staticmethod
    def _hashable(value: object) -> object:
        if isinstance(value, (list, set, frozenset)):
            return tuple(sorted(map(repr, value)))
        return value


class AllGrouping(Grouping):
    """Broadcast: every task of the consumer receives every tuple."""

    def select(self, message: TupleMessage, n_tasks: int) -> Sequence[int]:
        return list(range(n_tasks))

    def select_batch(
        self, messages: Sequence[TupleMessage], n_tasks: int
    ) -> list[Sequence[int]]:
        everyone = list(range(n_tasks))
        return [everyone] * len(messages)


class DirectGrouping(Grouping):
    """The producer names the receiving task explicitly via ``emit_direct``.

    ``select`` is only consulted when a directly-grouped stream receives a
    non-direct emission, which is a topology bug — fail loudly.
    """

    def select(self, message: TupleMessage, n_tasks: int) -> Sequence[int]:
        raise RuntimeError(
            "direct-grouped streams require emit_direct(); "
            f"got a broadcast emission from {message.source_component!r}"
        )

