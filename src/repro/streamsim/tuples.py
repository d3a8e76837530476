"""Schema-declared slot tuples: the wire format of the substrate.

Storm models a tuple as a named list of values, and the original simulator
mirrored that literally: every :class:`TupleMessage` carried its own
``dict`` mapping field names to values.  The paper's Figure-2 topology,
however, is a *fixed* set of streams with *fixed* fields — the per-tuple
dict paid, on every emission, for a schema flexibility nobody used (the
classic row-store → slot-layout argument of the columnar literature).

The redesigned wire format declares the layout once per stream:

* a :class:`StreamSchema` is an **interned field layout** — the ordered
  tuple of field names of one named stream, declared where the stream is
  declared (``operators/streams.py`` for the paper topology,
  :meth:`~repro.streamsim.topology.TopologyBuilder.stream` at
  topology-build time).  Schemas subclass :class:`str` (the stream name),
  so subscription keys, accounting labels and ``message.stream == "x"``
  comparisons all keep working; two declarations of the same
  ``(name, fields)`` pair return the same object, so hot paths compare
  schemas by identity.
* a :class:`TupleMessage` is a **slot tuple**: the plain tuple of values in
  schema order, the schema, and two provenance fields (emitting component
  and task).  Field access by name goes through the schema's compiled
  ``index``; hot consumers unpack ``message.values`` positionally.
* :meth:`OutputCollector.emit` is **positional** — ``emit(schema, *values)``
  — which kills the per-emission ``dict(values)`` copy of the old API.
* emissions coalesce into per-stream :class:`EmissionBatch` lists (one
  batch per run of same-stream emissions of one component invocation), the
  unit the cluster routes, accounts, delivers (``execute_batch``) and the
  process executor ships over IPC.

Messages of one batch share the schema, the emission mode (grouped vs
direct) and the value of the ``timestamp`` slot, so the cluster can advance
the simulated clock once per batch without changing tick timing.
"""

from __future__ import annotations

from typing import Any, Iterator

#: Name of the default output stream of every component (kept for topology
#: subscriptions that predate declared schemas).
DEFAULT_STREAM = "default"


class StreamSchema(str):
    """Interned field layout of one named stream.

    The schema *is* the stream name (a :class:`str` subclass) plus the
    ordered field tuple, the compiled name → slot ``index`` and the
    pre-resolved ``timestamp_slot`` the cluster's clock reads.  Instances
    are interned by ``(name, fields)``: declaring the same layout twice —
    in an operator module, at topology-build time, or while unpickling in
    a worker process — returns the same object, which is what lets every
    hot path compare schemas with ``is``.
    """

    _interned: dict[tuple[str, tuple[str, ...]], "StreamSchema"] = {}

    fields: tuple[str, ...]
    index: dict[str, int]
    #: Slot of the ``timestamp`` field (-1 when the stream carries none).
    timestamp_slot: int

    def __new__(cls, name: str, fields: tuple[str, ...] = ()) -> "StreamSchema":
        key = (str(name), tuple(fields))
        interned = cls._interned.get(key)
        if interned is not None:
            return interned
        if len(set(key[1])) != len(key[1]):
            raise ValueError(f"stream {name!r} declares duplicate fields: {fields}")
        schema = super().__new__(cls, key[0])
        schema.fields = key[1]
        schema.index = {field: slot for slot, field in enumerate(key[1])}
        schema.timestamp_slot = schema.index.get("timestamp", -1)
        cls._interned[key] = schema
        return schema

    @property
    def name(self) -> str:
        """The stream name (the string value itself)."""
        return str(self)

    def message(
        self,
        source_component: str = "",
        source_task: int = -1,
        **values: Any,
    ) -> "TupleMessage":
        """Build a message by field name (tests and direct injection).

        Fields not passed default to ``None``; unknown names raise.  The
        hot emission path never goes through here — it builds the value
        tuple positionally.
        """
        unknown = set(values) - set(self.fields)
        if unknown:
            raise ValueError(
                f"stream {self.name!r} has no fields {sorted(unknown)}; "
                f"layout is {self.fields}"
            )
        return TupleMessage(
            self,
            tuple(values.get(field) for field in self.fields),
            source_component,
            source_task,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StreamSchema({str(self)!r}, fields={self.fields!r})"

    def __reduce__(self):
        """Pickle by layout: unpickling re-interns in the target process."""
        return (StreamSchema, (str(self), self.fields))


def stream_schema(name: str, fields: tuple[str, ...] = ()) -> StreamSchema:
    """Declare (or fetch) the interned schema of ``name`` with ``fields``."""
    return StreamSchema(name, fields)


class TupleMessage:
    """A slot tuple flowing between components.

    ``values`` is the plain tuple of field values in schema order;
    ``schema`` carries the layout; ``source_component``/``source_task``
    are the provenance the accounting and direct grouping use.  Name-based
    access (``message["tagset"]``) resolves through the schema's compiled
    index; hot paths unpack ``message.values`` positionally instead.
    """

    __slots__ = ("schema", "values", "source_component", "source_task")

    def __init__(
        self,
        schema: StreamSchema,
        values: tuple[Any, ...] = (),
        source_component: str = "",
        source_task: int = -1,
    ) -> None:
        self.schema = schema
        self.values = values
        self.source_component = source_component
        self.source_task = source_task

    @property
    def stream(self) -> StreamSchema:
        """The stream this tuple travels on (a schema; compares as its name)."""
        return self.schema

    def __getitem__(self, key: str) -> Any:
        return self.values[self.schema.index[key]]

    def get(self, key: str, default: Any = None) -> Any:
        slot = self.schema.index.get(key)
        if slot is None:
            return default
        value = self.values[slot]
        return default if value is None else value

    def __contains__(self, key: str) -> bool:
        return key in self.schema.index

    def __iter__(self) -> Iterator[str]:
        return iter(self.schema.fields)

    def fields(self) -> tuple[str, ...]:
        return self.schema.fields

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        pairs = ", ".join(
            f"{field}={value!r}"
            for field, value in zip(self.schema.fields, self.values)
        )
        return f"<{self.schema.name}({pairs}) from {self.source_component}:{self.source_task}>"

    def __reduce__(self):
        """Compact pickle for the process executor's IPC batches."""
        return (
            TupleMessage,
            (self.schema, self.values, self.source_component, self.source_task),
        )


class EmissionBatch:
    """One run of same-stream emissions of a single component invocation.

    The routing/accounting/delivery/IPC unit of the substrate.  All
    messages share the schema and the ``timestamp`` slot value (the batch
    builder starts a new batch when either changes), so the clock advances
    once per batch.  ``targets`` is ``None`` for grouped emissions or the
    per-message list of global task ids for direct emissions.
    """

    __slots__ = ("schema", "messages", "targets", "timestamp")

    def __init__(
        self,
        schema: StreamSchema,
        messages: list[TupleMessage],
        targets: list[int] | None = None,
        timestamp: Any = None,
    ) -> None:
        self.schema = schema
        self.messages = messages
        self.targets = targets
        self.timestamp = timestamp

    def __len__(self) -> int:
        return len(self.messages)

    def __reduce__(self):
        return (EmissionBatch, (self.schema, self.messages, self.targets, self.timestamp))


#: Shared empty drain result (collectors are drained after every delivery;
#: most drains find nothing).
_NO_BATCHES: tuple[EmissionBatch, ...] = ()


class OutputCollector:
    """Collects the slot tuples a component emits during one invocation.

    Mirrors Storm's ``OutputCollector`` with the positional API:
    components call ``emit(schema, v1, v2, ...)`` (or :meth:`emit_direct`
    for direct grouping) and the cluster drains the collector afterwards
    and routes the resulting :class:`EmissionBatch` lists to subscribers.
    Consecutive emissions on the same stream with the same timestamp (and
    the same grouped/direct mode) coalesce into one batch.
    """

    __slots__ = ("_component", "_task_id", "_batches", "_tail")

    def __init__(self, component: str, task_id: int) -> None:
        self._component = component
        self._task_id = task_id
        self._batches: list[EmissionBatch] = []
        self._tail: EmissionBatch | None = None

    def emit(self, schema: StreamSchema, *values: Any) -> None:
        """Emit one slot tuple on ``schema`` to all subscribers of the stream."""
        fields = schema.fields
        if len(values) != len(fields):
            raise ValueError(
                f"stream {schema.name!r} carries {len(fields)} fields "
                f"{fields}, got {len(values)} values"
            )
        slot = schema.timestamp_slot
        timestamp = values[slot] if slot >= 0 else None
        message = TupleMessage(schema, values, self._component, self._task_id)
        tail = self._tail
        if (
            tail is not None
            and tail.schema is schema
            and tail.targets is None
            and tail.timestamp == timestamp
        ):
            tail.messages.append(message)
            return
        tail = EmissionBatch(schema, [message], None, timestamp)
        self._batches.append(tail)
        self._tail = tail

    def emit_direct(self, task_id: int, schema: StreamSchema, *values: Any) -> None:
        """Emit one slot tuple directly to one task of a subscribed component."""
        fields = schema.fields
        if len(values) != len(fields):
            raise ValueError(
                f"stream {schema.name!r} carries {len(fields)} fields "
                f"{fields}, got {len(values)} values"
            )
        slot = schema.timestamp_slot
        timestamp = values[slot] if slot >= 0 else None
        message = TupleMessage(schema, values, self._component, self._task_id)
        tail = self._tail
        if (
            tail is not None
            and tail.schema is schema
            and tail.targets is not None
            and tail.timestamp == timestamp
        ):
            tail.messages.append(message)
            tail.targets.append(task_id)
            return
        tail = EmissionBatch(schema, [message], [task_id], timestamp)
        self._batches.append(tail)
        self._tail = tail

    def drain(self) -> list[EmissionBatch] | tuple[EmissionBatch, ...]:
        """Return and clear all pending emission batches."""
        batches = self._batches
        if not batches:
            return _NO_BATCHES
        self._batches = []
        self._tail = None
        return batches

    def __len__(self) -> int:
        """Pending (not yet drained) message count."""
        return sum(len(batch.messages) for batch in self._batches)
