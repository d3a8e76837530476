"""Topology definition: components, parallelism, streams and subscriptions.

A topology is a directed graph of named components.  Every component is
registered with a *factory* (so that each parallel task gets its own
instance and therefore its own state, as in Storm) and a parallelism degree.
Consumers subscribe to ``(producer, stream)`` pairs with a grouping that
decides which task receives each tuple.

Streams are declared with their field layout at topology-build time:
:meth:`TopologyBuilder.stream` registers the interned
:class:`~repro.streamsim.tuples.StreamSchema` of a stream name, and
:meth:`Topology.validate` then checks that fields groupings only reference
declared fields — slot-layout typos fail at build time instead of hashing
``None`` silently at run time.  Subscriptions to undeclared streams remain
legal (ad-hoc test topologies route purely by name).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .components import Bolt, Component, Spout
from .groupings import (
    AllGrouping,
    DirectGrouping,
    FieldsGrouping,
    Grouping,
    ShuffleGrouping,
)
from .tuples import DEFAULT_STREAM, StreamSchema

ComponentFactory = Callable[[], Component]


@dataclass(slots=True)
class ComponentSpec:
    """Declaration of one component of the topology."""

    name: str
    factory: ComponentFactory
    parallelism: int
    is_spout: bool


@dataclass(slots=True)
class Subscription:
    """One edge of the topology graph."""

    consumer: str
    producer: str
    stream: str
    grouping: Grouping


@dataclass(slots=True)
class Topology:
    """A fully declared topology, ready to be deployed on the cluster."""

    components: dict[str, ComponentSpec] = field(default_factory=dict)
    subscriptions: list[Subscription] = field(default_factory=list)
    #: Declared stream layouts, keyed by stream name.
    streams: dict[str, StreamSchema] = field(default_factory=dict)

    def spouts(self) -> list[ComponentSpec]:
        return [spec for spec in self.components.values() if spec.is_spout]

    def bolts(self) -> list[ComponentSpec]:
        return [spec for spec in self.components.values() if not spec.is_spout]

    def validate(self) -> None:
        """Check that every subscription references declared components."""
        for subscription in self.subscriptions:
            if subscription.producer not in self.components:
                raise ValueError(
                    f"subscription references unknown producer {subscription.producer!r}"
                )
            if subscription.consumer not in self.components:
                raise ValueError(
                    f"subscription references unknown consumer {subscription.consumer!r}"
                )
            if self.components[subscription.consumer].is_spout:
                raise ValueError(
                    f"spout {subscription.consumer!r} cannot subscribe to a stream"
                )
            schema = self.streams.get(str(subscription.stream))
            if schema is not None and isinstance(subscription.grouping, FieldsGrouping):
                unknown = set(subscription.grouping.fields) - set(schema.fields)
                if unknown:
                    raise ValueError(
                        f"fields grouping of {subscription.consumer!r} on stream "
                        f"{schema.name!r} references undeclared fields "
                        f"{sorted(unknown)}; layout is {schema.fields}"
                    )
        if not self.spouts():
            raise ValueError("a topology needs at least one spout")


class _BoltDeclarer:
    """Fluent helper returned by :meth:`TopologyBuilder.set_bolt`."""

    def __init__(self, builder: "TopologyBuilder", name: str) -> None:
        self._builder = builder
        self._name = name

    def shuffle_grouping(self, producer: str, stream: str = DEFAULT_STREAM, seed: int = 0) -> "_BoltDeclarer":
        self._builder._subscribe(self._name, producer, stream, ShuffleGrouping(seed))
        return self

    def fields_grouping(
        self, producer: str, fields: list[str], stream: str = DEFAULT_STREAM
    ) -> "_BoltDeclarer":
        self._builder._subscribe(self._name, producer, stream, FieldsGrouping(fields))
        return self

    def all_grouping(self, producer: str, stream: str = DEFAULT_STREAM) -> "_BoltDeclarer":
        self._builder._subscribe(self._name, producer, stream, AllGrouping())
        return self

    def direct_grouping(self, producer: str, stream: str = DEFAULT_STREAM) -> "_BoltDeclarer":
        self._builder._subscribe(self._name, producer, stream, DirectGrouping())
        return self


class TopologyBuilder:
    """Builds a :class:`Topology`, mirroring Storm's ``TopologyBuilder`` API."""

    def __init__(self) -> None:
        self._topology = Topology()

    def stream(
        self, name: str | StreamSchema, fields: tuple[str, ...] | None = None
    ) -> StreamSchema:
        """Declare a stream's field layout; returns the interned schema.

        Accepts either ``stream(name, fields=(...))`` or an already-interned
        :class:`StreamSchema` (``stream(TAGSETS)``).  Re-declaring a name
        with a different layout is a build error — one topology, one layout
        per stream.
        """
        if isinstance(name, StreamSchema) and fields is None:
            schema = name
        else:
            if fields is None:
                raise ValueError(f"stream {name!r} needs a field layout")
            schema = StreamSchema(str(name), tuple(fields))
        existing = self._topology.streams.get(schema.name)
        if existing is not None and existing is not schema:
            raise ValueError(
                f"stream {schema.name!r} declared twice with different "
                f"layouts: {existing.fields} vs {schema.fields}"
            )
        self._topology.streams[schema.name] = schema
        return schema

    def set_spout(
        self, name: str, factory: ComponentFactory, parallelism: int = 1
    ) -> None:
        """Register a spout with the given parallelism."""
        self._declare(name, factory, parallelism, is_spout=True)

    def set_bolt(
        self, name: str, factory: ComponentFactory, parallelism: int = 1
    ) -> _BoltDeclarer:
        """Register a bolt; returns a declarer to attach its subscriptions."""
        self._declare(name, factory, parallelism, is_spout=False)
        return _BoltDeclarer(self, name)

    def build(self) -> Topology:
        """Validate and return the topology."""
        self._topology.validate()
        return self._topology

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _declare(
        self, name: str, factory: ComponentFactory, parallelism: int, is_spout: bool
    ) -> None:
        if name in self._topology.components:
            raise ValueError(f"component {name!r} declared twice")
        if parallelism < 1:
            raise ValueError(f"parallelism of {name!r} must be at least 1")
        probe = factory()
        expected = Spout if is_spout else Bolt
        if not isinstance(probe, expected):
            raise TypeError(
                f"factory for {name!r} must produce a {expected.__name__}, "
                f"got {type(probe).__name__}"
            )
        self._topology.components[name] = ComponentSpec(
            name=name, factory=factory, parallelism=parallelism, is_spout=is_spout
        )

    def _subscribe(
        self, consumer: str, producer: str, stream: str, grouping: Grouping
    ) -> None:
        self._topology.subscriptions.append(
            Subscription(
                consumer=consumer, producer=producer, stream=stream, grouping=grouping
            )
        )
