"""Event types of the serving simulation."""

from __future__ import annotations

import enum
from typing import Any


class EventKind(enum.Enum):
    """What an event on the heap means."""

    #: a request arrives at the platform gateway.
    ARRIVAL = "arrival"
    #: windowed arrival mode: sample and schedule the next window of
    #: arrivals (keeps the heap O(window), not O(trace)).
    ARRIVAL_REFILL = "arrival_refill"
    #: a batch queue's waiting deadline fires (flush partial batch).
    BATCH_TIMEOUT = "batch_timeout"
    #: an executing batch finishes.
    BATCH_COMPLETE = "batch_complete"
    #: the periodic auto-scaling control step.
    CONTROL_TICK = "control_tick"
    #: a materialized fault-plan event fires (repro.faults).
    FAULT = "fault"
    #: a backed-off retry of a stranded request re-enters dispatch.
    RETRY = "retry"
    #: an LLM worker's in-flight prefill/decode iteration completes
    #: (continuous batching advances at these token boundaries).
    DECODE_STEP = "decode_step"


class Event:
    """A timestamped event; ordering is (time, seq) for determinism.

    A ``__slots__`` class rather than a dataclass: millions of events
    are created per run, and the event loop keeps bare ``(time, seq,
    event)`` tuples on its heap so instances are never compared on the
    hot path.  The rich comparisons below preserve the original
    dataclass(order=True) semantics for any out-of-loop callers.
    """

    __slots__ = ("time", "seq", "kind", "payload")

    def __init__(
        self,
        time: float,
        seq: int,
        kind: EventKind,
        payload: Any = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.kind = kind
        self.payload = payload

    def _key(self):
        return (self.time, self.seq)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return self._key() == other._key()

    def __lt__(self, other: "Event") -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return self._key() < other._key()

    def __le__(self, other: "Event") -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return self._key() <= other._key()

    def __gt__(self, other: "Event") -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return self._key() > other._key()

    def __ge__(self, other: "Event") -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return self._key() >= other._key()

    def __hash__(self) -> int:
        return hash((self.time, self.seq))

    def __repr__(self) -> str:
        return (
            f"Event(time={self.time!r}, seq={self.seq!r},"
            f" kind={self.kind!r}, payload={self.payload!r})"
        )
