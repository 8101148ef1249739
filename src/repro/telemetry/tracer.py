"""Typed simulator event tracing with Chrome ``trace_event`` export.

The :class:`Tracer` records events from the discrete-event engine into a
bounded ring buffer (oldest events are evicted once the capacity is hit, so
a long experiment cannot exhaust memory) and exports them either as Chrome's
``trace_event`` JSON — loadable in ``chrome://tracing`` or
https://ui.perfetto.dev — or as one-JSON-object-per-line JSONL for ad-hoc
scripting.

Timestamps are simulator core cycles, exported 1 cycle = 1 µs so Perfetto's
time axis reads directly in cycles. Events are grouped into three trace
"processes" so the viewer separates the pipeline stages:

* pid 0 (``sm``) — warp issue / compute / coalescing, tid = warp id;
* pid 1 (``interconnect``) — crossbar traversals, tid = output port;
* pid 2 (``dram``) — activate / column / burst, tid = partition id.

Successive kernel launches share one tracer; the engine offsets each
launch's cycles by the tracer's ``time_base`` so kernels appear end-to-end
on the timeline instead of overlapping at cycle zero.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, replace
from typing import Deque, Dict, Iterable, List, Optional, Set, Tuple, Union

from repro.errors import ConfigurationError

__all__ = ["TraceEvent", "Tracer", "PID_SM", "PID_ICNT", "PID_DRAM"]

#: Trace-process ids (Chrome trace "pid") per simulated pipeline stage.
PID_SM = 0
PID_ICNT = 1
PID_DRAM = 2

_PROCESS_NAMES: Dict[int, str] = {
    PID_SM: "sm",
    PID_ICNT: "interconnect",
    PID_DRAM: "dram",
}

Number = Union[int, float]


@dataclass(slots=True)
class TraceEvent:
    """One typed simulator event.

    ``ph`` follows the Chrome trace_event phase codes: ``"X"`` complete
    (has a duration), ``"i"`` instant. ``seq`` is the 1-based position in
    the tracer's recorded stream — monotonically increasing, so streaming
    consumers (the ``--serve`` sink) can drain incrementally with
    :meth:`Tracer.events_since`.

    Events are read-only by convention, not ``frozen``: a frozen
    dataclass sets each field through ``object.__setattr__``, which makes
    construction about five times slower, and the tracer builds one
    event per DRAM command and reply.
    """

    name: str
    cat: str
    ph: str
    ts: Number
    dur: Optional[Number] = None
    pid: int = PID_SM
    tid: int = 0
    args: Optional[Dict[str, object]] = None
    seq: int = 0

    def to_chrome(self) -> Dict[str, object]:
        event: Dict[str, object] = {
            "name": self.name, "cat": self.cat, "ph": self.ph,
            "ts": self.ts, "pid": self.pid, "tid": self.tid,
        }
        if self.ph == "X":
            event["dur"] = self.dur if self.dur is not None else 0
        if self.ph == "i":
            event["s"] = "t"  # thread-scoped instant marker
        if self.args:
            event["args"] = self.args
        return event


class Tracer:
    """A bounded ring buffer of :class:`TraceEvent` records."""

    def __init__(self, capacity: int = 500_000):
        if capacity <= 0:
            raise ConfigurationError(
                f"trace capacity must be positive: {capacity}"
            )
        self.capacity = capacity
        self._events: Deque[TraceEvent] = deque(maxlen=capacity)
        self._recorded = 0
        #: Cycle offset applied by the engine to each new kernel launch.
        self.time_base = 0

    # -- recording ------------------------------------------------------------

    def complete(self, name: str, cat: str, ts: Number, dur: Number,
                 pid: int = PID_SM, tid: int = 0,
                 args: Optional[Dict[str, object]] = None) -> None:
        """Record a duration ("X") event."""
        self._recorded += 1
        # Positional construction: this is the hottest instrumented call
        # site (one per DRAM command and reply), and keyword binding on a
        # 9-field dataclass is measurable there.
        self._events.append(TraceEvent(name, cat, "X", ts, dur, pid, tid,
                                       args, self._recorded))

    def instant(self, name: str, cat: str, ts: Number,
                pid: int = PID_SM, tid: int = 0,
                args: Optional[Dict[str, object]] = None) -> None:
        """Record a point-in-time ("i") event."""
        self._recorded += 1
        self._events.append(TraceEvent(name, cat, "i", ts, None, pid, tid,
                                       args, self._recorded))

    def advance_time_base(self, cycles: Number, gap: Number = 1000) -> None:
        """Shift the origin for the next kernel past the finished one."""
        self.time_base += cycles + gap

    def merge(self, other: "Tracer") -> "Tracer":
        """Append another tracer's timeline after this one, in place.

        Used by the parallel runner to stitch per-worker traces back into
        one timeline: the other tracer's events are re-based onto this
        tracer's current ``time_base`` (each worker started from zero), and
        the time base advances past the merged span, so merging workers in
        sample order reproduces the end-to-end layout a serial run's
        ``advance_time_base`` calls would have produced. Returns ``self``.
        """
        base = self.time_base
        for event in other._events:
            self._recorded += 1
            # Re-sequence onto this tracer's stream so seq stays globally
            # monotonic for incremental consumers.
            self._events.append(replace(event, ts=event.ts + base,
                                        seq=self._recorded))
        # Events the worker's own ring buffer already evicted still count.
        self._recorded += other.dropped
        self.time_base += other.time_base
        return self

    # -- inspection -----------------------------------------------------------

    @property
    def events(self) -> Iterable[TraceEvent]:
        return tuple(self._events)

    def __len__(self) -> int:
        return len(self._events)

    @property
    def recorded(self) -> int:
        """Total events ever recorded (including evicted ones)."""
        return self._recorded

    @property
    def dropped(self) -> int:
        """Events evicted by the ring buffer."""
        return self._recorded - len(self._events)

    def categories(self) -> Set[str]:
        return {event.cat for event in self._events}

    def events_since(self, since: int = 0
                     ) -> Tuple[List[TraceEvent], int, int]:
        """Incrementally drain the ring buffer: events with ``seq > since``.

        Returns ``(events, next_since, dropped)``: the matching events in
        recording order, the cursor to pass on the next call (the last
        returned seq, or ``since`` unchanged when nothing new arrived), and
        the number of requested events the ring buffer already evicted
        (non-zero when the consumer polls slower than the producer records).

        Safe to call from another thread while the simulator records (the
        ``--serve`` sink does): the buffer snapshot is retried on the rare
        mutation-during-iteration race instead of locking the hot path.
        """
        events: List[TraceEvent] = []
        for _ in range(16):
            try:
                events = [e for e in self._events if e.seq > since]
                break
            except RuntimeError:  # deque mutated during iteration; retry
                continue
        if not events:
            return [], since, 0
        dropped = max(0, events[0].seq - since - 1)
        return events, events[-1].seq, dropped

    # -- export ---------------------------------------------------------------

    def chrome_trace(self) -> Dict[str, object]:
        """The events as a Chrome ``trace_event`` JSON object."""
        events: List[Dict[str, object]] = [
            {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
             "args": {"name": process_name}}
            for pid, process_name in sorted(_PROCESS_NAMES.items())
        ]
        events.extend(event.to_chrome() for event in self._events)
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "source": "rcoal simulator",
                "time_unit": "1 trace us = 1 core cycle",
                "recorded": self._recorded,
                "dropped": self.dropped,
            },
        }

    def write_chrome_trace(self, path: str) -> str:
        """Write the Chrome trace JSON atomically; returns the path."""
        from repro.utils import atomic_write_text
        atomic_write_text(path, json.dumps(self.chrome_trace()))
        return path

    def write_jsonl(self, path: str) -> str:
        """Write one JSON object per event, atomically; returns the path."""
        from repro.utils import atomic_write_text
        lines = [json.dumps(event.to_chrome()) for event in self._events]
        atomic_write_text(path, "".join(line + "\n" for line in lines))
        return path
