"""Wall-clock span profiling for the experiment runner (axis 2 of
``rcoal profile``).

A :class:`SpanProfiler` aggregates named ``perf_counter_ns`` spans —
"runner.submit", "chunk.simulate", "runner.merge", … — so a run can be
decomposed into pickle / spin-up / compute / merge components without a
sampling profiler. It follows the same null-object discipline as
:class:`~repro.telemetry.core.Telemetry`: the shared
:meth:`SpanProfiler.disabled` singleton records nothing, every
instrumentation site pays one attribute check, and a profiling-off run is
bit-identical to an unprofiled one (``tests/integration/
test_profile_effect.py``).

Workers record into private profilers that ride back inside their chunk
telemetry; the parent folds them in chunk order via :meth:`merge`, exactly
like ``MetricsRegistry.merge``. Aggregates are deterministic in *shape*
(span names and counts merge identically on every run) while the
nanosecond totals are, of course, wall-clock measurements.

Raw spans (a bounded sample) are kept alongside the aggregates so the
``rcoal profile --chrome`` export can show the wall timeline as a fourth
trace process next to the simulated sm/interconnect/dram lanes.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

__all__ = ["SpanProfiler", "PID_WALL"]

#: Chrome-trace process id for wall-clock spans (sim lanes use 0/1/2).
PID_WALL = 3

#: Raw spans kept per profiler for timeline export; aggregates are exact
#: regardless of this bound.
_MAX_RAW_SPANS = 4096


class _Span:
    """Context manager timing one named span (allocation-light)."""

    __slots__ = ("_profiler", "_name", "_start")

    def __init__(self, profiler: "SpanProfiler", name: str):
        self._profiler = profiler
        self._name = name
        self._start = 0

    def __enter__(self) -> "_Span":
        self._start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc_info) -> None:
        self._profiler.record(self._name,
                              time.perf_counter_ns() - self._start,
                              start_ns=self._start)


class _NoopSpan:
    """Shared no-op context manager for the disabled profiler."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


_NOOP_SPAN = _NoopSpan()


class SpanProfiler:
    """Aggregated wall-clock spans with worker merge support."""

    __slots__ = ("enabled", "_totals", "_raw", "_origin_ns", "_lanes")

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        #: name -> [count, total_ns, max_ns]
        self._totals: Dict[str, List[int]] = {}
        #: (lane, name, start_ns relative to origin, dur_ns), bounded.
        self._raw: List[Tuple[int, str, int, int]] = []
        self._origin_ns = time.perf_counter_ns()
        #: Lanes merged in so far (parent = 0, workers 1..n in merge order).
        self._lanes = 0

    @classmethod
    def disabled(cls) -> "SpanProfiler":
        """The shared null object: ``span()`` is a no-op."""
        return _DISABLED

    # -- recording ------------------------------------------------------------

    def span(self, name: str):
        """Context manager timing one occurrence of span ``name``."""
        if not self.enabled:
            return _NOOP_SPAN
        return _Span(self, name)

    def record(self, name: str, dur_ns: int,
               start_ns: Optional[int] = None) -> None:
        """Record one finished span directly (``span()`` calls this)."""
        if not self.enabled:
            return
        entry = self._totals.get(name)
        if entry is None:
            self._totals[name] = [1, dur_ns, dur_ns]
        else:
            entry[0] += 1
            entry[1] += dur_ns
            if dur_ns > entry[2]:
                entry[2] = dur_ns
        if len(self._raw) < _MAX_RAW_SPANS:
            offset = (start_ns - self._origin_ns) if start_ns is not None \
                else 0
            self._raw.append((0, name, max(0, offset), dur_ns))

    # -- merging --------------------------------------------------------------

    def merge(self, other: Optional["SpanProfiler"]) -> "SpanProfiler":
        """Fold a worker's spans into this profiler, in chunk order.

        Counts and totals sum (like ``Counter.merge_from``); maxima take
        the max. The merged aggregate *shape* — span names and counts — is
        deterministic across reruns, which the merge-determinism test
        pins; only the nanosecond values are wall-clock. Merging ``None``
        or a disabled profiler is a no-op.
        """
        if other is None or not other.enabled or other is self:
            return self
        for name, (count, total, peak) in other._totals.items():
            entry = self._totals.get(name)
            if entry is None:
                self._totals[name] = [count, total, peak]
            else:
                entry[0] += count
                entry[1] += total
                if peak > entry[2]:
                    entry[2] = peak
        self._lanes += 1
        lane = self._lanes
        room = _MAX_RAW_SPANS - len(self._raw)
        if room > 0:
            self._raw.extend((lane, name, start, dur)
                             for _, name, start, dur in other._raw[:room])
        return self

    # -- inspection / export --------------------------------------------------

    def __len__(self) -> int:
        return len(self._totals)

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Aggregates as plain dicts, sorted by name (stable-JSON-able)."""
        out: Dict[str, Dict[str, float]] = {}
        for name in sorted(self._totals):
            count, total, peak = self._totals[name]
            out[name] = {
                "count": count,
                "total_ms": round(total / 1e6, 3),
                "mean_ms": round(total / count / 1e6, 3) if count else 0.0,
                "max_ms": round(peak / 1e6, 3),
            }
        return out

    def render_table(self) -> str:
        """Human-readable span table, widest total first."""
        snap = self.snapshot()
        if not snap:
            return "(no wall-clock spans recorded)"
        rows = sorted(snap.items(), key=lambda kv: -kv[1]["total_ms"])
        width = max(len(name) for name, _ in rows)
        lines = [f"{'span'.ljust(width)}  {'count':>6}  {'total ms':>10}  "
                 f"{'mean ms':>9}  {'max ms':>9}"]
        for name, data in rows:
            lines.append(f"{name.ljust(width)}  {data['count']:>6}  "
                         f"{data['total_ms']:>10.3f}  "
                         f"{data['mean_ms']:>9.3f}  "
                         f"{data['max_ms']:>9.3f}")
        return "\n".join(lines)

    def to_chrome_events(self) -> List[dict]:
        """Raw spans as Chrome trace_event dicts on the wall process.

        Timestamps are microseconds from the profiler's origin; lanes
        (parent = 0, merged workers 1..n) map to Chrome thread ids.
        """
        events: List[dict] = [{
            "name": "process_name", "ph": "M", "pid": PID_WALL, "tid": 0,
            "args": {"name": "wall-clock"},
        }]
        events.extend({
            "name": name, "cat": "wall", "ph": "X",
            "ts": start // 1000, "dur": max(1, dur // 1000),
            "pid": PID_WALL, "tid": lane,
        } for lane, name, start, dur in self._raw)
        return events

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return f"SpanProfiler({state}, {len(self._totals)} spans)"


#: Module-level singleton backing :meth:`SpanProfiler.disabled`.
_DISABLED = SpanProfiler(enabled=False)
