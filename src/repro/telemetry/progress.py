"""Per-sample experiment progress reporting with ETA.

Experiments encrypt hundreds of plaintexts per mechanism; a full paper-scale
run takes minutes with no feedback. :class:`ProgressReporter` prints a
single self-overwriting status line to stderr — samples done, percentage,
elapsed wall time, and a rate-based ETA — throttled so the write overhead
stays negligible. Disabled reporters are no-ops, so the call sites in
:mod:`repro.experiments.runner` cost one attribute check when progress
reporting is off (the default; tests and pipelines see clean streams).

When the parallel runner fans samples out across worker processes, each
worker writing its own status line would interleave garbage on stderr.
Instead the workers put per-sample increments on a queue via
:class:`QueueProgress`, and a single :class:`ProgressAggregator` in the
parent drains that queue on a daemon thread into one
:class:`ProgressReporter` — one line, global ETA.
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Optional, TextIO

__all__ = ["ProgressReporter", "QueueProgress", "ProgressAggregator",
           "ProgressBoard"]


def _format_seconds(seconds: float) -> str:
    if seconds >= 3600:
        return f"{seconds / 3600:.1f}h"
    if seconds >= 60:
        return f"{seconds / 60:.1f}m"
    return f"{seconds:.1f}s"


class ProgressBoard:
    """Thread-safe live progress state, read back by the ``--serve`` sink.

    Reporters (serial and queue-aggregated alike) publish their state here
    when handed a board; the telemetry HTTP server's ``/progress`` endpoint
    snapshots it. One entry per reporter label (an experiment phase such as
    ``"fss M=8"``), in first-update order, so the dashboard shows each
    collection phase of a run as it starts.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._entries: dict = {}
        self._incidents: dict = {}
        self._created = time.monotonic()

    def publish(self, label: str, done: int, total: int,
                elapsed: float, eta: Optional[float] = None,
                state: str = "running") -> None:
        """Record the live state of one labelled phase."""
        with self._lock:
            self._entries[label or "run"] = {
                "done": done,
                "total": total,
                "percent": round(100.0 * done / total, 1) if total else 0.0,
                "elapsed_seconds": round(elapsed, 3),
                "eta_seconds": round(eta, 3) if eta is not None else None,
                "state": state,
            }

    def finish(self, label: str) -> None:
        """Mark one phase complete (keeps its final counts)."""
        with self._lock:
            entry = self._entries.get(label or "run")
            if entry is not None:
                entry["state"] = "done"
                entry["eta_seconds"] = 0.0

    def incident(self, kind: str, amount: int = 1) -> None:
        """Count one supervision incident (retry, timeout, quarantine...).

        The resilient runner reports here so a ``--serve`` dashboard shows
        campaign health live; ``/progress`` and ``/health`` surface the
        counters.
        """
        with self._lock:
            self._incidents[kind] = self._incidents.get(kind, 0) + amount

    def snapshot(self) -> dict:
        """All phases plus aggregate totals, as plain JSON-ready dicts."""
        with self._lock:
            phases = {label: dict(entry)
                      for label, entry in self._entries.items()}
            incidents = dict(self._incidents)
        done = sum(e["done"] for e in phases.values())
        total = sum(e["total"] for e in phases.values())
        return {
            "phases": phases,
            "done": done,
            "total": total,
            "incidents": incidents,
            "uptime_seconds": round(time.monotonic() - self._created, 3),
        }


class ProgressReporter:
    """Writes ``label 12/40 (30%) elapsed 1.2s eta 2.8s`` lines to stderr.

    When given a :class:`ProgressBoard`, the reporter also publishes its
    state there on every update — independently of ``enabled``, which only
    gates the stderr line — so a ``--serve`` dashboard sees progress even
    when the terminal status line is off.
    """

    def __init__(self, total: int, label: str = "",
                 stream: Optional[TextIO] = None, enabled: bool = True,
                 min_interval: float = 0.1,
                 board: Optional[ProgressBoard] = None):
        self.total = max(total, 0)
        self.label = label
        self.enabled = enabled and self.total > 0
        self.board = board if self.total > 0 else None
        self._stream = stream if stream is not None else sys.stderr
        self._min_interval = min_interval
        self._done = 0
        self._started: Optional[float] = None
        self._last_write = 0.0
        self._wrote_any = False

    @property
    def done(self) -> int:
        return self._done

    def update(self, amount: int = 1) -> None:
        """Record ``amount`` finished samples and maybe repaint the line."""
        if not self.enabled and self.board is None:
            return
        now = time.monotonic()
        if self._started is None:
            self._started = now
        self._done += amount
        if self.board is not None:
            elapsed = now - self._started
            eta = (elapsed / self._done * (self.total - self._done)
                   if 0 < self._done < self.total and elapsed > 0 else None)
            self.board.publish(self.label, self._done, self.total,
                               elapsed, eta)
        if not self.enabled:
            return
        final = self._done >= self.total
        if not final and now - self._last_write < self._min_interval:
            return
        self._last_write = now
        self._write_line(now)

    def finish(self) -> None:
        """Repaint the final state and terminate the status line."""
        if self.board is not None:
            self.board.finish(self.label)
        if not self.enabled or not self._wrote_any:
            return
        self._write_line(time.monotonic())
        self._stream.write("\n")
        self._stream.flush()

    def _write_line(self, now: float) -> None:
        elapsed = now - (self._started if self._started is not None else now)
        percent = 100.0 * self._done / self.total
        line = (f"{self.label + ' ' if self.label else ''}"
                f"{self._done}/{self.total} ({percent:.0f}%) "
                f"elapsed {_format_seconds(elapsed)}")
        if 0 < self._done < self.total and elapsed > 0:
            remaining = elapsed / self._done * (self.total - self._done)
            line += f" eta {_format_seconds(remaining)}"
        self._stream.write(f"\r{line}\x1b[K")
        self._stream.flush()
        self._wrote_any = True


class QueueProgress:
    """Worker-side progress sink: puts increments on a shared queue.

    Mirrors the :class:`ProgressReporter` ``update``/``finish`` surface so
    worker code is agnostic about whether it reports locally or fans in to
    a parent :class:`ProgressAggregator`. A ``None`` queue disables it.
    """

    def __init__(self, queue=None):
        self._queue = queue
        self.enabled = queue is not None

    def update(self, amount: int = 1) -> None:
        if self._queue is not None:
            self._queue.put(amount)

    def finish(self) -> None:  # parity with ProgressReporter
        pass


class ProgressAggregator:
    """Parent-side fan-in for multi-process progress reporting.

    Drains worker increments from a queue on a daemon thread and repaints
    one :class:`ProgressReporter` line, so N workers produce exactly the
    same single status line a serial run would. Use as a context manager::

        with ProgressAggregator(total, queue, label="rss M=8") as agg:
            ... submit work; workers put increments on `queue` ...
        # on exit: drains remaining increments, prints the final line

    A ``None`` queue means no worker fan-in: in-process code updates
    :attr:`reporter` directly.
    """

    def __init__(self, total: int, queue, label: str = "",
                 stream: Optional[TextIO] = None, enabled: bool = True,
                 board: Optional[ProgressBoard] = None):
        self.reporter = ProgressReporter(total, label=label, stream=stream,
                                         enabled=enabled, board=board)
        self._queue = queue
        self._thread: Optional[threading.Thread] = None

    def __enter__(self) -> "ProgressAggregator":
        if self._queue is not None and (self.reporter.enabled
                                        or self.reporter.board is not None):
            self._thread = threading.Thread(target=self._drain, daemon=True)
            self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _drain(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            self.reporter.update(item)

    def stop(self) -> None:
        """Stop draining (workers are done) and print the final state."""
        if self._thread is not None:
            self._queue.put(None)
            self._thread.join()
            self._thread = None
        self.reporter.finish()
