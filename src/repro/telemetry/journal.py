"""Persistent run ledger: an append-only ``events.jsonl`` per campaign.

Per-run telemetry (metrics, traces, spans) lives in memory and dies with
the process; a *campaign* — checkpointed, resumed, possibly fanned out
across worker processes — needs a durable record of what happened across
all of them. :class:`RunJournal` provides it: one JSON object per line,
appended with the same crash-safety discipline the checkpoint store
uses, just adapted to an append-only log:

* every append opens the file in append mode, writes **one complete
  line**, flushes, and fsyncs — an event is either fully on disk or not
  recorded at all under normal operation;
* a crash (or an injected ``torn@events.jsonl`` fault) can still leave a
  torn final line with no newline; :func:`read_journal` tolerates it by
  skipping any unparseable line, and the next append first terminates a
  torn tail with a newline so the damage stays confined to that one
  line;
* events carry a wall-clock ``ts`` and the writing ``pid``, so a ledger
  shared by several ``rcoal shard`` workers interleaves into
  per-process lanes instead of garbage — appends in append mode are
  atomic at the single-``write`` level for these small lines.

A ``seq`` is assigned **at read time** as the 1-based index of each
complete line, mirroring the ``/trace?since=`` cursor contract: a client
that saw ``next_since = N`` asks for ``since=N`` and receives only lines
``N+1..``. Because the file is append-only, a line's seq never changes
(ledger compaction rewrites the file and documents the cursor reset).

The journal is consulted on the hot path only through its ``enabled``
flag; :meth:`RunJournal.disabled` is the null object every emission site
defaults to, so an unledgered run pays one attribute check per phase —
not per sample — and produces byte-identical output.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.telemetry.log import get_logger

__all__ = [
    "JOURNAL_NAME",
    "LEASE_KINDS",
    "RunJournal",
    "events_since",
    "last_event",
    "read_journal",
    "worker_id",
]

log = get_logger(__name__)

#: File name of the ledger inside a campaign/checkpoint directory.
JOURNAL_NAME = "events.jsonl"

#: Lease-protocol events shard workers (``rcoal shard``) append: claims,
#: heartbeat renewals, stale-lease steals, and releases. Every one
#: carries a ``worker`` field (see :func:`worker_id`), so the manifest
#: can fold the ledger into per-worker lanes even after the lease files
#: themselves are gone.
LEASE_KINDS = frozenset({
    "lease_claim", "lease_heartbeat", "lease_steal", "lease_release",
})


def worker_id() -> str:
    """A shard worker's default identity: ``<host>-<pid>``.

    Hostname and pid together stay unique across the multi-host
    shared-directory deployments ``rcoal shard`` targets; operators and
    tests can pin a stable, human-readable name via ``--worker`` instead.
    """
    import socket

    return f"{socket.gethostname()}-{os.getpid()}"


class RunJournal:
    """Append-only, crash-safe event ledger for one campaign directory.

    Holds only a path and a flag, so it pickles trivially — but pool
    workers never get one: the phase executor strips it from the context
    it ships to them (:class:`repro.experiments.runner.PhaseWork`).
    """

    def __init__(self, path: Union[str, Path], enabled: bool = True):
        self.path = Path(path)
        self.enabled = enabled
        self._lock = threading.Lock()
        self._tail_checked = False

    @classmethod
    def disabled(cls) -> "RunJournal":
        """The null object: every ``append`` is a no-op."""
        return cls(os.devnull, enabled=False)

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return f"RunJournal({str(self.path)!r}, {state})"

    # Pickle without the (unpicklable) lock; a copy re-creates its own.
    def __getstate__(self) -> dict:
        return {"path": self.path, "enabled": self.enabled}

    def __setstate__(self, state: dict) -> None:
        self.path = state["path"]
        self.enabled = state["enabled"]
        self._lock = threading.Lock()
        self._tail_checked = False

    def append(self, kind: str, **fields) -> None:
        """Record one event; a no-op when the journal is disabled.

        The event is ``{"kind", "ts", "pid", **fields}`` serialized as a
        single compact JSON line, flushed and fsynced before returning.
        An active ``torn@<name>`` fault plan (``repro.faults``) tears the
        write mid-line — half the bytes, no newline — and raises, the
        same crash model the atomic writer is tested under.
        """
        if not self.enabled:
            return
        event = {"kind": kind, "ts": round(time.time(), 6),
                 "pid": os.getpid()}
        event.update(fields)
        data = (json.dumps(event, sort_keys=True, separators=(",", ":"))
                + "\n").encode("utf-8")
        from repro.faults import active_plan

        plan = active_plan()
        with self._lock:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "ab") as handle:
                if not self._tail_checked:
                    self._repair_torn_tail(handle)
                    self._tail_checked = True
                if plan is not None:
                    spec = plan.torn_write_fires(self.path.name)
                    if spec is not None:
                        from repro.faults import TornWriteError

                        handle.write(data[: max(1, len(data) // 2)])
                        handle.flush()
                        # The tail is torn now — make this instance's
                        # next append re-check it, like the fresh
                        # instance a real post-crash process would be.
                        self._tail_checked = False
                        raise TornWriteError(
                            f"injected torn write {spec.describe()} while "
                            f"appending to {self.path}"
                        )
                handle.write(data)
                handle.flush()
                os.fsync(handle.fileno())

    def _repair_torn_tail(self, handle) -> None:
        """Terminate a torn final line so this append starts fresh.

        ``handle`` is the journal open in append mode, positioned at the
        end. If the last byte on disk is not a newline, a previous writer
        died mid-line; writing one newline confines the damage to that
        single (unparseable, hence skipped) line.
        """
        if handle.tell() == 0:
            return
        with open(self.path, "rb") as reader:
            reader.seek(-1, os.SEEK_END)
            if reader.read(1) != b"\n":
                handle.write(b"\n")
                log.warning("repaired torn tail line in %s", self.path)

    def read(self) -> List[dict]:
        """This journal's complete events (see :func:`read_journal`)."""
        return read_journal(self.path)


def read_journal(path: Union[str, Path]) -> List[dict]:
    """All complete events of a ledger, each stamped with its ``seq``.

    ``seq`` is the 1-based complete-line index — the cursor currency of
    ``events_since`` and the ``/campaign`` endpoint. Unparseable lines
    (a torn tail, or garbage from a foreign writer) are skipped without
    consuming a seq, so cursors count exactly the events a reader can
    see. A missing file is an empty ledger, not an error.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError:
        return []
    events: List[dict] = []
    lines = data.split(b"\n")
    # A final element is b"" when the file ends with a newline; anything
    # else is a torn tail, which the parse below rejects anyway.
    for raw in lines:
        if not raw.strip():
            continue
        try:
            event = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            log.debug("skipping unparseable ledger line in %s", path)
            continue
        if not isinstance(event, dict):
            continue
        event["seq"] = len(events) + 1
        events.append(event)
    return events


def events_since(path: Union[str, Path], since: int = 0,
                 limit: int = 0) -> dict:
    """Incremental ledger read with the ``/trace?since=`` cursor contract.

    Returns ``{"events", "next_since", "dropped", "recorded"}`` — events
    with ``seq > since`` oldest-first, the cursor for the next poll, how
    many qualifying events ``limit`` trimmed, and the total on record.
    """
    events = read_journal(path)
    recorded = len(events)
    fresh = [event for event in events if event["seq"] > since]
    dropped = 0
    if limit and len(fresh) > limit:
        dropped = len(fresh) - limit
        fresh = fresh[-limit:]
    next_since = fresh[-1]["seq"] if fresh else min(since, recorded)
    return {"events": fresh, "next_since": next_since,
            "dropped": dropped, "recorded": recorded}


def last_event(path: Union[str, Path],
               kinds: Optional[set] = None) -> Optional[dict]:
    """The newest complete (optionally kind-filtered) event, or None.

    Reads only the file's final chunk, so health polls against a long
    ledger stay O(1).
    """
    path = Path(path)
    try:
        size = os.path.getsize(path)
    except OSError:
        return None
    with open(path, "rb") as handle:
        handle.seek(max(0, size - 65536))
        data = handle.read()
    lines = data.split(b"\n")
    # The first line may be a mid-line fragment when we seeked into the
    # middle of the file; iterating from the end never reaches it unless
    # it parses cleanly anyway.
    for raw in reversed(lines):
        if not raw.strip():
            continue
        try:
            event = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            continue
        if isinstance(event, dict) and (kinds is None
                                        or event.get("kind") in kinds):
            return event
    return None
