"""Coordinator-free sharded campaign execution (``rcoal shard DIR``).

N worker processes — launched separately, possibly on different hosts
sharing one campaign directory — cooperatively drain a campaign with no
scheduler and no coordinator. This module is the phase executor's
``lease`` scheduler (:func:`run_leases`, chosen whenever
``ExperimentContext.shard`` is set) and the lease protocol it claims
work through. The only shared state is the filesystem, and the only
primitives are the ones the checkpoint layer already guarantees
crash-safe:

* **work items** are fixed-boundary phase chunks —
  :func:`repro.experiments.checkpoint.contiguous_chunks` over the full
  sample range, a pure function of ``(num_samples, chunk_samples)`` — so
  every worker enumerates the identical list;
* a worker **claims** a chunk by atomically creating its lease file
  (``O_CREAT | O_EXCL``) in the phase directory — the lease body names
  the owner (worker id, host, pid) and a wall-clock deadline;
* while simulating, the worker **renews** the lease (rewrites the
  deadline atomically) and appends ``lease_heartbeat`` events to the run
  ledger; heartbeats ride the per-sample progress callback, so a worker
  hung *inside* a sample stops renewing exactly like a dead one;
* an expired lease (dead or hung worker) is **reclaimed** by any peer:
  rename the stale lease to a uniquely-named tombstone (only one of the
  racing renames can win), delete the tombstone, claim fresh. A torn or
  unparseable lease file is treated exactly like the ledger's torn tail:
  damaged ⇒ stale ⇒ reclaimable;
* a completed chunk is **committed** through the executor's one commit —
  the checkpoint store's atomic-write discipline, duplicate-tolerantly
  (:meth:`~repro.experiments.checkpoint.CheckpointStore.commit_chunk`) —
  then the lease is **released** (unlinked, if still ours).

Why this is *correct* and not merely likely-correct: leases are an
efficiency device, never a correctness device. Every sample's result is
a pure function of ``(root_seed, stream name, sample index)``, so two
workers that ever simulate the same chunk — a stolen lease whose
original owner wakes up and finishes late, a TOCTOU window between a
staleness check and a steal — produce identical records, and the first
atomic commit wins while the second is a byte-preserving no-op. The
merged output of K workers with injected mid-lease kills is therefore
byte-identical to the serial run; the lease layer only decides how much
work gets done twice.

Losing a claim race (or finding every remaining chunk validly leased by
live peers) backs the worker off — capped exponential with jitter drawn
from the campaign's own seeded RNG (stream ``"shard#<worker>"``), so
even the backoff schedule replays deterministically per worker. The
wait is bounded: a peer that stops making progress stops heartbeating,
its lease expires after ``lease_seconds``, and the waiter reclaims it —
no scenario leaves the campaign wedged.

Multi-host requirements: the campaign directory must live on a shared
filesystem with POSIX ``O_EXCL`` create, atomic ``rename``, and
appends; hosts' wall clocks feed the lease deadlines, so keep skew well
under ``lease_seconds`` (NTP is plenty). See
``docs/robustness.md#distributed-execution``.
"""

from __future__ import annotations

import errno
import json
import os
import re
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.faults import EXIT_STATUS, InjectedFault, TornWriteError, \
    active_plan
from repro.telemetry import ProgressReporter, get_logger
from repro.telemetry.journal import RunJournal
from repro.utils import capped_backoff

__all__ = [
    "Lease",
    "LeaseManager",
    "ShardPolicy",
    "lease_name",
    "parse_lease",
    "run_leases",
    "LEASE_NAME",
]

log = get_logger(__name__)

#: Lease files encode their work item's span: ``lease-SSSSS-EEEEE.json``.
LEASE_NAME = re.compile(r"lease-(\d+)-(\d+)\.json")

#: Capped exponential backoff, in seconds, after a pass over the remaining
#: work claims nothing (every chunk validly leased by live peers):
#: ``min(cap, base * 2**(round-1))``, jittered by the campaign RNG.
BACKOFF_BASE = 0.05
BACKOFF_CAP = 2.0


def lease_name(start: int, end: int) -> str:
    """The lease file name for the inclusive sample span ``[start, end]``."""
    return f"lease-{start:05d}-{end:05d}.json"


@dataclass(frozen=True)
class ShardPolicy:
    """Knobs of one shard worker (the ``rcoal shard`` flags).

    Attached to an :class:`~repro.experiments.base.ExperimentContext`;
    when set, every collection phase runs on the lease scheduler
    (:func:`run_leases`).
    """

    #: This worker's identity, recorded in lease files and ledger events.
    worker: str
    #: Seconds a lease stays valid without renewal. Peers reclaim a lease
    #: this long past its last renewal; crash recovery latency and the
    #: tolerated clock skew both scale with it.
    lease_seconds: float = 30.0
    #: Seconds between heartbeat renewals. None = ``lease_seconds / 3``,
    #: so a live worker always renews well before peers may steal.
    heartbeat_seconds: Optional[float] = None
    #: Work-item granularity in samples; the boundaries are fixed over
    #: the full sample range, so every worker leases the same spans.
    chunk_samples: int = 8

    def heartbeat(self) -> float:
        if self.heartbeat_seconds is not None:
            return self.heartbeat_seconds
        return self.lease_seconds / 3.0

    def validate(self) -> "ShardPolicy":
        """Reject impossible lease timings loudly (exit 3), not with a
        wedged campaign: a non-positive deadline would make every lease
        stillborn-stale, and a heartbeat at or past the deadline would
        make every live worker look dead to its peers."""
        if self.lease_seconds <= 0:
            raise ConfigurationError(
                f"impossible lease deadline: --lease-seconds must be "
                f"positive, got {self.lease_seconds}"
            )
        if self.heartbeat() <= 0 or self.heartbeat() >= self.lease_seconds:
            raise ConfigurationError(
                f"impossible heartbeat interval "
                f"{self.heartbeat()}s: must be positive and shorter "
                f"than the {self.lease_seconds}s lease deadline"
            )
        if self.chunk_samples < 1:
            raise ConfigurationError(
                f"--chunk must be at least 1 sample, "
                f"got {self.chunk_samples}"
            )
        return self


@dataclass
class Lease:
    """One parsed lease file (or the report that it could not be parsed)."""

    path: Path
    start: int
    end: int
    owner: Optional[str] = None
    host: Optional[str] = None
    pid: Optional[int] = None
    deadline: Optional[float] = None
    created: Optional[float] = None
    renewed: Optional[float] = None
    renewals: int = 0
    #: True when the file held no valid JSON body — a torn write or a
    #: crash mid-create. Torn ⇒ stale ⇒ reclaimable, like the ledger tail.
    torn: bool = False

    def stale(self, now: Optional[float] = None) -> bool:
        if self.torn or self.deadline is None:
            return True
        return (time.time() if now is None else now) > self.deadline


def parse_lease(path: Path) -> Optional[Lease]:
    """Read one lease file; None if it vanished (released/stolen first).

    Any unreadable or unparseable body comes back as a ``torn`` lease —
    the damage-tolerance contract shared with the run ledger: a reader
    never crashes on a half-written file, it treats it as reclaimable.
    """
    match = LEASE_NAME.fullmatch(path.name)
    start, end = (int(match.group(1)), int(match.group(2))) if match \
        else (-1, -1)
    try:
        body = json.loads(path.read_bytes().decode("utf-8"))
        if not isinstance(body, dict):
            raise ValueError("lease body is not an object")
    except OSError:
        return None if not path.exists() else Lease(path, start, end,
                                                    torn=True)
    except (ValueError, UnicodeDecodeError):
        return Lease(path, start, end, torn=True)
    deadline = body.get("deadline")
    return Lease(
        path, start, end,
        owner=body.get("owner"),
        host=body.get("host"),
        pid=body.get("pid"),
        deadline=deadline if isinstance(deadline, (int, float)) else None,
        created=body.get("created"),
        renewed=body.get("renewed"),
        renewals=int(body.get("renewals", 0) or 0),
    )


class LeaseManager:
    """The lease protocol for one phase directory, from one worker's side.

    All mutations go through three filesystem primitives whose atomicity
    POSIX (and NFSv3+) guarantees: exclusive create (claim), rename
    (steal — at most one of N racing renames of the same name succeeds),
    and replace (renew). The ledger records every transition.
    """

    def __init__(self, phase_dir: Path, policy: ShardPolicy,
                 journal: RunJournal, phase: str):
        self.phase_dir = Path(phase_dir)
        self.policy = policy
        self.journal = journal
        self.phase = phase
        self._steal_counter = 0

    # -- lease body -----------------------------------------------------------

    def _body(self, renewals: int, created: float) -> bytes:
        import socket

        now = time.time()
        return (json.dumps({
            "owner": self.policy.worker,
            "host": socket.gethostname(),
            "pid": os.getpid(),
            "created": round(created, 6),
            "renewed": round(now, 6),
            "renewals": renewals,
            "deadline": round(now + self.policy.lease_seconds, 6),
        }, sort_keys=True) + "\n").encode("utf-8")

    def _write_new(self, path: Path, data: bytes) -> None:
        """Exclusive-create the lease file; the claim-race arbiter.

        An armed ``torn@lease`` fault writes half the body and raises —
        the crash-mid-create model. The damaged file stays behind (as it
        would after a real crash) and reads back as torn ⇒ stale, so any
        worker, including this one on its next pass, reclaims it.
        """
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
        try:
            plan = active_plan()
            spec = plan.lease_write_torn() if plan is not None else None
            if spec is not None:
                os.write(fd, data[: max(1, len(data) // 2)])
                raise TornWriteError(
                    f"injected torn write {spec.describe()} while "
                    f"creating {path}"
                )
            os.write(fd, data)
            os.fsync(fd)
        finally:
            os.close(fd)

    def _replace(self, path: Path, data: bytes) -> None:
        """Atomically replace a lease body (renewal / forced expiry)."""
        tmp = path.with_name(path.name + f".tmp-{os.getpid()}")
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)

    # -- protocol -------------------------------------------------------------

    def claim(self, start: int, end: int) -> Optional[Lease]:
        """Try to claim the span ``[start, end]``; None when we lost.

        Losing covers: a live peer holds it, we lost the create or the
        steal race, or our own lease write tore. A stale or torn lease
        is reclaimed first — tombstone-rename, then a fresh exclusive
        create, so two workers reclaiming the same corpse cannot both
        win.
        """
        path = self.phase_dir / lease_name(start, end)
        created = time.time()
        try:
            self._write_new(path, self._body(0, created))
        except FileExistsError:
            holder = parse_lease(path)
            if holder is None:
                return None  # vanished: released under us; next pass
            if not holder.stale():
                return None  # validly held by a live peer
            if not self._steal(path, holder):
                return None
            try:
                created = time.time()
                self._write_new(path, self._body(0, created))
            except FileExistsError:
                return None  # lost the re-create race to another thief
            except TornWriteError:
                return None
        except TornWriteError:
            return None
        lease = parse_lease(path)
        if lease is None or lease.owner != self.policy.worker:
            return None
        self.journal.append("lease_claim", phase=self.phase,
                            start=start, end=end,
                            worker=self.policy.worker,
                            deadline=lease.deadline)
        return lease

    def _steal(self, path: Path, holder: Lease) -> bool:
        """Reclaim a stale lease; True when this worker won the steal.

        The rename target is unique per (worker, attempt), so however
        many peers notice the same corpse, the filesystem hands the
        inode to exactly one of them; the losers see ENOENT and move on.
        """
        self._steal_counter += 1
        tombstone = path.with_name(
            f".{path.name}.stale-{self.policy.worker}"
            f"-{self._steal_counter}")
        try:
            os.rename(path, tombstone)
        except OSError as exc:
            if exc.errno in (errno.ENOENT, errno.ESTALE):
                return False
            raise
        try:
            os.unlink(tombstone)
        except OSError:
            pass
        self.journal.append(
            "lease_steal", phase=self.phase,
            start=holder.start, end=holder.end,
            worker=self.policy.worker,
            previous_owner=holder.owner, torn=holder.torn,
            expired_for=(None if holder.deadline is None else
                         round(time.time() - holder.deadline, 3)))
        log.warning("reclaimed %s lease %d-%d from %s (%s)",
                    self.phase_dir.name, holder.start, holder.end,
                    holder.owner or "?",
                    "torn" if holder.torn else "expired")
        return True

    def renew(self, lease: Lease) -> None:
        """Extend our deadline and append the heartbeat to the ledger.

        Renewal is best-effort by design: if the lease was stolen out
        from under us (our file replaced or gone), we *keep working* —
        correctness never depended on holding the lease, and the commit
        path is duplicate-tolerant. The heartbeat event still lands, so
        the status plane shows this worker alive.
        """
        lease.renewals += 1
        current = parse_lease(lease.path)
        stolen = current is None or (not current.torn
                                     and current.owner
                                     != self.policy.worker)
        if not stolen:
            self._replace(lease.path,
                          self._body(lease.renewals,
                                     lease.created or time.time()))
            refreshed = parse_lease(lease.path)
            if refreshed is not None:
                lease.deadline = refreshed.deadline
        self.journal.append("lease_heartbeat", phase=self.phase,
                            start=lease.start, end=lease.end,
                            worker=self.policy.worker,
                            renewals=lease.renewals, stolen=stolen)

    def release(self, lease: Lease, reason: str = "done") -> None:
        """Drop our lease (only if still ours) and journal the release."""
        current = parse_lease(lease.path)
        if current is not None and not current.torn \
                and current.owner == self.policy.worker:
            try:
                os.unlink(lease.path)
            except OSError:
                pass
        self.journal.append("lease_release", phase=self.phase,
                            start=lease.start, end=lease.end,
                            worker=self.policy.worker, reason=reason)

    def expire_own(self, lease: Lease) -> None:
        """Force our own lease's deadline into the past (``steal@lease``):
        to every peer it now looks like a dead worker's leftovers, while
        we keep simulating — the double-commit rehearsal."""
        body = json.loads(self._body(lease.renewals,
                                     lease.created or time.time()))
        body["deadline"] = 0.0
        self._replace(lease.path,
                      (json.dumps(body, sort_keys=True) + "\n")
                      .encode("utf-8"))
        lease.deadline = 0.0


class _HeartbeatProgress:
    """Progress adapter that renews the lease as samples complete.

    Wraps the per-sample ``update()`` callback the simulation cores
    already invoke, so heartbeats cost a clock read per sample and stop
    the moment the worker stops finishing samples — hung and dead
    workers become indistinguishable to peers, which is the point.
    """

    def __init__(self, manager: LeaseManager, lease: Lease,
                 interval: float, reporter: ProgressReporter):
        self.manager = manager
        self.lease = lease
        self.interval = interval
        self.reporter = reporter
        self._last = time.monotonic()

    def update(self, n: int = 1) -> None:
        self.reporter.update(n)
        now = time.monotonic()
        if now - self._last >= self.interval:
            self._last = now
            self.manager.renew(self.lease)


def _covered(spans: List[Tuple[int, int]]) -> set:
    covered: set = set()
    for start, end in spans:
        covered.update(range(start, end + 1))
    return covered


def _act_out_lease_fault(manager: LeaseManager, lease: Lease) -> None:
    """Fire any armed ``@lease`` fault right after a successful claim."""
    plan = active_plan()
    spec = plan.lease_claim_fault() if plan is not None else None
    if spec is None:
        return
    if spec.kind == "steal":
        manager.expire_own(lease)
        log.warning("injected %s: expired own lease %d-%d, continuing",
                    spec.describe(), lease.start, lease.end)
        return
    if spec.kind == "exit":
        # The SIGKILL model: no cleanup, no release — the lease must be
        # reclaimed by peers after the deadline.
        os._exit(EXIT_STATUS)
    if spec.kind == "hang":
        # Block forever mid-lease; heartbeats stop with us.
        threading.Event().wait()
    manager.release(lease, reason="fault")
    raise InjectedFault(
        f"injected fault {spec.describe()} after claiming samples "
        f"{lease.start}-{lease.end}"
    )


def run_leases(phase, progress: ProgressReporter) -> None:
    """The lease scheduler: one shard worker's side of a phase.

    Drains the phase's fixed-boundary work items cooperatively: claim,
    simulate and commit through the executor, release; back off (capped
    exponential, campaign-RNG jitter) when everything left is validly
    leased by live peers; reclaim what the dead leave behind. A failed
    item releases its lease and propagates, so the span returns to the
    claimable pool for peers or a rerun. The chunks peers committed join
    the phase's results at the end; the executor folds by sample index,
    so overlapping chunks (steals, pre-shard partial runs) never
    double-count.
    """
    shard: ShardPolicy = phase.ctx.shard
    store, label = phase.store, phase.label
    manager = LeaseManager(store.phase_dir(label, make=True), shard,
                           phase.journal, phase=label)
    jitter = phase.ctx.stream(f"shard#{shard.worker}")
    idle_rounds = 0
    while True:
        done = _covered(store.completed_spans(label))
        todo = [indices for indices in phase.items
                if not done.issuperset(indices)]
        if not todo:
            break
        progressed = False
        for indices in todo:
            start, end = indices[0], indices[-1]
            if store.has_chunk(label, start, end):
                progressed = True  # a peer finished it since the census
                continue
            lease = manager.claim(start, end)
            if lease is None:
                continue
            _act_out_lease_fault(manager, lease)
            if store.has_chunk(label, start, end):
                # Committed between the census and our claim; the lease
                # was pointless, not wrong.
                manager.release(lease, reason="already-committed")
                progressed = True
                continue
            phase.dispatch(indices, 0)
            heartbeat = _HeartbeatProgress(manager, lease,
                                           shard.heartbeat(), progress)
            started = time.perf_counter()
            try:
                records, telemetry = phase.simulate(indices, 0, heartbeat,
                                                    in_worker=True)
            except KeyboardInterrupt:
                # An interrupted worker releases its lease *before*
                # exiting 130 — peers must never have to wait out the
                # deadline for a clean Ctrl-C.
                manager.release(lease, reason="interrupted")
                print(f"\n[interrupted: released lease {start}-{end} of "
                      f"{phase.policy.describe()}; peers can claim it "
                      f"immediately]", file=sys.stderr)
                raise
            except BaseException as exc:
                manager.release(lease, reason=f"error: "
                                f"{type(exc).__name__}")
                raise
            phase.commit(indices, records, telemetry, 0, started)
            manager.release(lease)
            progressed = True
        if progressed:
            idle_rounds = 0
            continue
        # Everything left is leased by peers that look alive. Back off;
        # if one of them is actually dead, its lease expires within
        # lease_seconds and the next pass reclaims it.
        idle_rounds += 1
        delay = capped_backoff(idle_rounds, BACKOFF_BASE, BACKOFF_CAP)
        delay *= 0.5 + float(jitter.generator.random())
        log.info("all remaining chunks of %s leased by peers; backing "
                 "off %.3fs (round %d)", phase.policy.describe(), delay,
                 idle_rounds)
        time.sleep(delay)
    phase.results.extend(store.load_chunks(label))
