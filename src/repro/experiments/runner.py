"""The phase executor: every collection phase runs through one path.

The paper's evaluation is a campaign of independent kernel launches:
:func:`~repro.experiments.base.collect_records` simulates ~100 of them
per (mechanism, subwarp count) cell, and ``rcoal all`` runs ~20
experiments made of such cells. Every per-sample draw derives from
``(root_seed, stream name, sample index)``
(``ExperimentContext.sample_stream``), so any sample can be simulated
anywhere, in any order, any number of times: serial, pooled,
checkpointed and leased execution are only different schedules of one
phase. :func:`run_phase` is that phase.

* **Set up once.** Reject an empty phase, name it
  (:func:`~repro.experiments.checkpoint.phase_label`), resolve its engine
  (:func:`repro.utils.phase_engine`), pick its run ledger, bind the fault
  plan, restore checkpointed chunks and list the missing samples.
* **Work items** are contiguous spans of the missing samples
  (:func:`~repro.experiments.checkpoint.contiguous_chunks`): one per
  worker when nothing is persisted, retried or leased;
  ``SupervisionPolicy.serial_chunk_samples`` in-process and about a
  quarter of a worker's share in a pool when something is;
  ``ShardPolicy.chunk_samples`` over the full range for leases.
* **One of three schedulers** decides how items are claimed and run,
  following ``ctx.shard`` and ``ctx.effective_jobs()``: ``inline``
  (in-process), ``pool`` (worker processes; :func:`_run_pool`) or
  ``lease`` (cooperating ``rcoal shard`` workers;
  :func:`repro.experiments.shard.run_leases`).
* **One path each** to simulate an item (:meth:`PhaseWork.simulate`),
  commit it (the checkpoint store, then the ``chunk_done`` event), handle
  its failure (retry, split and quarantine under a
  :class:`SupervisionPolicy`; propagate otherwise) and finish the phase
  (fold by sample index, merge telemetry in sample order, build the
  server).

Outputs are bit-identical however a phase is scheduled: items are
contiguous and fold back in sample order, so merged metrics and traces
equal one in-process run's (``MetricsRegistry.merge`` /
``Tracer.merge``), and a resumed campaign re-simulates only its missing
samples. A fault plan's sample faults fire before an item simulates, on
whatever engine the phase resolved, so chaos runs exercise the engines a
default run uses.

Pool workers inherit the parent's environment (``REPRO_FAST`` etc.); the
worker entry point lives at module level so the pool works under both
the ``fork`` and ``spawn`` start methods.
"""

from __future__ import annotations

import atexit
import math
import multiprocessing
import sys
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.policies import CoalescingPolicy
from repro.errors import (ConfigurationError, ExperimentError,
                          WorkerCrashError)
from repro.experiments.base import (
    ExperimentContext,
    build_server,
    victim_stream_name,
)
from repro.experiments.checkpoint import (
    ChunkResult,
    contiguous_chunks,
    phase_label,
)
from repro.telemetry import (
    ProgressAggregator,
    QueueProgress,
    SpanProfiler,
    Telemetry,
    get_logger,
)
from repro.telemetry.journal import RunJournal
from repro.utils import capped_backoff, env_flag, phase_engine
from repro.workloads.plaintext import random_plaintexts
from repro.workloads.server import EncryptionRecord, EncryptionServer

__all__ = [
    "CampaignStats",
    "PhaseWork",
    "SupervisionPolicy",
    "run_experiments_parallel",
    "run_phase",
]

log = get_logger(__name__)

#: Pool work items per worker when items are persisted or retried, so a
#: killed item forfeits only a fraction of a worker's samples and
#: splitting isolates poison samples quickly.
CHUNKS_PER_WORKER = 4
#: Pool rebuilds (after timeouts or worker deaths) a supervised phase
#: tolerates before it degrades to the inline scheduler.
MAX_POOL_RESTARTS = 2

#: Worker-global progress queue, installed by the pool initializer (a
#: multiprocessing queue cannot ride along in pickled task payloads).
_WORKER_PROGRESS_QUEUE = None


def _init_worker(progress_queue) -> None:
    global _WORKER_PROGRESS_QUEUE
    _WORKER_PROGRESS_QUEUE = progress_queue


#: Process-wide warm worker pool (see :func:`_shared_pool`).
_SHARED_POOL: Optional[ProcessPoolExecutor] = None
_SHARED_POOL_JOBS = 0
_SHARED_POOL_ATEXIT = False


def _shared_pool(jobs: int) -> ProcessPoolExecutor:
    """A warm, process-wide pool for non-progress-reporting fan-outs.

    Standing up a ``ProcessPoolExecutor`` costs worker spawn plus the
    package import chain — whole seconds on small hosts — and a figure
    harness calls ``collect_records`` once per (mechanism, subwarp-count)
    cell, so paying that per call made small parallel campaigns *slower*
    than serial (fig07's 0.93x parallel "speedup" in BENCH_3). Reusing
    one pool amortizes the spin-up to once per process; workers hold no
    per-call state (every task payload carries its full context), so the
    results stay bit-identical.

    Only used when no progress queue is needed: the queue rides in via
    the pool initializer, so progress-reporting/--serve runs keep their
    per-call pools, where spin-up is noise against the run length anyway.
    """
    global _SHARED_POOL, _SHARED_POOL_JOBS, _SHARED_POOL_ATEXIT
    if _SHARED_POOL is not None and _SHARED_POOL_JOBS != jobs:
        _discard_shared_pool()
    if _SHARED_POOL is None:
        _SHARED_POOL = ProcessPoolExecutor(
            max_workers=jobs, initializer=_init_worker, initargs=(None,))
        _SHARED_POOL_JOBS = jobs
        if not _SHARED_POOL_ATEXIT:
            atexit.register(_discard_shared_pool)
            _SHARED_POOL_ATEXIT = True
    return _SHARED_POOL


def _discard_shared_pool() -> None:
    """Drop the warm pool (broken pool, Ctrl-C, or interpreter exit)."""
    global _SHARED_POOL, _SHARED_POOL_JOBS
    pool = _SHARED_POOL
    _SHARED_POOL = None
    _SHARED_POOL_JOBS = 0
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)


@dataclass(frozen=True)
class SupervisionPolicy:
    """Knobs of the worker supervisor (see ``docs/robustness.md``).

    Attached to an :class:`ExperimentContext` (``--supervise`` on the
    CLI); ``None`` — the default — means no supervision: failures
    propagate and nothing is retried.
    """

    #: Wall-clock seconds one chunk attempt may take before the pool is
    #: reaped and the chunk retried. ``None`` disables deadlines.
    chunk_deadline: Optional[float] = 300.0
    #: Attempts per work item before it is split (multi-sample chunks) or
    #: quarantined (single samples).
    max_attempts: int = 3
    #: Capped exponential backoff between retry rounds, in seconds:
    #: ``min(cap, base * 2**(attempt-1))``. A base of 0 disables sleeping
    #: (the fault-injection tests run with 0 — no clocks, no flakes).
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    #: In-process work-item size, in samples.
    serial_chunk_samples: int = 8

    def backoff(self, attempt: int) -> float:
        return capped_backoff(attempt, self.backoff_base, self.backoff_cap)


@dataclass
class CampaignStats:
    """Mutable incident ledger for one campaign (one CLI invocation).

    The phase executor increments these as it supervises; the CLI reads
    them afterwards for the exit code and the stderr summary. Workers get
    a pickled copy, so only parent-side incidents accumulate here — the
    live cross-process view is the telemetry board's incident counters.
    """

    retries: int = 0
    timeouts: int = 0
    crashes: int = 0
    splits: int = 0
    pool_restarts: int = 0
    degraded_serial: bool = False
    resumed_samples: int = 0
    failed_samples: List[dict] = field(default_factory=list)

    def absorb(self, other: Optional["CampaignStats"]) -> None:
        """Fold a worker's ledger into this one (``all -j N`` fan-in)."""
        if other is None:
            return
        self.retries += other.retries
        self.timeouts += other.timeouts
        self.crashes += other.crashes
        self.splits += other.splits
        self.pool_restarts += other.pool_restarts
        self.degraded_serial = self.degraded_serial or other.degraded_serial
        self.resumed_samples += other.resumed_samples
        self.failed_samples.extend(other.failed_samples)

    def eventful(self) -> bool:
        return bool(self.retries or self.timeouts or self.crashes
                    or self.splits or self.pool_restarts
                    or self.degraded_serial or self.resumed_samples
                    or self.failed_samples)

    def summary(self) -> str:
        parts = [f"retries={self.retries}", f"timeouts={self.timeouts}",
                 f"crashes={self.crashes}"]
        if self.splits:
            parts.append(f"splits={self.splits}")
        if self.pool_restarts:
            parts.append(f"pool_restarts={self.pool_restarts}")
        if self.degraded_serial:
            parts.append("degraded=serial")
        if self.resumed_samples:
            parts.append(f"resumed={self.resumed_samples}")
        parts.append(f"quarantined={len(self.failed_samples)}")
        return " ".join(parts)


def _abort_pool(pool, futures: Sequence = ()) -> None:
    """Tear a pool down *now*: cancel, stop feeding, kill the processes.

    Used on Ctrl-C and when the supervisor reaps a hung chunk — a plain
    ``shutdown(wait=True)`` would block behind the hang forever.
    """
    for future in futures:
        future.cancel()
    process_objects = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in process_objects:
        if proc.is_alive():
            proc.kill()
    for proc in process_objects:
        proc.join(timeout=2)


def _drop_pool(pool, warm: bool) -> None:
    """Kill a reaped, broken or interrupted pool; a warm one stops being
    shared, so the next round or phase gets a fresh one."""
    _abort_pool(pool)
    if warm:
        _discard_shared_pool()


@dataclass(frozen=True)
class PhaseWork:
    """Everything needed to simulate any span of one phase.

    Picklable: pool workers receive it with every work item. ``ctx`` is
    the worker context — the parent's telemetry sink, progress, nested
    parallelism, resilience layer and run ledger stripped (those stay in
    the parent, so one ledger has one writer per process tree level), and
    both engine booleans pinned to the phase's ``engine``, so a counts
    phase on the event engine builds its servers with the wavefront core
    off.
    """

    ctx: ExperimentContext
    policy: CoalescingPolicy
    num_samples: int
    counts_only: bool
    retain_kernel_results: bool
    engine: str
    faults: Optional[object] = None
    trace_capacity: int = 0
    profile: bool = False

    def simulate(self, indices: Sequence[int], attempt: int, progress,
                 in_worker: bool = False,
                 telemetry: Optional[Telemetry] = None,
                 ) -> Tuple[List[EncryptionRecord], Optional[Telemetry]]:
        """Simulate one contiguous span of samples.

        Records into ``telemetry`` when one is given; otherwise, when the
        phase is instrumented, into a private :class:`Telemetry` that is
        returned for the fold to merge in sample order. The span's sample
        faults fire before anything simulates (``in_worker`` lets ``hang``
        and ``exit`` really block or kill), so an item fails or succeeds
        whole, and a retry re-simulates it from scratch.
        """
        if self.faults is not None:
            for index in indices:
                self.faults.maybe_fire_sample(index, attempt,
                                              in_worker=in_worker)
        private = None
        if telemetry is None and self.trace_capacity:
            telemetry = private = Telemetry(
                trace_capacity=self.trace_capacity, profile=self.profile)
        profiler = (telemetry.profiler if telemetry is not None
                    else SpanProfiler.disabled())
        ctx = self.ctx
        # Regenerating the full batch keeps every item seed-identical to
        # a single in-process run; plaintext generation is bulk RNG draws,
        # a rounding error next to one kernel simulation.
        with profiler.span("chunk.workload"):
            plaintexts = random_plaintexts(self.num_samples, ctx.lines,
                                           ctx.stream("workload"))
        # A counts-only phase on the event engine simulates full launches
        # on a timed server and keeps only their counts.
        server = build_server(ctx, self.policy,
                              counts_only=self.engine == "batched",
                              retain_kernel_results=self.retain_kernel_results,
                              telemetry=telemetry)
        stream_name = victim_stream_name(self.policy)
        rngs = [ctx.sample_stream(stream_name, index) for index in indices]
        with profiler.span("chunk.simulate"):
            records = server.encrypt_batch(
                [plaintexts[index] for index in indices], rngs,
                on_record=lambda record: progress.update())
        if self.counts_only and not server.counts_only:
            records = [replace(record, total_time=0, last_round_time=0,
                               kernel_result=None) for record in records]
        return records, private


def _simulate_in_worker(payload):
    """Pool worker: simulate one work item of a phase."""
    work, indices, attempt = payload
    return work.simulate(indices, attempt,
                         QueueProgress(_WORKER_PROGRESS_QUEUE),
                         in_worker=True)


class _Phase:
    """One collection phase: set up once, driven by a scheduler, finished
    once.

    Schedulers only decide how work items are claimed and run. Every item
    goes through :meth:`simulate`, :meth:`dispatch`, :meth:`commit` and,
    when it fails, :meth:`fail` — the only writers of the phase's ledger
    events, checkpoint chunks and results.
    """

    def __init__(self, ctx: ExperimentContext, policy: CoalescingPolicy,
                 num_samples: int, counts_only: bool,
                 retain_kernel_results: bool):
        if num_samples < 1:
            raise ConfigurationError(
                f"sample count must be positive: {num_samples}")
        self.ctx = ctx
        self.policy = policy
        self.num_samples = num_samples
        self.store = ctx.checkpoint
        self.sup = ctx.supervision
        if ctx.shard is not None:
            ctx.shard.validate()
            if self.store is None:
                raise ConfigurationError(
                    "leased collection requires a checkpoint store "
                    "(rcoal shard always opens one)")
        self.label = phase_label(ctx, policy, num_samples, counts_only,
                                 retain_kernel_results)
        self.engine = phase_engine(counts_only, ctx.batched,
                                   ctx.batched_timing)
        journal = ctx.journal if ctx.journal is not None \
            else getattr(self.store, "journal", None)
        self.journal = journal if journal is not None \
            else RunJournal.disabled()
        self.campaign = ctx.campaign if ctx.campaign is not None \
            else CampaignStats()
        telemetry = ctx.telemetry
        self.instrumented = telemetry is not None and telemetry.enabled
        self.profiler = (telemetry.profiler if self.instrumented
                         else SpanProfiler.disabled())
        self.board = telemetry.board if self.instrumented else None
        self.work = PhaseWork(
            ctx.with_(telemetry=None, progress=False, jobs=1,
                      supervision=None, faults=None, checkpoint=None,
                      campaign=None, journal=None, shard=None,
                      batched=self.engine == "batched",
                      batched_timing=self.engine == "batched_timing"),
            policy, num_samples, counts_only, retain_kernel_results,
            self.engine,
            faults=(ctx.faults.bind(num_samples, ctx.root_seed)
                    if ctx.faults is not None else None),
            trace_capacity=(telemetry.tracer.capacity if self.instrumented
                            else 0),
            profile=self.profiler.enabled)

        stored: List[ChunkResult] = []
        if self.store is not None:
            with self.profiler.span("checkpoint.load"):
                stored = self.store.load_chunks(self.label)
        done = {index for chunk in stored for index in chunk.indices}
        missing = [i for i in range(num_samples) if i not in done]
        self.restored = num_samples - len(missing)
        self.results: List[ChunkResult] = list(stored)
        self.failed: Dict[int, str] = {}

        # Persisted or retried items stay small; otherwise each worker
        # (the one in-process worker included) gets a single item.
        resilient = self.store is not None or self.sup is not None
        self.jobs = max(1, min(ctx.effective_jobs(), len(missing)))
        if ctx.shard is not None:
            self.scheduler, self.jobs = "lease", 1
            self.items = contiguous_chunks(range(num_samples),
                                           ctx.shard.chunk_samples)
        elif self.jobs > 1:
            self.scheduler = "pool"
            per_worker = CHUNKS_PER_WORKER if resilient else 1
            self.items = contiguous_chunks(
                missing, math.ceil(len(missing) / (self.jobs * per_worker)))
        else:
            self.scheduler = "inline"
            size = ((self.sup or SupervisionPolicy()).serial_chunk_samples
                    if resilient else len(missing))
            self.items = contiguous_chunks(missing, size)
        # The single in-process item of an unpersisted, unsupervised phase
        # records straight into the caller's telemetry, so a serial
        # --serve dashboard moves per sample.
        self.direct = self.scheduler == "inline" and not resilient
        #: Extra fields of every phase and chunk event (the shard worker).
        self.worker_fields = ({"worker": ctx.shard.worker}
                              if ctx.shard is not None else {})

        self.journal.append(
            "phase_start", phase=self.label, policy=policy.describe(),
            samples=num_samples, restored=self.restored, jobs=self.jobs,
            mode=self.scheduler, engine=self.engine,
            counts_only=counts_only, supervised=self.sup is not None,
            **self.worker_fields)
        if counts_only:
            self.journal.append("engine_select", phase=self.label,
                                engine=self.engine)
        if stored:
            self.campaign.resumed_samples += self.restored
            self.journal.append("checkpoint_restore", phase=self.label,
                                restored=self.restored, chunks=len(stored))
            print(f"[resume: {self.restored}/{num_samples} samples of "
                  f"{policy.describe()} restored from "
                  f"{self.store.describe()}]", file=sys.stderr)
        log.info("collecting %d samples under %s%s: %s scheduler, %s "
                 "engine, %d restored", num_samples, policy.describe(),
                 " (counts only)" if counts_only else "", self.scheduler,
                 self.engine, self.restored)
        self.started = time.perf_counter()

    def simulate(self, indices, attempt: int, progress,
                 in_worker: bool = False):
        """Simulate one item in this process (see
        :meth:`PhaseWork.simulate`)."""
        return self.work.simulate(
            indices, attempt, progress, in_worker=in_worker,
            telemetry=self.ctx.telemetry if self.direct else None)

    def dispatch(self, indices, attempt: int) -> None:
        self.journal.append("chunk_dispatch", phase=self.label,
                            start=indices[0], end=indices[-1],
                            samples=len(indices), attempt=attempt,
                            **self.worker_fields)

    def commit(self, indices, records, telemetry, attempt: int,
               started: float) -> None:
        """Keep a completed item: persist it (duplicate-tolerant) when a
        checkpoint store is attached, then journal ``chunk_done`` with the
        seconds since ``started``."""
        chunk = ChunkResult(tuple(indices), records, telemetry)
        committed = True
        if self.store is not None:
            with self.profiler.span("checkpoint.save"):
                committed = self.store.commit_chunk(self.label, chunk)
        self.journal.append("chunk_done", phase=self.label,
                            start=indices[0], end=indices[-1],
                            samples=len(indices), attempt=attempt,
                            committed=committed,
                            seconds=round(time.perf_counter() - started, 6),
                            **self.worker_fields)
        self.results.append(chunk)

    def incident(self, kind: str) -> None:
        if self.board is not None:
            self.board.incident(kind)

    def fail(self, pending: deque, indices: Tuple[int, ...], attempt: int,
             exc: BaseException) -> float:
        """Reschedule, split, or quarantine a failed work item.

        Returns the backoff delay to apply before the next attempt round.
        Without supervision the failure propagates unchanged (completed
        items stay checkpointed, so a later ``--resume`` picks up here).
        """
        self.campaign.crashes += 1
        self.incident("crash")
        if self.sup is None:
            raise exc
        next_attempt = attempt + 1
        if next_attempt < self.sup.max_attempts:
            pending.append((indices, next_attempt))
            self.campaign.retries += 1
            self.incident("retry")
            self.journal.append("chunk_retry", phase=self.label,
                                start=indices[0], end=indices[-1],
                                attempt=next_attempt,
                                error=f"{type(exc).__name__}: {exc}")
            log.warning("retrying samples %d-%d of %s (attempt %d/%d): %s",
                        indices[0], indices[-1], self.label, next_attempt,
                        self.sup.max_attempts, exc)
            return self.sup.backoff(next_attempt)
        if len(indices) > 1:
            mid = len(indices) // 2
            pending.append((indices[:mid], 0))
            pending.append((indices[mid:], 0))
            self.campaign.splits += 1
            self.incident("split")
            self.journal.append("chunk_split", phase=self.label,
                                start=indices[0], end=indices[-1],
                                at=indices[mid])
            log.warning("splitting failing chunk %d-%d of %s to isolate "
                        "the poison sample", indices[0], indices[-1],
                        self.label)
            return self.sup.backoff(1)
        index = indices[0]
        reason = f"{type(exc).__name__}: {exc}"
        self.failed[index] = reason
        self.campaign.failed_samples.append(
            {"phase": self.label, "sample": index, "error": reason}
        )
        self.incident("quarantined")
        self.journal.append("chunk_quarantine", phase=self.label,
                            sample=index, error=reason)
        log.error("quarantining sample %d of %s after %d attempts: %s",
                  index, self.label, self.sup.max_attempts, reason)
        return 0.0

    def finish(self) -> Tuple[EncryptionServer, List[EncryptionRecord]]:
        """Fold every chunk by sample index (first copy wins), merge
        telemetry in sample order, and close the phase."""
        if self.failed:
            if self.store is not None:
                self.store.record_failed_samples(self.campaign.failed_samples)
            print(f"[quarantined {len(self.failed)} sample(s) under "
                  f"{self.policy.describe()}: {sorted(self.failed)}]",
                  file=sys.stderr)
        by_index: Dict[int, EncryptionRecord] = {}
        for chunk in sorted(self.results, key=lambda chunk: chunk.start):
            # A chunk overlapping an earlier one (a stolen lease's late
            # commit) holds identical records; its telemetry would count
            # the overlap twice, so only wholly fresh chunks merge.
            fresh = by_index.keys().isdisjoint(chunk.indices)
            for index, record in zip(chunk.indices, chunk.records):
                by_index.setdefault(index, record)
            if fresh and self.instrumented and chunk.telemetry is not None:
                with self.profiler.span("runner.merge"):
                    self.ctx.telemetry.merge(chunk.telemetry)
        lost = [i for i in range(self.num_samples)
                if i not in by_index and i not in self.failed]
        if lost:
            raise ExperimentError(
                f"phase {self.label} ended with samples {lost[:8]} "
                f"uncommitted — the campaign directory was modified "
                f"underneath the workers")
        records = [by_index[i] for i in range(self.num_samples)
                   if i in by_index]
        self.journal.append(
            "phase_finish", phase=self.label, samples=self.num_samples,
            completed=len(records), restored=self.restored,
            quarantined=len(self.failed), mode=self.scheduler,
            seconds=round(time.perf_counter() - self.started, 6),
            **self.worker_fields)
        server = build_server(
            self.ctx, self.policy, counts_only=self.work.counts_only,
            retain_kernel_results=self.work.retain_kernel_results,
            telemetry=self.ctx.telemetry)
        return server, records


def _run_inline(phase: _Phase, pending: deque, progress) -> None:
    """In-process scheduler: the default serial path, and where a
    supervised pool degrades to when it keeps dying."""
    while pending:
        indices, attempt = pending.popleft()
        phase.dispatch(indices, attempt)
        started = time.perf_counter()
        try:
            records, telemetry = phase.simulate(indices, attempt, progress)
        except Exception as exc:
            delay = phase.fail(pending, indices, attempt, exc)
            if delay > 0:
                time.sleep(delay)
            continue
        phase.commit(indices, records, telemetry, attempt, started)


def _run_pool(phase: _Phase, pending: deque, queue, progress) -> None:
    """Pool scheduler: rounds of work items across worker processes.

    Items are submitted in rounds (everything currently pending) and
    collected in submission order, so bookkeeping stays deterministic.
    Without a progress ``queue`` the warm process-wide pool serves the
    phase. Supervised, every item gets a deadline; a timeout or a died
    worker kills the whole pool — a :class:`ProcessPoolExecutor` cannot
    reap a single hung process — finished siblings keep their results and
    unfinished ones are rescheduled at the next attempt. After
    ``MAX_POOL_RESTARTS`` rebuilds the phase degrades to
    :func:`_run_inline`, where ``hang``/``exit`` faults surface as plain
    raises and retry/split/quarantine still apply. Unsupervised, a died
    worker raises :class:`WorkerCrashError`.
    """
    sup = phase.sup
    campaign = phase.campaign
    deadline = sup.chunk_deadline if sup is not None else None
    profiler = phase.profiler
    warm = queue is None
    pool: Optional[ProcessPoolExecutor] = None
    restarts = 0
    try:
        while pending:
            if restarts > MAX_POOL_RESTARTS:
                campaign.degraded_serial = True
                phase.incident("degraded-serial")
                phase.journal.append("degraded_serial", phase=phase.label,
                                     restarts=restarts)
                log.warning("%s: pool died %d times; degrading to "
                            "in-process execution", phase.label, restarts)
                _run_inline(phase, pending, progress)
                return
            if pool is None:
                pool = _shared_pool(phase.jobs) if warm else \
                    ProcessPoolExecutor(max_workers=phase.jobs,
                                        initializer=_init_worker,
                                        initargs=(queue,))
            round_items = list(pending)
            pending.clear()
            # "runner.submit" is payload pickling + task hand-off; the
            # first "runner.wait" additionally covers pool spin-up
            # (worker spawn + imports) the first time a pool is used.
            with profiler.span("runner.submit"):
                futures = [
                    (pool.submit(_simulate_in_worker,
                                 (phase.work, indices, attempt)),
                     indices, attempt)
                    for indices, attempt in round_items
                ]
            for indices, attempt in round_items:
                phase.dispatch(indices, attempt)
            round_started = time.perf_counter()
            pool_dead = False
            max_delay = 0.0
            for future, indices, attempt in futures:
                if pool_dead:
                    # The pool was reaped mid-round. Keep results that
                    # finished in time; reschedule the rest at attempt+1.
                    # A pool death cannot be attributed to one chunk, so
                    # every unfinished chunk advances — the one whose
                    # fault killed the pool stops refiring a transient
                    # fault, and innocents merely carry a higher attempt
                    # number (harmless unless they actually fail).
                    salvaged = None
                    if future.done() and not future.cancelled():
                        try:
                            salvaged = future.result(timeout=0)
                        except Exception:
                            pass
                    if salvaged is not None:
                        phase.commit(indices, *salvaged, attempt,
                                     round_started)
                    else:
                        future.cancel()
                        pending.append((indices, attempt + 1))
                    continue
                try:
                    with profiler.span("runner.wait"):
                        records, telemetry = future.result(timeout=deadline)
                except FuturesTimeoutError:
                    campaign.timeouts += 1
                    campaign.pool_restarts += 1
                    phase.incident("timeout")
                    phase.journal.append("pool_restart", phase=phase.label,
                                         reason="timeout", start=indices[0],
                                         end=indices[-1])
                    log.warning("samples %d-%d of %s exceeded the %.1fs "
                                "chunk deadline; reaping the pool",
                                indices[0], indices[-1], phase.label,
                                deadline)
                    _drop_pool(pool, warm)
                    pool, pool_dead = None, True
                    restarts += 1
                    # Pool-level failures can't be pinned on one chunk (the
                    # future we were waiting on may be an innocent sibling
                    # of the real hang), so no split/quarantine here — just
                    # advance the attempt and let degraded mode make the
                    # precisely-attributed call if this keeps up.
                    pending.append((indices, attempt + 1))
                    campaign.retries += 1
                    max_delay = max(max_delay, sup.backoff(attempt + 1))
                except BrokenProcessPool as exc:
                    campaign.crashes += 1
                    phase.incident("worker-killed")
                    phase.journal.append("pool_restart", phase=phase.label,
                                         reason="worker-died",
                                         start=indices[0], end=indices[-1])
                    log.warning("worker process died while running samples "
                                "%d-%d of %s", indices[0], indices[-1],
                                phase.label)
                    _drop_pool(pool, warm)
                    pool, pool_dead = None, True
                    if sup is None:
                        raise WorkerCrashError(
                            f"worker process died while running samples "
                            f"{indices[0]}-{indices[-1]} ({exc}); rerun "
                            f"with --supervise to retry and quarantine"
                        ) from exc
                    campaign.pool_restarts += 1
                    restarts += 1
                    # Same attribution caveat as the deadline case above.
                    pending.append((indices, attempt + 1))
                    campaign.retries += 1
                    max_delay = max(max_delay, sup.backoff(attempt + 1))
                except Exception as exc:
                    max_delay = max(max_delay, phase.fail(
                        pending, indices, attempt, exc))
                else:
                    phase.commit(indices, records, telemetry, attempt,
                                 round_started)
            if pending and max_delay > 0:
                time.sleep(max_delay)
    except KeyboardInterrupt:
        if pool is not None:
            _drop_pool(pool, warm)
            pool = None
        raise
    finally:
        if pool is not None and not warm:
            pool.shutdown(wait=True)


def run_phase(
    ctx: ExperimentContext,
    policy: CoalescingPolicy,
    num_samples: int,
    counts_only: bool = False,
    retain_kernel_results: bool = False,
) -> Tuple[EncryptionServer, List[EncryptionRecord]]:
    """Run one collection phase (see the module docstring).

    Returns the victim server and the records in sample order.
    Quarantined samples are omitted and reported on ``ctx.campaign``,
    stderr and the checkpoint's ``failed_samples.json`` instead of
    aborting the phase. A Ctrl-C stops the scheduler (killing any pool),
    notes how far the phase got on stderr — with a ``--resume`` hint when
    a checkpoint is attached — and re-raises.
    """
    phase = _Phase(ctx, policy, num_samples, counts_only,
                   retain_kernel_results)
    enabled = ctx.progress or env_flag("REPRO_PROGRESS")
    # Pool workers report through a queue; the live --serve board needs it
    # even when the stderr status line is off.
    queue = (multiprocessing.get_context().Queue()
             if phase.scheduler == "pool"
             and (enabled or phase.board is not None) else None)
    label = policy.describe()
    if ctx.shard is not None:
        label += f" [{ctx.shard.worker}]"
    pending = deque((indices, 0) for indices in phase.items)
    try:
        with ProgressAggregator(num_samples, queue, label=label,
                                enabled=enabled,
                                board=phase.board) as aggregator:
            progress = aggregator.reporter
            if phase.restored:
                progress.update(phase.restored)
            if phase.scheduler == "lease":
                from repro.experiments.shard import run_leases
                run_leases(phase, progress)
            elif phase.scheduler == "pool":
                _run_pool(phase, pending, queue, progress)
            else:
                _run_inline(phase, pending, progress)
    except KeyboardInterrupt:
        done = len({index for chunk in phase.results
                    for index in chunk.indices})
        hint = (f"resume with --resume {phase.store.describe()}"
                if phase.store is not None else
                "partial results discarded — use --resume to make "
                "campaigns restartable")
        print(f"\n[interrupted: {done}/{num_samples} samples of "
              f"{policy.describe()} done; {hint}]", file=sys.stderr)
        raise
    return phase.finish()


def _run_one_experiment(payload):
    """Worker: run one full experiment serially.

    Returns ``(experiment_id, result, seconds, campaign)`` — the campaign
    stats are a worker-local :class:`CampaignStats` (or None when the
    resilience layer is off) that the parent folds into its own ledger, so
    quarantines inside ``all -j N`` workers still reach the CLI exit code.
    """
    ctx, experiment_id, checkpoint_dir = payload
    from repro.experiments.registry import run_experiment
    if checkpoint_dir is not None:
        import os

        from repro.experiments.checkpoint import (
            CheckpointStore,
            campaign_fingerprint,
        )
        store = CheckpointStore.open(
            os.path.join(checkpoint_dir, experiment_id),
            campaign_fingerprint(experiment_id, ctx, instrumented=False),
        )
        ctx = ctx.with_(checkpoint=store)
    if (ctx.supervision is not None or ctx.checkpoint is not None
            or ctx.faults is not None):
        ctx = ctx.with_(campaign=CampaignStats())
    start = time.perf_counter()
    result = run_experiment(experiment_id, ctx)
    return experiment_id, result, time.perf_counter() - start, ctx.campaign


def run_experiments_parallel(
    experiment_ids: Sequence[str],
    ctx: ExperimentContext,
    jobs: int,
    checkpoint_dir: Optional[str] = None,
):
    """Run whole experiments across a process pool (``rcoal all -j N``).

    Yields ``(experiment_id, result, seconds, campaign)`` tuples in the
    order the ids were given — each experiment is internally
    deterministic, so the combined output is byte-identical to a serial
    ``rcoal all``. Workers run their experiment serially (``jobs=1``) to
    avoid nested pools; with ``checkpoint_dir`` each worker opens its own
    per-experiment checkpoint store under ``<dir>/<experiment_id>``.
    """
    worker_ctx = ctx.with_(telemetry=None, progress=False, jobs=1,
                           checkpoint=None, campaign=None, journal=None)
    with ProcessPoolExecutor(
        max_workers=max(1, min(jobs, len(experiment_ids)))
    ) as pool:
        futures = [
            pool.submit(_run_one_experiment,
                        (worker_ctx, experiment_id, checkpoint_dir))
            for experiment_id in experiment_ids
        ]
        done = 0
        try:
            for future in futures:
                yield future.result()
                done += 1
        except KeyboardInterrupt:
            _abort_pool(pool, futures)
            print(f"\n[interrupted: {done}/{len(experiment_ids)} "
                  f"experiments completed]", file=sys.stderr)
            raise
