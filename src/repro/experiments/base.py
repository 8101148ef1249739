"""Shared experiment machinery.

Every experiment follows the paper's measurement protocol:

1. generate N random plaintexts (100 of 32 lines by default — the paper's
   sample budget; Fig 18 uses 1024 lines);
2. stand up an :class:`~repro.workloads.server.EncryptionServer` with the
   mechanism under test (the victim draws from the "victim" RNG stream);
3. optionally run the **corresponding attack**: an estimator whose model
   policy mirrors the defense, drawing from the independent "attacker"
   stream;
4. tabulate.

``ExperimentContext`` carries seed and sample-size knobs; sample counts
default to the paper's and honor ``REPRO_SAMPLES`` / ``REPRO_FAST``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.attack.estimator import AccessEstimator
from repro.attack.recovery import CorrelationTimingAttack, KeyRecovery
from repro.core.policies import CoalescingPolicy, make_policy
from repro.experiments.reporting import format_table
from repro.gpu.config import GPUConfig
from repro.rng import RngStream
from repro.telemetry import Telemetry
from repro.utils import scaled_samples
from repro.workloads.server import EncryptionRecord, EncryptionServer

__all__ = [
    "ExperimentContext",
    "ExperimentResult",
    "MECHANISMS",
    "build_server",
    "collect_records",
    "corresponding_attack",
    "run_corresponding_attack",
    "victim_stream_name",
]

#: The four defense mechanisms compared throughout Section VI, paper order.
MECHANISMS: Tuple[str, ...] = ("fss", "fss_rts", "rss", "rss_rts")


@dataclass(frozen=True)
class ExperimentContext:
    """Knobs shared by all experiments."""

    root_seed: int = 2018
    #: Plaintext samples; None = the paper's count (scaled by env vars).
    samples: Optional[int] = None
    #: Plaintext size in 16-byte lines.
    lines: int = 32
    #: Optional GPU configuration override.
    config: Optional[GPUConfig] = None
    #: Optional observability sink (metrics + event tracing) threaded into
    #: every server the experiment stands up via :func:`collect_records`.
    telemetry: Optional[Telemetry] = None
    #: Per-sample ETA reporting on stderr (also enabled by REPRO_PROGRESS).
    progress: bool = False
    #: Worker processes for sample collection (1 = in-process serial; 0 =
    #: one per CPU). Parallel runs are bit-identical to serial because all
    #: per-sample randomness is derived from (root_seed, stream, sample).
    jobs: int = 1
    #: Counts-only phases run on the batched structure-of-arrays core;
    #: False runs each launch on the event engine, the reference, and
    #: keeps only its counts. Tests and benchmarks turn it off to check
    #: the core against the reference; the records are equal either way.
    batched: bool = True
    #: Timed phases run on the wavefront-batched core (launches it does
    #: not cover fall back to the event engine); False runs every launch
    #: on the event engine, the reference. The KernelResult is identical
    #: either way; only tests and benchmarks turn it off.
    batched_timing: bool = True
    #: Optional worker supervision (deadlines, retries, quarantine) — a
    #: ``repro.experiments.runner.SupervisionPolicy``. None (the default)
    #: means unsupervised: failures propagate and nothing is retried.
    supervision: Optional[object] = None
    #: Optional deterministic fault plan (``repro.faults.FaultPlan``) fired
    #: before each work item simulates — testing/chaos only.
    faults: Optional[object] = None
    #: Optional campaign checkpoint store
    #: (``repro.experiments.checkpoint.CheckpointStore``) for --resume.
    checkpoint: Optional[object] = None
    #: Mutable incident ledger (``repro.experiments.runner.CampaignStats``)
    #: the phase executor reports retries/quarantines into; read by the
    #: CLI after the run for the exit code and the stderr summary.
    campaign: Optional[object] = None
    #: Optional persistent run ledger (``repro.telemetry.journal
    #: .RunJournal``): phase/chunk/engine events append to the campaign
    #: directory's ``events.jsonl``. None (the default) falls back to the
    #: checkpoint store's journal, if any, else records nothing.
    journal: Optional[object] = None
    #: Optional shard-worker policy (``repro.experiments.shard
    #: .ShardPolicy``) for coordinator-free multi-process draining
    #: (``rcoal shard``). When set (together with ``checkpoint``), every
    #: collection phase runs on the lease scheduler.
    shard: Optional[object] = None

    def sample_count(self, paper: int = 100, fast: int = 40) -> int:
        if self.samples is not None:
            return self.samples
        return scaled_samples(paper, fast)

    def stream(self, name: str) -> RngStream:
        return RngStream(self.root_seed, name)

    def sample_stream(self, name: str, index: int) -> RngStream:
        """The stream for sample ``index`` of per-sample family ``name``.

        Derived directly from ``(root_seed, name, index)`` rather than by
        advancing one sequential stream, so any worker can reproduce any
        sample's draws without replaying the samples before it — the
        keystone of the parallel runner's bit-identical fan-out.
        """
        return RngStream(self.root_seed, f"{name}#sample{index}")

    def effective_jobs(self) -> int:
        """``jobs`` with 0 resolved to the machine's CPU count."""
        if self.jobs == 0:
            return os.cpu_count() or 1
        return max(1, self.jobs)

    def secret_key(self) -> bytes:
        """The victim's AES key for this experiment run."""
        return bytes(self.stream("key").random_bytes(16))

    def with_(self, **kwargs) -> "ExperimentContext":
        return replace(self, **kwargs)


@dataclass
class ExperimentResult:
    """A regenerated table/figure: headers + rows + commentary."""

    experiment_id: str
    title: str
    headers: List[str]
    rows: List[Tuple]
    notes: List[str] = field(default_factory=list)
    #: Free-form metrics for programmatic consumers (tests, fig17 reuse).
    metrics: Dict[str, object] = field(default_factory=dict)

    def render(self) -> str:
        parts = [f"== {self.experiment_id}: {self.title} ==",
                 format_table(self.headers, self.rows)]
        if self.notes:
            parts.append("")
            parts.extend(f"note: {n}" for n in self.notes)
        return "\n".join(parts)


def victim_stream_name(policy: CoalescingPolicy) -> str:
    """The per-sample stream family the victim draws from under a policy."""
    return f"victim-{policy.describe()}"


def build_server(
    ctx: ExperimentContext,
    policy: CoalescingPolicy,
    counts_only: bool = False,
    retain_kernel_results: bool = False,
    telemetry=None,
) -> EncryptionServer:
    """Stand up the experiment's victim server (one per work item, plus
    the one :func:`collect_records` returns).

    The server's instance stream is never consumed during collection —
    every launch passes an explicit per-sample stream — but randomized
    policies still get one so ad-hoc ``encrypt`` calls keep working.
    """
    return EncryptionServer(
        ctx.secret_key(), policy, config=ctx.config,
        rng=(ctx.stream(victim_stream_name(policy))
             if policy.is_randomized else None),
        counts_only=counts_only,
        retain_kernel_results=retain_kernel_results,
        telemetry=telemetry,
        batched_timing=ctx.batched_timing,
    )


def collect_records(
    ctx: ExperimentContext,
    policy: CoalescingPolicy,
    num_samples: int,
    counts_only: bool = False,
    retain_kernel_results: bool = False,
) -> Tuple[EncryptionServer, List[EncryptionRecord]]:
    """Encrypt the experiment's shared plaintext batch under ``policy``.

    The plaintext batch and the key depend only on the context seed, so
    every mechanism in a comparison sees identical inputs; the victim's
    per-launch draws come from a per-(policy, sample) stream derived from
    ``(root_seed, stream name, sample index)``. Because no sample's draws
    depend on the samples before it, the phase executor
    (:func:`repro.experiments.runner.run_phase`) may run them in-process,
    across worker processes (``ctx.jobs``), checkpointed, supervised or
    leased to shard workers, always with bit-identical results.
    """
    from repro.experiments.runner import run_phase
    return run_phase(ctx, policy, num_samples, counts_only=counts_only,
                     retain_kernel_results=retain_kernel_results)


def corresponding_attack(ctx: ExperimentContext, policy_name: str,
                         num_subwarps: int,
                         warp_size: int = 32) -> AccessEstimator:
    """The attack matching a defense (Section IV-E).

    The attacker knows the mechanism and its parameters and mimics it with
    *their own* random draws (independent "attacker" stream). ``baseline``
    and ``nocoal`` victims are attacked with the baseline model.
    """
    model_name = policy_name if policy_name in MECHANISMS else "baseline"
    model = make_policy(model_name, num_subwarps, warp_size)
    rng = (ctx.stream(f"attacker-{model.describe()}")
           if model.is_randomized else None)
    return AccessEstimator(model, rng=rng, warp_size=warp_size)


def run_corresponding_attack(
    ctx: ExperimentContext,
    server: EncryptionServer,
    records: Sequence[EncryptionRecord],
    policy_name: str,
    num_subwarps: int,
    observable: Optional[Sequence[float]] = None,
) -> KeyRecovery:
    """Full 16-byte recovery attempt against collected records.

    ``observable`` defaults to the per-sample last-round execution time
    (the paper's strong attacker); pass e.g. observed last-round access
    counts for the Fig 18 methodology.
    """
    ciphertexts = [r.ciphertext_lines for r in records]
    if observable is None:
        observable = [r.last_round_time for r in records]
    estimator = corresponding_attack(
        ctx, policy_name, num_subwarps, server.gpu.config.warp_size
    )
    attack = CorrelationTimingAttack(estimator)
    return attack.recover_key(ciphertexts, observable,
                              correct_key=server.last_round_key)
