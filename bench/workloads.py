"""The benchmark's four workloads, run through the package's public API.

Each workload is a function ``(ctx, samples, collect) -> Outcome`` that
drives ``collect`` (``collect_records`` unless the traced run passes a
wrapped one) and ``run_corresponding_attack`` over a fixed list of
phases, and returns one sha256 digest per phase. A digest covers the
ciphertexts, every cycle and count field of every record and, where the
phase runs the attack, the recovered key and the correct-guess
correlation. Equal digests mean equal program output, so the digests are
the benchmark's correctness gate: against the committed reference for
the default seed, across fresh processes, between traced and untraced
runs, between a campaign's fresh pass and its resume, and between the
fast engines and the reference engines.

The seed reaches the program only as ``ExperimentContext.root_seed``:
the key, the plaintexts and every policy draw derive from it.
"""

from __future__ import annotations

import contextlib
import hashlib
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from repro.core.policies import make_policy
from repro.experiments.base import (MECHANISMS, ExperimentContext,
                                    collect_records, run_corresponding_attack)
from repro.experiments.checkpoint import CheckpointStore, campaign_fingerprint

__all__ = ["SIZES", "WORKLOADS", "Outcome", "check_engines", "warm_up"]

#: Scratch space for the campaign's checkpoint directories, inside the
#: checkout (the benchmark writes nowhere else).
WORK_DIR = Path(__file__).resolve().parent.parent / ".bench_work"

#: One phase: (policy name, num-subwarps). The lists walk the mechanisms
#: and subwarp counts diagonally, so each workload covers every mechanism
#: and a spread of M within the benchmark's time budget.
Phase = Tuple[str, int]
_PAPER: List[Phase] = [("baseline", 1), ("fss", 2), ("fss_rts", 4),
                       ("rss", 8), ("rss_rts", 16)]
_WIDE_TIMED: List[Phase] = [("baseline", 1), ("fss", 8), ("rss_rts", 8)]
_WIDE_COUNTS: List[Phase] = [("fss", 1), ("fss_rts", 2), ("rss", 4),
                             ("rss_rts", 8)]
_CAMPAIGN: List[Phase] = [("baseline", 1), ("fss", 2), ("rss_rts", 8)]
_CAMPAIGN_COUNTS_LINES = 256

#: The fixed input sizes; ``samples`` is per phase.
SIZES: Dict[str, Dict[str, object]] = {
    "paper_timed": {"phases": _PAPER, "samples": 100, "lines": 32},
    "wide_timed": {"phases": _WIDE_TIMED, "samples": 1, "lines": 1024},
    "wide_counts_attack": {"phases": _WIDE_COUNTS, "samples": 25,
                           "lines": 1024},
    "campaign": {"phases": _CAMPAIGN, "samples": 100, "lines": 32,
                 "counts_lines": _CAMPAIGN_COUNTS_LINES},
}


@dataclass
class Outcome:
    """What one workload body produced."""

    #: Phase label -> sha256 of the phase's output.
    digests: Dict[str, str] = field(default_factory=dict)
    #: Kernel launches simulated (timed or counts-only).
    samples: int = 0


def phase_digest(records, recovery=None) -> str:
    """sha256 of one phase's records (and attack outcome, if any)."""
    h = hashlib.sha256()
    for r in records:
        h.update(r.ciphertext)
        h.update(repr((r.total_time, r.last_round_time, r.total_accesses,
                       r.last_round_accesses,
                       sorted(r.round_accesses.items()),
                       list(r.last_round_byte_accesses))).encode())
    if recovery is not None:
        h.update(recovery.recovered_key)
        # Rounded: the correlation ends in a BLAS dot product whose last
        # bits may differ between CPU kernels.
        h.update(f"{recovery.average_correct_correlation:.10f}".encode())
    return h.hexdigest()


def _label(kind: str, name: str, m: int) -> str:
    return f"{kind}:{name}:M={m}"


def paper_timed(ctx: ExperimentContext, samples: int,
                collect: Callable = collect_records) -> Outcome:
    """Figs 5-8 and 12-16: timed 32-line samples, then the attack on
    last-round time."""
    out = Outcome()
    ctx = ctx.with_(samples=samples, lines=32)
    for name, m in _PAPER:
        server, records = collect(ctx, make_policy(name, m), samples)
        recovery = run_corresponding_attack(ctx, server, records, name, m)
        out.digests[_label("timed", name, m)] = phase_digest(records,
                                                             recovery)
        out.samples += len(records)
    return out


def wide_timed(ctx: ExperimentContext, samples: int,
               collect: Callable = collect_records) -> Outcome:
    """Fig 18b: timed 1024-line (32-warp) samples, no attack."""
    out = Outcome()
    ctx = ctx.with_(samples=samples, lines=1024)
    for name, m in _WIDE_TIMED:
        _, records = collect(ctx, make_policy(name, m), samples)
        out.digests[_label("timed", name, m)] = phase_digest(records)
        out.samples += len(records)
    return out


def wide_counts_attack(ctx: ExperimentContext, samples: int,
                       collect: Callable = collect_records) -> Outcome:
    """Fig 18a: counts-only 1024-line samples, then the attack on the
    observed per-byte last-round access counts."""
    out = Outcome()
    ctx = ctx.with_(samples=samples, lines=1024)
    for name, m in _WIDE_COUNTS:
        server, records = collect(ctx, make_policy(name, m), samples,
                                  counts_only=True)
        observed = [[r.last_round_byte_accesses[j] for r in records]
                    for j in range(16)]
        recovery = run_corresponding_attack(ctx, server, records, name, m,
                                            observable=observed)
        out.digests[_label("counts", name, m)] = phase_digest(records,
                                                              recovery)
        out.samples += len(records)
    return out


def _campaign_pass(ctx: ExperimentContext, run_dir: Path, samples: int,
                   collect: Callable) -> Outcome:
    out = Outcome()
    store = CheckpointStore.open(
        run_dir, campaign_fingerprint("bench-campaign", ctx, False))
    timed_ctx = ctx.with_(samples=samples, lines=32, checkpoint=store)
    counts_ctx = timed_ctx.with_(lines=_CAMPAIGN_COUNTS_LINES)
    for name, m in _CAMPAIGN:
        policy = make_policy(name, m)
        _, records = collect(timed_ctx, policy, samples)
        out.digests[_label("timed", name, m)] = phase_digest(records)
        _, counted = collect(counts_ctx, policy, samples, counts_only=True)
        out.digests[_label("counts", name, m)] = phase_digest(counted)
        out.samples += len(records) + len(counted)
    return out


def campaign(ctx: ExperimentContext, samples: int,
             collect: Callable = collect_records) -> Outcome:
    """Checkpointed collection into a fresh directory, then the same
    phases again against that directory, where every chunk is restored.
    The resumed pass must reproduce the fresh one exactly; only the
    fresh pass's launches count as work."""
    WORK_DIR.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="campaign-", dir=WORK_DIR))
    try:
        fresh = _campaign_pass(ctx, run_dir, samples, collect)
        resumed = _campaign_pass(ctx, run_dir, samples, collect)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still holds another run's
            WORK_DIR.rmdir()
    if resumed.digests != fresh.digests:
        raise AssertionError("resumed campaign differs from the fresh pass")
    return fresh


WORKLOADS: Dict[str, Callable[..., Outcome]] = {
    "paper_timed": paper_timed,
    "wide_timed": wide_timed,
    "wide_counts_attack": wide_counts_attack,
    "campaign": campaign,
}

def check_engines(name: str, ctx: ExperimentContext,
                  outcome: Outcome) -> None:
    """Raise unless the fast engines match the reference engines.

    Runs the workload at two samples per phase (or at its full size, if
    that is smaller, reusing ``outcome``) with the event engine for
    timing and the per-launch path for counts, which define the
    simulator's semantics, and compares with the default engines.
    """
    body = WORKLOADS[name]
    samples = min(2, SIZES[name]["samples"])
    fast = (outcome.digests if samples == SIZES[name]["samples"]
            else body(ctx, samples).digests)
    reference = body(ctx.with_(batched=False, batched_timing=False),
                     samples).digests
    for label, digest in reference.items():
        if fast.get(label) != digest:
            raise AssertionError(f"{name} {label}: the default engines "
                                 "differ from the reference engines")


def warm_up() -> None:
    """One 32-line timed launch and one counts launch on seed 7.

    Resolves lazy imports, the timed-core selection and the table grids,
    without touching the AES trace cache for any benchmark key.
    """
    ctx = ExperimentContext(root_seed=7, samples=1, lines=32)
    collect_records(ctx, make_policy("baseline"), 1)
    collect_records(ctx, make_policy("baseline"), 1, counts_only=True)
