"""Campaign checkpoint/resume (``rcoal <exp> --resume DIR``).

A paper-scale campaign (``REPRO_SAMPLES=100`` across every mechanism)
takes long enough that a hung worker, an OOM kill, or a Ctrl-C must not
mean starting over. The per-sample RNG derivation ``(root_seed,
"name#sample<i>")`` that makes the parallel runner bit-identical also
makes resume free of replay cost: any sample can be re-simulated in
isolation, so a checkpoint only has to remember which samples finished
and what they produced.

Layout of a run directory::

    <run_dir>/
      manifest.json                  # campaign fingerprint (atomic write)
      events.jsonl                   # append-only run ledger (RunJournal)
      phases/<slug>-<hash>/          # one dir per collect_records phase
        chunk-00000-00003.pkl        # records (+ telemetry) for samples 0-3
      failed_samples.json            # quarantine report, when any (atomic)

Each chunk file is one pickled :class:`ChunkResult`, written atomically
(tempfile + fsync + ``os.replace``), so an interrupted save can never
leave a truncated chunk: on resume the chunk either exists completely or
the samples are simply re-simulated. Chunks hold *per-sample results in
sample order*; telemetry merge is boundary-insensitive (time bases
telescope, counters add), so a resumed instrumented run merges stored and
fresh chunks in sample order and reproduces the uninterrupted telemetry
bit for bit.

The manifest pins the **campaign fingerprint** — experiment id, root
seed, sample override, plaintext lines, GPU config hash, the
``REPRO_FAST``/``REPRO_SAMPLES`` scaling context, and whether the run is
instrumented. Resuming under a different fingerprint raises
:class:`~repro.errors.CheckpointMismatchError` with a field-by-field
diff: mixing results from two different campaigns would corrupt the
output silently, which is strictly worse than starting over.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import re
from dataclasses import asdict, dataclass, is_dataclass
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from repro.errors import CheckpointMismatchError
from repro.telemetry import Telemetry, get_logger
from repro.telemetry.baseline import compare_snapshots
from repro.telemetry.journal import JOURNAL_NAME, RunJournal
from repro.telemetry.metrics import stable_json
from repro.utils import (atomic_write_bytes, atomic_write_text,
                         batched_mode, batched_timing_mode)

__all__ = [
    "CHECKPOINT_FORMAT",
    "ChunkResult",
    "CheckpointStore",
    "campaign_fingerprint",
    "chunk_name",
    "chunk_spans",
    "config_hash",
    "contiguous_chunks",
    "phase_dir_name",
    "phase_label",
]

log = get_logger(__name__)

CHECKPOINT_FORMAT = 1

#: Chunk file names encode their sample span: ``chunk-SSSSS-EEEEE.pkl``.
_CHUNK_NAME = re.compile(r"chunk-(\d+)-(\d+)\.pkl")


def config_hash(config) -> str:
    """Stable short hash of a GPU configuration (``"default"`` for None)."""
    if config is None:
        return "default"
    if is_dataclass(config):
        fields = asdict(config)
    else:
        fields = dict(vars(config))
    fields = {name: fields[name] for name in sorted(fields)}
    digest = hashlib.sha256(
        stable_json(fields, indent=None).encode("utf-8")
    ).hexdigest()
    return digest[:16]


def campaign_fingerprint(experiment_id: str, ctx,
                         instrumented: bool) -> dict:
    """Everything a checkpoint's validity depends on.

    ``jobs`` is deliberately excluded — parallel runs are bit-identical to
    serial, so a campaign started with ``-j 8`` may be resumed with
    ``-j 1`` (or vice versa) and still reproduce the uninterrupted output.
    """
    return {
        "format": CHECKPOINT_FORMAT,
        "experiment": experiment_id,
        "root_seed": ctx.root_seed,
        "samples": ctx.samples,
        "lines": ctx.lines,
        "config": config_hash(ctx.config),
        "repro_fast": os.environ.get("REPRO_FAST") or None,
        "repro_samples": os.environ.get("REPRO_SAMPLES") or None,
        "instrumented": bool(instrumented),
        # Engine selection for counts-only phases. Counts are
        # checksum-identical across the two cores, but like --profile the
        # selection is part of the campaign's identity so a --resume never
        # silently mixes cores.
        "batched": batched_mode(getattr(ctx, "batched", None)),
        # Likewise for exact timing: the wavefront core is KernelResult-
        # identical to the event engine, but the selection is pinned so a
        # resumed campaign is a property of one declared engine choice.
        "batched_timing": batched_timing_mode(
            getattr(ctx, "batched_timing", None)),
    }


@dataclass
class ChunkResult:
    """One completed contiguous span of samples for one phase."""

    indices: Tuple[int, ...]
    records: list
    telemetry: Optional[Telemetry] = None

    @property
    def start(self) -> int:
        return self.indices[0]


def _phase_slug(label: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "-", label).strip("-") or "phase"


def phase_dir_name(label: str) -> str:
    """The on-disk directory name of one phase (slug + stable hash)."""
    digest = hashlib.sha256(label.encode("utf-8")).hexdigest()[:8]
    return f"{_phase_slug(label)}-{digest}"


def phase_label(ctx, policy, num_samples: int, counts_only: bool,
                retain_kernel_results: bool) -> str:
    """Checkpoint phase identity: everything that shapes this phase's
    records beyond the campaign-level fingerprint. Shared by every
    scheduler of the phase executor and by the run ledger, so one phase
    has one name everywhere."""
    return (f"{policy.describe()}|n={num_samples}"
            f"|counts={int(counts_only)}"
            f"|retain={int(retain_kernel_results)}"
            f"|lines={ctx.lines}|cfg={config_hash(ctx.config)}")


def chunk_name(start: int, end: int) -> str:
    """The chunk file name for the inclusive sample span ``[start, end]``."""
    return f"chunk-{start:05d}-{end:05d}.pkl"


def contiguous_chunks(indices: Iterable[int],
                      size: int) -> List[Tuple[int, ...]]:
    """The phase executor's work items: sorted sample ``indices`` grouped
    into contiguous runs of at most ``size`` samples.

    Runs never bridge a hole, so over a resumed phase's missing samples
    stored and fresh chunks still merge back in sample order. Over the
    full ``range(num_samples)`` the boundaries depend only on
    ``(num_samples, size)``, so every shard worker enumerates the
    identical work list and lease files (named by span) mean the same
    unit of work to all of them.
    """
    size = max(1, size)
    chunks: List[Tuple[int, ...]] = []
    current: List[int] = []
    for index in indices:
        if current and (index != current[-1] + 1 or len(current) >= size):
            chunks.append(tuple(current))
            current = []
        current.append(index)
    if current:
        chunks.append(tuple(current))
    return chunks


def chunk_spans(directory: Union[str, Path]) -> List[Tuple[int, int]]:
    """Sample spans recorded in a phase directory, from file names alone.

    ``chunk-00008-00011.pkl`` → ``(8, 11)``. Parsing names instead of
    unpickling lets the manifest aggregator count completed samples for
    a campaign without loading its (potentially huge) telemetry; the
    spans are trustworthy because chunk files are written atomically —
    a name either denotes a complete chunk or doesn't exist.
    """
    directory = Path(directory)
    spans: List[Tuple[int, int]] = []
    if not directory.is_dir():
        return spans
    for name in sorted(os.listdir(directory)):
        match = _CHUNK_NAME.fullmatch(name)
        if match:
            spans.append((int(match.group(1)), int(match.group(2))))
    return spans


class CheckpointStore:
    """Persistence for one campaign's completed per-sample results.

    Open with :meth:`open` (validates or records the fingerprint), then
    per collection phase: :meth:`load_chunks` to restore finished samples
    (in sample order) and :meth:`commit_chunk` as work items complete.
    """

    def __init__(self, run_dir, fingerprint: dict):
        self.run_dir = Path(run_dir)
        self.fingerprint = fingerprint
        #: The campaign's run ledger, living next to the manifest. Other
        #: layers (the phase executor, the CLI) append through this —
        #: the store's own events are ``campaign_open``/``checkpoint_save``.
        self.journal = RunJournal(self.run_dir / JOURNAL_NAME)

    # -- lifecycle ------------------------------------------------------------

    @classmethod
    def open(cls, run_dir, fingerprint: dict) -> "CheckpointStore":
        """Create or resume a run directory for this fingerprint.

        A fresh/empty directory gets a manifest; an existing one must have
        been recorded under the *same* fingerprint, else this raises
        :class:`CheckpointMismatchError` naming every differing field.
        """
        run_dir = Path(run_dir)
        manifest = run_dir / "manifest.json"
        resumed = manifest.exists()
        if resumed:
            with open(manifest, "r", encoding="utf-8") as handle:
                stored = json.load(handle)
            drifts = compare_snapshots(stored, fingerprint,
                                       path="fingerprint")
            if drifts:
                raise CheckpointMismatchError(
                    f"checkpoint {run_dir} was recorded for a different "
                    f"campaign; refusing to mix results:\n  "
                    + "\n  ".join(drifts)
                    + "\n(use a fresh --resume directory, or rerun with "
                      "the original context)"
                )
            log.info("resuming campaign checkpoint at %s", run_dir)
        else:
            run_dir.mkdir(parents=True, exist_ok=True)
            atomic_write_text(manifest, stable_json(fingerprint) + "\n")
            log.info("started campaign checkpoint at %s", run_dir)
        store = cls(run_dir, fingerprint)
        store.journal.append("campaign_open",
                             experiment=fingerprint.get("experiment"),
                             resumed=resumed)
        return store

    # -- phases ---------------------------------------------------------------

    def phase_dir(self, label: str, make: bool = False) -> Path:
        path = self.run_dir / "phases" / phase_dir_name(label)
        if make:
            path.mkdir(parents=True, exist_ok=True)
        return path

    def load_chunks(self, label: str) -> List[ChunkResult]:
        """All stored chunks of a phase, sorted by first sample index.

        An unreadable chunk file (which the atomic writer makes nearly
        impossible) is skipped with a warning — its samples just get
        re-simulated, which is always safe.
        """
        directory = self.phase_dir(label)
        chunks: List[ChunkResult] = []
        if not directory.is_dir():
            return chunks
        for name in sorted(os.listdir(directory)):
            if not name.endswith(".pkl"):
                continue
            path = directory / name
            try:
                with open(path, "rb") as handle:
                    chunk = pickle.load(handle)
            except Exception as exc:  # corrupt/foreign file: re-simulate
                log.warning("skipping unreadable checkpoint chunk %s: %s",
                            path, exc)
                continue
            chunks.append(chunk)
        chunks.sort(key=lambda chunk: chunk.start)
        return chunks

    def completed_indices(self, label: str) -> set:
        return {index for chunk in self.load_chunks(label)
                for index in chunk.indices}

    def completed_spans(self, label: str) -> List[Tuple[int, int]]:
        """Persisted sample spans of a phase, from file names alone —
        the cheap (no-unpickle) census the manifest aggregator uses."""
        return chunk_spans(self.phase_dir(label))

    def save_chunk(self, label: str, chunk: ChunkResult) -> Path:
        """Persist one completed chunk, atomically."""
        directory = self.phase_dir(label, make=True)
        path = directory / chunk_name(chunk.indices[0], chunk.indices[-1])
        written = atomic_write_bytes(path, pickle.dumps(chunk, protocol=4))
        self.journal.append("checkpoint_save", phase=label,
                            start=chunk.indices[0], end=chunk.indices[-1],
                            samples=len(chunk.indices))
        return written

    def has_chunk(self, label: str, start: int, end: int) -> bool:
        """Whether the exact span ``[start, end]`` is already committed."""
        return (self.phase_dir(label) / chunk_name(start, end)).is_file()

    def commit_chunk(self, label: str, chunk: ChunkResult) -> bool:
        """Duplicate-tolerant :meth:`save_chunk`: the phase executor's one
        commit for completed work items.

        A chunk file that already exists is complete and correct — it was
        written atomically, and every worker computes identical bytes for
        the same span — so a second commit (a stolen lease's original
        owner finishing late, or two workers that raced past the lease
        layer entirely) is a no-op that leaves the existing file's bytes
        untouched. Returns whether *this* call persisted the chunk.
        """
        if self.has_chunk(label, chunk.indices[0], chunk.indices[-1]):
            self.journal.append("checkpoint_duplicate", phase=label,
                                start=chunk.indices[0],
                                end=chunk.indices[-1])
            return False
        self.save_chunk(label, chunk)
        return True

    # -- quarantine report ----------------------------------------------------

    def record_failed_samples(self, failed: Sequence[dict]) -> None:
        """Persist the quarantine report next to the manifest."""
        atomic_write_text(self.run_dir / "failed_samples.json",
                          stable_json(list(failed)) + "\n")

    def describe(self) -> str:
        return str(self.run_dir)
