"""Deterministic fault injection for resilience testing.

The supervisor, checkpoint/resume, and crash-safe artifact layers all need
to be exercised against worker crashes, hangs, process kills, and torn
file writes — *deterministically*, so the chaos CI job never flakes and a
failing case replays bit-identically. A :class:`FaultPlan` is a small,
picklable description of which faults fire where:

* **sample faults** (``raise``, ``hang``, ``exit``) fire before the work
  item holding a given sample index simulates, on whatever engine the
  phase resolved. They are gated on the supervisor-assigned *attempt*
  number of the item: a spec with ``xN`` fires on the
  first ``N`` attempts (a transient fault that a retry survives), while
  ``x*`` fires on every attempt (a deterministic poison sample that must
  be quarantined);
* **torn-write faults** (``torn``) fire inside
  :func:`repro.utils.atomic_write_bytes` for matching file names: half the
  payload is written to the temp file and :class:`TornWriteError` is
  raised *before* the atomic rename, modelling a crash mid-write. The
  destination must be untouched — that is the property the atomic writer
  exists to provide.
* **lease faults** (any kind at the literal target ``lease``) fire at a
  shard worker's lease sites (``rcoal shard``): ``torn@lease`` tears the
  lease-file write (peers must treat the torn file like a torn ledger
  tail — stale, reclaimable), ``hang@lease`` blocks the worker right
  after it claims (heartbeats stop, peers reclaim after the deadline),
  ``exit@lease`` kills the worker process mid-lease (the SIGKILL model),
  ``raise@lease`` crashes it with a traceback, and ``steal@lease``
  expires the worker's own lease while it keeps working — forcing the
  stolen-lease double-commit path that idempotence must absorb.

Plan syntax (the ``--faults`` CLI flag)::

    plan   := spec ("," spec)*
    spec   := kind "@" target ["x" times]
    kind   := "raise" | "hang" | "exit" | "torn" | "steal"
    target := <sample index> | "rand" | "lease"
              | <file name glob>                 (glob: torn only;
                                                  "lease": shard only)
    times  := <positive int> | "*"                          (default 1)

Examples: ``raise@3`` (sample 3 fails once, a retry succeeds),
``raise@5x*`` (sample 5 is poison), ``hang@0`` (the chunk holding sample 0
hangs until the deadline reaps it), ``exit@2`` (the worker process holding
sample 2 dies without a traceback), ``torn@out.json`` (the first write of
``out.json`` tears). A ``rand`` target resolves to a concrete sample via
the seeded ``"faults"`` RNG stream when the plan is bound to a campaign
(:meth:`FaultPlan.bind`), so "kill the campaign at a random sample" is
still replayable.

No fault involves a timer: hangs block forever and are reaped by the
supervisor's deadline, everything else is immediate.
"""

from __future__ import annotations

import fnmatch
import os
import threading
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.errors import ConfigurationError, ReproError

__all__ = [
    "FaultSpec",
    "FaultPlan",
    "InjectedFault",
    "TornWriteError",
    "parse_fault_plan",
    "install_plan",
    "active_plan",
]

SAMPLE_KINDS = ("raise", "hang", "exit")
KINDS = SAMPLE_KINDS + ("torn", "steal")

#: The literal target that aims a fault at a shard worker's lease sites.
LEASE_TARGET = "lease"

#: Exit status used by ``exit`` faults; distinctive in worker post-mortems.
EXIT_STATUS = 117


class InjectedFault(ReproError):
    """An injected worker fault fired (the ``raise`` kind, and ``hang``/
    ``exit`` when translated to a raise for in-process execution)."""


class TornWriteError(InjectedFault):
    """An injected torn write fired mid-:func:`atomic_write_bytes`."""


@dataclass(frozen=True)
class FaultSpec:
    """One fault: ``kind`` at ``target``, firing on the first ``times``
    attempts (``None`` = every attempt)."""

    kind: str
    target: str
    times: Optional[int] = 1

    def describe(self) -> str:
        times = "*" if self.times is None else str(self.times)
        suffix = "" if self.times == 1 else f"x{times}"
        return f"{self.kind}@{self.target}{suffix}"

    def fires_on(self, attempt: int) -> bool:
        return self.times is None or attempt < self.times


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, picklable set of :class:`FaultSpec` entries.

    Travels to worker processes inside task payloads; the supervisor
    passes the work item's attempt number explicitly, so firing decisions
    are pure functions of ``(spec, sample, attempt)`` — no shared state,
    no clocks.
    """

    specs: Tuple[FaultSpec, ...] = ()

    def describe(self) -> str:
        return ",".join(spec.describe() for spec in self.specs)

    def bind(self, num_samples: int, root_seed: int) -> "FaultPlan":
        """Resolve ``rand`` targets to concrete sample indices.

        Uses the dedicated ``"faults"`` RNG stream of the campaign seed,
        so "a random sample" is still the *same* sample on every rerun.
        Idempotent for plans without ``rand`` targets.
        """
        if not any(spec.target == "rand" for spec in self.specs):
            return self
        from repro.rng import RngStream

        stream = RngStream(root_seed, "faults")
        resolved = []
        for spec in self.specs:
            if spec.target == "rand":
                index = int(stream.integers(0, max(1, num_samples)))
                spec = FaultSpec(spec.kind, str(index), spec.times)
            resolved.append(spec)
        return FaultPlan(tuple(resolved))

    # -- sample-site faults ---------------------------------------------------

    def sample_specs(self, index: int):
        text = str(index)
        return [spec for spec in self.specs
                if spec.kind in SAMPLE_KINDS and spec.target == text]

    def maybe_fire_sample(self, index: int, attempt: int,
                          in_worker: bool) -> None:
        """Fire any matching sample fault; called before the work item
        holding ``index`` simulates, on its attempt ``attempt``.

        ``in_worker`` distinguishes a worker process — a pool or shard
        worker, where ``hang`` really blocks and ``exit`` really kills —
        from in-process execution (the inline scheduler, including a
        degraded pool's fallback), where both are translated to an
        immediate :class:`InjectedFault`: an in-process hang would wedge
        the supervisor itself.
        """
        for spec in self.sample_specs(index):
            if not spec.fires_on(attempt):
                continue
            if spec.kind == "raise" or not in_worker:
                raise InjectedFault(
                    f"injected fault {spec.describe()} on sample {index} "
                    f"(attempt {attempt})"
                )
            if spec.kind == "exit":
                os._exit(EXIT_STATUS)
            # hang: block forever; the chunk deadline reaps the worker.
            threading.Event().wait()

    # -- lease-site faults (rcoal shard) --------------------------------------

    def lease_write_torn(self) -> Optional[FaultSpec]:
        """The ``torn@lease`` spec whose budget remains, if any; consumes
        one firing. Checked inside the shard lease-file writer."""
        return self._consume_lease(("torn",))

    def lease_claim_fault(self) -> Optional[FaultSpec]:
        """The next due ``raise``/``hang``/``exit``/``steal`` lease fault,
        if any; consumes one firing. Checked right after a shard worker
        wins a lease claim — the caller acts the kind out (the lease layer
        owns the semantics, unlike sample faults which fire here)."""
        return self._consume_lease(SAMPLE_KINDS + ("steal",))

    def _consume_lease(self, kinds: Tuple[str, ...]) -> Optional[FaultSpec]:
        for spec in self.specs:
            if spec.target != LEASE_TARGET or spec.kind not in kinds:
                continue
            fired = _LEASE_FIRES.get(spec, 0)
            if spec.times is None or fired < spec.times:
                _LEASE_FIRES[spec] = fired + 1
                return spec
        return None

    # -- write-site faults ----------------------------------------------------

    def torn_write_fires(self, name: str) -> Optional[FaultSpec]:
        """The torn spec matching file ``name`` whose budget remains, if
        any. Consumes one firing from the per-process budget."""
        for spec in self.specs:
            if spec.kind != "torn" or spec.target == LEASE_TARGET \
                    or not fnmatch.fnmatch(name, spec.target):
                continue
            fired = _WRITE_FIRES.get(spec, 0)
            if spec.times is None or fired < spec.times:
                _WRITE_FIRES[spec] = fired + 1
                return spec
        return None


def parse_fault_plan(text: str) -> FaultPlan:
    """Parse ``--faults`` syntax (see the module docstring) into a plan."""
    specs = []
    for raw in text.split(","):
        raw = raw.strip()
        if not raw:
            continue
        kind, sep, rest = raw.partition("@")
        if not sep or kind not in KINDS or not rest:
            raise ConfigurationError(
                f"invalid fault spec {raw!r}: expected kind@target[xN|x*] "
                f"with kind in {'/'.join(KINDS)}"
            )
        target, times = rest, 1
        if "x" in rest:
            head, _, tail = rest.rpartition("x")
            if tail == "*":
                target, times = head, None
            elif tail.isdigit() and int(tail) > 0:
                target, times = head, int(tail)
            # otherwise the x belongs to the target (e.g. a file glob)
        if kind == "steal" and target != LEASE_TARGET:
            raise ConfigurationError(
                f"invalid fault spec {raw!r}: steal targets 'lease' only"
            )
        if kind in SAMPLE_KINDS and target not in ("rand", LEASE_TARGET) \
                and not target.isdigit():
            raise ConfigurationError(
                f"invalid fault spec {raw!r}: {kind} targets a sample "
                f"index, 'rand', or 'lease'"
            )
        specs.append(FaultSpec(kind, target, times))
    if not specs:
        raise ConfigurationError(f"empty fault plan {text!r}")
    return FaultPlan(tuple(specs))


# ---------------------------------------------------------------------------
# Process-wide plan, consulted by write sites (atomic_write_bytes). Sample
# faults travel explicitly in worker payloads instead: firing there depends
# on the supervisor's attempt numbering, never on process-global state.
# ---------------------------------------------------------------------------

_ACTIVE_PLAN: Optional[FaultPlan] = None
_WRITE_FIRES: Dict[FaultSpec, int] = {}
_LEASE_FIRES: Dict[FaultSpec, int] = {}


def install_plan(plan: Optional[FaultPlan]) -> None:
    """Install (or clear, with ``None``) the process-wide fault plan and
    reset the torn-write and lease-site budgets."""
    global _ACTIVE_PLAN
    _ACTIVE_PLAN = plan
    _WRITE_FIRES.clear()
    _LEASE_FIRES.clear()


def active_plan() -> Optional[FaultPlan]:
    return _ACTIVE_PLAN
