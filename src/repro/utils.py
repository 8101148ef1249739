"""Small shared helpers used across the package."""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Iterator, Optional, Sequence, TypeVar, Union

from repro.errors import ConfigurationError

T = TypeVar("T")

__all__ = [
    "chunked",
    "xor_bytes",
    "env_int",
    "env_flag",
    "fast_mode",
    "phase_engine",
    "capped_backoff",
    "scaled_samples",
    "atomic_write_bytes",
    "atomic_write_text",
    "atomic_write_json",
]


def chunked(seq: Sequence[T], size: int) -> Iterator[Sequence[T]]:
    """Yield consecutive chunks of ``seq`` of length ``size``.

    The final chunk may be shorter when ``len(seq)`` is not a multiple of
    ``size``.
    """
    if size <= 0:
        raise ValueError(f"chunk size must be positive, got {size}")
    for start in range(0, len(seq), size):
        yield seq[start:start + size]


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """Bytewise XOR of two equal-length byte strings."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return bytes(x ^ y for x, y in zip(a, b))


def env_int(name: str, default: Optional[int]) -> Optional[int]:
    """Read an integer environment variable; ``default`` when unset."""
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return default
    try:
        return int(raw)
    except ValueError:
        raise ConfigurationError(
            f"environment variable {name}={raw!r} is not an int") from None


def env_flag(name: str) -> bool:
    """True when the environment variable is set to a truthy marker."""
    return os.environ.get(name, "").lower() in {"1", "true", "yes", "on"}


def fast_mode() -> bool:
    """True when REPRO_FAST asks experiments to use reduced sample counts."""
    return env_flag("REPRO_FAST")


def phase_engine(counts_only: bool, batched: bool,
                 batched_timing: bool) -> str:
    """The engine a collection phase runs on: the one engine rule.

    ``"batched"`` (the structure-of-arrays counts core) for counts-only
    phases and ``"batched_timing"`` (the wavefront core) for timed ones;
    ``"event"``, the reference engine, when the phase's flag is off. The
    phase executor dispatches on it, journals it and pins it into worker
    contexts, so the three always agree. Fault plans have no say in it.
    """
    if counts_only:
        return "batched" if batched else "event"
    return "batched_timing" if batched_timing else "event"


def capped_backoff(attempt: int, base: float, cap: float) -> float:
    """Capped exponential backoff ``min(cap, base * 2**(attempt-1))``.

    Shared by supervised retries and by shard workers waiting on their
    peers' leases; a non-positive ``base`` disables waiting.
    """
    if base <= 0:
        return 0.0
    return min(cap, base * (2 ** max(0, attempt - 1)))


def scaled_samples(paper_count: int, fast_count: int) -> int:
    """Sample count for an experiment.

    Priority: explicit ``REPRO_SAMPLES`` override, then the reduced count when
    ``REPRO_FAST`` is set, then the paper's count.
    """
    override = env_int("REPRO_SAMPLES", None)
    if override is not None:
        return override
    return fast_count if fast_mode() else paper_count


def atomic_write_bytes(path: Union[str, Path], data: bytes) -> Path:
    """Write ``data`` to ``path`` so readers never see a partial file.

    The bytes go to a temp file in the destination directory, are fsynced,
    and the temp file is renamed over the destination (``os.replace``,
    atomic on POSIX and Windows). A crash at any point leaves either the
    previous content or the new content — never a truncated mix. Every
    artifact writer in the package (bench reports, metrics baselines,
    ``--json`` exports, checkpoints) routes through here; the torn-write
    fault injection in :mod:`repro.faults` proves the property by tearing
    the temp write and asserting the destination survives.
    """
    path = Path(path)
    from repro.faults import active_plan

    plan = active_plan()
    fd, tmp = tempfile.mkstemp(dir=str(path.parent or Path(".")),
                               prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            if plan is not None:
                spec = plan.torn_write_fires(path.name)
                if spec is not None:
                    from repro.faults import TornWriteError

                    handle.write(data[:len(data) // 2])
                    raise TornWriteError(
                        f"injected torn write {spec.describe()} while "
                        f"writing {path}"
                    )
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def atomic_write_text(path: Union[str, Path], text: str,
                      encoding: str = "utf-8") -> Path:
    """Crash-safe text write (see :func:`atomic_write_bytes`)."""
    return atomic_write_bytes(path, text.encode(encoding))


def atomic_write_json(path: Union[str, Path], obj, *, indent: int = 2,
                      sort_keys: bool = False,
                      trailing_newline: bool = True) -> Path:
    """Crash-safe JSON write (see :func:`atomic_write_bytes`)."""
    text = json.dumps(obj, indent=indent, sort_keys=sort_keys)
    if trailing_newline:
        text += "\n"
    return atomic_write_text(path, text)
