"""Metrics-baseline regression gating (``rcoal metrics --check``).

The simulator is deterministic: the same seed and sample count must yield
the *same* metrics snapshot, bit for bit. A committed baseline file turns
that into a regression gate — CI reruns an instrumented experiment and
compares its snapshot against the file, so any silent change to the timing
model, the coalescing logic, or the instrumentation itself (a renamed
metric, a lost counter increment) fails loudly with a per-metric diff.

Baseline file format (``format`` 1)::

    {
      "format": 1,
      "experiments": {
        "<experiment id>": {
          "context": {"seed": ..., "samples": ..., "fast": ...},
          "metrics": { <MetricsRegistry.snapshot()> }
        }
      }
    }

Files are written with :func:`~repro.telemetry.metrics.stable_json`
(sorted keys, normalized floats), so regenerating an unchanged baseline
is a byte-level no-op and review diffs show exactly the drifted values.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional

from repro.errors import ConfigurationError
from repro.telemetry.metrics import stable_json

__all__ = [
    "BASELINE_FORMAT",
    "compare_snapshots",
    "load_baseline",
    "update_baseline",
    "baseline_entry",
    "check_against_baseline",
]

BASELINE_FORMAT = 1


def _normalize(obj):
    """Round-trip through stable JSON so in-memory snapshots compare
    against file contents at the same (10 significant digit) float
    precision they are stored with."""
    return json.loads(stable_json(obj, indent=None))


def load_baseline(path: str) -> dict:
    """Read and validate a baseline file (a missing, unreadable or
    non-JSON one is a configuration error, like a wrong format)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigurationError(
            f"cannot read baseline {path}: {exc.strerror or exc}") from exc
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ConfigurationError(
            f"{path} is not a format-{BASELINE_FORMAT} metrics baseline "
            f"(not JSON: {exc})") from exc
    if not isinstance(data, dict) or data.get("format") != BASELINE_FORMAT:
        raise ConfigurationError(
            f"{path} is not a format-{BASELINE_FORMAT} metrics baseline"
        )
    if not isinstance(data.get("experiments"), dict):
        raise ConfigurationError(f"{path} has no 'experiments' table")
    return data


def update_baseline(path: str, experiment_id: str, context: dict,
                    snapshot: Dict[str, dict]) -> str:
    """Write/refresh one experiment's entry in a baseline file.

    Existing entries for other experiments are preserved, so one file can
    gate several experiments. Returns the path.
    """
    data: dict = {"format": BASELINE_FORMAT, "experiments": {}}
    if os.path.exists(path):
        data = load_baseline(path)
    data["experiments"][experiment_id] = {
        "context": _normalize(context),
        "metrics": _normalize(snapshot),
    }
    from repro.utils import atomic_write_text
    atomic_write_text(path, stable_json(data) + "\n")
    return path


def _close(expected, actual, tolerance: float) -> bool:
    if isinstance(expected, bool) or isinstance(actual, bool):
        return expected == actual
    if isinstance(expected, (int, float)) and \
            isinstance(actual, (int, float)):
        if expected == actual:
            return True
        scale = max(abs(expected), abs(actual))
        return scale > 0 and abs(expected - actual) / scale <= tolerance
    return expected == actual


def compare_snapshots(expected, actual, tolerance: float = 0.0,
                      path: str = "") -> List[str]:
    """Structural diff of two metrics snapshots; [] means no drift.

    Numeric leaves compare with a *relative* tolerance (0.0 = exact, the
    right default for a deterministic simulator); container shape and
    non-numeric leaves compare exactly. Each drift line names the full
    path, so a failing CI run reads like a diff.
    """
    drifts: List[str] = []
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(set(expected) | set(actual)):
            sub = f"{path}.{key}" if path else str(key)
            if key not in actual:
                drifts.append(f"{sub}: missing (baseline has "
                              f"{expected[key]!r})")
            elif key not in expected:
                drifts.append(f"{sub}: unexpected new entry "
                              f"{actual[key]!r}")
            else:
                drifts.extend(compare_snapshots(expected[key], actual[key],
                                                tolerance, sub))
    elif isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            drifts.append(f"{path}: length {len(actual)} != baseline "
                          f"{len(expected)}")
        else:
            for i, (e, a) in enumerate(zip(expected, actual)):
                drifts.extend(compare_snapshots(e, a, tolerance,
                                                f"{path}[{i}]"))
    elif not _close(expected, actual, tolerance):
        drifts.append(f"{path}: {actual!r} != baseline {expected!r}")
    return drifts


def baseline_entry(data: dict, path: str, experiment_id: str) -> dict:
    """The experiment's entry in a loaded baseline file ``path``; raises
    :class:`ConfigurationError` when it has none."""
    entry: Optional[dict] = data["experiments"].get(experiment_id)
    if entry is None:
        known = ", ".join(sorted(data["experiments"])) or "none"
        raise ConfigurationError(
            f"{path} has no baseline for {experiment_id!r} (has: {known}); "
            f"record one with --write-baseline"
        )
    return entry


def check_against_baseline(path: str, experiment_id: str, context: dict,
                           snapshot: Dict[str, dict],
                           tolerance: float = 0.0,
                           data: Optional[dict] = None) -> List[str]:
    """Compare one run against the committed baseline; [] means pass.

    A context mismatch (different seed/sample count than the baseline was
    recorded with) is reported as drift rather than silently compared —
    the numbers would differ for the wrong reason. ``data`` is the file's
    content, if the caller loaded it already.
    """
    if data is None:
        data = load_baseline(path)
    entry = baseline_entry(data, path, experiment_id)
    drifts = compare_snapshots(entry.get("context", {}),
                               _normalize(context),
                               tolerance=0.0, path="context")
    drifts.extend(compare_snapshots(entry["metrics"], _normalize(snapshot),
                                    tolerance=tolerance, path="metrics"))
    return drifts
