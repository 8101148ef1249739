"""Checkpoint store: fingerprint pinning, chunk persistence, quarantine
reports."""

import json
import pickle

import pytest

from repro.errors import CheckpointMismatchError
from repro.experiments.base import ExperimentContext
from repro.experiments.checkpoint import (
    CheckpointStore,
    ChunkResult,
    campaign_fingerprint,
    config_hash,
)
from repro.gpu.config import GPUConfig


def _fingerprint(**overrides):
    ctx = ExperimentContext(
        root_seed=overrides.pop("root_seed", 11),
        samples=overrides.pop("samples", 8),
        batched=overrides.pop("batched", True),
        batched_timing=overrides.pop("batched_timing", True))
    return campaign_fingerprint(overrides.pop("experiment", "fig05"), ctx,
                                overrides.pop("instrumented", False))


class TestFingerprint:
    def test_contains_the_context_knobs(self):
        fingerprint = _fingerprint()
        assert fingerprint["experiment"] == "fig05"
        assert fingerprint["root_seed"] == 11
        assert fingerprint["samples"] == 8
        assert fingerprint["instrumented"] is False

    def test_engines_are_pinned(self):
        # Like --profile, the engines are part of the campaign's
        # identity, so a resume can never silently mix the fast cores
        # with the event engine.
        assert _fingerprint()["batched"] is True
        assert _fingerprint()["batched_timing"] is True
        assert _fingerprint(batched=False)["batched"] is False
        assert _fingerprint(batched_timing=False)["batched_timing"] is False

    def test_default_fingerprint_is_unchanged(self):
        # Existing campaign directories must keep resuming: the default
        # fingerprint is exactly what earlier releases stored.
        assert _fingerprint() == {
            "format": 1, "experiment": "fig05", "root_seed": 11,
            "samples": 8, "lines": 32, "config": "default",
            "repro_fast": None, "repro_samples": None,
            "instrumented": False, "batched": True, "batched_timing": True,
        }

    def test_config_hash_is_stable_and_sensitive(self):
        assert config_hash(None) == "default"
        assert config_hash(GPUConfig()) == config_hash(GPUConfig())
        small = GPUConfig(num_partitions=4)
        assert config_hash(small) != config_hash(GPUConfig())


class TestStoreLifecycle:
    def test_open_creates_manifest(self, tmp_path):
        store = CheckpointStore.open(tmp_path / "run", _fingerprint())
        manifest = json.loads(
            (store.run_dir / "manifest.json").read_text())
        assert manifest["experiment"] == "fig05"

    def test_reopen_with_same_fingerprint_succeeds(self, tmp_path):
        CheckpointStore.open(tmp_path / "run", _fingerprint())
        CheckpointStore.open(tmp_path / "run", _fingerprint())

    @pytest.mark.parametrize("drift", [
        {"root_seed": 999},
        {"samples": 9},
        {"experiment": "fig07"},
        {"instrumented": True},
        {"batched": False},
        {"batched_timing": False},
    ])
    def test_reopen_with_different_fingerprint_is_a_hard_error(
            self, tmp_path, drift):
        CheckpointStore.open(tmp_path / "run", _fingerprint())
        with pytest.raises(CheckpointMismatchError) as excinfo:
            CheckpointStore.open(tmp_path / "run", _fingerprint(**drift))
        # the error names the drifted field and how to recover
        field, = drift
        assert f"fingerprint.{field}" in str(excinfo.value)
        assert "fresh --resume" in str(excinfo.value)


class TestChunks:
    def _store(self, tmp_path):
        return CheckpointStore.open(tmp_path / "run", _fingerprint())

    def test_round_trips_chunks_in_sample_order(self, tmp_path):
        store = self._store(tmp_path)
        store.save_chunk("phase", ChunkResult((4, 5), ["r4", "r5"]))
        store.save_chunk("phase", ChunkResult((0, 1), ["r0", "r1"]))
        chunks = store.load_chunks("phase")
        assert [c.indices for c in chunks] == [(0, 1), (4, 5)]
        assert [c.records for c in chunks] == [["r0", "r1"], ["r4", "r5"]]
        assert store.completed_indices("phase") == {0, 1, 4, 5}

    def test_phases_are_isolated(self, tmp_path):
        store = self._store(tmp_path)
        store.save_chunk("phase-a", ChunkResult((0,), ["a"]))
        assert store.load_chunks("phase-b") == []

    def test_phase_labels_with_odd_characters(self, tmp_path):
        store = self._store(tmp_path)
        label = "rss(M=8)|n=6|counts=0/weird label"
        store.save_chunk(label, ChunkResult((0,), ["x"]))
        assert store.completed_indices(label) == {0}

    def test_unreadable_chunk_is_skipped_not_fatal(self, tmp_path):
        store = self._store(tmp_path)
        store.save_chunk("phase", ChunkResult((0,), ["good"]))
        phase_dir = store.phase_dir("phase")
        (phase_dir / "chunk-00001-00001.pkl").write_bytes(
            pickle.dumps(ChunkResult((1,), ["ok"]))[:10])  # truncated
        chunks = store.load_chunks("phase")
        assert [c.indices for c in chunks] == [(0,)]

    def test_failed_samples_report(self, tmp_path):
        store = self._store(tmp_path)
        failed = [{"phase": "p", "sample": 3, "error": "InjectedFault: x"}]
        store.record_failed_samples(failed)
        recorded = json.loads(
            (store.run_dir / "failed_samples.json").read_text())
        assert recorded == failed
