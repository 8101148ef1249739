"""Tests for the shared experiment machinery."""

import pytest

from repro.attack.estimator import AccessEstimator
from repro.core.policies import make_policy
from repro.errors import ConfigurationError
from repro.experiments.base import (
    MECHANISMS,
    ExperimentContext,
    collect_records,
    corresponding_attack,
)
from repro.experiments.registry import EXPERIMENTS, get_experiment


class TestContext:
    def test_sample_count_priority(self, monkeypatch):
        monkeypatch.delenv("REPRO_SAMPLES", raising=False)
        monkeypatch.delenv("REPRO_FAST", raising=False)
        assert ExperimentContext().sample_count(100, 40) == 100
        assert ExperimentContext(samples=7).sample_count(100, 40) == 7
        monkeypatch.setenv("REPRO_FAST", "1")
        assert ExperimentContext().sample_count(100, 40) == 40

    def test_streams_are_seeded_by_context(self):
        a = ExperimentContext(root_seed=1).stream("x").integers(0, 99, 8)
        b = ExperimentContext(root_seed=1).stream("x").integers(0, 99, 8)
        c = ExperimentContext(root_seed=2).stream("x").integers(0, 99, 8)
        assert a.tolist() == b.tolist()
        assert a.tolist() != c.tolist()

    def test_secret_key_is_reproducible(self):
        assert ExperimentContext(root_seed=5).secret_key() \
            == ExperimentContext(root_seed=5).secret_key()

    def test_with_override(self):
        ctx = ExperimentContext().with_(lines=1024)
        assert ctx.lines == 1024


class TestCollectRecords:
    def test_same_plaintexts_across_policies(self):
        ctx = ExperimentContext(samples=2)
        server_a, records_a = collect_records(ctx, make_policy("baseline"),
                                              2, counts_only=True)
        server_b, records_b = collect_records(ctx, make_policy("nocoal"),
                                              2, counts_only=True)
        # Identical ciphertexts: same key, same plaintext batch.
        assert [r.ciphertext for r in records_a] \
            == [r.ciphertext for r in records_b]
        # But different access counts: different machine.
        assert records_a[0].total_accesses != records_b[0].total_accesses

    @pytest.mark.parametrize("schedule", ["inline", "pool", "checkpointed",
                                          "supervised", "leased"])
    def test_zero_samples_is_a_configuration_error_everywhere(
            self, tmp_path, schedule):
        from repro.experiments.checkpoint import (CheckpointStore,
                                                  campaign_fingerprint)
        from repro.experiments.runner import SupervisionPolicy
        from repro.experiments.shard import ShardPolicy
        base = ExperimentContext(samples=0)

        def store():
            return CheckpointStore.open(
                tmp_path / "run", campaign_fingerprint("unit", base, False))

        ctx = {
            "inline": lambda: base,
            "pool": lambda: base.with_(jobs=2),
            "checkpointed": lambda: base.with_(checkpoint=store()),
            "supervised": lambda: base.with_(
                supervision=SupervisionPolicy()),
            "leased": lambda: base.with_(checkpoint=store(),
                                         shard=ShardPolicy("w1")),
        }[schedule]()
        with pytest.raises(ConfigurationError, match="must be positive"):
            collect_records(ctx, make_policy("baseline"), 0,
                            counts_only=True)


class TestCorrespondingAttack:
    def test_mechanisms_get_matching_models(self):
        ctx = ExperimentContext()
        for mechanism in MECHANISMS:
            estimator = corresponding_attack(ctx, mechanism, 4)
            assert isinstance(estimator, AccessEstimator)
            assert estimator.model_policy.name == mechanism
            assert estimator.model_policy.num_subwarps == 4

    def test_baseline_and_nocoal_get_baseline_model(self):
        ctx = ExperimentContext()
        for name in ("baseline", "nocoal"):
            estimator = corresponding_attack(ctx, name, 1)
            assert estimator.model_policy.name == "baseline"


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        expected = {"table2", "fig05", "fig06", "fig07", "fig08", "fig09",
                    "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
                    "fig18",
                    "ablation_selective", "ablation_rss_dist",
                    "ablation_inference", "ablation_samples",
                    "ablation_noise", "ablation_energy",
                    "ablation_blocksize", "ablation_leakage",
                    "ablation_scheduling", "ablation_addrmap",
                    "attribute"}
        assert set(EXPERIMENTS) == expected

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigurationError):
            get_experiment("fig99")
