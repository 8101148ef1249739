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


class TestWorkItems:
    """A checkpointed phase runs as several work items, each on a fresh
    server: what an item sets up must not grow with the phase."""

    @staticmethod
    def checkpointed(tmp_path, samples):
        from repro.experiments.checkpoint import (CheckpointStore,
                                                  campaign_fingerprint)
        ctx = ExperimentContext(root_seed=2018, samples=samples)
        return ctx.with_(checkpoint=CheckpointStore.open(
            tmp_path / "run", campaign_fingerprint("unit", ctx, False)))

    def test_a_checkpointed_phase_builds_the_table_grid_once(
            self, tmp_path, monkeypatch):
        from weakref import WeakKeyDictionary

        from repro.gpu import warp
        from repro.gpu.address import AddressMap
        from repro.workloads.server import EncryptionServer

        monkeypatch.setattr(warp, "_ADDRESS_TABLES", WeakKeyDictionary())
        entries = []
        servers = []
        table_entry_address = AddressMap.table_entry_address
        init = EncryptionServer.__init__

        def entry_spy(self, table_id, index):
            entries.append((table_id, index))
            return table_entry_address(self, table_id, index)

        def init_spy(self, *args, **kwargs):
            servers.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(AddressMap, "table_entry_address", entry_spy)
        monkeypatch.setattr(EncryptionServer, "__init__", init_spy)
        # 20 samples in items of 8: a server (and an address map) for each
        # of the three items, and the one the phase returns.
        collect_records(self.checkpointed(tmp_path, 20),
                        make_policy("rss_rts", 8), 20)
        assert len(servers) == 4
        assert len(entries) == 5 * 256

    def test_an_items_plaintexts_are_the_phases_at_its_indices(
            self, tmp_path, monkeypatch):
        from repro.experiments import runner
        from repro.workloads.plaintext import random_plaintexts
        from repro.workloads.server import EncryptionServer

        drawn = []
        items = []
        encrypt_batch = EncryptionServer.encrypt_batch

        def draw_spy(num_samples, lines, rng):
            drawn.append(num_samples)
            return random_plaintexts(num_samples, lines, rng)

        def batch_spy(self, plaintexts, *args, **kwargs):
            items.append(list(plaintexts))
            return encrypt_batch(self, plaintexts, *args, **kwargs)

        monkeypatch.setattr(runner, "random_plaintexts", draw_spy)
        monkeypatch.setattr(EncryptionServer, "encrypt_batch", batch_spy)
        ctx = self.checkpointed(tmp_path, 20)
        collect_records(ctx, make_policy("rss_rts", 8), 20)
        # Each item draws only through its last index ...
        assert drawn == [8, 16, 20]
        # ... and gets the entries of the whole phase's list.
        phase = random_plaintexts(20, ctx.lines, ctx.stream("workload"))
        assert items == [phase[:8], phase[8:16], phase[16:]]


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
