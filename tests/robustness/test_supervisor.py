"""Worker supervision semantics, exercised through the inline scheduler.

These tests drive :func:`collect_records` with deterministic fault plans
and zero backoff — no pools, no sleeps, no wall-clock — so they pin the
retry/split/quarantine state machine precisely. The pool variants of the
same behaviors live in ``test_resume_identity.py`` and the CI chaos job.
"""

import pytest

from repro.core.policies import make_policy
from repro.errors import ConfigurationError
from repro.experiments.base import ExperimentContext, collect_records
from repro.experiments.checkpoint import CheckpointStore, campaign_fingerprint
from repro.experiments.runner import CampaignStats, SupervisionPolicy
from repro.faults import InjectedFault, parse_fault_plan
from repro.gpu.batched import BatchedCountsCore
from repro.telemetry import Telemetry

SEED = 515
SAMPLES = 6

#: No sleeps in tests: backoff_base=0 short-circuits time.sleep entirely.
FAST_SUPERVISION = SupervisionPolicy(backoff_base=0.0,
                                     serial_chunk_samples=2)


def _keys(records):
    return [(r.ciphertext, r.total_time, r.total_accesses)
            for r in records]


def _collect(faults=None, supervision=None, campaign=None, telemetry=None,
             counts_only=True):
    ctx = ExperimentContext(
        root_seed=SEED, samples=SAMPLES, telemetry=telemetry,
        supervision=supervision,
        faults=parse_fault_plan(faults) if faults else None,
        campaign=campaign,
    )
    return collect_records(ctx, make_policy("baseline", 1), SAMPLES,
                           counts_only=counts_only)


@pytest.fixture(scope="module")
def golden():
    ctx = ExperimentContext(root_seed=SEED, samples=SAMPLES)
    _, records = collect_records(ctx, make_policy("baseline", 1), SAMPLES,
                                 counts_only=True)
    return _keys(records)


class TestPolicy:
    def test_backoff_is_capped_exponential(self):
        policy = SupervisionPolicy(backoff_base=0.1, backoff_cap=0.35)
        assert policy.backoff(1) == pytest.approx(0.1)
        assert policy.backoff(2) == pytest.approx(0.2)
        assert policy.backoff(3) == pytest.approx(0.35)  # capped
        assert policy.backoff(10) == pytest.approx(0.35)

    def test_zero_base_disables_backoff(self):
        assert SupervisionPolicy(backoff_base=0.0).backoff(5) == 0.0

    def test_supervision_defaults_are_off_in_context(self):
        ctx = ExperimentContext()
        assert ctx.supervision is None
        assert ctx.faults is None
        assert ctx.checkpoint is None


class TestNegativeControl:
    def test_supervised_faultless_run_is_bit_identical(self, golden):
        # The whole resilience layer must be a no-op when nothing fails.
        _, records = _collect(supervision=FAST_SUPERVISION)
        assert _keys(records) == golden

    def test_supervised_instrumented_run_matches_plain_telemetry(self):
        plain, supervised = Telemetry(), Telemetry()
        _collect(telemetry=plain, counts_only=False)
        _collect(telemetry=supervised, supervision=FAST_SUPERVISION,
                 counts_only=False)
        assert supervised.metrics.snapshot() == plain.metrics.snapshot()
        assert [(e.name, e.ts, e.dur) for e in supervised.tracer.events] \
            == [(e.name, e.ts, e.dur) for e in plain.tracer.events]


class TestRetry:
    def test_transient_fault_is_retried_to_identical_results(self, golden):
        campaign = CampaignStats()
        _, records = _collect(faults="raise@3", campaign=campaign,
                              supervision=FAST_SUPERVISION)
        assert _keys(records) == golden
        assert campaign.retries >= 1
        assert not campaign.failed_samples

    def test_hang_and_exit_faults_recover_in_process(self, golden):
        # in-process translation: hang/exit become raises, retry succeeds
        for plan in ("hang@2", "exit@5"):
            _, records = _collect(faults=plan,
                                  supervision=FAST_SUPERVISION)
            assert _keys(records) == golden

    def test_unsupervised_fault_propagates(self):
        with pytest.raises(InjectedFault):
            _collect(faults="raise@3x*")


class TestQuarantine:
    def test_poison_sample_is_quarantined_not_fatal(self, golden):
        campaign = CampaignStats()
        _, records = _collect(faults="raise@3x*", campaign=campaign,
                              supervision=FAST_SUPERVISION)
        # exactly the poison sample is missing; every other record exact
        expected = [key for index, key in enumerate(golden) if index != 3]
        assert _keys(records) == expected
        assert [entry["sample"] for entry in campaign.failed_samples] \
            == [3]
        assert "InjectedFault" in campaign.failed_samples[0]["error"]

    def test_chunk_splitting_isolates_the_poison(self, golden):
        # one big chunk: the supervisor must split its way down to the
        # single poisoned sample instead of quarantining the whole span
        campaign = CampaignStats()
        policy = SupervisionPolicy(backoff_base=0.0,
                                   serial_chunk_samples=SAMPLES,
                                   max_attempts=2)
        _, records = _collect(faults="raise@4x*", campaign=campaign,
                              supervision=policy)
        expected = [key for index, key in enumerate(golden) if index != 4]
        assert _keys(records) == expected
        assert campaign.splits >= 1
        assert [entry["sample"] for entry in campaign.failed_samples] \
            == [4]

    def test_multiple_poisons_all_isolated(self, golden):
        campaign = CampaignStats()
        _, records = _collect(faults="raise@1x*,raise@4x*",
                              campaign=campaign,
                              supervision=FAST_SUPERVISION)
        expected = [key for index, key in enumerate(golden)
                    if index not in (1, 4)]
        assert _keys(records) == expected
        assert sorted(entry["sample"]
                      for entry in campaign.failed_samples) == [1, 4]

    def test_campaign_summary_mentions_quarantine(self):
        campaign = CampaignStats()
        _collect(faults="raise@0x*", campaign=campaign,
                 supervision=FAST_SUPERVISION)
        summary = campaign.summary()
        assert "quarantined=1" in summary
        assert campaign.eventful()


class TestFaultsKeepTheDefaultEngine:
    """Fault plans never choose the engine: a supervised, checkpointed
    counts phase under faults still runs on the batched counts core."""

    @pytest.mark.parametrize("plan,poison", [("raise@3", None),
                                             ("raise@4x*", 4)])
    def test_counts_phase_runs_on_the_batched_core(
            self, tmp_path, monkeypatch, golden, plan, poison):
        simulated = []
        original = BatchedCountsCore.encrypt_batch

        def spy(self, plaintexts, rngs, on_record=None):
            simulated.append(len(plaintexts))
            return original(self, plaintexts, rngs, on_record=on_record)

        monkeypatch.setattr(BatchedCountsCore, "encrypt_batch", spy)
        ctx = ExperimentContext(root_seed=SEED, samples=SAMPLES)
        store = CheckpointStore.open(
            tmp_path / "run", campaign_fingerprint("unit", ctx, False))
        campaign = CampaignStats()
        _, records = collect_records(
            ctx.with_(checkpoint=store, supervision=FAST_SUPERVISION,
                      faults=parse_fault_plan(plan), campaign=campaign),
            make_policy("baseline", 1), SAMPLES, counts_only=True)

        expected = [key for index, key in enumerate(golden)
                    if index != poison]
        assert _keys(records) == expected
        assert campaign.retries >= 1
        assert [entry["sample"] for entry in campaign.failed_samples] \
            == ([] if poison is None else [poison])
        # Faults fire before an item simulates, so every surviving sample
        # went through the batched core exactly once.
        assert sum(simulated) == len(expected)
        engines = [event["engine"] for event in store.journal.read()
                   if event["kind"] == "engine_select"]
        assert engines == ["batched"]


class TestImpossibleInput:
    """Impossible knobs are a loud ConfigurationError (exit 3), the way
    ``ShardPolicy.validate`` treats impossible lease timings."""

    @pytest.mark.parametrize("overrides", [
        {"max_attempts": 0}, {"max_attempts": -2},
        {"chunk_deadline": 0}, {"chunk_deadline": -1.5},
    ])
    def test_impossible_supervision_is_rejected(self, overrides):
        policy = SupervisionPolicy(**overrides)
        with pytest.raises(ConfigurationError):
            policy.validate()
        # The executor validates too, before anything simulates.
        with pytest.raises(ConfigurationError):
            _collect(supervision=policy)

    def test_no_deadline_is_allowed(self):
        policy = SupervisionPolicy(chunk_deadline=None, max_attempts=1)
        assert policy.validate() is policy

    def test_negative_jobs_are_rejected(self):
        with pytest.raises(ConfigurationError, match="-j/--jobs"):
            ExperimentContext(jobs=-3)
        assert ExperimentContext(jobs=0).effective_jobs() >= 1


class TestCampaignStats:
    def test_fresh_stats_are_uneventful(self):
        assert not CampaignStats().eventful()


class TestCliPlanValidation:
    def test_bad_fault_plan_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError):
            parse_fault_plan("explode@everything")
