"""Sharded execution: lease protocol, crash reclaim, byte-identity.

The contract under test (docs/robustness.md#distributed-execution):
K cooperating workers — racing, crashing mid-lease, stealing, double
committing — drain a campaign to output byte-identical to the serial
run. Leases are an efficiency device only; correctness comes from
per-sample determinism plus duplicate-tolerant atomic commits.

Protocol-level tests drive :class:`LeaseManager` directly against a
bare directory (no simulation), so races and staleness are exercised
deterministically. Collection-level tests run real (small, counts-only)
campaigns through :func:`collect_records`. The one fault that cannot be
rehearsed in-process — ``exit@lease``, the SIGKILL model built on
``os._exit`` — gets a real subprocess.
"""

import json
import os
import subprocess
import sys
import threading
import time

import pytest

from repro.core.policies import make_policy
from repro.errors import ConfigurationError
from repro.experiments.base import ExperimentContext, collect_records
from repro.experiments.checkpoint import (
    CheckpointStore,
    ChunkResult,
    campaign_fingerprint,
    chunk_name,
    phase_label,
)
from repro.experiments.shard import (
    LeaseManager,
    ShardPolicy,
    lease_name,
    parse_lease,
)
from repro.faults import EXIT_STATUS, install_plan, parse_fault_plan
from repro.telemetry.journal import RunJournal, read_journal

SEED = 4242
SAMPLES = 12


def _keys(records):
    return [(r.ciphertext, r.total_time, r.total_accesses)
            for r in records]


def _ctx(**kwargs):
    return ExperimentContext(root_seed=SEED, samples=SAMPLES, **kwargs)


def _collect(ctx):
    return collect_records(ctx, make_policy("baseline", 1), SAMPLES,
                           counts_only=True)


def _store(tmp_path, ctx):
    # The fingerprint deliberately excludes the shard policy (like jobs):
    # a campaign started serially may be drained by shard workers.
    return CheckpointStore.open(
        tmp_path / "run",
        campaign_fingerprint("unit", ctx, instrumented=False))


def _leases(tmp_path):
    return sorted((tmp_path / "run").glob("phases/*/lease-*.json"))


@pytest.fixture(scope="module")
def golden():
    _, records = _collect(_ctx())
    return _keys(records)


@pytest.fixture(autouse=True)
def _no_leaked_fault_plan():
    yield
    install_plan(None)


class TestLeaseProtocol:
    """LeaseManager against a bare directory — no simulation involved."""

    def _manager(self, tmp_path, worker, **policy_kwargs):
        policy_kwargs.setdefault("lease_seconds", 30.0)
        return LeaseManager(
            tmp_path, ShardPolicy(worker, **policy_kwargs),
            RunJournal(tmp_path / "ledger.jsonl"), phase="unit")

    def test_claim_race_has_one_winner(self, tmp_path):
        first = self._manager(tmp_path, "w1")
        second = self._manager(tmp_path, "w2")
        lease = first.claim(0, 7)
        assert lease is not None and lease.owner == "w1"
        # The loser backs off empty-handed; the winner's file is intact.
        assert second.claim(0, 7) is None
        assert parse_lease(tmp_path / lease_name(0, 7)).owner == "w1"

    def test_release_frees_the_span_for_peers(self, tmp_path):
        first = self._manager(tmp_path, "w1")
        second = self._manager(tmp_path, "w2")
        first.release(first.claim(0, 7))
        assert not (tmp_path / lease_name(0, 7)).exists()
        assert second.claim(0, 7).owner == "w2"

    def test_stale_lease_is_reclaimed(self, tmp_path):
        dying = self._manager(tmp_path, "w1", lease_seconds=0.01,
                              heartbeat_seconds=0.003)
        assert dying.claim(0, 7) is not None
        time.sleep(0.05)
        survivor = self._manager(tmp_path, "w2")
        stolen = survivor.claim(0, 7)
        assert stolen is not None and stolen.owner == "w2"
        steals = [e for e in read_journal(tmp_path / "ledger.jsonl")
                  if e["kind"] == "lease_steal"]
        assert steals and steals[0]["previous_owner"] == "w1"
        assert steals[0]["torn"] is False

    def test_torn_lease_is_treated_like_torn_ledger_tail(self, tmp_path):
        # A crash mid-create leaves half a JSON body. Peers must read it
        # as stale — never crash, never wait out a deadline it doesn't
        # have.
        path = tmp_path / lease_name(0, 7)
        path.write_bytes(b'{"owner": "w1", "dead')
        holder = parse_lease(path)
        assert holder.torn and holder.stale()
        survivor = self._manager(tmp_path, "w2")
        assert survivor.claim(0, 7).owner == "w2"
        steals = [e for e in read_journal(tmp_path / "ledger.jsonl")
                  if e["kind"] == "lease_steal"]
        assert steals and steals[0]["torn"] is True

    def test_renewal_extends_deadline(self, tmp_path):
        manager = self._manager(tmp_path, "w1", lease_seconds=30.0)
        lease = manager.claim(0, 7)
        before = lease.deadline
        time.sleep(0.02)
        manager.renew(lease)
        assert lease.deadline > before
        assert parse_lease(lease.path).renewals == 1

    def test_renewal_after_steal_keeps_working(self, tmp_path):
        # Best-effort by design: losing the lease must not kill the
        # worker — the commit path tolerates the duplicate.
        manager = self._manager(tmp_path, "w1")
        lease = manager.claim(0, 7)
        os.unlink(lease.path)
        manager.renew(lease)  # must not raise, must not recreate
        assert not lease.path.exists()
        beats = [e for e in read_journal(tmp_path / "ledger.jsonl")
                 if e["kind"] == "lease_heartbeat"]
        assert beats and beats[-1]["stolen"] is True

    def test_expire_own_makes_lease_stealable(self, tmp_path):
        manager = self._manager(tmp_path, "w1")
        lease = manager.claim(0, 7)
        manager.expire_own(lease)
        assert parse_lease(lease.path).stale()
        assert self._manager(tmp_path, "w2").claim(0, 7).owner == "w2"

    def test_impossible_lease_deadline_fails_loudly(self):
        with pytest.raises(ConfigurationError, match="impossible lease"):
            ShardPolicy("w1", lease_seconds=0.0).validate()
        with pytest.raises(ConfigurationError, match="heartbeat"):
            ShardPolicy("w1", lease_seconds=1.0,
                        heartbeat_seconds=2.0).validate()


class TestDuplicateCommit:
    def test_second_commit_is_byte_preserving_noop(self, tmp_path):
        ctx = _ctx()
        store = _store(tmp_path, ctx)
        chunk = ChunkResult((0, 1), ["first", "wins"], None)
        assert store.commit_chunk("phase-x", chunk) is True
        path = store.phase_dir("phase-x") / chunk_name(0, 1)
        before = path.read_bytes()
        late = ChunkResult((0, 1), ["late", "loser"], None)
        assert store.commit_chunk("phase-x", late) is False
        assert path.read_bytes() == before
        kinds = [e["kind"] for e in store.journal.read()]
        assert "checkpoint_duplicate" in kinds


class TestShardedCollection:
    def test_single_worker_matches_serial(self, tmp_path, golden):
        ctx = _ctx(shard=ShardPolicy("w1", chunk_samples=5))
        ctx = ctx.with_(checkpoint=_store(tmp_path, ctx))
        _, records = _collect(ctx)
        assert _keys(records) == golden
        assert _leases(tmp_path) == []
        kinds = [e["kind"] for e in ctx.checkpoint.journal.read()]
        assert "lease_claim" in kinds and "lease_release" in kinds

    def test_two_workers_drain_one_campaign(self, tmp_path, golden):
        results = {}

        def worker(name):
            ctx = _ctx(shard=ShardPolicy(name, chunk_samples=3))
            ctx = ctx.with_(checkpoint=_store(tmp_path, ctx))
            _, records = _collect(ctx)
            results[name] = _keys(records)

        threads = [threading.Thread(target=worker, args=(name,))
                   for name in ("w1", "w2")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Every worker folds the full campaign — both outputs are the
        # serial output, and no lease survives a clean drain.
        assert results["w1"] == golden
        assert results["w2"] == golden
        assert _leases(tmp_path) == []

    def test_stolen_lease_double_commit_bytes_unchanged(self, tmp_path,
                                                        golden):
        # Worker A claims the whole phase, then stalls; its lease is
        # force-expired (what steal@lease rehearses). Worker B reclaims,
        # drains, commits. A then wakes, re-simulates its span, and
        # commits anyway — a no-op that must leave B's bytes untouched.
        ctx_a = _ctx()
        store_a = _store(tmp_path, ctx_a)
        policy = make_policy("baseline", 1)
        label = phase_label(ctx_a, policy, SAMPLES, True, False)
        manager = LeaseManager(
            store_a.phase_dir(label, make=True),
            ShardPolicy("w-a", chunk_samples=SAMPLES),
            store_a.journal, phase=label)
        lease = manager.claim(0, SAMPLES - 1)
        manager.expire_own(lease)

        ctx_b = _ctx(shard=ShardPolicy("w-b", chunk_samples=SAMPLES))
        ctx_b = ctx_b.with_(checkpoint=_store(tmp_path, ctx_b))
        _, records_b = _collect(ctx_b)
        assert _keys(records_b) == golden
        kinds = [e["kind"] for e in store_a.journal.read()]
        assert "lease_steal" in kinds

        chunk_path = store_a.phase_dir(label) / chunk_name(0, SAMPLES - 1)
        before = chunk_path.read_bytes()
        _, records_a = _collect(ctx_a)  # A's late re-simulation
        assert _keys(records_a) == golden  # same samples ⇒ same records
        late = ChunkResult(tuple(range(SAMPLES)), records_a, None)
        assert store_a.commit_chunk(label, late) is False
        assert chunk_path.read_bytes() == before

    def test_steal_fault_still_matches_serial(self, tmp_path, golden):
        # steal@lease: the worker expires its own lease after claiming
        # and keeps simulating — the commit still lands (first wins).
        install_plan(parse_fault_plan("steal@lease"))
        ctx = _ctx(shard=ShardPolicy("w1", chunk_samples=4))
        ctx = ctx.with_(checkpoint=_store(tmp_path, ctx))
        _, records = _collect(ctx)
        assert _keys(records) == golden
        assert _leases(tmp_path) == []

    def test_torn_lease_fault_reclaimed_next_pass(self, tmp_path, golden):
        # torn@lease: the claim write tears mid-create, leaving a
        # damaged lease behind. The campaign must still drain — the
        # next pass reads torn ⇒ stale and reclaims it.
        install_plan(parse_fault_plan("torn@lease"))
        ctx = _ctx(shard=ShardPolicy("w1", chunk_samples=4))
        ctx = ctx.with_(checkpoint=_store(tmp_path, ctx))
        _, records = _collect(ctx)
        assert _keys(records) == golden
        assert _leases(tmp_path) == []
        events = ctx.checkpoint.journal.read()
        steals = [e for e in events if e["kind"] == "lease_steal"]
        assert steals and steals[0]["torn"] is True

    def test_interrupt_releases_lease_before_exiting(self, tmp_path,
                                                     monkeypatch, capsys):
        # Satellite contract: Ctrl-C must not leave a lease for peers to
        # wait out — release first, then propagate the interrupt.
        from repro.experiments.runner import PhaseWork

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(PhaseWork, "simulate", interrupted)
        ctx = _ctx(shard=ShardPolicy("w1", chunk_samples=SAMPLES))
        ctx = ctx.with_(checkpoint=_store(tmp_path, ctx))
        with pytest.raises(KeyboardInterrupt):
            _collect(ctx)
        assert _leases(tmp_path) == []
        releases = [e for e in ctx.checkpoint.journal.read()
                    if e["kind"] == "lease_release"]
        assert releases and releases[-1]["reason"] == "interrupted"
        assert "released lease" in capsys.readouterr().err


_WORKER_SCRIPT = """\
import sys

from repro.core.policies import make_policy
from repro.experiments.base import ExperimentContext, collect_records
from repro.experiments.checkpoint import CheckpointStore, \\
    campaign_fingerprint
from repro.experiments.shard import ShardPolicy
from repro.faults import install_plan, parse_fault_plan

run_dir, worker, faults, lease_seconds = sys.argv[1:5]
ctx = ExperimentContext(
    root_seed={seed}, samples={samples},
    shard=ShardPolicy(worker, lease_seconds=float(lease_seconds),
                      chunk_samples=4))
store = CheckpointStore.open(
    run_dir, campaign_fingerprint("unit", ctx, instrumented=False))
ctx = ctx.with_(checkpoint=store)
if faults != "-":
    install_plan(parse_fault_plan(faults))
_, records = collect_records(ctx, make_policy("baseline", 1), {samples},
                             counts_only=True)
print(";".join(f"{{r.ciphertext}}:{{r.total_time}}:{{r.total_accesses}}"
               for r in records))
""".format(seed=SEED, samples=SAMPLES)


class TestMidLeaseKill:
    """The acceptance gate, in miniature: SIGKILL-style death mid-lease
    (``os._exit``, no cleanup), then a survivor reclaims and drains to
    the exact serial records."""

    def _spawn(self, tmp_path, worker, faults, lease_seconds):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath("src")
        return subprocess.run(
            [sys.executable, "-c", _WORKER_SCRIPT,
             str(tmp_path / "run"), worker, faults, str(lease_seconds)],
            capture_output=True, text=True, env=env, timeout=120)

    def test_killed_worker_leaves_stale_lease_survivor_drains(
            self, tmp_path, golden):
        victim = self._spawn(tmp_path, "victim", "exit@lease", 0.2)
        assert victim.returncode == EXIT_STATUS
        # Death was uncleaned: the lease file survives the process.
        assert _leases(tmp_path), "killed worker must leave its lease"

        survivor = self._spawn(tmp_path, "survivor", "-", 30.0)
        assert survivor.returncode == 0, survivor.stderr
        expected = ";".join(f"{c}:{t}:{a}" for c, t, a in golden)
        assert survivor.stdout.strip() == expected
        assert _leases(tmp_path) == []
