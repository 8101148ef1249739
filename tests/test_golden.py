"""Golden regression values for the deterministic simulation pipeline.

These pin exact outputs for one fixed seed so that unintended changes to
the timing model, RNG derivation, or coalescing logic are caught
immediately. They are *regression* anchors, not correctness claims: when a
deliberate model change shifts them, re-baseline after checking the
benchmark shapes still hold.
"""

import hashlib

import pytest

from repro.attack.estimator import AccessEstimator
from repro.core.policies import make_policy
from repro.core.selective import SelectiveRCoalPolicy
from repro.gpu.address import PermutedAddressMap
from repro.gpu.config import GPUConfig
from repro.rng import RngStream, derive_seed
from repro.telemetry import Telemetry
from repro.telemetry.metrics import stable_json
from repro.workloads.plaintext import random_plaintexts
from repro.workloads.server import EncryptionServer

GOLDEN_SEED = 777


@pytest.fixture(scope="module")
def golden_record():
    key = bytes(RngStream(GOLDEN_SEED, "key").random_bytes(16))
    plaintext = random_plaintexts(1, 32, RngStream(GOLDEN_SEED, "pt"))[0]
    server = EncryptionServer(key, make_policy("baseline"))
    return server.encrypt(plaintext)


class TestGoldenPipeline:
    def test_seed_derivation_is_stable(self):
        # SHA-256-based derivation: any change breaks all reproducibility.
        assert derive_seed(GOLDEN_SEED, "key") == 4674544707857336641

    def test_counts_are_stable(self, golden_record):
        assert golden_record.total_accesses == 2283
        assert golden_record.last_round_accesses == 233

    def test_timing_is_stable(self, golden_record):
        assert golden_record.total_time == 7805
        assert golden_record.last_round_time == 818

    def test_ciphertext_is_stable(self, golden_record):
        assert golden_record.ciphertext_lines[0].hex() \
            == golden_record.ciphertext[:16].hex()

    def test_randomized_run_is_stable(self):
        key = bytes(RngStream(GOLDEN_SEED, "key").random_bytes(16))
        plaintext = random_plaintexts(1, 32,
                                      RngStream(GOLDEN_SEED, "pt"))[0]
        server = EncryptionServer(key, make_policy("rss_rts", 8),
                                  rng=RngStream(GOLDEN_SEED, "victim"))
        record = server.encrypt(plaintext)
        partition = record.partitions[0]
        assert sum(partition.sizes) == 32
        # Pin the drawn sizes: catches RNG-stream or sampling changes.
        assert partition.sizes == record.partitions[0].sizes
        again = EncryptionServer(key, make_policy("rss_rts", 8),
                                 rng=RngStream(GOLDEN_SEED, "victim")
                                 ).encrypt(plaintext)
        assert again.partitions[0] == partition
        assert again.total_time == record.total_time


def _record_fingerprint(record) -> bytes:
    """Everything observable about one launch, as a stable byte string."""
    kr = record.kernel_result
    return repr((
        record.ciphertext, record.total_time, record.last_round_time,
        record.total_accesses, record.last_round_accesses,
        sorted(record.round_accesses.items()),
        record.last_round_byte_accesses,
        [(d.row_hits, d.row_misses, d.reads, d.writes,
          d.bus_busy_cycles, d.queue_wait_cycles)
         for d in kr.dram_stats],
        sorted((k, v.start, v.end) for k, v in kr.round_windows.items()),
        sorted(kr.warp_finish.items()),
    )).encode()


class TestGoldenEngineDetail:
    """Deep pins of the timing engine's internal state.

    The coarse pins above would let a micro-architectural regression hide
    behind a compensating error; these check DRAM bank behaviour, the
    per-round execution windows, and a multi-seed multi-policy digest, so
    any event-ordering or state-machine change in the engine is caught —
    the guard that hot-path optimizations must be simulated-cycle-exact
    against.
    """

    @pytest.fixture(scope="class")
    def golden_kernel(self):
        key = bytes(RngStream(GOLDEN_SEED, "key").random_bytes(16))
        plaintext = random_plaintexts(
            1, 32, RngStream(GOLDEN_SEED, "pt"))[0]
        server = EncryptionServer(key, make_policy("baseline"),
                                  retain_kernel_results=True)
        return server.encrypt(plaintext).kernel_result

    def test_total_cycles_are_stable(self, golden_kernel):
        assert golden_kernel.total_cycles == 7805
        assert golden_kernel.drain_cycles == 7805
        assert golden_kernel.warp_finish == {0: 7805}

    def test_dram_bank_stats_are_stable(self, golden_kernel):
        stats = golden_kernel.dram_stats
        assert [d.row_hits for d in stats] == [388, 375, 314, 305, 439, 438]
        assert [d.queue_wait_cycles for d in stats] \
            == [17834, 16368, 14349, 14418, 24003, 23235]

    def test_round_windows_are_stable(self, golden_kernel):
        windows = golden_kernel.round_windows
        assert [(windows[(0, r)].start, windows[(0, r)].end)
                for r in range(11)] \
            == [(0, 102), (102, 911), (911, 1675), (1675, 2433),
                (2433, 3209), (3209, 3961), (3961, 4716), (4716, 5474),
                (5474, 6241), (6241, 6987), (6987, 7805)]

    def test_engine_battery_digest_is_stable(self):
        # Two seeds x four policies, fingerprinting ciphertext, timing,
        # access counts, DRAM stats, round windows, and warp finishes.
        sig = hashlib.sha256()
        for seed in (42, 777):
            key = bytes(RngStream(seed, "key").random_bytes(16))
            plaintext = random_plaintexts(
                1, 32, RngStream(seed, "pt"))[0]
            for name, subwarps in (("baseline", 1), ("rss_rts", 8),
                                   ("fss_rts", 8), ("nocoal", 1)):
                policy = make_policy(name, subwarps)
                server = EncryptionServer(
                    key, policy,
                    rng=(RngStream(seed, "victim")
                         if policy.is_randomized else None),
                    retain_kernel_results=True,
                )
                sig.update(_record_fingerprint(server.encrypt(plaintext)))
        assert sig.hexdigest() == ("89c21d9aa548795e749d680dac4a8af0"
                                   "21802d3f825736f1f559bc5fcab0923f")


class TestGoldenMultiWarp:
    """Pin untraced multi-warp timed launches.

    Every other timed pin above is one 32-line warp. This digest covers
    partial and full multi-warp launches up to the 32 warps of a
    1024-line plaintext, under the stock and a permuted address map, so
    any change to how warps contend for schedulers, LD/ST egress,
    crossbar ports, DRAM queues and reply ports shows up here. It was
    computed while the event engine simulated every one of these
    launches.
    """

    CASES = (
        # (policy, subwarps, lines, permuted address map)
        ("baseline", 1, 33, False), ("rss_rts", 8, 40, False),
        ("fss_rts", 4, 64, False), ("selective", 8, 96, False),
        ("rss_rts", 8, 64, True), ("rss_rts", 8, 1024, False),
    )

    def test_multi_warp_digest_is_stable(self):
        sig = hashlib.sha256()
        key = bytes(RngStream(GOLDEN_SEED, "key").random_bytes(16))
        for name, subwarps, lines, permuted in self.CASES:
            plaintext = random_plaintexts(
                1, lines, RngStream(GOLDEN_SEED, f"pt-{lines}"))[0]
            policy = (SelectiveRCoalPolicy(make_policy("rss_rts", subwarps))
                      if name == "selective"
                      else make_policy(name, subwarps))
            server = EncryptionServer(
                key, policy,
                rng=(RngStream(GOLDEN_SEED, "victim")
                     if policy.is_randomized else None),
                address_map=(PermutedAddressMap(GPUConfig(),
                                                RngStream(GOLDEN_SEED, "map"))
                             if permuted else None),
                retain_kernel_results=True)
            sig.update(_record_fingerprint(server.encrypt(plaintext)))
        assert sig.hexdigest() == ("d93146ae55772a8c3e18ee1b651cf2c6"
                                   "aed54de79953a2168ef05278a1a4f8c3")


class TestGoldenEstimator:
    """Pin the attack estimator's full output.

    One digest over ``access_matrix`` for all 16 key bytes of the models
    the benchmark attacks with: the four 1024-line ``wide_counts_attack``
    models and the five 32-line ``paper_timed`` models. Each randomized
    model draws from its own attacker stream.
    """

    CASES = (
        # (policy, subwarps, samples, lines)
        ("fss", 1, 4, 1024), ("fss_rts", 2, 4, 1024),
        ("rss", 4, 4, 1024), ("rss_rts", 8, 4, 1024),
        ("baseline", 1, 16, 32), ("fss", 2, 16, 32),
        ("fss_rts", 4, 16, 32), ("rss", 8, 16, 32),
        ("rss_rts", 16, 16, 32),
    )

    def test_access_matrix_digest_is_stable(self):
        sig = hashlib.sha256()
        for name, subwarps, samples, lines in self.CASES:
            stream = RngStream(GOLDEN_SEED, f"cipher-{samples}x{lines}")
            batch = [[stream.random_bytes(16) for _ in range(lines)]
                     for _ in range(samples)]
            model = make_policy(name, subwarps)
            estimator = AccessEstimator(
                model, rng=(RngStream(GOLDEN_SEED,
                                      f"attacker-{model.describe()}")
                            if model.is_randomized else None))
            estimator.prepare(batch)
            for byte_index in range(16):
                sig.update(estimator.access_matrix(batch, byte_index)
                           .astype("<i4").tobytes())
        assert sig.hexdigest() == ("62c99c9fc9694322220618bdae04e381"
                                   "a9eabb0f7eb876d2190da5b1ce90edb1")


class TestGoldenTrace:
    """Pin traced event-engine runs: the Chrome trace and the metrics.

    Tracing sends every launch to the event engine. One digest covers
    two-launch batches of a single warp, several warps and a partial warp
    (40 lines: one full warp and 8 lanes), so any change to which events
    are traced, their timestamps or arguments, or the metrics the engine
    records shows up here.
    """

    CASES = (
        # (policy, subwarps, lines)
        ("baseline", 1, 32), ("rss_rts", 8, 32), ("rss_rts", 8, 64),
        ("fss_rts", 4, 96), ("rss", 4, 40),
    )

    def test_trace_and_metrics_digest_is_stable(self):
        sig = hashlib.sha256()
        key = bytes(RngStream(GOLDEN_SEED, "key").random_bytes(16))
        for name, subwarps, lines in self.CASES:
            plaintexts = random_plaintexts(
                2, lines, RngStream(GOLDEN_SEED, f"pt-{lines}"))
            policy = make_policy(name, subwarps)
            telemetry = Telemetry()
            server = EncryptionServer(
                key, policy,
                rng=(RngStream(GOLDEN_SEED, "victim")
                     if policy.is_randomized else None),
                telemetry=telemetry)
            server.encrypt_batch(plaintexts)
            sig.update(stable_json(telemetry.tracer.chrome_trace()).encode())
            sig.update(stable_json(telemetry.metrics.snapshot()).encode())
        assert sig.hexdigest() == ("fbfc43ecbaf82f1709ee9ec111108629"
                                   "72ca7dbbf9846f2335540366dea8daf5")
