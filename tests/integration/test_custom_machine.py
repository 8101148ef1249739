"""Integration: the full pipeline on a non-default machine.

Exercises the generality the paper's model claims: a 16-thread warp
machine (N=16) with the same 16-block tables. Theory, Monte Carlo, and the
system pipeline must all agree on that machine too.
"""

import numpy as np
import pytest

from repro.analysis.model import rho_fss_rts
from repro.analysis.montecarlo import empirical_rho
from repro.attack.estimator import AccessEstimator
from repro.attack.recovery import CorrelationTimingAttack
from repro.core.policies import FSSPolicy, make_policy
from repro.gpu.config import GPUConfig
from repro.rng import RngStream
from repro.workloads.plaintext import random_plaintexts
from repro.workloads.server import EncryptionServer

WARP16 = GPUConfig(warp_size=16)


class TestWarp16Machine:
    def test_theory_holds_for_n16(self):
        # rho decays with M on the small machine as well.
        values = [float(rho_fss_rts(16, 16, m)) for m in (1, 2, 4, 8)]
        assert values[0] == 1.0
        assert values == sorted(values, reverse=True)

    def test_mc_matches_theory_for_n16(self):
        policy = FSSPolicy(4, warp_size=16, rts=True)
        mc = empirical_rho(policy, 16, 8000, RngStream(3, "n16"))
        assert mc == pytest.approx(float(rho_fss_rts(16, 16, 4)),
                                   abs=0.05)

    def test_end_to_end_on_warp16(self):
        key = bytes(RngStream(3, "k16").random_bytes(16))
        # 16 lines -> one 16-thread warp per plaintext.
        plaintexts = random_plaintexts(40, 16, RngStream(3, "pt16"))

        baseline = make_policy("baseline", warp_size=16)
        server = EncryptionServer(key, baseline, config=WARP16,
                                  counts_only=True)
        records = server.encrypt_batch(plaintexts)

        observed = np.array(
            [r.last_round_byte_accesses for r in records]
        ).T
        attack = CorrelationTimingAttack(AccessEstimator(
            make_policy("baseline", warp_size=16), warp_size=16,
        ))
        recovery = attack.recover_key(
            [r.ciphertext_lines for r in records], observed,
            correct_key=server.last_round_key,
        )
        # Exact reconstruction on the clean channel, any warp width.
        assert recovery.success
        assert recovery.average_correct_correlation \
            == pytest.approx(1.0)

    def test_defense_works_on_warp16(self):
        key = bytes(RngStream(3, "k16").random_bytes(16))
        plaintexts = random_plaintexts(40, 16, RngStream(3, "pt16"))
        policy = FSSPolicy(4, warp_size=16, rts=True)
        server = EncryptionServer(key, policy, config=WARP16,
                                  rng=RngStream(3, "v16"),
                                  counts_only=True)
        records = server.encrypt_batch(plaintexts)
        observed = np.array(
            [r.last_round_byte_accesses for r in records]
        ).T
        attack = CorrelationTimingAttack(AccessEstimator(
            FSSPolicy(4, warp_size=16, rts=True),
            rng=RngStream(3, "a16"), warp_size=16,
        ))
        recovery = attack.recover_key(
            [r.ciphertext_lines for r in records], observed,
            correct_key=server.last_round_key,
        )
        assert recovery.num_correct <= 4
        assert abs(recovery.average_correct_correlation) < 0.45
