"""The public API surface: everything advertised must resolve and work."""

import os
import subprocess
import sys

import pytest

import repro


class TestExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_subpackage_alls_resolve(self):
        import repro.aes
        import repro.analysis
        import repro.attack
        import repro.core
        import repro.experiments
        import repro.gpu
        import repro.workloads

        for module in (repro.aes, repro.analysis, repro.attack, repro.core,
                       repro.experiments, repro.gpu, repro.workloads):
            for name in module.__all__:
                assert getattr(module, name, None) is not None, \
                    f"{module.__name__}.{name}"


class TestImportFootprint:
    def test_fresh_import_leaves_scipy_unloaded(self):
        # numpy is the only third-party dependency; the experiment
        # registry imports every harness, so it covers the whole package.
        probe = ("import sys, repro, repro.experiments.registry; "
                 "print('scipy' in sys.modules)")
        src = os.path.dirname(os.path.dirname(repro.__file__))
        out = subprocess.run([sys.executable, "-c", probe],
                             capture_output=True, text=True, check=True,
                             env=dict(os.environ, PYTHONPATH=src))
        assert out.stdout.strip() == "False"


class TestReadmeQuickstart:
    """The README's code snippets must actually run."""

    def test_quickstart_snippet(self):
        from repro import (EncryptionServer, RngStream, make_policy,
                           random_plaintexts)

        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        server = EncryptionServer(key, make_policy("rss_rts", 8),
                                  rng=RngStream(1, "victim"))
        plaintext = random_plaintexts(1, 32, RngStream(1, "pt"))[0]
        record = server.encrypt(plaintext)
        assert record.total_time > 0
        assert record.last_round_accesses > 0

    def test_attack_snippet(self):
        from repro import (AccessEstimator, CorrelationTimingAttack,
                           EncryptionServer, RngStream, make_policy,
                           random_plaintexts)

        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        server = EncryptionServer(key, make_policy("rss_rts", 8),
                                  rng=RngStream(1, "victim"))
        records = server.encrypt_batch(
            random_plaintexts(12, 32, RngStream(1, "pt"))
        )
        estimator = AccessEstimator(make_policy("rss_rts", 8),
                                    rng=RngStream(2, "attacker"))
        attack = CorrelationTimingAttack(estimator)
        recovery = attack.recover_key(
            [r.ciphertext_lines for r in records],
            [r.last_round_time for r in records],
            correct_key=server.last_round_key,
        )
        assert len(recovery.recovered_key) == 16

    def test_table2_snippet(self):
        from repro import security_table

        rows = security_table(subwarp_counts=(2,))
        assert rows[0].rho_fss_rts == pytest.approx(0.41, abs=0.005)
