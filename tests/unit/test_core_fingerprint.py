"""Unit tests for fingerprint data types and collection."""

import pytest

from repro.cloud.services import ServiceConfig
from repro.core.fingerprint import (
    Gen1Fingerprint,
    Gen2Fingerprint,
    fingerprint_gen1_instances,
    fingerprint_gen2_instances,
    group_by_fingerprint,
)
from repro.errors import FingerprintError

from tests.oracles.fingerprint import Gen1Sample


class TestGen1Sample:
    def sample(self, tsc=2_000_000_000, wall=1000.0, freq=2e9):
        return Gen1Sample(
            cpu_model="Intel Xeon CPU @ 2.00GHz",
            tsc_value=tsc,
            wall_time=wall,
            reported_frequency_hz=freq,
        )

    def test_boot_time_equation(self):
        """Eq. 4.1: T_boot = T_w - tsc / f."""
        assert self.sample().boot_time() == pytest.approx(999.0)

    def test_fingerprint_rounds_boot_time(self):
        fp = self.sample(wall=1000.37).fingerprint(p_boot=1.0)
        assert fp.boot_time == 999.0

    def test_fingerprint_contains_model(self):
        fp = self.sample().fingerprint()
        assert fp.cpu_model == "Intel Xeon CPU @ 2.00GHz"


class TestGen1Fingerprint:
    def test_equality_within_precision(self):
        a = Gen1Fingerprint.from_boot_time("m", 100.2, 1.0)
        b = Gen1Fingerprint.from_boot_time("m", 100.4, 1.0)
        assert a == b

    def test_inequality_across_buckets(self):
        a = Gen1Fingerprint.from_boot_time("m", 100.2, 1.0)
        b = Gen1Fingerprint.from_boot_time("m", 101.2, 1.0)
        assert a != b

    def test_model_distinguishes(self):
        a = Gen1Fingerprint.from_boot_time("m1", 100.0, 1.0)
        b = Gen1Fingerprint.from_boot_time("m2", 100.0, 1.0)
        assert a != b

    def test_hashable(self):
        a = Gen1Fingerprint.from_boot_time("m", 100.2, 1.0)
        b = Gen1Fingerprint.from_boot_time("m", 100.4, 1.0)
        assert len({a, b}) == 1

    def test_precision_changes_bucketing(self):
        coarse = Gen1Fingerprint.from_boot_time("m", 104.0, 10.0)
        fine = Gen1Fingerprint.from_boot_time("m", 104.0, 1.0)
        assert coarse.boot_time == 100.0
        assert fine.boot_time == 104.0

    def test_invalid_precision_rejected(self):
        with pytest.raises(FingerprintError):
            Gen1Fingerprint.from_boot_time("m", 100.0, 0.0)


class TestGen2Fingerprint:
    def test_from_khz_rounds(self):
        assert Gen2Fingerprint.from_khz(1999998.6).tsc_khz == 1999999

    def test_equality(self):
        assert Gen2Fingerprint.from_khz(2e6) == Gen2Fingerprint.from_khz(2e6)


class TestCollection:
    def test_gen1_collection_per_instance(self, tiny_env):
        client = tiny_env.attacker
        name = client.deploy(ServiceConfig(name="svc"))
        handles = client.connect(name, 8)
        tagged = fingerprint_gen1_instances(handles, p_boot=1.0)
        assert len(tagged) == 8
        assert all(isinstance(fp, Gen1Fingerprint) for _h, fp in tagged)

    def test_colocated_instances_share_gen1_fingerprint(self, tiny_env):
        client = tiny_env.attacker
        name = client.deploy(ServiceConfig(name="svc"))
        handles = client.connect(name, 20)
        tagged = fingerprint_gen1_instances(handles, p_boot=1.0)
        orch = tiny_env.orchestrator
        by_host: dict[str, set] = {}
        for handle, fp in tagged:
            by_host.setdefault(orch.true_host_of(handle.instance_id), set()).add(fp)
        assert all(len(fps) == 1 for fps in by_host.values())

    def test_gen2_collection(self, tiny_env):
        client = tiny_env.attacker
        name = client.deploy(ServiceConfig(name="svc2", generation="gen2"))
        handles = client.connect(name, 6)
        tagged = fingerprint_gen2_instances(handles)
        assert len(tagged) == 6
        assert all(isinstance(fp, Gen2Fingerprint) for _h, fp in tagged)

    def test_group_by_fingerprint(self, tiny_env):
        client = tiny_env.attacker
        name = client.deploy(ServiceConfig(name="svc"))
        handles = client.connect(name, 10)
        tagged = fingerprint_gen1_instances(handles, p_boot=1.0)
        groups = group_by_fingerprint(tagged)
        assert sum(len(g) for g in groups.values()) == 10
