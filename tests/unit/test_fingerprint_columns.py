"""Fingerprint columns: the codes and distinct fingerprints a batch
returns, and the ``(handle, fingerprint)`` pairs they stand for.

Each batch is fingerprinted in one world and probed one handle at a
time (:mod:`tests.oracles.fingerprint`) in a twin world of the same
seed: iterating the column must give the oracle's pairs, and its codes
must index its distinct fingerprints, one code per distinct value.
"""

from __future__ import annotations

import pytest

from repro.cloud.services import ServiceConfig
from repro.core.fingerprint import (
    FingerprintColumn,
    fingerprint_gen1_instances,
    fingerprint_gen2_instances,
)
from repro.experiments.base import default_env
from repro.sandbox.base import TscPolicy

from tests.conftest import tiny_profile
from tests.oracles.fingerprint import fingerprint_gen1_per_probe, fingerprint_gen2_per_probe


def launch(generation: str, tsc_policy: TscPolicy, n: int = 40):
    env = default_env(profile=tiny_profile(), seed=21, tsc_policy=tsc_policy)
    client = env.attacker
    handles = client.connect(
        client.deploy(ServiceConfig(name="svc", generation=generation)), n
    )
    return env, handles


def assert_coded(column: FingerprintColumn) -> None:
    """Codes index the distinct fingerprints, each of which has a row."""
    fingerprints = column.fingerprints
    assert len(set(fingerprints)) == len(fingerprints)
    assert sorted(set(column.codes.tolist())) == list(range(len(fingerprints)))
    assert [fingerprints[code] for code in column.codes.tolist()] == [
        fp for _handle, fp in column
    ]


def ids(pairs):
    return [(handle.instance_id, fp) for handle, fp in pairs]


@pytest.mark.parametrize("tsc_policy", list(TscPolicy), ids=lambda p: p.value)
def test_gen1_column_iterates_the_per_probe_pairs(tsc_policy):
    _env, handles = launch("gen1", tsc_policy)
    column = fingerprint_gen1_instances(handles, p_boot=1.0)
    _twin, twin_handles = launch("gen1", tsc_policy)
    oracle = fingerprint_gen1_per_probe(twin_handles, p_boot=1.0)
    assert ids(column) == ids(oracle)
    assert [h.instance_id for h in column.handles] == [h.instance_id for h, _ in oracle]
    assert_coded(column)
    assert len(column.fingerprints) == len({fp for _h, fp in oracle})


@pytest.mark.parametrize("tsc_policy", list(TscPolicy), ids=lambda p: p.value)
def test_gen2_column_iterates_the_per_probe_pairs(tsc_policy):
    _env, handles = launch("gen2", tsc_policy)
    column = fingerprint_gen2_instances(handles)
    _twin, twin_handles = launch("gen2", tsc_policy)
    assert ids(column) == ids(fingerprint_gen2_per_probe(twin_handles))
    assert_coded(column)


def test_gen2_hosts_sharing_a_khz_value_share_one_code():
    """Under TSC emulation every host of a model advertises the model's
    frequency, so distinct hosts read one kHz value: one fingerprint,
    one code, however many hosts (and sandbox classes) read it."""
    env, handles = launch("gen2", TscPolicy.EMULATED)
    column = fingerprint_gen2_instances(handles)
    hosts = {env.orchestrator.true_host_of(h.instance_id) for h in handles}
    assert len(column.fingerprints) < len(hosts)
    assert_coded(column)
    _twin, twin_handles = launch("gen2", TscPolicy.EMULATED)
    assert ids(column) == ids(fingerprint_gen2_per_probe(twin_handles))


def test_column_reads_build_pairs_once():
    """Every read yields the same handle objects, as a list would."""
    _env, handles = launch("gen1", TscPolicy.NATIVE, n=6)
    column = fingerprint_gen1_instances(handles)
    first = list(column)
    assert all(a is b for (a, _), (b, _) in zip(first, column))
    assert column[2] is first[2]
    assert column[1:3] == first[1:3]
    assert column == first and column != first[:-1]


def test_of_codes_pairs_in_first_appearance_order():
    column = FingerprintColumn.of([("a", "x"), ("b", "y"), ("c", "x")])
    assert column.codes.tolist() == [0, 1, 0]
    assert column.fingerprints == ["x", "y"]
    assert FingerprintColumn.of(column) is column
    assert list(column) == [("a", "x"), ("b", "y"), ("c", "x")]


def test_empty_batches_are_empty_columns():
    assert fingerprint_gen1_instances([]) == []
    assert fingerprint_gen2_instances([]) == []
    assert len(fingerprint_gen2_instances([]).fingerprints) == 0
