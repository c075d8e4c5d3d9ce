"""Adaptive-vs-static-vs-off differential for fleet speculation.

Dictionaries are only allowed to move *bytes*: for the same executions
the settled :class:`SessionVerdict` must be ``==`` whether the chains
crossed the wire plain, compressed under the static tandem dictionary,
or compressed under the fleet-mined adaptive dictionary — including a
genuine ROP attack, whose compressed chain must expand back to the
exact violating stream. The evidence log pins the same invariance: the
persisted verdicts (and the expanded-stream ``records_digest`` they
carry) are identical across all three configurations.

The second half pins shard-invariance for the new protocol traffic: a
1-shard and a 2-shard fleet — with a dictionary push landing
*mid-stream* between the halves of every open session — settle
byte-identical verdicts and byte-identical per-device evidence chain
heads, because DICT/DACK frames cross the shard handoff exactly like
reports do.
"""

import pytest

from repro.cfa.fleet import (
    ChainFactory,
    DeviceProfile,
    DeviceSpec,
    FleetSimulator,
    ShardedFleetService,
    device_key,
    learn_dictionaries,
    mine_fleet_dictionary,
)
from repro.cfa.speccfa import mine_subpaths

SEED = 5

SPECS = [
    DeviceSpec("prv-00", DeviceProfile("fibcall")),
    DeviceSpec("prv-01", DeviceProfile("fibcall")),
    DeviceSpec("prv-02", DeviceProfile("prime")),
    DeviceSpec("prv-03", DeviceProfile("prime")),
    DeviceSpec("prv-04", DeviceProfile("vulnerable")),
    DeviceSpec("prv-05", DeviceProfile("vulnerable"), "attack"),
]


@pytest.fixture(scope="module")
def factory():
    return ChainFactory(watermark=512)


@pytest.fixture(scope="module")
def traffic(factory):
    """One probe round with the sampler on: the expanded streams every
    dictionary in this battery is mined from."""
    with ShardedFleetService(shards=1, sampler=True) as service:
        report = FleetSimulator(SPECS, seed=SEED,
                                factory=factory).run(service)
        assert report.ok, report.mismatches
        return service.traffic_samples()


@pytest.fixture(scope="module")
def dictionaries(traffic):
    static = {}
    adaptive = {}
    for profile, streams in traffic.items():
        static[profile] = mine_subpaths(list(streams[0][0]))
        adaptive[profile] = mine_fleet_dictionary(streams)
    return {"off": {}, "static": static, "adaptive": adaptive}


def settle(factory, dicts, store_dir):
    """Two rounds under one configuration: plain round, push/ACK, then
    the compressed round. Returns (round-2 verdicts, evidence records)."""
    with ShardedFleetService(shards=1, store_dir=store_dir) as service:
        for profile, dictionary in sorted(
                dicts.items(), key=lambda kv: str(kv[0])):
            if dictionary:
                service.publish_dictionary(profile, dictionary)
        simulator = FleetSimulator(SPECS, seed=SEED, factory=factory)
        report = simulator.run(service)
        assert report.ok, report.mismatches
        round1 = dict(service.verdicts)
        simulator.handshake(service)
        report = simulator.run(service)
        assert report.ok, report.mismatches
        round2 = dict(service.verdicts)
        evidence = list(service.stores[0].records())
    return round1, round2, evidence


def test_dictionaries_differ(dictionaries):
    """The differential is only meaningful if the configs actually
    compress differently — pin that adaptive found more than static."""
    fib = DeviceProfile("fibcall")
    assert dictionaries["adaptive"][fib] != dictionaries["static"][fib]
    assert dictionaries["adaptive"][fib]


def test_verdicts_invariant_under_dictionaries(
        factory, dictionaries, tmp_path):
    results = {
        name: settle(factory, dicts, tmp_path / name)
        for name, dicts in dictionaries.items()}
    _, off_verdicts, off_evidence = results["off"]
    assert off_verdicts["prv-05"].violations  # the attack is caught
    assert all(off_verdicts[s.device_id].accepted is s.expected_accepted
               for s in SPECS)
    for name in ("static", "adaptive"):
        round1, round2, evidence = results[name]
        # byte-identical verdicts: compression moved bytes, not outcomes
        assert round2 == off_verdicts, name
        # and within a config, the compressed round reconstructed the
        # exact expanded stream the plain round verified
        for device_id, verdict in round2.items():
            assert (verdict.records_digest
                    == round1[device_id].records_digest), device_id
        # evidence-digest invariance: the persisted verdicts (with
        # their expanded-stream digests) match the plain config's
        assert ([r.to_verdict() for r in evidence]
                == [r.to_verdict() for r in off_evidence]), name
        # round 2 was really pinned to a non-zero epoch where mined
        seen, acked = set(), {}
        for record in evidence:
            if (record.device_id in seen
                    and dictionaries[name].get(record.profile)):
                acked[record.device_id] = record.epoch
            seen.add(record.device_id)
        assert acked and all(e > 0 for e in acked.values()), name


def test_compression_actually_happened(factory, dictionaries):
    """Guard against the differential passing vacuously: the adaptive
    round must transmit strictly fewer bytes than the off round."""
    totals = {}
    for name in ("off", "adaptive"):
        with ShardedFleetService(shards=1) as service:
            for profile, dictionary in dictionaries[name].items():
                if dictionary:
                    service.publish_dictionary(profile, dictionary)
            simulator = FleetSimulator(SPECS, seed=SEED, factory=factory)
            simulator.run(service)
            before = service.metrics.bytes_ingested
            simulator.handshake(service)
            simulator.run(service)
            totals[name] = service.metrics.bytes_ingested - before
    assert totals["adaptive"] < totals["off"]


# -- shard invariance with a mid-stream push --------------------------------


def mid_stream_rounds(factory, shards, store_dir):
    """Round 1 plain; learn; round 2 with the push/ACK landing in the
    middle of every open session; round 3 compressed."""
    service = ShardedFleetService(
        shards=shards, store_dir=store_dir, sampler=True)
    simulator = FleetSimulator(SPECS, seed=SEED, factory=factory)
    report = simulator.run(service)
    assert report.ok, report.mismatches
    published = learn_dictionaries(service)
    assert published
    # round 2: open every session first (pinned to epoch 0 — nothing
    # is ACKed yet), transmit half of each chain ...
    chains = {}
    for spec in SPECS:
        challenge = service.open_session(
            spec.device_id, spec.profile, device_key(spec.device_id))
        chains[spec.device_id] = factory.chain(spec, challenge.nonce)
    for spec in SPECS:
        chain = chains[spec.device_id]
        for chunk in chain[:len(chain) // 2]:
            service.submit(spec.device_id, chunk)
    # ... the push lands mid-stream, every eligible device ACKs ...
    expected_acks = sum(1 for s in SPECS if s.profile in published)
    acked = simulator.handshake(service)
    assert acked == expected_acks and acked >= 4
    # ... and the in-flight plain chains still verify: pinned epochs
    for spec in SPECS:
        chain = chains[spec.device_id]
        for chunk in chain[len(chain) // 2:]:
            service.submit(spec.device_id, chunk)
    service.drain()
    assert all(service.verdicts[s.device_id].accepted
               is s.expected_accepted for s in SPECS)
    # round 3: the next sessions attest compressed under the new epoch
    report = simulator.run(service)
    assert report.ok, report.mismatches
    verdicts = dict(service.verdicts)
    heads = service.evidence_heads()
    metrics = service.close()
    assert metrics.dict_acks == expected_acks
    return verdicts, heads


def test_shard_count_invariant_with_mid_stream_push(factory, tmp_path):
    one = mid_stream_rounds(factory, 1, tmp_path / "one")
    two = mid_stream_rounds(factory, 2, tmp_path / "two")
    assert one[0] == two[0]  # byte-identical verdicts
    assert one[1] == two[1]  # byte-identical evidence chain heads
