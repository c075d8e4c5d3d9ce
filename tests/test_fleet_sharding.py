"""Sharding must be invisible to verdicts and evidence.

The differential at the heart of the tentpole: the same fleet driven
through 1, 2, and 4 shards must produce *identical* verdict maps and
*identical* per-device evidence-chain head digests — device-scoped
nonces make the wire bytes shard-count-invariant, the ring gives every
device exactly one owner, and per-device hash chains make evidence
heads independent of how devices interleave inside shard logs.

Plus the consistent-hashing contract that makes resharding cheap
(growing the ring remaps only ~1/(n+1) of devices, all onto the new
shard) and the wire-level shard handoff framing every routed report
crosses.
"""

import dataclasses

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.cfa.fleet import (
    ChainFactory,
    EvidenceStore,
    FleetMetrics,
    FleetService,
    FleetSimulator,
    HashRing,
    ShardedFleetService,
    aggregate_metrics,
    audit_key,
    build_fleet_specs,
    verify_evidence_trail,
)
from repro.cfa.wire import (
    SHARD_KIND_CHALLENGE,
    SHARD_KIND_REPORT,
    WireError,
    decode_shard_frame,
    encode_shard_frame,
)

SEED = b"fleet-vrf"


@pytest.fixture(scope="module")
def factory():
    return ChainFactory(watermark=256)


@pytest.fixture(scope="module")
def specs():
    return build_fleet_specs(24, workloads=("fibcall",), seed=3)


def run_sharded(specs, factory, shards, store_dir):
    service = ShardedFleetService(
        shards=shards, store_dir=store_dir, seed=SEED, idle_timeout=5.0)
    report = FleetSimulator(specs, seed=7, factory=factory).run(service)
    service.close()
    assert report.ok, report.mismatches
    return report.verdicts, service.evidence_heads(), service


class TestShardCountInvariance:
    def test_sharded_matches_single_and_unsharded(self, specs, factory,
                                                  tmp_path):
        """shards ∈ {1, 2, 4} and a standalone shard core with its own
        evidence store: identical verdicts, identical evidence heads."""
        runs = {}
        for shards in (1, 2, 4):
            runs[shards] = run_sharded(
                specs, factory, shards, tmp_path / f"s{shards}")
        verdicts_1, heads_1, _ = runs[1]
        for shards in (2, 4):
            verdicts_n, heads_n, _ = runs[shards]
            assert verdicts_n == verdicts_1
            assert heads_n == heads_1
        assert set(heads_1) == {s.device_id for s in specs}

        store = EvidenceStore(tmp_path / "plain.log", audit_key(SEED))
        plain = FleetService(seed=SEED, idle_timeout=5.0, store=store)
        report = FleetSimulator(specs, seed=7, factory=factory).run(plain)
        plain.close()
        assert report.ok, report.mismatches
        assert report.verdicts == verdicts_1
        assert store.heads() == heads_1

    def test_every_shard_log_audits_clean(self, specs, factory,
                                          tmp_path):
        _, heads, service = run_sharded(specs, factory, 4,
                                        tmp_path / "audit")
        key = audit_key(SEED)
        seen = {}
        populated = 0
        for store in service.stores:
            records = verify_evidence_trail(store.path, key)
            populated += bool(records)
            for record in records:
                seen[record.device_id] = record.digest
        # the union of the shard logs is exactly the fleet's heads,
        # and the fleet actually spread across several logs
        assert seen == heads
        assert populated >= 2

    def test_devices_route_to_owning_shard_only(self, specs, factory,
                                                tmp_path):
        _, _, service = run_sharded(specs, factory, 4,
                                    tmp_path / "owners")
        key = audit_key(SEED)
        for shard_id, store in enumerate(service.stores):
            for record in verify_evidence_trail(store.path, key):
                assert service.ring.route(record.device_id) == shard_id


class TestMetricsFold:
    def test_every_field_folds(self):
        """Two shards with distinct non-zero values in every field:
        the latencies concatenate, the queue high-water mark takes the
        max, the router supplies ``shards``/``wall_s``/``recovery_s``,
        and every other field — ``queue_depth`` included — sums."""
        per_shard = []
        for base in (1, 100):
            metrics = FleetMetrics()
            for index, spec in enumerate(dataclasses.fields(FleetMetrics)):
                value = base + index
                if spec.name == "verify_latencies_s":
                    setattr(metrics, spec.name, [value / 1000])
                else:
                    kind = type(getattr(metrics, spec.name))
                    setattr(metrics, spec.name, kind(value))
            per_shard.append(metrics)
        total = aggregate_metrics(per_shard, wall_s=7.5, recovery_s=2.5)
        router = {"shards": 2, "wall_s": 7.5, "recovery_s": 2.5}
        first, second = per_shard
        for spec in dataclasses.fields(FleetMetrics):
            a, b = getattr(first, spec.name), getattr(second, spec.name)
            if spec.name in router:
                expected = router[spec.name]
            elif spec.name == "queue_depth_max":
                expected = max(a, b)
            else:  # numbers sum, the latency lists concatenate
                expected = a + b
            assert getattr(total, spec.name) == expected, spec.name


class TestHashRing:
    def test_total_and_deterministic(self):
        ring = HashRing(4)
        again = HashRing(4)
        for index in range(500):
            device = f"prv-{index:04d}"
            shard = ring.route(device)
            assert 0 <= shard < 4
            assert again.route(device) == shard

    def test_all_shards_get_traffic(self):
        ring = HashRing(4)
        owners = {ring.route(f"prv-{i:04d}") for i in range(500)}
        assert owners == {0, 1, 2, 3}

    def test_growing_ring_remaps_only_onto_new_shard(self):
        """4 -> 5 shards: every device either stays put or moves to
        the *new* shard (never between existing shards), and the moved
        fraction is ~1/5 — the consistent-hashing contract."""
        old, new = HashRing(4), HashRing(5)
        devices = [f"prv-{i:05d}" for i in range(4000)]
        moved = 0
        for device in devices:
            before, after = old.route(device), new.route(device)
            if before != after:
                assert after == 4, (device, before, after)
                moved += 1
        fraction = moved / len(devices)
        assert 0.08 < fraction < 0.35, fraction

    def test_more_vnodes_balance_load(self):
        ring = HashRing(4, vnodes=128)
        counts = [0, 0, 0, 0]
        for index in range(4000):
            counts[ring.route(f"prv-{index:05d}")] += 1
        assert min(counts) > 0.5 * (4000 / 4)

    def test_rejects_degenerate_rings(self):
        with pytest.raises(ValueError):
            HashRing(0)
        with pytest.raises(ValueError):
            HashRing(2, vnodes=0)


class TestHashRingRemoval:
    """The decommission mirror of the grow-by-one contract: removing a
    shard may move only that shard's keys, and repeated churn keeps
    the survivors balanced."""

    @given(shards=st.integers(2, 8), victim_index=st.integers(0, 7),
           vnodes=st.sampled_from([16, 64]))
    @settings(deadline=None, max_examples=40)
    def test_removal_remaps_only_the_removed_shards_keys(
            self, shards, victim_index, vnodes):
        ring = HashRing(shards, vnodes=vnodes)
        victim = ring.shard_ids[victim_index % shards]
        shrunk = ring.remove(victim)
        assert victim not in shrunk.shard_ids
        assert shrunk.shard_count == shards - 1
        for index in range(400):
            device = f"prv-{index:05d}"
            before, after = ring.route(device), shrunk.route(device)
            if before == victim:
                assert after in shrunk.shard_ids
            else:
                assert after == before, device

    @given(victims=st.lists(st.integers(0, 5), min_size=1,
                            max_size=4, unique=True))
    @settings(deadline=None, max_examples=25)
    def test_churn_sequence_never_moves_survivor_keys(self, victims):
        ring = HashRing(6)
        devices = [f"prv-{index:04d}" for index in range(250)]
        for victim in victims:
            owners = {device: ring.route(device) for device in devices}
            ring = ring.remove(victim)
            for device in devices:
                if owners[device] == victim:
                    assert ring.route(device) != victim
                else:
                    assert ring.route(device) == owners[device]

    def test_removed_fraction_is_about_one_over_n(self):
        ring = HashRing(5, vnodes=128)
        shrunk = ring.remove(2)
        devices = [f"prv-{index:05d}" for index in range(4000)]
        moved = sum(1 for device in devices
                    if ring.route(device) != shrunk.route(device))
        assert 0.08 < moved / len(devices) < 0.35

    def test_balance_holds_after_churn(self):
        ring = HashRing(6, vnodes=128)
        for victim in (1, 4):
            ring = ring.remove(victim)
        assert ring.shard_ids == (0, 2, 3, 5)
        counts = {shard: 0 for shard in ring.shard_ids}
        for index in range(4000):
            counts[ring.route(f"prv-{index:05d}")] += 1
        assert min(counts.values()) > 0.5 * (4000 / 4)

    def test_remove_rejects_unknown_and_final_shard(self):
        ring = HashRing(2)
        with pytest.raises(ValueError, match="not on the ring"):
            ring.remove(7)
        last = ring.remove(0)
        assert last.shard_ids == (1,)
        with pytest.raises(ValueError):
            last.remove(1)


class TestShardFrameCodec:
    def test_roundtrip(self):
        frame = encode_shard_frame(7, "prv-0042", b"\x00\xffpayload")
        shard, device, kind, payload = decode_shard_frame(frame)
        assert (shard, device, kind, payload) == (
            7, "prv-0042", SHARD_KIND_REPORT, b"\x00\xffpayload")

    def test_challenge_kind_roundtrip(self):
        frame = encode_shard_frame(0, "d", b"nonce",
                                   kind=SHARD_KIND_CHALLENGE)
        assert decode_shard_frame(frame)[2] == SHARD_KIND_CHALLENGE

    def test_rejects_bad_magic_version_kind_and_trailing(self):
        good = encode_shard_frame(1, "dev", b"x")
        with pytest.raises(WireError):
            decode_shard_frame(b"XXXX" + good[4:])
        with pytest.raises(WireError):
            decode_shard_frame(good[:4] + b"\x99" + good[5:])
        with pytest.raises(WireError):
            encode_shard_frame(1, "dev", b"x", kind=250)
        with pytest.raises(WireError):
            decode_shard_frame(good + b"\x00")
        with pytest.raises(WireError):
            decode_shard_frame(good[:-1])

    def test_rejects_non_utf8_device_id(self):
        frame = bytearray(encode_shard_frame(1, "dev", b"x"))
        # device id length-prefixed field starts right after the
        # 4-byte magic + 6-byte header; corrupt its bytes
        frame[14:17] = b"\xff\xfe\xfd"
        with pytest.raises(WireError):
            decode_shard_frame(bytes(frame))
