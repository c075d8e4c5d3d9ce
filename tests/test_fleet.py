"""Unit tests for the fleet service's session protocol.

One module-scoped :class:`ChainFactory` attests the fibcall template
once; every test re-signs it against a fresh service's challenges, so
the suite exercises the whole session lifecycle — replay protection,
reorder windows, duplicates, equivocation, expiry/retry, overload —
without re-running the Prv each time.
"""

import pytest

from repro.cfa.fleet import (
    ChainFactory,
    DeviceProfile,
    DeviceSpec,
    FleetOverloadError,
    FleetService,
    device_key,
)
from repro.cfa.wire import decode_report, encode_report

FIBCALL = DeviceProfile("fibcall")


@pytest.fixture(scope="module")
def factory():
    return ChainFactory(watermark=256)


def open_with_chain(service, factory, device_id="prv-0", profile=FIBCALL,
                    behavior="honest", now=0.0):
    """Open a session and build the honest chain answering it."""
    challenge = service.open_session(
        device_id, profile, device_key(device_id), now)
    spec = DeviceSpec(device_id, profile, behavior)
    return factory.chain(spec, challenge.nonce)


class TestHonestLifecycle:
    def test_in_order_chain_accepted(self, factory):
        service = FleetService(workers=0)
        chunks = open_with_chain(service, factory)
        assert len(chunks) >= 3  # watermark=256 forces partials
        for chunk in chunks:
            service.submit("prv-0", chunk)
        metrics = service.close()
        verdict = service.verdicts["prv-0"]
        assert verdict.accepted and verdict.authenticated
        assert verdict.lossless and not verdict.violations
        assert verdict.reports == len(chunks)
        assert verdict.path_len > 0 and verdict.path_digest
        assert metrics.sessions_verified == 1
        assert metrics.reports_ingested == len(chunks)
        assert metrics.bytes_ingested == sum(len(c) for c in chunks)

    def test_byte_identical_duplicate_dropped(self, factory):
        service = FleetService(workers=0)
        chunks = open_with_chain(service, factory)
        service.submit("prv-0", chunks[0])
        service.submit("prv-0", chunks[0])  # retransmission
        for chunk in chunks[1:]:
            service.submit("prv-0", chunk)
        metrics = service.close()
        assert service.verdicts["prv-0"].accepted
        assert metrics.duplicates_dropped == 1

    def test_reorder_within_window_accepted(self, factory):
        service = FleetService(workers=0, reorder_window=4)
        chunks = open_with_chain(service, factory)
        swapped = list(chunks)
        swapped[1], swapped[2] = swapped[2], swapped[1]
        for chunk in swapped:
            service.submit("prv-0", chunk)
        service.close()
        assert service.verdicts["prv-0"].accepted

    def test_verdict_independent_of_arrival_order(self, factory):
        verdicts = []
        for order in ([0, 1, 2], [0, 2, 1]):
            service = FleetService(workers=0, reorder_window=4)
            chunks = open_with_chain(service, factory)
            head = [chunks[i] for i in order]
            for chunk in head + chunks[3:]:
                service.submit("prv-0", chunk)
            service.close()
            verdicts.append(service.verdicts["prv-0"])
        assert verdicts[0] == verdicts[1]


class TestProtocolRejections:
    def test_reorder_outside_window_rejected(self, factory):
        service = FleetService(workers=0, reorder_window=1)
        chunks = open_with_chain(service, factory)
        service.submit("prv-0", chunks[0])
        service.submit("prv-0", chunks[3])  # gap of 3 > window of 1
        service.close()
        verdict = service.verdicts["prv-0"]
        assert not verdict.accepted
        assert "reorder window" in verdict.reason

    def test_truncated_report_rejected(self, factory):
        service = FleetService(workers=0)
        chunks = open_with_chain(service, factory)
        service.submit("prv-0", chunks[0][:-5])
        service.close()
        verdict = service.verdicts["prv-0"]
        assert not verdict.accepted
        assert "malformed" in verdict.reason

    def test_tampered_mac_rejected(self, factory):
        service = FleetService(workers=0)
        chunks = open_with_chain(service, factory)
        report, _ = decode_report(chunks[-1])
        report.mac = bytes(32)
        for chunk in chunks[:-1]:
            service.submit("prv-0", chunk)
        service.submit("prv-0", encode_report(report))
        service.close()
        verdict = service.verdicts["prv-0"]
        assert not verdict.accepted
        assert "bad MAC" in verdict.reason

    def test_equivocating_duplicate_rejected(self, factory):
        service = FleetService(workers=0)
        chunks = open_with_chain(service, factory)
        service.submit("prv-0", chunks[0])
        conflicting = bytearray(chunks[0])
        conflicting[-1] ^= 0xFF
        service.submit("prv-0", bytes(conflicting))
        service.close()
        verdict = service.verdicts["prv-0"]
        assert not verdict.accepted
        assert "conflicting duplicate" in verdict.reason

    def test_report_past_final_rejected(self, factory):
        service = FleetService(workers=0, reorder_window=1000)
        chunks = open_with_chain(service, factory)
        service.submit("prv-0", chunks[0])
        service.submit("prv-0", chunks[-1])  # final, buffered out of order
        stray, _ = decode_report(chunks[1])
        stray.seq = len(chunks)  # claims traffic past the final
        service.submit("prv-0", encode_report(stray))
        service.close()
        verdict = service.verdicts["prv-0"]
        assert not verdict.accepted
        assert "past the final" in verdict.reason

    def test_report_after_settled_ignored(self, factory):
        service = FleetService(workers=0)
        chunks = open_with_chain(service, factory)
        for chunk in chunks:
            service.submit("prv-0", chunk)
        service.submit("prv-0", chunks[-1])  # session already settled
        metrics = service.close()
        assert service.verdicts["prv-0"].accepted
        assert metrics.reports_ignored == 1

    def test_wrong_device_id_rejected(self, factory):
        service = FleetService(workers=0)
        chunks_a = open_with_chain(service, factory, "prv-a")
        service.open_session("prv-b", FIBCALL, device_key("prv-b"))
        service.submit("prv-b", chunks_a[0])  # a's report on b's session
        service.close()
        verdict = service.verdicts["prv-b"]
        assert not verdict.accepted
        assert "device id" in verdict.reason

    def test_replayed_chain_rejected(self, factory):
        """A chain answering an old nonce dies at ingest."""
        service = FleetService(workers=0)
        stale = open_with_chain(service, factory)
        # Vrf re-challenges (e.g. after an outage); old chain arrives late
        now = service.manager.idle_timeout + 1.0
        rechallenged = service.tick(now)
        assert [d for d, _ in rechallenged] == ["prv-0"]
        service.submit("prv-0", stale[0], now)
        service.close()
        verdict = service.verdicts["prv-0"]
        assert not verdict.accepted
        assert "challenge" in verdict.reason

    def test_unknown_device_ignored(self, factory):
        service = FleetService(workers=0)
        chunks = open_with_chain(service, factory)
        service.submit("prv-ghost", chunks[0])
        metrics = service.close()
        assert metrics.reports_ignored == 1
        assert "prv-ghost" not in service.verdicts


class TestExpiryAndRetry:
    def test_stalled_session_rechallenged_then_accepted(self, factory):
        service = FleetService(workers=0, idle_timeout=10.0, max_attempts=2)
        chunks = open_with_chain(service, factory)
        for chunk in chunks[:-1]:  # withhold the final report
            service.submit("prv-0", chunk)
        rechallenged = service.tick(11.0)
        assert len(rechallenged) == 1
        device_id, challenge = rechallenged[0]
        fresh = factory.chain(DeviceSpec(device_id, FIBCALL),
                              challenge.nonce)
        for chunk in fresh:
            service.submit(device_id, chunk, 11.0)
        metrics = service.close()
        assert service.verdicts["prv-0"].accepted
        assert metrics.sessions_retried == 1

    def test_session_expires_after_last_attempt(self, factory):
        service = FleetService(workers=0, idle_timeout=10.0, max_attempts=2)
        open_with_chain(service, factory)
        assert service.tick(11.0)       # attempt 2 issued
        assert not service.tick(22.0)   # out of attempts
        metrics = service.close()
        verdict = service.verdicts["prv-0"]
        assert not verdict.accepted
        assert "idle timeout" in verdict.reason
        assert metrics.sessions_expired == 1
        assert metrics.sessions_retried == 1

    def test_queued_sessions_never_expire(self, factory):
        service = FleetService(workers=0, idle_timeout=10.0)
        chunks = open_with_chain(service, factory)
        for chunk in chunks:
            service.submit("prv-0", chunk)
        assert not service.tick(1e9)
        assert service.verdicts["prv-0"].accepted


class TestAdmissionControl:
    def test_overload_refuses_new_sessions(self, factory):
        service = FleetService(workers=0, max_sessions=2)
        service.open_session("prv-0", FIBCALL, device_key("prv-0"))
        service.open_session("prv-1", FIBCALL, device_key("prv-1"))
        with pytest.raises(FleetOverloadError):
            service.open_session("prv-2", FIBCALL, device_key("prv-2"))
        metrics = service.close()
        assert metrics.sessions_refused == 1
        assert metrics.sessions_opened == 2

    def test_settled_sessions_free_slots(self, factory):
        service = FleetService(workers=0, max_sessions=1)
        chunks = open_with_chain(service, factory)
        for chunk in chunks:
            service.submit("prv-0", chunk)
        # prv-0 settled, so the slot is free again
        service.open_session("prv-1", FIBCALL, device_key("prv-1"))

    def test_duplicate_active_session_refused(self, factory):
        service = FleetService(workers=0)
        service.open_session("prv-0", FIBCALL, device_key("prv-0"))
        with pytest.raises(ValueError, match="active session"):
            service.open_session("prv-0", FIBCALL, device_key("prv-0"))


class TestAttackDetection:
    def test_rop_attack_rejected(self, factory):
        service = FleetService(workers=0)
        profile = DeviceProfile("vulnerable")
        chunks = open_with_chain(
            service, factory, profile=profile, behavior="attack")
        for chunk in chunks:
            service.submit("prv-0", chunk)
        service.close()
        verdict = service.verdicts["prv-0"]
        assert verdict.authenticated  # the compromised device signs fine
        assert not verdict.accepted   # ...but its path betrays it
        assert verdict.violations or not verdict.lossless


class TestReplayCache:
    def test_cache_preserves_verdicts(self, factory):
        verdicts = {}
        for cached in (False, True):
            service = FleetService(workers=0, replay_cache=cached)
            for device_id in ("prv-0", "prv-1", "prv-2"):
                chunks = open_with_chain(service, factory, device_id)
                for chunk in chunks:
                    service.submit(device_id, chunk)
            metrics = service.close()
            if cached:
                assert metrics.replay_cache_hits == 2  # 3 identical chains
            else:
                assert metrics.replay_cache_hits == 0
            verdicts[cached] = dict(service.verdicts)
        assert verdicts[False] == verdicts[True]


class TestMetrics:
    def test_summary_mentions_the_essentials(self, factory):
        service = FleetService(workers=0)
        chunks = open_with_chain(service, factory)
        for chunk in chunks:
            service.submit("prv-0", chunk)
        metrics = service.close()
        assert metrics.wall_s > 0
        assert metrics.reports_per_second > 0
        pct = metrics.latency_percentiles()
        assert 0 < pct["p50"] <= pct["p95"] <= pct["p99"]
        summary = metrics.summary()
        assert "1/1 sessions" in summary
        assert "rps" in summary and "p50" in summary


class TestChallengeIssuance:
    def test_a_challenge_is_never_issued_twice(self):
        """Each device's (round, attempt) pairs must strictly increase:
        the nonce is a function of the pair, so re-deriving an issued
        pair (or any earlier one) is refused as nonce reuse."""
        manager = FleetService(workers=0).manager
        first = manager._fresh_challenge("prv-0", 0, 1)
        retry = manager._fresh_challenge("prv-0", 0, 2)
        assert retry.nonce != first.nonce
        for round_index, attempt in ((0, 2), (0, 1)):
            with pytest.raises(RuntimeError, match="nonce reuse"):
                manager._fresh_challenge("prv-0", round_index, attempt)
        # other devices, and later rounds, are unaffected
        assert manager._fresh_challenge("prv-1", 0, 1).nonce != first.nonce
        manager._fresh_challenge("prv-0", 1, 1)
