"""Verifier tests: lossless reconstruction, tamper detection, policy."""

import dataclasses

import pytest

from repro.cfa.cflog import AddressRecord, BranchRecord, CFLog, LoopRecord
from repro.cfa.engine import EngineConfig
from repro.cfa.fleet.verify import DeviceProfile, verify_session_chain
from repro.cfa.report import AttestationResult
from repro.cfa.wire import encode_report
from repro.core.pipeline import RapTrackConfig
from repro.workloads import load_workload
from conftest import (
    assert_lossless,
    naive_setup,
    rap_setup,
    text_path,
    traces_setup,
)

BRANCHY = """
.entry main
main:
    push {r4, r5, lr}
    mov r4, #0
    mov r5, #0
    lsr r0, r0, #1
    add r0, r0, #4
varloop:
    add r5, r5, #1
    sub r0, r0, #1
    cmp r0, #0
    bgt varloop
    cmp r5, #2
    blt low
    bl bump
    b join
low:
    mov r4, #1
join:
    adr r2, bump
    blx r2
    pop {r4, r5, pc}
bump:
    push {lr}
    add r4, r4, #10
    pop {pc}
"""


class TestLosslessReconstruction:
    def test_rap_track_exact_path(self, keystore):
        image, _, _, engine, verifier, tracer = rap_setup(
            BRANCHY, keystore=keystore)
        assert_lossless(image, engine, verifier, tracer)

    def test_traces_exact_path(self, keystore):
        image, _, _, engine, verifier, tracer = traces_setup(
            BRANCHY, keystore=keystore)
        assert_lossless(image, engine, verifier, tracer)

    def test_naive_exact_path(self, keystore):
        image, _, _, engine, verifier, tracer = naive_setup(
            BRANCHY, keystore=keystore)
        result = engine.attest(b"t")
        outcome = verifier.verify(result, b"t")
        assert outcome.ok, outcome.error
        assert outcome.path == text_path(image, tracer)


class TestAuthenticationChecks:
    def _attested(self, keystore):
        image, _, _, engine, verifier, _ = rap_setup(
            BRANCHY, keystore=keystore)
        return image, engine.attest(b"good-chal"), verifier

    def test_wrong_challenge_rejected(self, keystore):
        _, result, verifier = self._attested(keystore)
        outcome = verifier.verify(result, b"other-chal")
        assert not outcome.authenticated
        assert not outcome.ok

    def test_mac_tamper_rejected(self, keystore):
        _, result, verifier = self._attested(keystore)
        report = result.final_report
        report.mac = bytes(report.mac[:-1]) + bytes([report.mac[-1] ^ 1])
        assert not verifier.verify(result, b"good-chal").authenticated

    def test_cflog_tamper_breaks_mac(self, keystore):
        _, result, verifier = self._attested(keystore)
        records = result.final_report.cflog.records
        first = records[0]
        if isinstance(first, LoopRecord):
            records[0] = dataclasses.replace(first, value=first.value + 1)
        else:
            records[0] = dataclasses.replace(first, dst=first.dst ^ 4)
        assert not verifier.verify(result, b"good-chal").authenticated

    def test_hmem_of_different_binary_rejected(self, keystore):
        _, result, _ = self._attested(keystore)
        # verifier expecting a different reference binary
        image2, _, _, _, verifier2, _ = rap_setup(
            BRANCHY.replace("#10", "#11"), keystore=keystore)
        outcome = verifier2.verify(result, b"good-chal")
        assert not outcome.authenticated

    def test_report_reordering_rejected(self, keystore):
        image, _, mcu, engine, verifier, _ = rap_setup(
            BRANCHY, keystore=keystore,
            engine_config=_tiny_watermark())
        result = engine.attest(b"good-chal")
        assert len(result.reports) >= 2
        result.reports[0], result.reports[1] = (result.reports[1],
                                                result.reports[0])
        assert not verifier.verify(result, b"good-chal").authenticated

    def test_dropped_partial_rejected(self, keystore):
        _, _, _, engine, verifier, _ = rap_setup(
            BRANCHY, keystore=keystore, engine_config=_tiny_watermark())
        result = engine.attest(b"good-chal")
        del result.reports[0]
        assert not verifier.verify(result, b"good-chal").authenticated

    @pytest.mark.parametrize("damage", [
        "bad-mac", "wrong-challenge", "reordered", "dropped-partial"])
    def test_failed_authentication_is_never_replayed(self, keystore,
                                                     damage):
        # a workload, so the fleet can rebuild the same verifier from
        # its profile and judge the same chain bytes
        _, _, _, engine, verifier, _ = rap_setup(
            load_workload("fibcall"), keystore=keystore,
            engine_config=EngineConfig(watermark=256))
        result = engine.attest(b"good-chal")
        assert len(result.reports) >= 3
        challenge = b"good-chal"
        if damage == "bad-mac":
            mac = result.reports[1].mac
            result.reports[1].mac = mac[:-1] + bytes([mac[-1] ^ 1])
        elif damage == "wrong-challenge":
            challenge = b"other-chal"
        elif damage == "reordered":
            result.reports[1], result.reports[2] = (result.reports[2],
                                                    result.reports[1])
        else:
            del result.reports[1]
        outcome = verifier.verify(result, challenge)
        verdict = verify_session_chain(
            "prv-0", DeviceProfile("fibcall"), keystore.attestation_key,
            challenge, [encode_report(r) for r in result.reports])
        assert not outcome.authenticated and not outcome.ok
        assert outcome.path == [] and outcome.consumed == 0
        assert not verdict.accepted and verdict.reason
        assert outcome.error == verdict.reason


def _tiny_watermark():
    from repro.cfa.engine import EngineConfig

    return EngineConfig(watermark=16)


class TestReplayDesync:
    """Replay-level failures operate on raw records (pre-MAC checks)."""

    def _records(self, keystore):
        _, _, _, engine, verifier, _ = rap_setup(BRANCHY, keystore=keystore)
        result = engine.attest(b"t")
        return list(result.cflog.records), verifier

    def test_clean_replay(self, keystore):
        records, verifier = self._records(keystore)
        assert verifier.replay(records).lossless

    def test_missing_record_detected(self, keystore):
        records, verifier = self._records(keystore)
        outcome = verifier.replay(records[:-1])
        assert not outcome.lossless

    def test_extra_record_detected(self, keystore):
        records, verifier = self._records(keystore)
        outcome = verifier.replay(records + [records[-1]])
        assert not outcome.lossless

    def test_missing_loop_record_detected(self, keystore):
        records, verifier = self._records(keystore)
        without_loop = [r for r in records if not isinstance(r, LoopRecord)]
        outcome = verifier.replay(without_loop)
        assert not outcome.lossless
        assert "loop" in outcome.error

    def test_garbage_dst_detected(self, keystore):
        records, verifier = self._records(keystore)
        for i, record in enumerate(records):
            if isinstance(record, BranchRecord):
                records[i] = dataclasses.replace(record, dst=0xDEAD0000)
                break
        outcome = verifier.replay(records)
        assert not outcome.lossless or outcome.violations

    def test_empty_log_fails_on_branchy_program(self, keystore):
        _, verifier = self._records(keystore)
        assert not verifier.replay([]).lossless


class TestNaiveReplayDesync:
    def test_truncated_log(self, keystore):
        _, _, _, engine, verifier, _ = naive_setup(BRANCHY,
                                                   keystore=keystore)
        result = engine.attest(b"t")
        records = list(result.cflog.records)
        outcome = verifier.replay(records[: len(records) // 2])
        assert not outcome.lossless

    def test_swapped_records(self, keystore):
        _, _, _, engine, verifier, _ = naive_setup(BRANCHY,
                                                   keystore=keystore)
        result = engine.attest(b"t")
        records = list(result.cflog.records)
        original = verifier.replay(records)
        # swap the first *differing* adjacent pair (loop iterations
        # produce identical packets, whose swap is a no-op)
        idx = next(i for i in range(len(records) - 1)
                   if records[i] != records[i + 1])
        records[idx], records[idx + 1] = records[idx + 1], records[idx]
        outcome = verifier.replay(records)
        assert not outcome.lossless or outcome.path != original.path


class TestViolationEvidence:
    def test_forged_indirect_target_flagged(self, keystore):
        # dataflow off: keep the blx an *indirect* (logged) call so a
        # forged destination record exists to tamper with
        image, bound, _, engine, verifier, _ = rap_setup(
            BRANCHY, RapTrackConfig(enable_dataflow=False),
            keystore=keystore)
        result = engine.attest(b"t")
        records = list(result.cflog.records)
        # redirect the logged blx destination to mid-function code
        for i, record in enumerate(records):
            if isinstance(record, BranchRecord):
                info = [v for v in bound.indirect_at.values()
                        if v.kind == "call"]
                if record.key in {v.rec_addr for v in info}:
                    target = image.addr_of("join")
                    records[i] = dataclasses.replace(record, dst=target)
                    break
        outcome = verifier.replay(records)
        assert (any(v.kind == "jop-call" for v in outcome.violations)
                or not outcome.lossless)
