"""Wire-format tests: roundtrip, tamper handling, fuzz robustness."""

from types import SimpleNamespace

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.cfa.cflog import AddressRecord, BranchRecord, CFLog, LoopRecord
from repro.cfa.report import Report
from repro.cfa.speccfa import SpecRecord
from repro.cfa.streaming import StreamError, StreamingVerifier
from repro.cfa.verifier import Verifier
from repro.crypto.mac import fold
from repro.cfa.wire import (
    WireError,
    decode_report,
    decode_result,
    encode_report,
    encode_result,
    mac_input,
)
from conftest import chain_authenticates, rap_setup


def sample_report(key, records=None, seq=0, final=True):
    return Report(
        device_id=b"prv-0", method="rap-track", challenge=b"chal-123",
        h_mem=b"h" * 32, seq=seq, final=final,
        cflog=CFLog(records if records is not None
                    else [BranchRecord(0x200010, 0x200020)]),
    ).sign(key)


class TestRoundtrip:
    def test_single_report(self, keystore):
        key = keystore.attestation_key
        report = sample_report(key)
        decoded, consumed = decode_report(encode_report(report))
        assert consumed == len(encode_report(report))
        assert decoded.device_id == report.device_id
        assert decoded.challenge == report.challenge
        assert decoded.cflog.records == report.cflog.records
        assert decoded.verify(key)

    def test_all_record_types(self, keystore):
        key = keystore.attestation_key
        records = [BranchRecord(1, 2), AddressRecord(3, 4),
                   LoopRecord(5, 6), SpecRecord(0, 9)]
        decoded, _ = decode_report(encode_report(sample_report(key, records)))
        assert decoded.cflog.records == records

    def test_chain_roundtrip(self, keystore):
        key = keystore.attestation_key
        from repro.cfa.report import AttestationResult

        chain = AttestationResult(reports=[
            sample_report(key, seq=0, final=False),
            sample_report(key, seq=1, final=True),
        ])
        decoded = decode_result(encode_result(chain))
        assert len(decoded.reports) == 2
        assert chain_authenticates(decoded, key)

    def test_end_to_end_over_the_wire(self, keystore):
        image, bound, _, engine, verifier, _ = rap_setup("""
.entry main
main:
    mov r0, #0
    cmp r0, #0
    beq over
    nop
over:
    bkpt
""", keystore=keystore)
        result = engine.attest(b"wire-chal")
        transmitted = encode_result(result)
        received = decode_result(transmitted)
        outcome = verifier.verify(received, b"wire-chal")
        assert outcome.ok


class TestTampering:
    def test_bad_magic(self, keystore):
        data = encode_report(sample_report(keystore.attestation_key))
        with pytest.raises(WireError):
            decode_report(b"XXXX" + data[4:])

    def test_bad_version(self, keystore):
        data = bytearray(encode_report(sample_report(keystore.attestation_key)))
        data[4] = 0xFF
        with pytest.raises(WireError):
            decode_report(bytes(data))

    def test_truncation(self, keystore):
        data = encode_report(sample_report(keystore.attestation_key))
        with pytest.raises(WireError):
            decode_report(data[: len(data) // 2])

    def test_payload_bitflip_breaks_mac(self, keystore):
        key = keystore.attestation_key
        data = bytearray(encode_report(sample_report(key)))
        data[30] ^= 0x40  # somewhere inside the body
        try:
            decoded, _ = decode_report(bytes(data))
        except WireError:
            return  # structural damage is also a fine outcome
        assert not decoded.verify(key)

    def test_empty_chain(self):
        with pytest.raises(WireError):
            decode_result(b"")


u32 = st.integers(min_value=0, max_value=0xFFFFFFFF)

signed_reports = st.builds(
    Report,
    device_id=st.binary(max_size=16),
    method=st.text(max_size=12),
    challenge=st.binary(max_size=24),
    h_mem=st.binary(max_size=32),
    seq=u32,
    final=st.booleans(),
    cflog=st.builds(CFLog, st.lists(st.one_of(
        st.builds(BranchRecord, u32, u32),
        st.builds(AddressRecord, u32, u32),
        st.builds(LoopRecord, u32, u32),
        st.builds(SpecRecord, u32, u32)), max_size=16)),
)

#: the magic, version byte and u32 body length ahead of a report body
BODY_START = 9
KEY = b"k" * 32


def authenticate_one(report, data):
    """Feed one encoded report to the stream authenticator, keyed to
    accept exactly ``report``'s challenge, H_MEM and sequence number."""
    stream = StreamingVerifier(
        SimpleNamespace(key=KEY, expected_h_mem=report.h_mem),
        report.challenge)
    stream.partials_accepted = report.seq
    stream.feed_bytes(data)


class TestMacCoversReceivedBytes:
    """The MAC input is spliced from the received body, and it is the
    field fold a signer MACs: every body byte is covered."""

    @given(signed_reports)
    @settings(deadline=None, max_examples=150)
    def test_spliced_input_is_the_signed_fold(self, report):
        report.sign(KEY)
        decoded, _ = decode_report(encode_report(report))
        assert mac_input(decoded.received) == fold(report._fields())
        authenticate_one(report, encode_report(report))  # accepted

    @given(signed_reports, st.integers(min_value=0), st.integers(1, 255))
    @settings(deadline=None, max_examples=300)
    def test_any_flipped_body_byte_is_rejected(self, report, where, mask):
        report.sign(KEY)
        authenticate_one(report, encode_report(report))  # intact: accepted
        data = bytearray(encode_report(report))
        data[BODY_START + where % (len(data) - BODY_START)] ^= mask
        try:
            authenticate_one(report, bytes(data))
        except WireError:
            return
        except StreamError as exc:
            assert str(exc).startswith("bad MAC on report #"), exc
            return
        pytest.fail("a report with a flipped body byte was accepted")


class TestFuzz:
    @given(st.binary(min_size=0, max_size=200))
    @settings(deadline=None, max_examples=200)
    def test_decoder_never_crashes_unexpectedly(self, blob):
        try:
            decode_result(blob)
        except WireError:
            pass  # the only acceptable failure mode

    @given(st.binary(min_size=1, max_size=64))
    @settings(deadline=None)
    def test_valid_prefix_plus_noise(self, noise):
        from repro.tz.keystore import KeyStore

        key = KeyStore.provision().attestation_key
        data = encode_report(sample_report(key))
        try:
            decode_result(data + noise)
        except WireError:
            pass


class TestDictionaryFrames:
    """The epoch handshake's two frames: DICT (Vrf -> Prv) and DACK
    (Prv -> Vrf). Both must round-trip exactly and refuse damage with
    a WireError, never a partial parse."""

    DIGEST = bytes(range(32))

    def test_dict_frame_roundtrip(self):
        from repro.cfa.speccfa import pack_dictionary
        from repro.cfa.wire import decode_dict_frame, encode_dict_frame

        payload = pack_dictionary(
            {0: (BranchRecord(4, 8), BranchRecord(8, 4))})
        frame = encode_dict_frame(
            "fibcall", "rap-track", 3, self.DIGEST, payload)
        assert decode_dict_frame(frame) == (
            "fibcall", "rap-track", 3, self.DIGEST, payload)

    def test_dict_frame_rejects_damage(self):
        from repro.cfa.wire import decode_dict_frame, encode_dict_frame

        frame = encode_dict_frame("fibcall", "rap-track", 3,
                                  self.DIGEST, b"payload")
        for blob in (b"", b"XXXX" + frame[4:],       # bad magic
                     frame[:4] + b"\xff" + frame[5:],  # bad version
                     frame[:-1], frame + b"\x00"):   # truncated/trailing
            with pytest.raises(WireError):
                decode_dict_frame(blob)
        with pytest.raises(WireError):
            encode_dict_frame("w", "m", 1, b"short", b"")
        with pytest.raises(WireError):
            encode_dict_frame("w", "m", 1 << 32, self.DIGEST, b"")

    def test_dack_frame_roundtrip(self):
        from repro.cfa.wire import decode_dack_frame, encode_dack_frame

        frame = encode_dack_frame("prv-07", 9, self.DIGEST, b"m" * 32)
        assert decode_dack_frame(frame) == (
            "prv-07", 9, self.DIGEST, b"m" * 32)

    def test_dack_frame_rejects_damage(self):
        from repro.cfa.wire import decode_dack_frame, encode_dack_frame

        frame = encode_dack_frame("prv-07", 9, self.DIGEST, b"m" * 32)
        for blob in (b"", b"XXXX" + frame[4:],
                     frame[:4] + b"\xff" + frame[5:],
                     frame[:-1], frame + b"\x00"):
            with pytest.raises(WireError):
                decode_dack_frame(blob)
        with pytest.raises(WireError):
            encode_dack_frame("prv-07", -1, self.DIGEST, b"m" * 32)

    @given(st.binary(min_size=0, max_size=120))
    @settings(deadline=None, max_examples=120)
    def test_frame_decoders_never_crash_unexpectedly(self, blob):
        from repro.cfa.wire import decode_dack_frame, decode_dict_frame

        for decode in (decode_dict_frame, decode_dack_frame):
            try:
                decode(blob)
            except WireError:
                pass  # the only acceptable failure mode

    def test_compressed_report_expands_after_the_wire(self, keystore):
        """A chain compressed under a dictionary survives the report
        codec and expands back to the exact original stream — the wire
        never needs to know what the SpecRecords mean."""
        from repro.cfa.speccfa import compress, expand, mine_subpaths

        key = keystore.attestation_key
        records = [BranchRecord(4, 8), BranchRecord(8, 4)] * 6
        dictionary = mine_subpaths(records)
        compressed = compress(records, dictionary)
        assert any(isinstance(r, SpecRecord) for r in compressed)
        decoded, _ = decode_report(
            encode_report(sample_report(key, compressed)))
        assert decoded.verify(key)
        assert decoded.cflog.records == compressed
        assert expand(decoded.cflog.records, dictionary) == records
