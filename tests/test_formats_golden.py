"""Golden encodings of every binary format the system speaks.

Each format has one canonical blob under ``tests/data/formats/``, made
from fixed inputs and fixed keys (no simulator run is involved, so the
blobs move only when a format does). Three checks per format:

* encoding the fixed inputs reproduces the committed bytes exactly;
* decoding the committed bytes gives back equal objects;
* every strict prefix, and the blob plus one trailing byte, raises the
  format's own exception class — never ``struct.error`` or
  ``IndexError``.

A report chain and an evidence log are streams of self-delimiting
frames, so a prefix that ends on a frame boundary is itself a valid,
shorter stream: there the check is that it decodes to the matching
prefix of objects.

Regenerate (only if a format must ever change) with
``PYTHONPATH=src python tests/test_formats_golden.py``.
"""

from __future__ import annotations

import hashlib
import hmac
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, List, Tuple

import pytest

from repro.cfa.fleet import audit_key, device_key
from repro.cfa.fleet.dictver import dack_mac
from repro.cfa.fleet.store import (
    EvidenceError,
    EvidenceStore,
    chain_digest,
    verify_evidence_trail,
)
from repro.cfa.fleet.verify import DeviceProfile, SessionVerdict
from repro.cfa.cflog import AddressRecord, BranchRecord, CFLog, LoopRecord
from repro.cfa.policy.engine import PolicyDecision
from repro.cfa.policy.heal import build_heal_frame, build_policy_frame
from repro.cfa.policy.registry import (
    PolicyError,
    PolicyRegistry,
    pack_policy,
    policy_key,
    unpack_policy,
)
from repro.cfa.report import AttestationResult, Report
from repro.cfa.speccfa import SpecRecord, pack_dictionary, unpack_dictionary
from repro.cfa.streaming import StreamError, StreamingVerifier
from repro.cfa import wire
from repro.cfa.wire import WireError
from repro.crypto.mac import fold
from repro.core.analysis.certificate import (
    BoundsCertificate,
    bounds_key,
    sign_certificate,
    verify_certificate,
)

DATA = Path(__file__).parent / "data" / "formats"
SEED = b"fleet-vrf"
DEVICE = "dev-0007"
PROFILE = DeviceProfile("gps", "rap-track")
H_MEM = hashlib.sha256(b"golden-image").digest()
NONCE = bytes(range(16))

DICTIONARY = {
    0: (BranchRecord(0x1000_0040, 0x1000_0100),
        LoopRecord(0x1000_0044, 7)),
    3: (AddressRecord(0x1000_0200, 0x1000_0300),),
}
DICT_PAYLOAD = pack_dictionary(DICTIONARY)
DICT_DIGEST = hashlib.sha256(DICT_PAYLOAD).digest()


@dataclass(frozen=True)
class Golden:
    """One encoding: the bytes, what they decode to, and the frame
    boundaries at which a prefix is itself a valid stream."""

    blob: bytes
    decoded: Any
    cuts: Tuple[Tuple[int, Any], ...] = ()


def _fields(report: Report) -> tuple:
    # CFLog compares by identity; a report is equal by its fields
    return (report.device_id, report.method, report.challenge,
            report.h_mem, report.seq, report.final,
            tuple(report.cflog.records), report.mac)


def _report_chain() -> Golden:
    key = device_key(DEVICE)
    logs = [
        [BranchRecord(0x1000_0040, 0x1000_0100),
         LoopRecord(0x1000_0044, 0xFFFF_FFFF)],
        [AddressRecord(0x1000_0200, 0x1000_0300), SpecRecord(0, 5)],
        [],
    ]
    reports = [
        Report(device_id=DEVICE.encode(), method="rap-track",
               challenge=NONCE, h_mem=H_MEM, seq=seq,
               final=seq == len(logs) - 1, cflog=CFLog(records)).sign(key)
        for seq, records in enumerate(logs)]
    frames = [wire.encode_report(r) for r in reports]
    fields = [_fields(r) for r in reports]
    cuts, end = [], 0
    for i, frame in enumerate(frames[:-1]):
        end += len(frame)
        cuts.append((end, fields[:i + 1]))
    return Golden(b"".join(frames), fields, tuple(cuts))


def _decode_chain(blob: bytes, _tmp: Path) -> List[tuple]:
    return [_fields(r) for r in wire.decode_result(blob).reports]


def _first_report() -> int:
    return _report_chain().cuts[0][0]


def _shard_payloads() -> List[Tuple[int, bytes]]:
    return [
        (wire.SHARD_KIND_REPORT, _report_chain().blob[:_first_report()]),
        (wire.SHARD_KIND_CHALLENGE, NONCE),
        (wire.SHARD_KIND_DICT, _dict_frame().blob),
        (wire.SHARD_KIND_DACK, _dack_frame().blob),
        (wire.SHARD_KIND_PLCY, _policy_frame().blob),
        (wire.SHARD_KIND_HEAL, _heal_frame().blob),
    ]


def _shard_frame(kind: int) -> Callable[[], Golden]:
    def make() -> Golden:
        payload = dict(_shard_payloads())[kind]
        return Golden(wire.encode_shard_frame(3, DEVICE, payload, kind),
                      (3, DEVICE, kind, payload))
    return make


def _dict_frame() -> Golden:
    fields = ("gps", "rap-track", 2, DICT_DIGEST, DICT_PAYLOAD)
    return Golden(wire.encode_dict_frame(*fields), fields)


def _dack_frame() -> Golden:
    mac = dack_mac(device_key(DEVICE), DEVICE, 2, DICT_DIGEST)
    fields = (DEVICE, 2, DICT_DIGEST, mac)
    return Golden(wire.encode_dack_frame(*fields), fields)


def _policy_frame() -> Golden:
    blob = build_policy_frame(device_key(DEVICE), DEVICE, 2,
                              "2 consecutive failures", 4)
    mac = wire.decode_policy_frame(blob)[4]
    return Golden(blob, (DEVICE, "QUARANTINED", "2 consecutive failures",
                         4, mac))


def _heal_frame() -> Golden:
    blob = build_heal_frame(device_key(DEVICE), DEVICE, 1, 4, H_MEM, NONCE)
    mac = wire.decode_heal_frame(blob)[5]
    return Golden(blob, (DEVICE, 1, 4, H_MEM, NONCE, mac))


def _spd1() -> Golden:
    return Golden(DICT_PAYLOAD, DICTIONARY)


def _policy_doc():
    registry = PolicyRegistry(policy_key(SEED))
    return registry.publish(PROFILE, H_MEM,
                            allowed=(b"\x11" * 32,), revoked=(b"\x22" * 32,))


def _fwp1_doc() -> Golden:
    doc = _policy_doc()
    return Golden(doc.payload, (doc.profile, doc.epoch, doc.pinned,
                                doc.allowed, doc.revoked))


def _fwp1_file() -> Golden:
    doc = _policy_doc()
    return Golden(doc.payload + doc.mac, doc)


def _decode_fwp1_file(blob: bytes, tmp: Path):
    store = Path(tempfile.mkdtemp(dir=tmp))
    (store / "golden.pol").write_bytes(blob)
    registry = PolicyRegistry(policy_key(SEED), store)
    (profile,) = registry.profiles()
    return registry.latest(profile)


CERTIFICATE = BoundsCertificate(
    workload="gps", method="naive-mtb", image_digest=H_MEM,
    max_stack_depth=6, max_log_records=None, max_log_bytes=4096,
    recursion_cycles=(("fib",), ("even", "odd")), depth_exact=True,
    call_keys=(0x1000_0010, 0x1000_0020), return_keys=(0x1000_0030,))


def _bnds1() -> Golden:
    return Golden(sign_certificate(CERTIFICATE, bounds_key(SEED)),
                  CERTIFICATE)


def _verdict(device_id: str, accepted: bool) -> SessionVerdict:
    return SessionVerdict(
        device_id=device_id, profile=PROFILE, accepted=accepted,
        authenticated=True, lossless=True,
        violations=() if accepted else (
            ("return", 0x1000_0044, "ret to 0x41414141"),
            ("cfg", 0x1000_0100, "no edge")),
        reason="" if accepted else "2 violations",
        reports=3, records=42, path_len=120,
        path_digest=hashlib.sha256(device_id.encode()).hexdigest(),
        records_digest=hashlib.sha256(b"records").hexdigest())


def _evidence_log(version: int) -> Golden:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "evidence.log"
        path.write_bytes(b"EVD1" + bytes([version]))
        store = EvidenceStore(path, audit_key(SEED), fsync=False)
        records, cuts = [], [(0, [])]
        sessions = [("dev-0001", True), ("dev-0002", False),
                    ("dev-0001", False)]
        for i, (device_id, accepted) in enumerate(sessions):
            cuts.append((5 + store.bytes_appended, list(records)))
            records.append(store.append(
                _verdict(device_id, accepted),
                chain=chain_digest([b"chunk-%d" % i, b"final"]),
                challenge=NONCE, cache_hit=i == 2, expired=False,
                epoch=i, measurement=H_MEM, healing=i == 2))
            if version >= 3 and not accepted:
                cuts.append((5 + store.bytes_appended, list(records)))
                records.append(store.append_decision(PolicyDecision(
                    device_id=device_id, workload=PROFILE.workload,
                    method=PROFILE.method, from_state=0, to_state=1,
                    action="suspect", reason="replay violation",
                    score=1, heal_attempt=0, policy_epoch=4,
                    measurement=H_MEM)))
        store.close()
        return Golden(path.read_bytes(), records, tuple(cuts))


def _decode_evidence(blob: bytes, tmp: Path):
    fd, name = tempfile.mkstemp(dir=tmp)
    with open(fd, "wb") as fh:
        fh.write(blob)
    return verify_evidence_trail(name, audit_key(SEED))


def _decoder(fn: Callable[[bytes], Any]) -> Callable[[bytes, Path], Any]:
    return lambda blob, _tmp: fn(blob)


#: name -> (make, decode, the format's own exception class)
FORMATS = {
    "rapt-chain": (_report_chain, _decode_chain, WireError),
    **{f"rshd-{name}": (_shard_frame(kind),
                        _decoder(wire.decode_shard_frame), WireError)
       for name, kind in (("report", wire.SHARD_KIND_REPORT),
                          ("challenge", wire.SHARD_KIND_CHALLENGE),
                          ("dict", wire.SHARD_KIND_DICT),
                          ("dack", wire.SHARD_KIND_DACK),
                          ("plcy", wire.SHARD_KIND_PLCY),
                          ("heal", wire.SHARD_KIND_HEAL))},
    "dict": (_dict_frame, _decoder(wire.decode_dict_frame), WireError),
    "dack": (_dack_frame, _decoder(wire.decode_dack_frame), WireError),
    "plcy": (_policy_frame, _decoder(wire.decode_policy_frame), WireError),
    "heal": (_heal_frame, _decoder(wire.decode_heal_frame), WireError),
    "spd1": (_spd1, _decoder(unpack_dictionary), ValueError),
    "fwp1-doc": (_fwp1_doc, _decoder(unpack_policy), PolicyError),
    "fwp1-file": (_fwp1_file, _decode_fwp1_file, PolicyError),
    "bnds1": (_bnds1, _decoder(
        lambda blob: verify_certificate(blob, bounds_key(SEED))),
        ValueError),
    "evd1-v2": (lambda: _evidence_log(2), _decode_evidence, EvidenceError),
    "evd1-v3": (lambda: _evidence_log(3), _decode_evidence, EvidenceError),
}


def _golden(name: str) -> bytes:
    return (DATA / f"{name}.bin").read_bytes()


@pytest.mark.parametrize("name", sorted(FORMATS))
def test_encoding_is_byte_exact(name):
    make, _, _ = FORMATS[name]
    assert make().blob == _golden(name)


@pytest.mark.parametrize("name", sorted(FORMATS))
def test_decoding_gives_equal_objects(name, tmp_path):
    make, decode, _ = FORMATS[name]
    assert decode(_golden(name), tmp_path) == make().decoded


@pytest.mark.parametrize("name", sorted(FORMATS))
def test_damage_raises_the_format_error(name, tmp_path):
    make, decode, error = FORMATS[name]
    blob = _golden(name)
    cuts = dict(make().cuts)
    for end in range(len(blob)):
        if end in cuts:
            assert decode(blob[:end], tmp_path) == cuts[end]
            continue
        try:
            decode(blob[:end], tmp_path)
        except error:
            continue
        pytest.fail(f"{name}: {end}-byte prefix decoded")
    with pytest.raises(error):
        decode(blob + b"\x00", tmp_path)


def test_pinned_inputs_round_trip():
    # sanity on the fixed inputs themselves: the MAC'd formats verify
    assert verify_certificate(_golden("bnds1"), bounds_key(SEED)) \
        == CERTIFICATE
    doc = _policy_doc()
    assert hmac.compare_digest(
        doc.mac, hmac.new(policy_key(SEED), doc.payload,
                          hashlib.sha256).digest())
    assert doc.payload == pack_policy(PROFILE, 1, H_MEM, doc.allowed,
                                      doc.revoked)
    chain = wire.decode_result(_golden("rapt-chain"))
    assert isinstance(chain, AttestationResult)
    assert all(r.verify(device_key(DEVICE)) for r in chain.reports)


def _golden_frames() -> List[bytes]:
    blob, frames = _golden("rapt-chain"), []
    while blob:
        _, used = wire.decode_report(blob)
        frames.append(blob[:used])
        blob = blob[used:]
    return frames


def _authenticate(frames: List[bytes]) -> None:
    stream = StreamingVerifier(
        SimpleNamespace(key=device_key(DEVICE), expected_h_mem=H_MEM), NONCE)
    for frame in frames:
        stream.feed_bytes(frame)
    stream.close()


def test_rapt_mac_input_is_spliced_from_the_received_body():
    for frame in _golden_frames():
        report, _ = wire.decode_report(frame)
        assert wire.mac_input(frame) == fold(report._fields())
    _authenticate(_golden_frames())  # the golden chain authenticates


def test_rapt_every_flipped_body_byte_is_rejected():
    frames = _golden_frames()
    _authenticate(frames)  # intact: accepted
    for k, frame in enumerate(frames):
        for where in range(9, len(frame)):  # past magic, version, length
            for mask in (0x01, 0x80, 0xFF):
                damaged = bytearray(frame)
                damaged[where] ^= mask
                try:
                    _authenticate(frames[:k] + [bytes(damaged)]
                                  + frames[k + 1:])
                except WireError:
                    continue
                except StreamError as exc:
                    assert str(exc).startswith("bad MAC on report #"), exc
                    continue
                pytest.fail(f"report #{k}: byte {where} ^ {mask:#x} "
                            f"was accepted")


if __name__ == "__main__":
    DATA.mkdir(parents=True, exist_ok=True)
    for name, (make, _, _) in sorted(FORMATS.items()):
        (DATA / f"{name}.bin").write_bytes(make().blob)
        print(f"wrote {name}.bin", file=sys.stderr)
