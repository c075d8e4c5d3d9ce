"""Wire format: serialize/parse report chains for transmission.

The in-memory objects model the protocol; this codec is what actually
crosses the Prv->Vrf link (and what a fuzzer would attack). The format
is length-delimited and self-describing:

``report  := header fields cflog mac``, all little-endian, with each
variable-length field length-prefixed. Records reuse the 9-byte tagged
encoding of :meth:`Record.pack`.
"""

from __future__ import annotations

import struct
from typing import List, Tuple

from repro.cfa.cflog import (
    RECORD,
    AddressRecord,
    BranchRecord,
    CFLog,
    LoopRecord,
    Record,
)
from repro.cfa.report import AttestationResult, Report
from repro.cfa.speccfa import SpecRecord
from repro.codec import Reader, Writer

MAGIC = b"RAPT"
VERSION = 1
#: a report body starts after the magic, version and u32 body length
_BODY = len(MAGIC) + 5
_U32 = struct.Struct("<I")

#: every record crosses the wire as the 9-byte tagged ``Record.pack``
_RECORD_TYPES = {1: BranchRecord, 2: AddressRecord, 3: LoopRecord,
                 4: SpecRecord}


class WireError(Exception):
    """Malformed or truncated wire data."""


def _reader(data: bytes) -> Reader:
    return Reader(data, WireError, "wire data")


def _header(magic: bytes, version: int) -> Writer:
    return Writer(WireError).raw(magic).u8(version)


def encode_report(report: Report) -> bytes:
    body = (Writer(WireError).lp(report.device_id).lp(report.method)
            .lp(report.challenge).lp(report.h_mem).u32(report.seq)
            .u8(1 if report.final else 0).u32(len(report.cflog))
            .raw(b"".join(r.pack() for r in report.cflog))
            .lp(report.mac))
    return _header(MAGIC, VERSION).lp(body.getvalue()).getvalue()


def decode_report(data: bytes) -> Tuple[Report, int]:
    """Parse one report; returns ``(report, bytes_consumed)``."""
    reader = _reader(data)
    reader.header(MAGIC, "report", VERSION)
    body = _reader(reader.lp_bytes())
    device_id = body.lp_bytes()
    method = body.lp_str(field="method field")
    challenge = body.lp_bytes()
    h_mem = body.lp_bytes()
    seq = body.u32()
    final = body.u8()
    if final not in (0, 1):
        raise WireError(f"final flag must be 0 or 1, got {final}")
    records = _records(body, body.u32())
    mac = body.lp_bytes()
    body.done("trailing bytes inside report body")
    report = Report(
        device_id=device_id, method=method, challenge=challenge,
        h_mem=h_mem, seq=seq, final=bool(final), cflog=CFLog(records),
        mac=mac,
    )
    # a reference, not a copy, when ``data`` is exactly one report
    report.received = data[:reader.pos]
    return report, reader.pos


def mac_input(data: bytes) -> bytes:
    """The MAC input of one report :func:`decode_report` accepted,
    spliced from its encoding ``data``. The MAC's field fold
    (``Report._fields``) shares the body's first four fields byte for
    byte and its CFLog field is the body's record bytes, so only the
    u32 lengths of ``seq`` (4), ``final`` (1) and the log are added."""
    pos = _BODY
    for _ in range(4):  # device id, method, challenge, H_MEM
        pos += 4 + _U32.unpack_from(data, pos)[0]
    start = pos + 9  # past seq, final and the record count
    end = start + RECORD.size * _U32.unpack_from(data, pos + 5)[0]
    return b"".join((
        data[_BODY:pos], b"\x04\0\0\0", data[pos:pos + 4], b"\x01\0\0\0",
        data[pos + 4:pos + 5], (end - start).to_bytes(4, "little"),
        data[start:end]))


def _records(reader: Reader, count: int) -> List[Record]:
    records: List[Record] = []
    for tag, a, b in reader.structs(RECORD, count, "record"):
        cls = _RECORD_TYPES.get(tag)
        if cls is None:
            raise WireError(f"unknown record tag {tag}")
        records.append(cls(a, b))
    return records


def decode_records(data: bytes) -> List[Record]:
    """Parse a bare record stream: 9 bytes per record, no framing."""
    if len(data) % RECORD.size:
        raise WireError("record stream is not a whole number of records")
    return _records(_reader(data), len(data) // RECORD.size)


# -- shard handoff framing --------------------------------------------------
#
# The sharded fleet router hands device traffic to the shard that owns
# the device over its own envelope, so a shard can run in another
# process (or on another host) and still receive exactly the bytes the
# device transmitted, attributed to the right session.

SHARD_MAGIC = b"RSHD"
SHARD_VERSION = 1

#: frame kinds: a device report inbound to a shard, a challenge
#: outbound from a shard (re-challenge fan-in at the router), a
#: dictionary push outbound, a dictionary ACK inbound, a policy
#: notice outbound, or a healing order outbound — policy traffic
#: crosses the shard boundary exactly like session traffic
SHARD_KIND_REPORT = 1
SHARD_KIND_CHALLENGE = 2
SHARD_KIND_DICT = 3
SHARD_KIND_DACK = 4
SHARD_KIND_PLCY = 5
SHARD_KIND_HEAL = 6
_SHARD_KINDS = (SHARD_KIND_REPORT, SHARD_KIND_CHALLENGE,
                SHARD_KIND_DICT, SHARD_KIND_DACK,
                SHARD_KIND_PLCY, SHARD_KIND_HEAL)


def encode_shard_frame(shard_id: int, device_id: str, payload: bytes,
                       kind: int = SHARD_KIND_REPORT) -> bytes:
    """Envelope one device payload for handoff to ``shard_id``."""
    if kind not in _SHARD_KINDS:
        raise WireError(f"unknown shard frame kind {kind}")
    return (_header(SHARD_MAGIC, SHARD_VERSION).u8(kind).u32(shard_id)
            .lp(device_id).lp(payload).getvalue())


def decode_shard_frame(data: bytes) -> Tuple[int, str, int, bytes]:
    """Parse a shard handoff frame.

    Returns ``(shard_id, device_id, kind, payload)``; raises
    :class:`WireError` on damage (bad magic/version/kind, non-UTF-8
    device id, trailing bytes) — the shard boundary is as hostile a
    surface as the device link and gets the same strictness.
    """
    reader = _reader(data)
    reader.header(SHARD_MAGIC, "shard frame", SHARD_VERSION)
    kind = reader.u8()
    if kind not in _SHARD_KINDS:
        raise WireError(f"unknown shard frame kind {kind}")
    shard_id = reader.u32()
    device_id = reader.lp_str(field="device id")
    payload = reader.lp_bytes()
    reader.done("trailing bytes after shard frame")
    return shard_id, device_id, kind, payload


# -- dictionary distribution framing ----------------------------------------
#
# The fleet Vrf mines speculation dictionaries from live traffic and
# pushes them to devices; a device acknowledges the epoch it installed.
# Both directions are framed here so the epoch handshake is a wire
# protocol, not an in-process convention:
#
# ``DICT`` (Vrf -> Prv): the dictionary itself, named by its profile,
# monotone epoch number, and content digest (the receiver re-hashes the
# payload and refuses a frame whose digest lies).
#
# ``DACK`` (Prv -> Vrf): the device's signed acknowledgement that it
# installed (epoch, digest); the MAC is computed under the device's
# attestation key (see ``repro.cfa.fleet.dictver.dack_mac``) so a
# spoofed ACK cannot silently re-pin a device.

DICT_MAGIC = b"DICT"
DICT_VERSION = 1
DACK_MAGIC = b"DACK"
DACK_VERSION = 1
_DIGEST_LEN = 32


def encode_dict_frame(workload: str, method: str, epoch: int,
                      digest: bytes, payload: bytes) -> bytes:
    """Frame one dictionary push for a device."""
    if len(digest) != _DIGEST_LEN:
        raise WireError("dictionary digest must be 32 bytes")
    return (_header(DICT_MAGIC, DICT_VERSION).u32(epoch).raw(digest)
            .lp(workload).lp(method).lp(payload).getvalue())


def decode_dict_frame(data: bytes) -> Tuple[str, str, int, bytes, bytes]:
    """Parse a dictionary push; returns
    ``(workload, method, epoch, digest, payload)``."""
    reader = _reader(data)
    reader.header(DICT_MAGIC, "dictionary frame", DICT_VERSION)
    epoch = reader.u32()
    digest = reader.take(_DIGEST_LEN)
    workload = reader.lp_str(field="workload")
    method = reader.lp_str(field="method")
    payload = reader.lp_bytes()
    reader.done("trailing bytes after dictionary frame")
    return workload, method, epoch, digest, payload


def encode_dack_frame(device_id: str, epoch: int, digest: bytes,
                      mac: bytes) -> bytes:
    """Frame one device's dictionary acknowledgement."""
    if len(digest) != _DIGEST_LEN:
        raise WireError("dictionary digest must be 32 bytes")
    return (_header(DACK_MAGIC, DACK_VERSION).u32(epoch).raw(digest)
            .lp(device_id).lp(mac).getvalue())


def decode_dack_frame(data: bytes) -> Tuple[str, int, bytes, bytes]:
    """Parse an ACK; returns ``(device_id, epoch, digest, mac)``."""
    reader = _reader(data)
    reader.header(DACK_MAGIC, "dictionary ACK", DACK_VERSION)
    epoch = reader.u32()
    digest = reader.take(_DIGEST_LEN)
    device_id = reader.lp_str(field="device id")
    mac = reader.lp_bytes()
    reader.done("trailing bytes after dictionary ACK")
    return device_id, epoch, digest, mac


# -- policy control-plane framing --------------------------------------------
#
# The policy engine notifies devices of lifecycle transitions and
# drives the guaranteed-healing protocol over its own frames:
#
# ``PLCY`` (Vrf -> Prv): a policy notice — the device's new lifecycle
# state, the reason, and the policy epoch it was decided under. MAC'd
# under the device's attestation key so a network adversary cannot
# fake a quarantine (or a rejoin) notice.
#
# ``HEAL`` (Vrf -> Prv): a healing order — the pinned firmware
# measurement the device must re-provision, the healing attempt
# number, and the fresh challenge nonce its post-heal chain must
# answer. MAC'd under the device's attestation key so only the real
# Vrf can force a re-provision.

PLCY_MAGIC = b"PLCY"
PLCY_VERSION = 1
HEAL_MAGIC = b"HEAL"
HEAL_VERSION = 1


def encode_policy_frame(device_id: str, state: str, reason: str,
                        policy_epoch: int, mac: bytes) -> bytes:
    """Frame one policy notice for a device."""
    return (_header(PLCY_MAGIC, PLCY_VERSION).u32(policy_epoch)
            .lp(device_id).lp(state).lp(reason).lp(mac).getvalue())


def decode_policy_frame(data: bytes) -> Tuple[str, str, str, int, bytes]:
    """Parse a policy notice; returns
    ``(device_id, state, reason, policy_epoch, mac)``."""
    reader = _reader(data)
    reader.header(PLCY_MAGIC, "policy frame", PLCY_VERSION)
    policy_epoch = reader.u32()
    device_id = reader.lp_str(field="device id")
    state = reader.lp_str(field="state")
    reason = reader.lp_str(field="reason")
    mac = reader.lp_bytes()
    reader.done("trailing bytes after policy frame")
    return device_id, state, reason, policy_epoch, mac


def encode_heal_frame(device_id: str, attempt: int, policy_epoch: int,
                      measurement: bytes, nonce: bytes,
                      mac: bytes) -> bytes:
    """Frame one healing order for a quarantined device."""
    if attempt < 1:
        raise WireError("healing attempt must be >= 1")
    return (_header(HEAL_MAGIC, HEAL_VERSION).u32(attempt).u32(policy_epoch)
            .lp(device_id).lp(measurement).lp(nonce).lp(mac).getvalue())


def decode_heal_frame(
        data: bytes) -> Tuple[str, int, int, bytes, bytes, bytes]:
    """Parse a healing order; returns
    ``(device_id, attempt, policy_epoch, measurement, nonce, mac)``."""
    reader = _reader(data)
    reader.header(HEAL_MAGIC, "healing frame", HEAL_VERSION)
    attempt = reader.u32()
    if attempt < 1:
        raise WireError("healing attempt must be >= 1")
    policy_epoch = reader.u32()
    device_id = reader.lp_str(field="device id")
    measurement = reader.lp_bytes()
    nonce = reader.lp_bytes()
    mac = reader.lp_bytes()
    reader.done("trailing bytes after healing frame")
    return device_id, attempt, policy_epoch, measurement, nonce, mac


def encode_result(result: AttestationResult) -> bytes:
    """Serialize a whole report chain."""
    return b"".join(encode_report(r) for r in result.reports)


def decode_result(data: bytes) -> AttestationResult:
    """Parse a report chain back into an :class:`AttestationResult`.

    Only the authenticated protocol surface survives the wire — runtime
    telemetry (cycles etc.) is measurement-side and not transmitted.
    """
    reports = []
    pos = 0
    while pos < len(data):
        report, consumed = decode_report(data[pos:])
        reports.append(report)
        pos += consumed
    if not reports:
        raise WireError("empty chain")
    return AttestationResult(reports=reports)
