"""Durable, hash-chained evidence for every fleet verdict.

Two pieces of persistence live here, unifying the content-addressed
idiom of :mod:`repro.eval.cache` with the fleet tier:

* :class:`EvidenceStore` — an append-only log in which every settled
  session becomes one :class:`EvidenceRecord`. Records for a device
  form a hash chain: record *i* carries the digest of record *i-1*
  (32 zero bytes for the genesis record), a MAC under the Vrf's audit
  key, and commits to the verdict *and* to a digest of the exact wire
  bytes the device transmitted, so the full verdict history is
  externally auditable and any single-byte mutation of the persisted
  bytes is detectable. The record is flushed and ``fsync``'d before
  the verdict is released to anyone — a verdict that exists outside
  the service is, by construction, already on disk.

* :class:`DurableReplayCache` — the fleet replay cache backed by the
  same two-level content-addressed store the offline artifacts use
  (:class:`~repro.eval.cache.ArtifactCache`): replay summaries are
  pickled one-file-per-key with an atomic rename, so a restarted
  service re-warms from disk instead of re-replaying the fleet's
  firmware chains.

**Byte layout** (all little-endian; ``lp x`` = ``u32 len(x) || x``)::

    file    := b"EVD1" u8 version (frame)*
    frame   := u32 frame_len prev_digest[32] mac[32] body
    body    := u8 kind session | u8 kind policy          (version 3)
    session := lp device_id lp workload lp method lp challenge
               chain_digest[32] u32 epoch u8 flags lp reason
               u32 reports u32 records u32 path_len lp path_digest
               lp records_digest
               u16 n_violations (lp kind u32 address lp detail)*
               lp measurement u32 seq
    policy  := lp device_id lp workload lp method
               u8 from_state u8 to_state lp action lp reason
               u32 score u32 heal_attempt u32 policy_epoch
               lp measurement u32 seq

Three format versions coexist. Version 1 predates dictionary epochs
(no ``epoch``/``records_digest``) and version 2 predates the policy
control plane (no ``kind`` byte, no ``measurement``): both still load,
audit, and restore — the parser dispatches on the file's version byte,
and a store opened on a legacy file keeps appending session records in
that file's native version so its chains stay verifiable end to end.
Policy-decision records (``kind`` 1, the transitions of
:mod:`repro.cfa.policy.engine`) thread through the *same* per-device
hash chain as the device's session records — one chain per device
commits its verdicts and its lifecycle, interleaved in decision order.

``flags`` bits: 0 accepted, 1 authenticated, 2 lossless, 3 cache_hit,
4 expired, 5 healing (the session was opened by the healing
protocol). **Hash schedule**::

    mac_i    = HMAC-SHA256(K_audit, prev_digest_i || body_i)
    digest_i = SHA256(prev_digest_i || body_i || mac_i)

so the head digest of a device's chain commits every verdict, every
chain digest, and every MAC before it. Verification
(:func:`verify_evidence_trail`) is strict: torn or trailing bytes are
a failure. Recovery (:meth:`EvidenceStore` opening an existing file)
is crash-tolerant: a torn *tail* — the one partial frame an
interrupted write or fsync can leave — is truncated away; any damage
before the tail is tamper and raises :class:`EvidenceError`.
"""

from __future__ import annotations

import hashlib
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.cfa.fleet.verify import (
    DeviceProfile,
    ReplayCache,
    SessionVerdict,
    _ReplaySummary,
)
from repro.codec import Reader, Writer
from repro.crypto.mac import check, sign
from repro.eval.cache import ArtifactCache

EVIDENCE_MAGIC = b"EVD1"
EVIDENCE_VERSION = 3
#: every version this parser can load (new files are always written
#: at EVIDENCE_VERSION; legacy files keep their own)
SUPPORTED_VERSIONS = (1, 2, 3)
#: genesis link: the "previous digest" of a device's first record
GENESIS = b"\x00" * 32
_HEADER_LEN = 5
_DIGEST_LEN = 32
#: a frame is at least prev_digest + mac + the fixed body fields
_MIN_FRAME = 2 * _DIGEST_LEN

#: record kinds (version >= 3; earlier versions are all-session)
KIND_SESSION = 0
KIND_POLICY = 1

_FLAG_ACCEPTED = 1 << 0
_FLAG_AUTHENTICATED = 1 << 1
_FLAG_LOSSLESS = 1 << 2
_FLAG_CACHE_HIT = 1 << 3
_FLAG_EXPIRED = 1 << 4
_FLAG_HEALING = 1 << 5


class EvidenceError(Exception):
    """The evidence trail failed verification (tamper or corruption)."""


def chain_digest(chunks: Sequence[bytes]) -> bytes:
    """Digest of a session's exact wire bytes, length-prefixed so
    report boundaries cannot be shifted without changing the digest."""
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(struct.pack("<I", len(chunk)))
        h.update(chunk)
    return h.digest()


def _reader(body: bytes) -> Reader:
    return Reader(body, EvidenceError, "evidence body")


@dataclass(frozen=True)
class EvidenceRecord:
    """One settled session, as persisted in the evidence log."""

    device_id: str
    workload: str
    method: str
    challenge: bytes      # the nonce this session's chain answered
    chain_digest: bytes   # digest of the exact wire bytes received
    epoch: int            # dictionary epoch the session was pinned to
    accepted: bool
    authenticated: bool
    lossless: bool
    cache_hit: bool       # verdict's replay half came from the cache
    expired: bool
    reason: str
    reports: int
    records: int
    path_len: int
    path_digest: str
    records_digest: str
    violations: Tuple[Tuple[str, int, str], ...]
    seq: int              # per-device index in the chain, from 0
    prev_digest: bytes
    mac: bytes
    digest: bytes
    #: firmware measurement (``H_MEM``) the session attested, for the
    #: policy registry to judge (b"" on pre-v3 records and on sessions
    #: rejected before any report landed)
    measurement: bytes = b""
    #: the session was opened by the healing protocol
    healing: bool = False

    #: discriminator shared with :class:`PolicyRecord`
    is_policy = False

    @property
    def profile(self) -> DeviceProfile:
        return DeviceProfile(self.workload, self.method)

    def to_verdict(self) -> SessionVerdict:
        """Reconstruct the exact :class:`SessionVerdict` this record
        persisted (cache_hit/expired are evidence annotations, not
        verdict fields, so recovery is caching-agnostic)."""
        return SessionVerdict(
            device_id=self.device_id,
            profile=self.profile,
            accepted=self.accepted,
            authenticated=self.authenticated,
            lossless=self.lossless,
            violations=self.violations,
            reason=self.reason,
            reports=self.reports,
            records=self.records,
            path_len=self.path_len,
            path_digest=self.path_digest,
            records_digest=self.records_digest,
        )


@dataclass(frozen=True)
class PolicyRecord:
    """One policy-engine decision, as persisted in the evidence log.

    Field-for-field the
    :class:`~repro.cfa.policy.engine.PolicyDecision` that produced it,
    plus the chain bookkeeping every record carries. Policy records
    share their device's hash chain with its session records, so the
    chain head commits the device's lifecycle as well as its verdicts.
    """

    device_id: str
    workload: str
    method: str
    from_state: int
    to_state: int
    action: str
    reason: str
    score: int
    heal_attempt: int
    policy_epoch: int
    measurement: bytes
    seq: int
    prev_digest: bytes
    mac: bytes
    digest: bytes

    is_policy = True

    @property
    def profile(self) -> DeviceProfile:
        return DeviceProfile(self.workload, self.method)


def _encode_body(verdict: SessionVerdict, challenge: bytes,
                 chain: bytes, cache_hit: bool, expired: bool,
                 seq: int, epoch: int = 0,
                 version: int = EVIDENCE_VERSION,
                 measurement: bytes = b"",
                 healing: bool = False) -> bytes:
    flags = ((_FLAG_ACCEPTED if verdict.accepted else 0)
             | (_FLAG_AUTHENTICATED if verdict.authenticated else 0)
             | (_FLAG_LOSSLESS if verdict.lossless else 0)
             | (_FLAG_CACHE_HIT if cache_hit else 0)
             | (_FLAG_EXPIRED if expired else 0)
             | (_FLAG_HEALING if healing and version >= 3 else 0))
    if len(chain) != _DIGEST_LEN:
        raise ValueError("chain digest must be 32 bytes")
    if version == 1 and epoch:
        raise EvidenceError(
            "version-1 evidence logs cannot record dictionary epochs; "
            "migrate to a fresh store")
    out = Writer(EvidenceError)
    if version >= 3:
        out.u8(KIND_SESSION)
    out.lp(verdict.device_id).lp(verdict.profile.workload)
    out.lp(verdict.profile.method).lp(challenge).raw(chain)
    if version >= 2:
        out.u32(epoch)
    out.u8(flags).lp(verdict.reason).u32(verdict.reports)
    out.u32(verdict.records).u32(verdict.path_len).lp(verdict.path_digest)
    if version >= 2:
        out.lp(verdict.records_digest)
    out.u16(len(verdict.violations))
    for kind, address, detail in verdict.violations:
        out.lp(kind).u32(address & 0xFFFFFFFF).lp(detail)
    if version >= 3:
        out.lp(measurement)
    return out.u32(seq).getvalue()


def _encode_policy_body(decision, seq: int) -> bytes:
    """Serialize one policy decision (duck-typed: any object carrying
    the :class:`~repro.cfa.policy.engine.PolicyDecision` fields)."""
    return (Writer(EvidenceError).u8(KIND_POLICY).lp(decision.device_id)
            .lp(decision.workload).lp(decision.method)
            .u8(decision.from_state).u8(decision.to_state)
            .lp(decision.action).lp(decision.reason).u32(decision.score)
            .u32(decision.heal_attempt).u32(decision.policy_epoch)
            .lp(decision.measurement).u32(seq).getvalue())


def _decode_body(body: bytes, prev_digest: bytes, mac: bytes,
                 version: int = EVIDENCE_VERSION
                 ) -> Union[EvidenceRecord, "PolicyRecord"]:
    reader = _reader(body)
    if version >= 3:
        kind = reader.u8()
        if kind == KIND_POLICY:
            return _decode_policy_body(reader, body, prev_digest, mac)
        if kind != KIND_SESSION:
            raise EvidenceError(f"unknown evidence record kind {kind}")
    device_id = reader.lp_str()
    workload = reader.lp_str()
    method = reader.lp_str()
    challenge = reader.lp_bytes()
    chain = reader.take(_DIGEST_LEN)
    epoch = reader.u32() if version >= 2 else 0
    flags = reader.u8()
    reason = reader.lp_str()
    reports, records, path_len = reader.u32(), reader.u32(), reader.u32()
    path_digest = reader.lp_str()
    records_digest = reader.lp_str() if version >= 2 else ""
    violations = tuple((reader.lp_str(), reader.u32(), reader.lp_str())
                       for _ in range(reader.u16()))
    measurement = reader.lp_bytes() if version >= 3 else b""
    seq = reader.u32()
    reader.done("trailing bytes inside evidence body")
    return EvidenceRecord(
        device_id=device_id, workload=workload, method=method,
        challenge=challenge, chain_digest=chain, epoch=epoch,
        accepted=bool(flags & _FLAG_ACCEPTED),
        authenticated=bool(flags & _FLAG_AUTHENTICATED),
        lossless=bool(flags & _FLAG_LOSSLESS),
        cache_hit=bool(flags & _FLAG_CACHE_HIT),
        expired=bool(flags & _FLAG_EXPIRED),
        reason=reason, reports=reports, records=records,
        path_len=path_len, path_digest=path_digest,
        records_digest=records_digest,
        violations=violations, seq=seq,
        prev_digest=prev_digest, mac=mac,
        digest=hashlib.sha256(prev_digest + body + mac).digest(),
        measurement=measurement,
        healing=bool(flags & _FLAG_HEALING),
    )


def _decode_policy_body(reader: Reader, body: bytes,
                        prev_digest: bytes, mac: bytes) -> PolicyRecord:
    device_id = reader.lp_str()
    workload = reader.lp_str()
    method = reader.lp_str()
    from_state, to_state = reader.u8(), reader.u8()
    action = reader.lp_str()
    reason = reader.lp_str()
    score, heal_attempt = reader.u32(), reader.u32()
    policy_epoch = reader.u32()
    measurement = reader.lp_bytes()
    seq = reader.u32()
    reader.done("trailing bytes inside policy record body")
    return PolicyRecord(
        device_id=device_id, workload=workload, method=method,
        from_state=from_state, to_state=to_state, action=action,
        reason=reason, score=score, heal_attempt=heal_attempt,
        policy_epoch=policy_epoch, measurement=measurement, seq=seq,
        prev_digest=prev_digest, mac=mac,
        digest=hashlib.sha256(prev_digest + body + mac).digest(),
    )


def _parse(data: bytes, key: bytes
           ) -> Tuple[List[Union[EvidenceRecord, PolicyRecord]], int,
                      Optional[str]]:
    """Parse and verify an evidence file image.

    Returns ``(records, valid_length, torn_reason)``: every verified
    record, the byte offset up to which the file is intact, and — when
    the file ends in one incomplete frame — why the tail is torn
    (``None`` for a clean end). Anything *other* than a torn tail
    (bad header, MAC mismatch, chain break, oversized frame) raises
    :class:`EvidenceError`: crash damage is confined to the tail, so
    damage anywhere else is tamper.
    """
    if len(data) < _HEADER_LEN:
        return [], 0, "torn file header" if data else None
    reader = Reader(data, EvidenceError, "evidence")
    version = reader.header(EVIDENCE_MAGIC, "evidence", *SUPPORTED_VERSIONS)
    heads: Dict[str, Tuple[int, bytes]] = {}
    records: List[Union[EvidenceRecord, PolicyRecord]] = []
    while not reader.exhausted:
        pos = reader.pos
        present = len(data) - pos - 4
        if present < 0:
            return records, pos, "torn frame length"
        frame_len = reader.u32()
        if frame_len < _MIN_FRAME:
            raise EvidenceError(f"frame at {pos} too short ({frame_len} B)")
        if frame_len > present:
            return records, pos, (
                f"torn frame at {pos} ({present}/{frame_len} B present)")
        prev_digest = reader.take(_DIGEST_LEN)
        mac = reader.take(_DIGEST_LEN)
        body = reader.take(frame_len - _MIN_FRAME)
        if not check(key, mac, prev_digest + body):
            raise EvidenceError(f"MAC mismatch on frame at {pos}")
        record = _decode_body(body, prev_digest, mac, version)
        seq, expected_prev = heads.get(record.device_id, (0, GENESIS))
        if record.seq != seq:
            raise EvidenceError(
                f"device {record.device_id!r}: evidence seq {record.seq}, "
                f"expected {seq}")
        if record.prev_digest != expected_prev:
            raise EvidenceError(
                f"device {record.device_id!r}: chain break at record "
                f"#{record.seq}")
        heads[record.device_id] = (seq + 1, record.digest)
        records.append(record)
    return records, reader.pos, None


def verify_evidence_trail(path: Union[str, os.PathLike],
                          key: bytes
                          ) -> List[Union[EvidenceRecord, PolicyRecord]]:
    """Strictly verify an evidence log from disk.

    Every frame must parse, MAC under ``key``, and extend its device's
    hash chain in order; any torn or trailing byte is a failure. This
    is the external-auditor entry point: it shares no state with the
    store that wrote the file.
    """
    data = Path(path).read_bytes()
    records, consumed, torn = _parse(data, key)
    if torn is not None:
        raise EvidenceError(torn)
    if consumed != len(data):
        raise EvidenceError("trailing bytes after last frame")
    return records


class EvidenceStore:
    """Append-only, fsync-before-release evidence log (one file).

    Opening an existing file *recovers* it: all intact records are
    verified and loaded (exposed as :attr:`recovered`), a torn tail is
    truncated away, and per-device chain heads resume exactly where
    the previous process stopped — so chains continue across restarts
    with no seam. ``fsync_fn`` is injectable for fault testing.
    """

    def __init__(self, path: Union[str, os.PathLike], key: bytes,
                 fsync: bool = True, fsync_fn=None):
        self.path = Path(path)
        self.key = key
        self.fsync_enabled = fsync
        self._fsync = fsync_fn or os.fsync
        self.records_appended = 0
        self.bytes_appended = 0
        self.fsyncs = 0
        self.truncated_tail = ""  # recovery note: torn bytes dropped
        self._heads: Dict[str, Tuple[int, bytes]] = {}
        self.recovered: List[Union[EvidenceRecord, PolicyRecord]] = []
        #: the format this file is written in — a reopened legacy log
        #: keeps its native version so its chains stay verifiable
        self.version = EVIDENCE_VERSION
        self.path.parent.mkdir(parents=True, exist_ok=True)
        existing = self.path.read_bytes() if self.path.exists() else b""
        if existing:
            self.recovered, good, torn = _parse(existing, key)
            if len(existing) >= _HEADER_LEN:
                self.version = existing[4]
            for record in self.recovered:
                self._heads[record.device_id] = (
                    record.seq + 1, record.digest)
            if torn is not None:
                self.truncated_tail = torn
                with open(self.path, "r+b") as fh:
                    fh.truncate(good)
        self._fh = open(self.path, "ab")
        if self._fh.tell() == 0:
            self._fh.write(EVIDENCE_MAGIC + bytes([self.version]))
            self._fh.flush()
            if self.fsync_enabled:
                self._fsync(self._fh.fileno())
        self._good_offset = self._fh.tell()

    # -- writing ------------------------------------------------------------

    def append(self, verdict: SessionVerdict, chain: bytes,
               challenge: bytes = b"", cache_hit: bool = False,
               expired: bool = False, epoch: int = 0,
               measurement: bytes = b"",
               healing: bool = False) -> EvidenceRecord:
        """Persist one verdict; durable before this method returns.

        The in-memory chain head only advances after the bytes are on
        disk, so a failed append leaves the store consistent with the
        file (modulo a torn tail, which the next open truncates — the
        same discipline a crash relies on). Callers must not release
        the verdict if this raises.
        """
        device_id = verdict.device_id
        seq, prev_digest = self._heads.get(device_id, (0, GENESIS))
        body = _encode_body(verdict, challenge, chain, cache_hit,
                            expired, seq, epoch=epoch,
                            version=self.version,
                            measurement=measurement, healing=healing)
        mac = self._append_frame(device_id, seq, prev_digest, body)
        return _decode_body(body, prev_digest, mac, self.version)

    def append_decision(self, decision) -> PolicyRecord:
        """Persist one policy decision into its device's hash chain.

        ``decision`` carries the
        :class:`~repro.cfa.policy.engine.PolicyDecision` fields. Same
        durability contract as :meth:`append`: the caller must not act
        on the transition (admission, healing, notices) if this raises.
        Policy records require the current format; appending one to a
        legacy (v1/v2) log is refused rather than silently corrupting
        old auditors.
        """
        if self.version < 3:
            raise EvidenceError(
                f"evidence log {self.path} is format version "
                f"{self.version}; policy records need version 3 "
                f"(use a fresh store for the policy control plane)")
        device_id = decision.device_id
        seq, prev_digest = self._heads.get(device_id, (0, GENESIS))
        body = _encode_policy_body(decision, seq)
        mac = self._append_frame(device_id, seq, prev_digest, body)
        record = _decode_body(body, prev_digest, mac, self.version)
        assert isinstance(record, PolicyRecord)
        return record

    def _append_frame(self, device_id: str, seq: int,
                      prev_digest: bytes, body: bytes) -> bytes:
        """Append one MAC'd frame durably; returns its MAC."""
        mac = sign(self.key, prev_digest + body)
        frame = prev_digest + mac + body
        try:
            self._fh.write(Writer(EvidenceError).lp(frame).getvalue())
            self._fh.flush()
            if self.fsync_enabled:
                self._fsync(self._fh.fileno())
                self.fsyncs += 1
        except BaseException:
            # best-effort rewind so a *surviving* process can continue;
            # a dead one leaves the torn tail for recovery to truncate
            try:
                self._fh.truncate(self._good_offset)
                self._fh.seek(self._good_offset)
            except OSError:
                pass
            raise
        self._good_offset = self._fh.tell()
        digest = hashlib.sha256(prev_digest + body + mac).digest()
        self._heads[device_id] = (seq + 1, digest)
        self.records_appended += 1
        self.bytes_appended += 4 + len(frame)
        return mac

    # -- reading ------------------------------------------------------------

    def head(self, device_id: str) -> Optional[bytes]:
        """Current chain-head digest for a device (None if no records)."""
        entry = self._heads.get(device_id)
        return entry[1] if entry else None

    def heads(self) -> Dict[str, bytes]:
        """device id -> chain-head digest, for every recorded device."""
        return {device: digest for device, (_, digest)
                in self._heads.items()}

    def records(self) -> Iterator[EvidenceRecord]:
        """Re-read and strictly verify every record from disk."""
        self._fh.flush()
        return iter(verify_evidence_trail(self.path, self.key))

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.flush()
            if self.fsync_enabled:
                self._fsync(self._fh.fileno())
            self._fh.close()

    def __enter__(self) -> "EvidenceStore":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class DurableReplayCache(ReplayCache):
    """The fleet replay cache, persisted content-addressed on disk.

    Entries live in the bounded in-memory LRU of :class:`ReplayCache`
    and on disk in an :class:`~repro.eval.cache.ArtifactCache` (one
    pickle file per key, atomic rename), keyed by a digest of
    ``(profile, record-stream digest)`` — the same CAS
    discipline the offline-artifact cache uses, so concurrent shards
    can share one directory and a restarted service re-warms from
    disk. A corrupt or unreadable entry is a miss and gets rebuilt,
    exactly like an offline artifact; and as with the in-memory cache,
    only the pure replay half of a verdict is ever stored, so the
    disk image cannot launder authentication.
    """

    def __init__(self, root: Optional[Union[str, os.PathLike]] = None):
        super().__init__()
        # the bounded LRU above is the memory tier: the CAS keeps no
        # second in-memory copy of every summary
        self._cas = ArtifactCache(root, memory=False)
        self.disk_hits = 0

    @staticmethod
    def cas_key(profile: DeviceProfile, key: bytes) -> str:
        payload = b"|".join([
            b"fleet-replay-v1",
            profile.workload.encode(),
            profile.method.encode(),
            key,
        ])
        return hashlib.sha256(payload).hexdigest()

    def _find(self, profile: DeviceProfile,
              key: bytes) -> Optional[_ReplaySummary]:
        entry = super()._find(profile, key)
        if entry is None:
            entry = self._cas.get(self.cas_key(profile, key))
            if entry is not None:
                self._keep(profile, key, entry)
                self.disk_hits += 1
        return entry

    def store(self, profile: DeviceProfile, key: bytes,
              entry: _ReplaySummary) -> None:
        with self._lock:
            self._keep(profile, key, entry)
            self._cas.put(self.cas_key(profile, key), entry)
