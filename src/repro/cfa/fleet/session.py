"""Per-device session bookkeeping for the fleet Vrf.

The :class:`SessionManager` is the protocol brain of the service and
deliberately knows nothing about threads or worker pools: every method
is a pure state transition driven by an explicit logical clock, which
is what makes session semantics unit-testable and the serial/pooled
service paths identical. It owns:

* **challenge issuance** — one fresh nonce per session attempt,
  derived from ``(seed, device id, round, attempt)``, with each
  device's latest ``(round, attempt)`` guarding reuse;
* **replay protection** — a report is only accepted if its challenge
  matches the session's *outstanding* nonce and its device id matches
  the session's device: chains replayed from an earlier challenge (or
  another device) die at ingest, before any MAC work is spent;
* **sequence tracking** — in-order reports extend the accepted chain;
  out-of-order reports are buffered inside a bounded *reorder window*
  and drained when the gap fills; duplicates of already-seen reports
  are dropped iff byte-identical (a conflicting duplicate is
  equivocation and rejects the session); anything past the final
  report rejects;
* **idle expiry and retry** — a session with no activity for
  ``idle_timeout`` logical seconds is re-challenged (fresh nonce,
  chain discarded) up to ``max_attempts`` times, then expired.

Structural checks here are *pre-filters* over the reports ingest
decoded. They check no MAC: once the chain is complete, the service
hands those same decoded reports to
:func:`~repro.cfa.fleet.verify.authenticate_session`, which checks
every MAC over the received bytes, the challenge, ``H_MEM`` and the
sequence, and only an authenticated chain is ever screened or
replayed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cfa.protocol import Challenge
from repro.cfa.fleet.dictver import DictEpoch, spec_challenge
from repro.cfa.fleet.verify import DeviceProfile, SessionVerdict
from repro.cfa.report import Report
# ``expand`` is not called here: perfbench/tracer.py patches the name
from repro.cfa.speccfa import SubPathDict, expand  # noqa: F401
from repro.cfa.wire import WireError, decode_report

# session lifecycle states
PENDING = "pending"        # challenged, no report accepted yet
STREAMING = "streaming"    # mid-chain
QUEUED = "queued"          # chain complete, awaiting verification
VERIFIED = "verified"      # verdict in, accepted
REJECTED = "rejected"      # verdict in (or protocol violation), refused
EXPIRED = "expired"        # idled out after the last attempt

#: states in which a session still occupies Vrf resources
ACTIVE_STATES = (PENDING, STREAMING, QUEUED)


class FleetOverloadError(Exception):
    """The service refused a new session: at its max_sessions limit."""


@dataclass
class Session:
    """One device's attestation session (possibly across retries)."""

    device_id: str
    profile: DeviceProfile
    key: bytes
    challenge: Challenge
    opened_at: float
    last_activity: float
    state: str = PENDING
    attempt: int = 1
    #: how many sessions this device opened before this one (feeds
    #: nonce derivation)
    round_index: int = 0
    #: the dictionary epoch this session is pinned to. Pinned at
    #: ``open`` (from the device's last acknowledged epoch) and never
    #: changed afterwards: a dictionary push landing mid-session takes
    #: effect at the device's *next* session, so Prv and Vrf always
    #: compress/expand under the same version.
    epoch: int = 0
    dict_digest: bytes = b""
    dictionary: Optional[SubPathDict] = None
    chunks: List[bytes] = field(default_factory=list)  # accepted, in order
    #: ``chunks`` as ingest decoded them, each keeping the bytes it was
    #: decoded from: authentication reads these, so no report is
    #: decoded twice
    reports: List[Report] = field(default_factory=list)
    #: reorder-window holding area: seq -> (bytes, decoded report)
    buffered: Dict[int, Tuple[bytes, Report]] = field(default_factory=dict)
    next_seq: int = 0
    final_seq: Optional[int] = None
    duplicates: int = 0
    reject_reason: str = ""
    verdict: Optional[SessionVerdict] = None
    #: opened by the healing protocol (bypasses admission control; its
    #: evidence record carries the healing flag so the policy fold can
    #: judge the rejoin)
    healing: bool = False

    @property
    def active(self) -> bool:
        return self.state in ACTIVE_STATES

    @property
    def bound_challenge(self) -> bytes:
        """What the reports' challenge field must equal: the bare nonce
        under epoch 0, the epoch-bound nonce otherwise (so the report
        MACs pin the session to exactly one dictionary version)."""
        return spec_challenge(self.challenge.nonce, self.epoch,
                              self.dict_digest)


class SessionManager:
    """Protocol state for every device session at the fleet Vrf."""

    def __init__(self, seed: bytes = b"fleet-vrf",
                 idle_timeout: float = 30.0,
                 reorder_window: int = 8,
                 max_attempts: int = 2,
                 max_sessions: Optional[int] = None,
                 epoch_bindings: Optional[Callable[
                     [DeviceProfile], Sequence[Tuple[int, bytes]]]] = None):
        #: optional ``profile -> [(epoch, digest)]`` lookup used only to
        #: *diagnose* a challenge mismatch as a stale-epoch attestation
        #: (the rejection itself never depends on it)
        self.epoch_bindings = epoch_bindings
        self.seed = seed
        self.idle_timeout = idle_timeout
        self.reorder_window = reorder_window
        self.max_attempts = max_attempts
        self.max_sessions = max_sessions
        self.sessions: Dict[str, Session] = {}
        #: device id -> (round, attempt) of its latest challenge
        self._issued: Dict[str, Tuple[int, int]] = {}
        #: device id -> sessions opened so far (feeds nonce derivation)
        self._device_rounds: Dict[str, int] = {}
        # aggregate ingest accounting (the service folds these into metrics)
        self.duplicates_dropped = 0
        self.reports_ignored = 0

    # -- challenge issuance -------------------------------------------------

    def _fresh_challenge(self, device_id: str, round_index: int,
                         attempt: int) -> Challenge:
        """One fresh nonce, derived from ``(seed, device id, round,
        attempt)``.

        A device's challenge is thus independent of how sessions
        interleave, how the fleet is sharded, and whether the Vrf
        restarted — the property the sharding and crash-recovery
        differentials pin. Because the round counter is restored from
        the evidence log, a settled session's challenge is never issued
        again, so its chain can never be replayed into a later session.

        Within one process, each device's ``(round, attempt)`` pairs
        must strictly increase. The nonce is a function of that pair,
        so no nonce is issued twice, and the guard holds one pair per
        device, not one entry per session.
        """
        issued = self._issued.get(device_id)
        if issued is not None and (round_index, attempt) <= issued:
            raise RuntimeError("nonce reuse")
        self._issued[device_id] = (round_index, attempt)
        scoped = hashlib.sha256(b"|".join([
            b"device-nonce", self.seed, device_id.encode(),
            round_index.to_bytes(8, "little")])).digest()
        return Challenge.derive(scoped, attempt)

    def restore_rounds(self, rounds: Dict[str, int]) -> None:
        """Resume device-scoped nonce derivation after a restart.

        ``rounds`` maps device id -> completed sessions (one evidence
        record each). A settled device's next session derives a nonce
        no pre-crash chain can answer, while a device that was mid-
        session re-derives its exact pre-crash challenge, so the
        device's retransmitted chain verifies unchanged.
        """
        self._device_rounds.update(rounds)

    @property
    def active_count(self) -> int:
        return sum(1 for s in self.sessions.values() if s.active)

    def open(self, device_id: str, profile: DeviceProfile, key: bytes,
             now: float = 0.0,
             dict_epoch: Optional[DictEpoch] = None) -> Session:
        """Admit a device and issue its challenge.

        ``dict_epoch`` pins the session to one dictionary version (the
        device's last acknowledged epoch); omitted means epoch 0
        (plain, uncompressed logs).
        """
        existing = self.sessions.get(device_id)
        if existing is not None and existing.active:
            raise ValueError(f"device {device_id!r} already has an "
                             f"active session")
        if (self.max_sessions is not None
                and self.active_count >= self.max_sessions):
            raise FleetOverloadError(
                f"at the {self.max_sessions}-session limit; "
                f"refusing {device_id!r}")
        round_index = self._device_rounds.get(device_id, 0)
        self._device_rounds[device_id] = round_index + 1
        session = Session(
            device_id=device_id, profile=profile, key=key,
            challenge=self._fresh_challenge(device_id, round_index, 1),
            opened_at=now, last_activity=now, round_index=round_index,
        )
        if dict_epoch is not None and not dict_epoch.is_empty:
            session.epoch = dict_epoch.epoch
            session.dict_digest = dict_epoch.digest
            session.dictionary = dict_epoch.dictionary
        self.sessions[device_id] = session
        return session

    # -- report ingest ------------------------------------------------------

    def _reject(self, session: Session, reason: str) -> Session:
        session.state = REJECTED
        session.reject_reason = reason
        return session

    def _diagnose_challenge(self, session: Session, report) -> str:
        """Name a challenge mismatch precisely.

        A chain compressed under any epoch other than the session's
        pinned one fails the bound-challenge equality above — that is
        the security property (no expansion under a mismatched
        dictionary is ever attempted). For the reject *reason*, probe
        the known epoch bindings so a stale-epoch attestation is
        reported as such instead of as a generic replay.
        """
        nonce = session.challenge.nonce
        bindings = [(0, b"")]
        if self.epoch_bindings is not None:
            bindings += list(self.epoch_bindings(session.profile))
        for epoch, digest in bindings:
            if epoch == session.epoch:
                continue
            if report.challenge == spec_challenge(nonce, epoch, digest):
                return (f"report #{report.seq} compressed under "
                        f"dictionary epoch {epoch}, but the session is "
                        f"pinned to epoch {session.epoch} (stale-epoch "
                        f"attestation)")
        return (f"report #{report.seq} does not answer the "
                f"outstanding challenge (replayed chain?)")

    def ingest(self, device_id: str, data: bytes,
               now: float) -> Optional[Session]:
        """Absorb one wire-encoded report from a device.

        Returns the session so the caller can act on its new state
        (``QUEUED`` means the chain is complete and ready to verify;
        ``REJECTED`` means a protocol violation was just detected), or
        ``None`` when the report has no live session to land in (late,
        unknown device) and was counted + dropped.
        """
        session = self.sessions.get(device_id)
        if session is None or session.state not in (PENDING, STREAMING):
            self.reports_ignored += 1
            return None
        session.last_activity = now
        try:
            report, consumed = decode_report(data)
            if consumed != len(data):
                raise WireError("trailing bytes after report")
        except WireError as exc:
            return self._reject(session, f"malformed report: {exc}")
        if report.device_id != device_id.encode():
            return self._reject(
                session, "report device id does not match the session")
        if report.challenge != session.bound_challenge:
            return self._reject(
                session, self._diagnose_challenge(session, report))
        seq = report.seq
        if seq < session.next_seq or seq in session.buffered:
            # a duplicate of an accepted or a buffered report
            seen = (session.chunks[seq] if seq < session.next_seq
                    else session.buffered[seq][0])
            if seen != data:
                return self._reject(
                    session, f"conflicting duplicate of report #{seq}")
            session.duplicates += 1
            self.duplicates_dropped += 1
            return session
        if session.final_seq is not None and seq > session.final_seq:
            return self._reject(
                session,
                f"report #{seq} past the final report #{session.final_seq}")
        if report.final:
            if any(b > seq for b in session.buffered):
                return self._reject(
                    session, f"buffered report past the final #{seq}")
            session.final_seq = seq
        if seq == session.next_seq:
            session.chunks.append(data)
            session.reports.append(report)
            session.next_seq += 1
            while session.next_seq in session.buffered:  # drain the window
                chunk, buffered = session.buffered.pop(session.next_seq)
                session.chunks.append(chunk)
                session.reports.append(buffered)
                session.next_seq += 1
        else:
            if seq - session.next_seq > self.reorder_window:
                return self._reject(
                    session,
                    f"report #{seq} outside the reorder window "
                    f"(expecting #{session.next_seq}, window "
                    f"{self.reorder_window})")
            session.buffered[seq] = (data, report)
        session.state = STREAMING
        if (session.final_seq is not None
                and session.next_seq > session.final_seq):
            session.state = QUEUED
        return session

    # -- timeouts / retry ---------------------------------------------------

    def tick(self, now: float) -> Tuple[List[Session], List[Session]]:
        """Advance the logical clock; returns (re-challenged, expired).

        A stalled chain (no activity for ``idle_timeout``) is
        re-challenged with a fresh nonce while attempts remain — the
        partial chain is discarded, because reports are bound to their
        challenge — and expired after the last attempt. Sessions that
        are already queued for verification are not expired: their
        chain is complete and the verdict is in flight.
        """
        rechallenged: List[Session] = []
        expired: List[Session] = []
        for session in self.sessions.values():
            if session.state not in (PENDING, STREAMING):
                continue
            if now - session.last_activity < self.idle_timeout:
                continue
            if session.attempt < self.max_attempts:
                session.attempt += 1
                session.challenge = self._fresh_challenge(
                    session.device_id, session.round_index, session.attempt)
                session.chunks = []
                session.reports = []
                session.buffered = {}
                session.next_seq = 0
                session.final_seq = None
                session.state = PENDING
                session.last_activity = now
                rechallenged.append(session)
            else:
                session.state = EXPIRED
                session.reject_reason = (
                    f"idle timeout after {session.attempt} attempt(s)")
                expired.append(session)
        return rechallenged, expired
