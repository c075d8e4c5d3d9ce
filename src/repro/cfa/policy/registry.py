"""The firmware/attestation registry: signed, versioned policy documents.

A :class:`PolicyDoc` pins, for one device profile, the set of firmware
measurements (``H_MEM`` values) a Vrf is willing to accept — one of
them distinguished as the *pinned* image the healing protocol
re-provisions — plus an explicit revocation list. Documents are
versioned exactly like speculation dictionaries
(:class:`~repro.cfa.fleet.dictver.DictionaryRegistry`): monotone,
content-addressed policy epochs, one immutable file per epoch, gapless
strict reload, idempotent republish. Epoch 0 is the permissive
document (no pins, nothing revoked) — a fleet that never publishes
policy behaves exactly as before this layer existed.

Unlike dictionaries, policy documents are *authority*: each one
carries an HMAC under the Vrf's policy key
(:func:`policy_key`, derived from the service seed like the evidence
audit key), verified on every reload — a tampered policy store refuses
to load rather than silently admitting revoked firmware.

**Byte layout** (little-endian, ``lp x`` = ``u32 len(x) || x``)::

    doc  := b"FWP1" u8 version lp workload lp method u32 epoch
            lp pinned u16 n_allowed (lp measurement)*
            u16 n_revoked (lp measurement)*
    file := doc mac[32]          # mac = HMAC-SHA256(K_policy, doc)
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple, Union

from repro.cfa.epochs import EpochRegistry
from repro.cfa.fleet.verify import DeviceProfile
from repro.codec import Reader, Writer
from repro.crypto.mac import check, sign

POLICY_MAGIC = b"FWP1"
POLICY_VERSION = 1
_MAC_LEN = 32

#: evaluation outcomes of :meth:`PolicyRegistry.evaluate`
ALLOWED = "allowed"
REVOKED_FW = "revoked"
UNPINNED = "unpinned"
UNKNOWN_PROFILE = "unknown-profile"


class PolicyError(Exception):
    """A policy document failed verification or violated monotonicity."""


def policy_key(seed: bytes) -> bytes:
    """The Vrf-side policy-signing key derived from the service seed."""
    return hashlib.sha256(b"policy-sign|" + seed).digest()


def pack_policy(profile: DeviceProfile, epoch: int, pinned: bytes,
                allowed: Tuple[bytes, ...],
                revoked: Tuple[bytes, ...]) -> bytes:
    """Canonical serialization of one policy document (the MAC input)."""
    out = Writer(PolicyError).raw(POLICY_MAGIC).u8(POLICY_VERSION)
    out.lp(profile.workload).lp(profile.method).u32(epoch).lp(pinned)
    for measurements in (allowed, revoked):
        out.u16(len(measurements))
        for measurement in measurements:
            out.lp(measurement)
    return out.getvalue()


def unpack_policy(payload: bytes
                  ) -> Tuple[DeviceProfile, int, bytes,
                             Tuple[bytes, ...], Tuple[bytes, ...]]:
    """Strictly parse one canonical policy document."""
    reader = Reader(payload, PolicyError, "policy document")
    reader.header(POLICY_MAGIC, "policy document", POLICY_VERSION)
    workload = reader.lp_str()
    method = reader.lp_str()
    epoch = reader.u32()
    pinned = reader.lp_bytes()
    allowed = tuple(reader.lp_bytes() for _ in range(reader.u16()))
    revoked = tuple(reader.lp_bytes() for _ in range(reader.u16()))
    reader.done("trailing bytes after policy document")
    return DeviceProfile(workload, method), epoch, pinned, allowed, revoked


@dataclass(frozen=True)
class PolicyDoc:
    """One immutable, signed policy version for one device profile."""

    profile: DeviceProfile
    epoch: int
    pinned: bytes                  # the image healing re-provisions
    allowed: Tuple[bytes, ...]     # acceptable measurements (incl. pinned)
    revoked: Tuple[bytes, ...]     # measurements that hard-quarantine
    payload: bytes                 # canonical serialization
    digest: bytes                  # sha256(payload): the content address
    mac: bytes                     # HMAC-SHA256(K_policy, payload)

    @property
    def is_permissive(self) -> bool:
        return self.epoch == 0


class PolicyRegistry(EpochRegistry[PolicyDoc]):
    """Monotone, content-addressed, MAC'd policy versions per profile."""

    suffix = ".pol"
    noun = "policy"
    error = PolicyError

    def __init__(self, key: bytes,
                 store_dir: Optional[Union[str, os.PathLike]] = None):
        self.key = key
        super().__init__(store_dir)

    def _doc(self, payload: bytes) -> PolicyDoc:
        profile, epoch, pinned, allowed, revoked = unpack_policy(payload)
        return PolicyDoc(
            profile=profile, epoch=epoch, pinned=pinned, allowed=allowed,
            revoked=revoked, payload=payload,
            digest=hashlib.sha256(payload).digest(),
            mac=sign(self.key, payload))

    def _read(self, path: Path) -> PolicyDoc:
        blob = path.read_bytes()
        if len(blob) < _MAC_LEN:
            raise PolicyError(f"policy file {path.name} too short")
        payload, mac = blob[:-_MAC_LEN], blob[-_MAC_LEN:]
        if not check(self.key, mac, payload):
            raise PolicyError(
                f"policy file {path.name} failed MAC verification")
        return self._doc(payload)

    def _blob(self, entry: PolicyDoc) -> bytes:
        return entry.payload + entry.mac

    def _epoch_zero(self, profile: DeviceProfile) -> PolicyDoc:
        return self._doc(pack_policy(profile, 0, b"", (), ()))

    def _content(self, entry: PolicyDoc) -> tuple:
        return entry.pinned, entry.allowed, entry.revoked

    def publish(self, profile: DeviceProfile, pinned: bytes,
                allowed: Tuple[bytes, ...] = (),
                revoked: Tuple[bytes, ...] = ()) -> PolicyDoc:
        """Sign and version a policy document under the next epoch.

        ``pinned`` is always acceptable; ``allowed`` lists additional
        acceptable measurements and ``revoked`` the banned ones (a
        measurement cannot be both). Publishing content identical to
        the current latest is idempotent.
        """
        if pinned in revoked:
            raise PolicyError("pinned measurement cannot be revoked")
        full_allowed = tuple(sorted({pinned, *allowed} - set(revoked)))
        revoked = tuple(sorted(set(revoked)))
        return self._publish(profile, lambda epoch: self._doc(pack_policy(
            profile, epoch, pinned, full_allowed, revoked)))

    def revoke(self, profile: DeviceProfile,
               measurement: bytes) -> PolicyDoc:
        """Publish a new epoch with ``measurement`` moved to the
        revocation list (the pinned image cannot be revoked — publish a
        new pin first)."""
        latest = self.latest(profile)
        if latest.is_permissive:
            raise PolicyError(
                f"profile {profile} has no published policy to revoke "
                f"a measurement from")
        if measurement == latest.pinned:
            raise PolicyError("cannot revoke the pinned measurement; "
                              "publish a new pin first")
        return self.publish(
            profile, latest.pinned,
            allowed=tuple(m for m in latest.allowed if m != measurement),
            revoked=tuple(sorted({*latest.revoked, measurement})))

    def profiles(self) -> List[DeviceProfile]:
        with self._lock:
            return sorted(self._epochs,
                          key=lambda p: (p.workload, p.method))

    def evaluate(self, profile: DeviceProfile,
                 measurement: bytes) -> str:
        """Judge one firmware measurement under the latest policy.

        Returns :data:`ALLOWED`, :data:`REVOKED_FW`, :data:`UNPINNED`
        (a document exists but does not list the measurement), or
        :data:`UNKNOWN_PROFILE` (no document published — permissive by
        design, so fleets without policy behave exactly as before).
        An empty measurement is always :data:`UNKNOWN_PROFILE`: records
        predating measurement capture cannot be judged.
        """
        if not measurement:
            return UNKNOWN_PROFILE
        latest = self.latest(profile)
        if latest.is_permissive:
            return UNKNOWN_PROFILE
        if measurement in latest.revoked:
            return REVOKED_FW
        if measurement in latest.allowed:
            return ALLOWED
        return UNPINNED
