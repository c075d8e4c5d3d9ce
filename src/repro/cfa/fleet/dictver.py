"""Versioned speculation dictionaries and the epoch handshake.

SpecCFA-style compression only works when Prv and Vrf hold the *same*
dictionary; in a fleet whose dictionaries are re-mined from live
traffic that agreement has to be a protocol, not an assumption. This
module is the Vrf-side half of that protocol:

* :class:`DictionaryRegistry` — per device profile, a monotone
  sequence of :class:`DictEpoch` versions. Epoch 0 is always the empty
  dictionary (plain, uncompressed logs), so a device that never
  acknowledges anything keeps attesting exactly as before mining
  existed. Every published epoch is named by its number *and* the
  content digest of its canonical serialization, and old epochs stay
  resolvable forever — an evidence record naming ``(profile, epoch)``
  can always be re-expanded.

* :func:`spec_challenge` — the cryptographic pin. A session compressed
  under epoch ``e > 0`` answers ``H(nonce || epoch || digest)`` rather
  than the bare nonce, so its reports authenticate **only** against
  the exact dictionary version both sides agreed on: a chain
  compressed under any other epoch fails the challenge check at
  ingest, before any expansion is attempted — mismatched dictionaries
  can never be silently expanded into garbage replay.

* :func:`dack_mac` — the MAC a device puts on its ``DACK`` frame
  (under its attestation key), so a network adversary cannot re-pin a
  device to an epoch it does not hold.

With ``store_dir`` set the registry persists each epoch payload as one
file (atomic publish, like every other store in this repo) and reloads
the full epoch history on construction, so dictionary versions survive
Vrf restarts alongside the evidence log.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import List, Optional, Tuple

from repro.cfa.epochs import EpochRegistry
from repro.cfa.fleet.verify import DeviceProfile
from repro.crypto.mac import check, sign
from repro.cfa.speccfa import (
    EMPTY_DICTIONARY_DIGEST,
    SubPathDict,
    pack_dictionary,
    unpack_dictionary,
)

#: an epoch's payload, decoded once however many sessions, devices and
#: registries hold it (keyed by the payload bytes, so equal epochs share
#: one decoded dictionary, which callers must not mutate)
_decoded = lru_cache(maxsize=64)(unpack_dictionary)

#: nonce length of :meth:`repro.cfa.protocol.Challenge.derive`
_NONCE_LEN = 16


@dataclass(frozen=True)
class DictEpoch:
    """One immutable dictionary version for one device profile."""

    profile: DeviceProfile
    epoch: int
    digest: bytes
    payload: bytes

    @property
    def dictionary(self) -> SubPathDict:
        return _decoded(self.payload)

    @property
    def is_empty(self) -> bool:
        return self.epoch == 0


def spec_challenge(nonce: bytes, epoch: int, digest: bytes) -> bytes:
    """The challenge a session pinned to ``(epoch, digest)`` answers.

    Epoch 0 (no speculation) answers the bare nonce — byte-compatible
    with every pre-speculation device. Any later epoch folds the epoch
    number and the dictionary content digest into the challenge, so
    the report MACs (which cover the challenge field) bind the session
    to exactly one dictionary version.
    """
    if epoch == 0:
        return nonce
    return hashlib.sha256(
        b"spec-epoch|" + nonce + struct.pack("<I", epoch) + digest
    ).digest()[:_NONCE_LEN]


def _dack_signed(device_id: str, epoch: int, digest: bytes) -> bytes:
    return (b"dict-ack|" + device_id.encode() + struct.pack("<I", epoch)
            + digest)


def dack_mac(key: bytes, device_id: str, epoch: int,
             digest: bytes) -> bytes:
    """The MAC a device signs its dictionary acknowledgement with."""
    return sign(key, _dack_signed(device_id, epoch, digest))


class DictionaryRegistry(EpochRegistry[DictEpoch]):
    """Monotone, content-addressed dictionary versions per profile."""

    suffix = ".dict"
    noun = "dictionary"

    def _read(self, path: Path) -> DictEpoch:
        workload, method, epoch_str = path.stem.rsplit("__", 2)
        payload = path.read_bytes()
        entry = DictEpoch(profile=DeviceProfile(workload, method),
                          epoch=int(epoch_str),
                          digest=hashlib.sha256(payload).digest(),
                          payload=payload)
        entry.dictionary  # strict: refuse corrupt epochs (decoded once)
        return entry

    def _blob(self, entry: DictEpoch) -> bytes:
        return entry.payload

    def _epoch_zero(self, profile: DeviceProfile) -> DictEpoch:
        return DictEpoch(profile=profile, epoch=0,
                         digest=EMPTY_DICTIONARY_DIGEST,
                         payload=pack_dictionary({}))

    def _content(self, entry: DictEpoch) -> bytes:
        return entry.digest

    def publish(self, profile: DeviceProfile,
                dictionary: SubPathDict) -> DictEpoch:
        """Version a mined dictionary under the next epoch number.

        Publishing the byte-identical dictionary again returns the
        existing epoch instead of burning a new number, so repeated
        mining over unchanged traffic is idempotent.
        """
        if not dictionary:
            return self.get(profile, 0)
        payload = pack_dictionary(dictionary)
        digest = hashlib.sha256(payload).digest()
        return self._publish(profile, lambda epoch: DictEpoch(
            profile=profile, epoch=epoch, digest=digest, payload=payload))

    def bindings(self, profile: DeviceProfile) -> List[Tuple[int, bytes]]:
        """``(epoch, digest)`` pairs for stale-epoch diagnosis."""
        with self._lock:
            return [(e.epoch, e.digest)
                    for e in self._epochs.get(profile, [])]


def verify_dack(registry: DictionaryRegistry, profile: DeviceProfile,
                key: bytes, device_id: str, epoch: int, digest: bytes,
                mac: bytes) -> Optional[DictEpoch]:
    """Validate one decoded ``DACK`` frame against the registry.

    Returns the acknowledged epoch iff ``(epoch, digest)`` names a
    published dictionary *of the device's own profile* and the MAC
    verifies under the device's key; ``None`` otherwise (the caller
    counts and drops it).
    """
    try:
        entry = registry.get(profile, epoch)
    except KeyError:
        return None
    if entry.digest != digest or entry.epoch != epoch:
        return None
    if not check(key, mac, _dack_signed(device_id, epoch, digest)):
        return None
    return entry
