"""Shard the fleet Vrf: a consistent-hash router over worker shards.

One :class:`FleetService` owns every session in a fleet; past a few
hundred thousand devices that single protocol brain (and its lock)
is the bottleneck. :class:`ShardedFleetService` partitions the fleet
by device id: a :class:`HashRing` routes each device to exactly one
shard, and each shard is a full ``FleetService`` owning its devices'
sessions, nonces, reorder windows, replay cache, and evidence log —
no state is shared across shards, so shards can run their own worker
pools (or, with the handoff framing in :mod:`repro.cfa.wire`, in
separate processes) without coordination.

Three properties make sharding invisible to verdicts, all pinned by
``tests/test_fleet_sharding.py``:

* **device-scoped nonces** — challenges derive from
  ``(seed, device id, round, attempt)`` rather than a global counter,
  so the challenge a device answers (and hence every wire byte and
  every evidence digest) is independent of shard count;
* **one owner per device** — the ring maps a device id to exactly one
  shard, so session state is never split or duplicated;
* **per-device evidence chains** — each device's hash chain threads
  only through its own records, so the chain head is invariant to how
  devices interleave inside (or across) shard logs.

Consistent hashing keeps resharding cheap: adding a shard to an
``n``-shard ring remaps only ~``1/(n+1)`` of the keyspace, and every
remapped device lands on the *new* shard — an existing shard never
inherits devices from another existing shard, so their evidence logs
and session state stay put.

With ``store_dir`` set, each shard appends to its own evidence log
(``evidence-NN.log``) and all shards share one content-addressed
replay-cache directory (atomic single-file publishes make concurrent
writers safe, exactly like the offline-artifact cache). Constructing
with ``resume=True`` replays the evidence logs — truncating at most
one torn tail per shard — and restores every released verdict and
every device's nonce round before new traffic is admitted: the
crash-recovery protocol of docs/internals.md §9.
"""

from __future__ import annotations

import bisect
import hashlib
import os
import time
from pathlib import Path
from types import SimpleNamespace
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.cfa.fleet.dictver import DictEpoch, DictionaryRegistry
from repro.cfa.fleet.metrics import FleetMetrics, aggregate_metrics
from repro.cfa.fleet.mining import TrafficSampler
from repro.cfa.fleet.service import FleetService
from repro.cfa.fleet.store import DurableReplayCache, EvidenceStore
from repro.cfa.fleet.verify import DeviceProfile, SessionVerdict
from repro.cfa.policy.engine import PolicyEngine
from repro.cfa.policy.recovery import write_recovery_manifest
from repro.cfa.policy.registry import PolicyRegistry, policy_key
from repro.cfa.protocol import Challenge
from repro.cfa.wire import (
    SHARD_KIND_DACK,
    SHARD_KIND_DICT,
    SHARD_KIND_HEAL,
    SHARD_KIND_PLCY,
    SHARD_KIND_REPORT,
    decode_shard_frame,
    encode_shard_frame,
)


def audit_key(seed: bytes) -> bytes:
    """The Vrf-side evidence-MAC key derived from the service seed."""
    return hashlib.sha256(b"evidence-audit|" + seed).digest()


class HashRing:
    """Consistent hashing of device ids onto shard ids.

    Each shard contributes ``vnodes`` pseudo-random points on a
    64-bit ring; a device routes to the owner of the first point at or
    after its own hash (wrapping). More vnodes smooth the load split
    and the remap fraction at the cost of a larger (still tiny) ring.
    """

    def __init__(self, shard_count: int, vnodes: int = 64,
                 shard_ids: Optional[Sequence[int]] = None):
        if vnodes < 1:
            raise ValueError("need at least one vnode per shard")
        if shard_ids is None:
            if shard_count < 1:
                raise ValueError("need at least one shard")
            shard_ids = tuple(range(shard_count))
        else:
            # an explicit member set: what a ring looks like after
            # decommissions — shard ids need not be contiguous
            shard_ids = tuple(sorted(set(shard_ids)))
            if not shard_ids:
                raise ValueError("need at least one shard")
        self.shard_ids = shard_ids
        self.shard_count = len(shard_ids)
        self.vnodes = vnodes
        points: List[Tuple[int, int]] = []
        for shard in shard_ids:
            for vnode in range(vnodes):
                points.append((self._point(
                    f"shard:{shard}:vnode:{vnode}".encode()), shard))
        points.sort()
        self._points = [p for p, _ in points]
        self._owners = [s for _, s in points]

    @staticmethod
    def _point(data: bytes) -> int:
        return int.from_bytes(hashlib.sha256(data).digest()[:8], "big")

    def route(self, device_id: str) -> int:
        """The shard that owns ``device_id``."""
        here = self._point(b"device:" + device_id.encode())
        index = bisect.bisect_right(self._points, here)
        if index == len(self._points):  # wrap past the last point
            index = 0
        return self._owners[index]

    def remove(self, shard: int) -> "HashRing":
        """The ring after decommissioning ``shard``.

        A removed shard's vnode points vanish; every one of its keys
        falls through to the next surviving point. Keys owned by the
        survivors never move (their owning points are untouched) — the
        mirror of the add-a-shard property, pinned by the removal
        property test in ``tests/test_fleet_sharding.py``.
        """
        if shard not in self.shard_ids:
            raise ValueError(f"shard {shard} is not on the ring")
        return HashRing(
            0, vnodes=self.vnodes,
            shard_ids=[s for s in self.shard_ids if s != shard])


class ShardedFleetService:
    """N fleet shards behind one consistent-hash router.

    Presents the same surface as :class:`FleetService` (``open_session``
    / ``submit`` / ``tick`` / ``drain`` / ``close`` / ``verdicts``), so
    the simulator, the CLI, and the benchmarks drive either
    interchangeably. Every submit crosses the shard boundary through
    the wire handoff framing — encode at the router, decode at the
    shard — so the path a multi-process deployment would take is the
    path that is tested.
    """

    def __init__(self, shards: int = 2,
                 store_dir: Optional[Union[str, os.PathLike]] = None,
                 seed: bytes = b"fleet-vrf",
                 workers: int = 0,
                 idle_timeout: float = 30.0,
                 reorder_window: int = 8,
                 max_attempts: int = 2,
                 max_sessions: Optional[int] = None,
                 replay_cache: bool = True,
                 fsync: bool = True,
                 resume: bool = False,
                 vnodes: int = 64,
                 sampler: bool = False,
                 policy: bool = False,
                 key_lookup=None,
                 suspect_threshold: int = 2,
                 max_heal_attempts: int = 2,
                 bounds=None):
        self.ring = HashRing(shards, vnodes=vnodes)
        self.seed = seed
        self.audit_key = audit_key(seed)
        self.store_dir = Path(store_dir) if store_dir is not None else None
        # dictionary versions are fleet-wide, not per shard: one shared
        # registry (persisted beside the evidence logs when durable) so
        # every shard resolves the same (profile, epoch) -> dictionary
        self.registry = DictionaryRegistry(
            self.store_dir / "dicts" if self.store_dir is not None else None)
        # the policy control plane is likewise fleet-wide: one signed
        # firmware registry and one quarantine engine shared by every
        # shard. Devices are disjoint across shards, so the per-store
        # policy folds compose into the fleet-wide engine state.
        self.policy_registry: Optional[PolicyRegistry] = None
        self.policy: Optional[PolicyEngine] = None
        if policy:
            self.policy_registry = PolicyRegistry(
                policy_key(seed),
                self.store_dir / "policy"
                if self.store_dir is not None else None)
            self.policy = PolicyEngine(
                registry=self.policy_registry,
                suspect_threshold=suspect_threshold,
                max_heal_attempts=max_heal_attempts)
        self.stores: List[Optional[EvidenceStore]] = []
        self.shards: List[FleetService] = []
        t0 = time.perf_counter()
        recovered = 0
        for shard_id in range(shards):
            store = None
            cache: Union[bool, DurableReplayCache] = replay_cache
            if self.store_dir is not None:
                store = EvidenceStore(
                    self.store_dir / f"evidence-{shard_id:02d}.log",
                    self.audit_key, fsync=fsync)
                if replay_cache:
                    # one shared CAS directory: atomic publishes make
                    # cross-shard (and cross-process) writers safe
                    cache = DurableReplayCache(self.store_dir / "replay")
            service = FleetService(
                workers=workers, seed=seed, idle_timeout=idle_timeout,
                reorder_window=reorder_window, max_attempts=max_attempts,
                max_sessions=max_sessions, replay_cache=cache,
                store=store, nonce_scope="device",
                registry=self.registry, sampler=sampler,
                policy=self.policy, key_lookup=key_lookup,
                bounds=bounds)
            if store is not None and store.recovered:
                if not resume:
                    raise ValueError(
                        f"evidence log {store.path} already has "
                        f"{len(store.recovered)} record(s); pass "
                        f"resume=True to recover or use a fresh "
                        f"store_dir")
                recovered += service.restore(store.recovered)
            self.stores.append(store)
            self.shards.append(service)
        self.recovered_verdicts = recovered
        if self.store_dir is not None:
            # the operator's map of what on this disk is authoritative
            # state vs cache, and how to rebuild the control plane
            write_recovery_manifest(self.store_dir)
        self._recovery_s = time.perf_counter() - t0 if resume else 0.0
        self._started = time.perf_counter()

    # -- the FleetService surface -------------------------------------------

    @property
    def manager(self) -> SimpleNamespace:
        """Protocol constants view (what the simulator consults); the
        real per-device state lives in each shard's own manager."""
        first = self.shards[0].manager
        return SimpleNamespace(
            idle_timeout=first.idle_timeout,
            max_attempts=first.max_attempts,
            reorder_window=first.reorder_window,
        )

    def shard_of(self, device_id: str) -> int:
        return self.ring.route(device_id)

    def open_session(self, device_id: str, profile: DeviceProfile,
                     key: bytes, now: float = 0.0) -> Challenge:
        return self.shards[self.ring.route(device_id)].open_session(
            device_id, profile, key, now)

    def submit(self, device_id: str, data: bytes, now: float = 0.0) -> None:
        """Route one report to its owning shard via the handoff frame."""
        shard_id = self.ring.route(device_id)
        frame = encode_shard_frame(shard_id, device_id, data)
        framed_shard, framed_device, kind, payload = \
            decode_shard_frame(frame)
        assert kind == SHARD_KIND_REPORT
        self.shards[framed_shard].submit(framed_device, payload, now)

    def tick(self, now: float) -> List[Tuple[str, Challenge]]:
        """Advance every shard's logical clock; merge re-challenges."""
        out: List[Tuple[str, Challenge]] = []
        for service in self.shards:
            out.extend(service.tick(now))
        return out

    @property
    def verdicts(self) -> Dict[str, SessionVerdict]:
        merged: Dict[str, SessionVerdict] = {}
        for service in self.shards:
            merged.update(service.verdicts)
        return merged

    def evidence_heads(self) -> Dict[str, bytes]:
        """device id -> evidence-chain head digest, fleet-wide."""
        merged: Dict[str, bytes] = {}
        for store in self.stores:
            if store is not None:
                merged.update(store.heads())
        return merged

    # -- adaptive speculation (router surface) ------------------------------

    def traffic_samples(self) -> Dict[DeviceProfile, list]:
        """Fleet-wide miner input: per-shard samplers merged into one
        sample, so the miner sees the whole fleet's traffic weights."""
        samplers = [s.sampler for s in self.shards if s.sampler is not None]
        if not samplers:
            return {}
        merged = TrafficSampler.merge(samplers)
        return {profile: merged.sample(profile)
                for profile in merged.profiles()}

    def publish_dictionary(self, profile: DeviceProfile,
                           dictionary) -> DictEpoch:
        """One publish in the shared registry; every shard resolves the
        new epoch immediately (the registry is the shared truth)."""
        return self.registry.publish(profile, dictionary)

    def dictionary_pushes(
            self, profile: Optional[DeviceProfile] = None
    ) -> List[Tuple[str, bytes]]:
        """``(device_id, DICT frame)`` fleet-wide. Each push crosses
        the shard handoff framing (kind ``DICT``) exactly like a report
        submit does, so the multi-process path is the tested path."""
        pushes: List[Tuple[str, bytes]] = []
        for shard_id, service in enumerate(self.shards):
            for device_id, payload in service.dictionary_pushes(profile):
                frame = encode_shard_frame(
                    shard_id, device_id, payload, kind=SHARD_KIND_DICT)
                framed_shard, framed_device, kind, inner = \
                    decode_shard_frame(frame)
                assert kind == SHARD_KIND_DICT and framed_shard == shard_id
                pushes.append((framed_device, inner))
        return pushes

    def ingest_dack(self, device_id: str, data: bytes,
                    now: float = 0.0) -> bool:
        """Route a device's ``DACK`` to its owning shard (kind ``DACK``
        handoff frame); the shard validates MAC and registry binding."""
        shard_id = self.ring.route(device_id)
        frame = encode_shard_frame(
            shard_id, device_id, data, kind=SHARD_KIND_DACK)
        framed_shard, framed_device, kind, payload = \
            decode_shard_frame(frame)
        assert kind == SHARD_KIND_DACK
        return self.shards[framed_shard].ingest_dack(
            framed_device, payload, now)

    def acked_epoch(self, device_id: str, profile: DeviceProfile) -> int:
        return self.shards[self.ring.route(device_id)].acked_epoch(
            device_id, profile)

    # -- policy control plane (router surface) ------------------------------

    def policy_states(self) -> Dict[str, str]:
        """device id -> lifecycle state name, fleet-wide."""
        return self.policy.state_names() if self.policy else {}

    def begin_heal(self, device_id: str,
                   now: float = 0.0) -> Optional[Tuple[str, bytes]]:
        """Heal one quarantined device at its owning shard."""
        return self.shards[self.ring.route(device_id)].begin_heal(
            device_id, now)

    def heal_pushes(self, now: float = 0.0) -> List[Tuple[str, bytes]]:
        """One fleet-wide healing round. The engine is shared, so the
        router — not the shards — enumerates quarantined devices and
        routes each heal to the shard that owns the device's sessions;
        each order crosses the ``HEAL`` handoff framing like every
        other shard-bound byte."""
        if self.policy is None:
            return []
        pushes: List[Tuple[str, bytes]] = []
        for device_id in self.policy.quarantined_devices():
            shard_id = self.ring.route(device_id)
            push = self.shards[shard_id].begin_heal(device_id, now)
            if push is None:
                continue
            frame = encode_shard_frame(
                shard_id, push[0], push[1], kind=SHARD_KIND_HEAL)
            framed_shard, framed_device, kind, inner = \
                decode_shard_frame(frame)
            assert kind == SHARD_KIND_HEAL and framed_shard == shard_id
            pushes.append((framed_device, inner))
        return pushes

    def resume_heals(self, now: float = 0.0) -> List[Tuple[str, bytes]]:
        """Re-issue standing heal orders after a restart, each at its
        owning shard (no new decisions are minted)."""
        if self.policy is None:
            return []
        pushes: List[Tuple[str, bytes]] = []
        for device_id in self.policy.healing_devices():
            shard_id = self.ring.route(device_id)
            push = self.shards[shard_id].resume_heal(device_id, now)
            if push is None:
                continue
            frame = encode_shard_frame(
                shard_id, push[0], push[1], kind=SHARD_KIND_HEAL)
            framed_shard, framed_device, kind, inner = \
                decode_shard_frame(frame)
            assert kind == SHARD_KIND_HEAL and framed_shard == shard_id
            pushes.append((framed_device, inner))
        return pushes

    def policy_pushes(self) -> List[Tuple[str, bytes]]:
        """Drain pending lifecycle notices fleet-wide (kind ``PLCY``
        handoff frames; each notice is MAC'd by the owning shard under
        the device's key)."""
        if self.policy is None:
            return []
        pushes: List[Tuple[str, bytes]] = []
        for device_id, state, reason, epoch in self.policy.take_notices():
            shard_id = self.ring.route(device_id)
            payload = self.shards[shard_id].policy_notice_frame(
                device_id, state, reason, epoch)
            if payload is None:
                continue
            frame = encode_shard_frame(
                shard_id, device_id, payload, kind=SHARD_KIND_PLCY)
            framed_shard, framed_device, kind, inner = \
                decode_shard_frame(frame)
            assert kind == SHARD_KIND_PLCY and framed_shard == shard_id
            pushes.append((framed_device, inner))
        return pushes

    def drain(self) -> FleetMetrics:
        for service in self.shards:
            service.drain()
        return self.metrics

    def close(self) -> FleetMetrics:
        for service in self.shards:
            service.close()
        return self.metrics

    @property
    def metrics(self) -> FleetMetrics:
        return aggregate_metrics(
            [s.metrics for s in self.shards],
            wall_s=time.perf_counter() - self._started,
            recovery_s=self._recovery_s)

    def __enter__(self) -> "ShardedFleetService":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
