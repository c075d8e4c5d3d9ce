"""The per-shard core of the fleet Vrf.

:class:`FleetService` multiplexes one shard's device sessions over the
wire codec. Fleet-wide operations — healing rounds, lifecycle notices,
traffic mining, dictionary publishing — live only in the front end,
:class:`~repro.cfa.fleet.shard.ShardedFleetService`, which with
``shards=1`` is the unsharded service. The split of responsibilities
inside a core:

* the :class:`~repro.cfa.fleet.session.SessionManager` does the cheap,
  strictly-ordered protocol bookkeeping (challenges, replay
  protection, sequence tracking, expiry) on the caller's thread;
* a completed chain is authenticated, expanded and digested once, on
  the submitting thread, into one
  :class:`~repro.cfa.fleet.verify.SessionStream` that the `BNDS1`
  screen, the replay cache, the evidence record and the traffic
  sampler all read; a chain that fails authentication is settled as
  rejected right there;
* the expensive part — losslessly replaying an authenticated stream —
  is fanned out across a worker pool (``workers > 1``), or run inline
  for ``workers <= 1``; both run
  :func:`~repro.cfa.fleet.verify.settle_session`, so verdicts are
  identical by construction.

The pool is a ``ProcessPoolExecutor``: real multi-core parallelism,
at a per-session pickle/IPC toll that only extra cores amortize.
Inline verification shares the replay cache and the in-process
artifact memo, and is the faster choice on a single core.

**Backpressure**: at most ``max_pending`` chains may be in flight to
the pool; when the bound is hit, ``submit`` of a chain-completing
report *blocks* the ingest thread until a worker frees a slot — the
overload propagates to the transport instead of growing an unbounded
queue. Admission control is separate: with ``max_sessions`` set,
``open_session`` refuses new devices (``FleetOverloadError``) once
that many sessions are active.

All timing used for protocol decisions is an explicit logical clock
(``now``) supplied by the caller, so tests and the simulator are
deterministic; only the performance metrics touch the wall clock.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.cfa.fleet.dictver import DictionaryRegistry, verify_dack
from repro.cfa.fleet.metrics import FleetMetrics
from repro.cfa.fleet.mining import TrafficSampler
from repro.cfa.fleet.store import EvidenceStore, chain_digest
from repro.cfa.fleet.session import (
    EXPIRED,
    QUEUED,
    REJECTED,
    VERIFIED,
    Session,
    SessionManager,
)
from repro.cfa.fleet.verify import (
    DeviceProfile,
    ReplayCache,
    SessionStream,
    SessionVerdict,
    authenticate_session,
    pool_settle,
    settle_session,
)
from repro.cfa.policy.engine import (
    ACT_HEAL,
    ACT_HEAL_FAIL,
    ACT_QUARANTINE,
    ACT_RECOVER,
    ACT_REJOIN,
    ACT_REVOKE,
    ACT_SUSPECT,
    PolicyDeniedError,
    PolicyEngine,
)
from repro.cfa.policy.heal import build_heal_frame, build_policy_frame

#: decision action -> FleetMetrics counter name
_DECISION_COUNTERS = {
    ACT_SUSPECT: "suspects",
    ACT_QUARANTINE: "quarantines",
    ACT_RECOVER: "recoveries",
    ACT_HEAL: "heals_started",
    ACT_HEAL_FAIL: "heals_failed",
    ACT_REJOIN: "rejoins",
    ACT_REVOKE: "revocations",
}
from repro.cfa.protocol import Challenge
from repro.cfa.wire import WireError, decode_dack_frame, encode_dict_frame
from repro.core.analysis.certificate import BoundsRegistry, screen_records

# not called here: perfbench/tracer.py patches these names in this module
from repro.cfa.fleet.verify import verify_session_chain  # noqa: F401
from repro.cfa.speccfa import expand  # noqa: F401


class FleetService:
    """Session-multiplexing verification core of one fleet shard."""

    def __init__(self, workers: int = 0,
                 seed: bytes = b"fleet-vrf",
                 idle_timeout: float = 30.0,
                 reorder_window: int = 8,
                 max_attempts: int = 2,
                 max_sessions: Optional[int] = None,
                 max_pending: Optional[int] = None,
                 replay_cache: Union[bool, ReplayCache] = True,
                 store: Optional[EvidenceStore] = None,
                 registry: Optional[DictionaryRegistry] = None,
                 sampler: Union[bool, TrafficSampler, None] = None,
                 policy: Optional[PolicyEngine] = None,
                 key_lookup: Optional[Callable[[str], bytes]] = None,
                 bounds: Optional[BoundsRegistry] = None):
        #: policy control plane: when set, every settled session feeds
        #: the quarantine engine's fold, its decisions are persisted in
        #: the evidence chain, and admission control applies (shared
        #: with sibling shards when the router injects one engine —
        #: devices are disjoint across shards, so per-store folds
        #: compose)
        self.policy = policy
        #: device id -> attestation key, for policy/heal pushes to
        #: devices with no session on file (e.g. right after a restart)
        self._key_lookup = key_lookup
        #: `BNDS1` certificates for the fleet's firmware images: when
        #: set, a completed chain whose claimed log length or inferred
        #: stack depth exceeds the image's pinned static bound is
        #: rejected at admission — before any replay work is spent —
        #: with an evidence record like any other verdict
        self.bounds = bounds
        #: speculation-dictionary versions this Vrf knows (shared with
        #: sibling shards when the router injects one registry)
        self.registry = registry or DictionaryRegistry()
        #: live-traffic tap feeding the sub-path miner; None = no
        #: sampling (the default: sampling costs one digest per
        #: accepted session)
        if sampler is True:
            sampler = TrafficSampler()
        self.sampler: Optional[TrafficSampler] = sampler or None
        #: device id -> last ACKed dictionary epoch for its profile
        self._acks: Dict[Tuple[str, DeviceProfile], int] = {}
        self.manager = SessionManager(
            seed=seed, idle_timeout=idle_timeout,
            reorder_window=reorder_window, max_attempts=max_attempts,
            max_sessions=max_sessions,
            epoch_bindings=self.registry.bindings)
        self.workers = max(0, workers)
        # replay_cache may be a ready-made cache instance (e.g. a
        # DurableReplayCache over a shared CAS directory) or a bool
        if isinstance(replay_cache, ReplayCache):
            self.use_replay_cache = True
            self._cache: Optional[ReplayCache] = replay_cache
        else:
            self.use_replay_cache = bool(replay_cache)
            self._cache = ReplayCache() if replay_cache else None
        #: durable evidence log; when set, every verdict is fsync'd
        #: into the hash chain *before* it is released
        self.store = store
        self.metrics = FleetMetrics(workers=self.workers)
        self.verdicts: Dict[str, SessionVerdict] = {}
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._inflight = 0
        self._worker_hits = 0    # process-pool cache deltas (remote caches)
        self._worker_misses = 0
        self._pool: Optional[ProcessPoolExecutor] = None
        self._slots: Optional[threading.BoundedSemaphore] = None
        if self.workers > 1:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
            self._slots = threading.BoundedSemaphore(
                max_pending or 4 * self.workers)
        self._started = time.perf_counter()

    # -- session lifecycle --------------------------------------------------

    def open_session(self, device_id: str, profile: DeviceProfile,
                     key: bytes, now: float = 0.0) -> Challenge:
        """Admit a device, issue its challenge (raises FleetOverloadError
        at the ``max_sessions`` admission limit).

        The session is pinned, for its whole lifetime, to the
        dictionary epoch the device last acknowledged (epoch 0 until a
        first ACK arrives): a push landing mid-session changes nothing
        until the device's next session.

        With a policy engine attached, QUARANTINED / HEALING / REVOKED
        devices are refused (:class:`PolicyDeniedError`) — the only
        session such a device may own is the one :meth:`begin_heal`
        opens for it.
        """
        with self._lock:
            if self.policy is not None and not self.policy.admits(device_id):
                self.metrics.sessions_denied += 1
                raise PolicyDeniedError(self.policy.deny_reason(device_id))
            try:
                session = self._open_locked(device_id, profile, key, now)
            except Exception:
                self.metrics.sessions_refused += 1
                raise
            return session.challenge

    def _open_locked(self, device_id: str, profile: DeviceProfile,
                     key: bytes, now: float,
                     healing: bool = False) -> Session:
        """Open a session pinned to the device's last ACKed epoch."""
        epoch = self._acks.get((device_id, profile), 0)
        session = self.manager.open(
            device_id, profile, key, now,
            dict_epoch=self.registry.get(profile, epoch))
        session.healing = healing
        self.metrics.sessions_opened += 1
        return session

    def submit(self, device_id: str, data: bytes, now: float = 0.0) -> None:
        """Ingest one wire-encoded report from a device.

        Cheap protocol checks happen inline; a report that completes
        its session's chain authenticates it, screens it and dispatches
        its replay (possibly blocking on backpressure — see the module
        docstring).
        """
        with self._lock:
            if self.policy is not None and not self.policy.admits(device_id):
                # blocked devices land nothing — except into the healing
                # session the protocol itself opened for them
                session = self.manager.sessions.get(device_id)
                if session is None or not session.active:
                    self.metrics.reports_denied += 1
                    return
            self.metrics.reports_ingested += 1
            self.metrics.bytes_ingested += len(data)
            before_ignored = self.manager.reports_ignored
            before_dup = self.manager.duplicates_dropped
            session = self.manager.ingest(device_id, data, now)
            self.metrics.reports_ignored += (
                self.manager.reports_ignored - before_ignored)
            self.metrics.duplicates_dropped += (
                self.manager.duplicates_dropped - before_dup)
            if session is None:
                return
            if session.state == REJECTED and session.verdict is None:
                self._reject_locked(session, session.reject_reason)
                return
        if session.state == QUEUED:
            self._dispatch(session)

    def tick(self, now: float) -> List[Tuple[str, Challenge]]:
        """Advance the logical clock: expire idle sessions, re-challenge
        stalled ones. Returns ``(device_id, fresh_challenge)`` pairs the
        transport should deliver to the stalled devices."""
        with self._lock:
            rechallenged, expired = self.manager.tick(now)
            self.metrics.sessions_retried += len(rechallenged)
            for session in expired:
                self._reject_locked(session, session.reject_reason)
            return [(s.device_id, s.challenge) for s in rechallenged]

    # -- crash recovery -----------------------------------------------------

    def restore(self, records) -> int:
        """Rebuild released state from recovered evidence records.

        Each *session* record is one settled session: its verdict
        re-enters the verdict map (latest round wins) and the device's
        round counter advances, so device-scoped nonce derivation
        resumes exactly where the crashed process stopped — settled
        devices get fresh challenges, interrupted ones re-derive their
        pre-crash nonce. With a policy engine attached, the mixed
        (session + policy) stream then re-runs the policy fold — every
        device's lifecycle state comes back, and decisions a crash lost
        (derived but never appended) are re-appended byte-identically.
        Returns the number of verdicts restored. The replay cache is
        not rebuilt here: a :class:`DurableReplayCache` re-warms
        lazily from its own content-addressed files.
        """
        records = list(records)
        session_records = [r for r in records
                           if not getattr(r, "is_policy", False)]
        rounds: Dict[str, int] = {}
        with self._lock:
            for record in session_records:
                self.verdicts[record.device_id] = record.to_verdict()
                rounds[record.device_id] = rounds.get(
                    record.device_id, 0) + 1
            self.manager.restore_rounds(rounds)
            self.metrics.sessions_recovered += len(session_records)
        if self.policy is not None:
            replayed, repaired = self.policy.restore(records,
                                                     store=self.store)
            with self._lock:
                self.metrics.policy_decisions += replayed + repaired
                self._store_metrics_locked()
        return len(session_records)

    # -- adaptive speculation: epoch handshake ------------------------------

    def dictionary_pushes(
            self, profile: Optional[DeviceProfile] = None
    ) -> List[Tuple[str, bytes]]:
        """``(device_id, DICT frame)`` for every known device lagging
        the latest published epoch of its profile.

        "Known" means the device has opened a session with this Vrf at
        some point; the transport delivers the frames and feeds signed
        ``DACK`` replies back through :meth:`ingest_dack`. A device
        that never ACKs simply keeps receiving the offer — and keeps
        attesting under its pinned (possibly 0) epoch.
        """
        pushes: List[Tuple[str, bytes]] = []
        with self._lock:
            devices = [(d, s.profile)
                       for d, s in self.manager.sessions.items()]
        for device_id, dev_profile in sorted(devices):
            if profile is not None and dev_profile != profile:
                continue
            latest = self.registry.latest(dev_profile)
            if latest.is_empty:
                continue
            acked = self._acks.get((device_id, dev_profile), 0)
            if acked >= latest.epoch:
                continue
            frame = encode_dict_frame(
                dev_profile.workload, dev_profile.method,
                latest.epoch, latest.digest, latest.payload)
            pushes.append((device_id, frame))
        with self._lock:
            self.metrics.dict_pushes += len(pushes)
        return pushes

    def ingest_dack(self, device_id: str, data: bytes,
                    now: float = 0.0) -> bool:
        """Absorb one wire-encoded ``DACK`` frame from a device.

        The acknowledged epoch must name a published dictionary of the
        device's own profile and the MAC must verify under the device's
        attestation key; anything else is counted and dropped (a
        network adversary cannot re-pin a device). A valid ACK moves
        the device's pin — its *next* session opens under the new
        epoch; the current one stays on the epoch it was opened with.
        """
        with self._lock:
            session = self.manager.sessions.get(device_id)
            entry = None
            try:
                acked_id, epoch, digest, mac = decode_dack_frame(data)
                # no session on file means no key to check the MAC with
                if acked_id == device_id and session is not None:
                    entry = verify_dack(self.registry, session.profile,
                                        session.key, device_id, epoch,
                                        digest, mac)
            except WireError:
                pass
            if entry is None:
                self.metrics.dict_acks_rejected += 1
                return False
            pin = (device_id, entry.profile)
            # monotone: a replayed older ACK can never roll a device back
            if entry.epoch <= self._acks.get(pin, 0):
                return True
            self._acks[pin] = entry.epoch
            self.metrics.dict_acks += 1
            return True

    def acked_epoch(self, device_id: str, profile: DeviceProfile) -> int:
        """The dictionary epoch this device last acknowledged."""
        with self._lock:
            return self._acks.get((device_id, profile), 0)

    # -- policy control plane: quarantine + guaranteed healing --------------

    def _count_decision_locked(self, decision) -> None:
        self.metrics.policy_decisions += 1
        counter = _DECISION_COUNTERS.get(decision.action)
        if counter is not None:
            setattr(self.metrics, counter,
                    getattr(self.metrics, counter) + 1)

    def _device_key_locked(self, device_id: str) -> Optional[bytes]:
        session = self.manager.sessions.get(device_id)
        if session is not None:
            return session.key
        if self._key_lookup is not None:
            return self._key_lookup(device_id)
        return None

    def begin_heal(self, device_id: str,
                   now: float = 0.0) -> Optional[Tuple[str, bytes]]:
        """Issue a heal order for one quarantined device.

        Persists + applies the QUARANTINED -> HEALING decision, opens
        the device's healing session (admission control does not apply:
        the protocol itself owns this session) and returns the
        ``(device_id, HEAL frame)`` the transport must deliver. The
        frame orders the device to re-provision the policy-pinned
        firmware and answer a fresh challenge; the session's evidence
        record carries the healing flag, so the fold judges the rejoin.
        ``None`` when the device is not eligible (not quarantined, out
        of attempts, or no attestation key on file).
        """
        if self.policy is None:
            return None
        with self._lock:
            key = self._device_key_locked(device_id)
            if key is None:
                return None
            decision = self.policy.begin_heal(device_id)
            if decision is None:
                return None
            if self.store is not None:
                self.store.append_decision(decision)
                self._store_metrics_locked()
            self.policy.apply(decision)
            self._count_decision_locked(decision)
            session = self._open_locked(device_id, decision.profile, key,
                                        now, healing=True)
            frame = build_heal_frame(
                key, device_id, decision.heal_attempt,
                decision.policy_epoch, decision.measurement,
                session.challenge.nonce)
        return (device_id, frame)

    def resume_heal(self, device_id: str,
                    now: float = 0.0) -> Optional[Tuple[str, bytes]]:
        """Re-issue one standing heal order after a restart (idempotent).

        A device the evidence log shows as HEALING already burned its
        attempt; no new decision is minted. Its healing session is
        re-opened — device-scoped nonces make the re-derived challenge
        identical to the pre-crash one, so a device that already
        answered can simply retransmit — and the HEAL frame is rebuilt
        from the engine's standing order. A device whose healing
        session is still live is re-framed without reopening.
        """
        if self.policy is None:
            return None
        order = self.policy.heal_order(device_id)
        if order is None:
            return None
        attempt, policy_epoch, measurement, profile = order
        with self._lock:
            key = self._device_key_locked(device_id)
            if key is None:
                return None
            session = self.manager.sessions.get(device_id)
            if session is None or not session.active:
                session = self._open_locked(device_id, profile, key, now,
                                            healing=True)
            frame = build_heal_frame(
                key, device_id, attempt, policy_epoch, measurement,
                session.challenge.nonce)
        return (device_id, frame)

    def policy_notice_frame(self, device_id: str, state: int,
                            reason: str, epoch: int) -> Optional[bytes]:
        """Build one PLCY lifecycle notice (MAC'd under the device key
        so a device can reject forged quarantine notices); ``None``
        when no key is on file."""
        with self._lock:
            key = self._device_key_locked(device_id)
            if key is None:
                return None
            self.metrics.policy_notices += 1
            return build_policy_frame(key, device_id, state, reason, epoch)

    # -- admission pre-check: certified path bounds ------------------------

    def _screen_bounds(self, session: Session,
                       stream: SessionStream) -> Optional[str]:
        """Screen an authenticated chain against its image's `BNDS1`
        bound.

        Purely a fast-path rejection: the certificate is pinned to one
        image digest, so the screen only applies when the chain claims
        exactly that measurement (a wrong measurement is replay's /
        the policy registry's business), and only ever *rejects* —
        passing the screen proves nothing, replay stays authoritative.
        """
        cert = self.bounds.get(session.profile.workload,
                               session.profile.method)
        if cert is None or session.reports[0].h_mem != cert.image_digest:
            return None
        return screen_records(cert, stream.records)

    # -- verification fan-out -----------------------------------------------

    def _dispatch(self, session: Session) -> None:
        t0 = time.perf_counter()
        stream = authenticate_session(
            session.device_id, session.profile, session.key,
            session.bound_challenge, session.reports, session.dictionary)
        if isinstance(stream, SessionVerdict):  # never screened or replayed
            self._record(session, stream, time.perf_counter() - t0)
            return
        if self.bounds is not None:
            reason = self._screen_bounds(session, stream)
            if reason is not None:
                with self._lock:
                    self.metrics.sessions_bounds_rejected += 1
                    self._reject_locked(session, reason)
                return
        if self._pool is None:
            info: Dict[str, bool] = {}
            verdict = settle_session(session.device_id, session.profile,
                                     stream, cache=self._cache, info=info)
            self._record(session, verdict, time.perf_counter() - t0,
                         cache_hit=info.get("cache_hit", False),
                         stream=stream)
            return
        self._slots.acquire()  # backpressure: block until a slot frees
        with self._lock:
            self._inflight += 1
            self.metrics.queue_depth += 1
            self.metrics.queue_depth_max = max(
                self.metrics.queue_depth_max, self.metrics.queue_depth)
        # the expanded stream crosses the process boundary as bytes
        future = self._pool.submit(
            pool_settle, session.device_id, session.profile, session.key,
            stream.packed, stream.digest, stream.reports,
            self.use_replay_cache)
        future.add_done_callback(
            lambda fut: self._harvest(session, t0, fut, stream))

    def _harvest(self, session: Session, t0: float, future: Future,
                 stream: SessionStream) -> None:
        self._slots.release()
        hits = misses = 0
        try:
            verdict, hits, misses = future.result()
        except Exception as exc:  # worker death / pickling failure
            verdict = SessionVerdict(
                device_id=session.device_id, profile=session.profile,
                accepted=False,
                reason=f"verifier worker failed: "
                       f"{type(exc).__name__}: {exc}")
        # process workers report the hit as a counter delta
        cache_hit = hits > 0
        with self._lock:
            self.metrics.queue_depth -= 1
            self._inflight -= 1
            self._worker_hits += hits
            self._worker_misses += misses
            self.metrics.verify_latencies_s.append(
                time.perf_counter() - t0)
            self._record_locked(session, verdict, cache_hit=cache_hit,
                                stream=stream)
            if self._inflight == 0:
                self._idle.notify_all()

    def _store_metrics_locked(self) -> None:
        if self.store is not None:
            self.metrics.evidence_records = self.store.records_appended
            self.metrics.evidence_bytes = self.store.bytes_appended
            self.metrics.evidence_fsyncs = self.store.fsyncs

    def _reject_locked(self, session: Session, reason: str) -> None:
        """Settle a session rejected before replay."""
        self._record_locked(session, SessionVerdict(
            device_id=session.device_id, profile=session.profile,
            accepted=False, reason=reason, reports=len(session.chunks)))

    def _record(self, session: Session, verdict: SessionVerdict,
                latency_s: float, cache_hit: bool = False,
                stream: Optional[SessionStream] = None) -> None:
        with self._lock:
            self.metrics.verify_latencies_s.append(latency_s)
            self._record_locked(session, verdict, cache_hit=cache_hit,
                                stream=stream)

    def _record_locked(self, session: Session, verdict: SessionVerdict,
                       cache_hit: bool = False,
                       stream: Optional[SessionStream] = None) -> None:
        # durability first: the evidence record (cache hits included —
        # a replayed verdict is still a verdict) must be fsync'd into
        # the hash chain before anything observes the verdict. If the
        # append fails the verdict is withheld, never half-released.
        measurement = session.reports[0].h_mem if session.reports else b""
        record = None
        if self.store is not None:
            record = self.store.append(
                verdict,
                chain=chain_digest(session.chunks),
                challenge=session.challenge.nonce,
                cache_hit=cache_hit,
                expired=session.state == EXPIRED,
                epoch=session.epoch,
                measurement=measurement,
                healing=session.healing,
            )
            self._store_metrics_locked()
        if self.sampler is not None and stream is not None \
                and verdict.accepted:
            self.sampler.observe(session.profile, stream.records,
                                 digest=stream.digest)
        if self.policy is not None:
            # the fold's input is the *persisted* record (live and
            # crash-recovery paths thus run the same code over the same
            # bytes); with no store attached, an equivalent observation
            if record is None:
                record = SimpleNamespace(
                    device_id=session.device_id, profile=session.profile,
                    accepted=verdict.accepted, reason=verdict.reason,
                    violations=tuple(verdict.violations),
                    measurement=measurement, healing=session.healing)
            decisions = self.policy.observe(record)
            for decision in decisions:
                if self.store is not None:
                    self.store.append_decision(decision)
                self._count_decision_locked(decision)
            if decisions:
                self._store_metrics_locked()
        session.verdict = verdict
        if session.state == EXPIRED:
            self.metrics.sessions_expired += 1
        elif verdict.accepted:
            session.state = VERIFIED
            self.metrics.sessions_verified += 1
        else:
            session.state = REJECTED
            session.reject_reason = session.reject_reason or verdict.reason
            self.metrics.sessions_rejected += 1
        self.verdicts[session.device_id] = verdict
        # cache totals = the shared in-process cache plus worker deltas
        local_hits = self._cache.hits if self._cache else 0
        local_misses = self._cache.misses if self._cache else 0
        self.metrics.replay_cache_hits = self._worker_hits + local_hits
        self.metrics.replay_cache_misses = self._worker_misses + local_misses

    # -- draining / shutdown ------------------------------------------------

    def drain(self) -> FleetMetrics:
        """Wait for every in-flight verification; refresh wall metrics."""
        with self._idle:
            self._idle.wait_for(lambda: self._inflight == 0)
        self.metrics.wall_s = time.perf_counter() - self._started
        return self.metrics

    def close(self) -> FleetMetrics:
        metrics = self.drain()
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self.store is not None:
            self.store.close()
        return metrics

    def __enter__(self) -> "FleetService":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
