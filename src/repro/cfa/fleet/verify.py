"""Session verification behind the fleet service, in two steps done
once per session: :func:`authenticate_session` authenticates a chain
through :class:`~repro.cfa.streaming.StreamingVerifier`, expands and
digests it into one :class:`SessionStream` (which the `BNDS1` screen,
the replay cache, the evidence record and the traffic sampler all
read), and :func:`settle_session` replays that stream into a
:class:`SessionVerdict`, a pure picklable value.
:func:`verify_session_chain` runs both over wire bytes.

Worker processes rebuild the Vrf-side artifacts (linked image + bound
rewrite map) themselves from the device *profile*; the offline phase
is a pure function of ``(workload, method)`` (see ``eval/cache.py``),
so worker-built verifiers are identical to main-process ones. Built
artifacts are memoized per process in :data:`_ARTIFACTS`.
"""

from __future__ import annotations

import hashlib
import struct
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple, Union

from repro.cfa.cflog import Record
from repro.cfa.report import Report
from repro.cfa.speccfa import SpecRecord, SubPathDict, expand, expand_packed
from repro.cfa.streaming import StreamError, StreamingVerifier, decode_received
from repro.cfa.verifier import (
    NaiveVerifier,
    ReplayTable,
    ReplayVerifier,
    Verifier,
)
from repro.cfa.wire import WireError, decode_records
from repro.crypto.hashing import measure_image
from repro.eval.runner import prepare
from repro.workloads import load_workload


@dataclass(frozen=True)
class DeviceProfile:
    """What Vrf knows about a device model: which attested binary it
    runs and under which CFA method — enough to rebuild the verifier."""

    workload: str
    method: str = "rap-track"

    def __str__(self) -> str:
        return f"{self.workload}/{self.method}"


@dataclass(frozen=True)
class SessionVerdict:
    """The fleet-level outcome of one attestation session.

    Pure data: picklable across the worker pool and comparable, so two
    verification paths agreeing means their verdicts are ``==``. The
    replayed path is carried as a SHA-256 digest (plus its length) so
    a large fleet result stays small crossing process boundaries while
    still pinning the reconstruction bit-for-bit.
    """

    device_id: str
    profile: DeviceProfile
    accepted: bool
    authenticated: bool = False
    lossless: bool = False
    violations: Tuple[Tuple[str, int, str], ...] = ()
    reason: str = ""
    reports: int = 0
    records: int = 0
    path_len: int = 0
    path_digest: str = ""
    #: digest of the *expanded* (canonical) record stream the replay
    #: consumed — invariant under speculation-dictionary changes, so
    #: identical executions produce identical verdicts whether their
    #: logs crossed the wire compressed or plain
    records_digest: str = ""


def path_digest(path: Sequence[int]) -> str:
    """Order-sensitive digest of a replayed path: SHA-256 over its pcs
    as little-endian u32s (replay only walks 32-bit code addresses)."""
    return hashlib.sha256(struct.pack(f"<{len(path)}I", *path)).hexdigest()


def records_digest(packed: bytes) -> bytes:
    """SHA-256 over a record stream's wire bytes: the replay-cache key,
    the ``records_digest`` evidence field and the sampler's dedup key."""
    return hashlib.sha256(packed).digest()


@dataclass(frozen=True)
class _ReplaySummary:
    """The replay-derived half of a verdict (authentication excluded)."""

    lossless: bool
    violations: Tuple[Tuple[str, int, str], ...]
    error: str
    consumed: int
    path_len: int
    path_digest: str


#: memory budget of one replay cache's in-memory entries, as estimated
#: by :func:`_entry_bytes`; past it the least recently used entries
#: are evicted (an evicted chain is simply replayed again)
REPLAY_CACHE_BYTES = 1 << 17

#: estimated resident bytes of one entry apart from its error text and
#: violations (summary object, digests, key, LRU slot), and of one
#: violation apart from its two strings; measured with tracemalloc on
#: CPython 3.11 and rounded up
_ENTRY_BYTES = 768
_VIOLATION_BYTES = 160


def _entry_bytes(entry: _ReplaySummary) -> int:
    """Estimated resident size of one cached replay summary.

    A summary can carry up to :data:`MAX_VERDICT_VIOLATIONS` violations,
    so the estimate counts them: an entry count alone bounds no bytes.
    """
    return _ENTRY_BYTES + len(entry.error) + sum(
        _VIOLATION_BYTES + len(kind) + len(detail)
        for kind, _address, detail in entry.violations)


class ReplayCache:
    """Memoizes the replay of identical ``(profile, CFLog)`` chains.

    Fleet devices running the same firmware produce byte-identical
    CFLogs on honest runs, so the expensive lossless replay is shared
    across the fleet and keyed by a digest of the authenticated record
    stream. Only the replay is cached — authentication (MACs, nonce,
    ``H_MEM``, sequencing) is per-session by construction and always
    re-checked, so a cached entry can never launder a forged chain.
    Replay is a pure function of ``(verifier artifacts, records)``,
    which makes the memoization verdict-preserving — and eviction
    harmless. The entries are an LRU held within
    :data:`REPLAY_CACHE_BYTES`.
    """

    def __init__(self):
        #: (profile, key) -> (summary, estimated bytes), oldest first
        self._entries: "OrderedDict[Tuple[DeviceProfile, bytes], tuple]" \
            = OrderedDict()
        self._lock = threading.Lock()  # inline callers may share it
        self.hits = 0
        self.misses = 0
        #: estimated bytes of the entries held
        self.bytes = 0

    #: entries are keyed by the stream's :func:`records_digest` (an
    #: attribute of the class so perfbench/tracer.py can patch it)
    key = staticmethod(records_digest)

    def lookup(self, profile: DeviceProfile,
               key: bytes) -> Optional[_ReplaySummary]:
        with self._lock:
            entry = self._find(profile, key)
            if entry is None:
                self.misses += 1
            else:
                self.hits += 1
            return entry

    def store(self, profile: DeviceProfile, key: bytes,
              entry: _ReplaySummary) -> None:
        with self._lock:
            self._keep(profile, key, entry)

    def _find(self, profile: DeviceProfile,
              key: bytes) -> Optional[_ReplaySummary]:
        """The entry for ``(profile, key)``, now most recently used
        (the caller holds the lock)."""
        held = self._entries.get((profile, key))
        if held is None:
            return None
        self._entries.move_to_end((profile, key))
        return held[0]

    def _keep(self, profile: DeviceProfile, key: bytes,
              entry: _ReplaySummary) -> None:
        """Hold ``entry``, evicting the least recently used entries past
        the budget (the caller holds the lock)."""
        held = self._entries.pop((profile, key), None)
        if held is not None:
            self.bytes -= held[1]
        size = _entry_bytes(entry)
        if size > REPLAY_CACHE_BYTES:
            return
        self._entries[(profile, key)] = (entry, size)
        self.bytes += size
        while self.bytes > REPLAY_CACHE_BYTES:
            _slot, (_entry, evicted) = self._entries.popitem(last=False)
            self.bytes -= evicted


#: most violations a verdict carries — the first ones, in replay order.
#: A compromised app can drive replay to any number of violations, and
#: EVD1 counts them in a u16: the cap keeps every verdict persistable
#: (and its evidence record bounded) while ``records`` still tells
#: how long the rejected stream was
MAX_VERDICT_VIOLATIONS = 1024


def _summarize(outcome) -> _ReplaySummary:
    return _ReplaySummary(
        lossless=outcome.lossless,
        violations=tuple(
            (v.kind, v.address, v.detail)
            for v in outcome.violations[:MAX_VERDICT_VIOLATIONS]),
        error=outcome.error or "",
        consumed=outcome.consumed,
        path_len=len(outcome.path),
        path_digest=path_digest(outcome.path),
    )


# per-process memo of Vrf-side artifacts: profile -> (image, bound,
# replay table, expected H_MEM). The last two are pure functions of the
# image, derived here once per profile and never persisted: the offline
# artifact cache holds only (image, rewrite map)
_ARTIFACTS: Dict[DeviceProfile, tuple] = {}


def build_verifier(profile: DeviceProfile, key: bytes):
    """(Re)build the Vrf for a profile; its artifacts are memoized."""
    artifacts = _ARTIFACTS.get(profile)
    if artifacts is None:
        image, bound = prepare(load_workload(profile.workload),
                               profile.method)
        table = None if bound is None else ReplayTable(image, bound)
        artifacts = (image, bound, table, measure_image(image))
        _ARTIFACTS[profile] = artifacts
    image, bound, table, h_mem = artifacts
    if profile.method == "naive-mtb":
        return NaiveVerifier(image, key, expected_h_mem=h_mem)
    if bound is None:
        raise ValueError(f"method {profile.method!r} is not attestable")
    return Verifier(image, bound, key, table=table, expected_h_mem=h_mem)


@dataclass(frozen=True)
class SessionStream:
    """One session's authenticated chain, expanded and digested once."""

    verifier: ReplayVerifier
    records: Sequence[Record]
    packed: bytes
    digest: bytes
    reports: int


def authenticate_session(device_id: str, profile: DeviceProfile,
                         key: bytes, challenge: bytes,
                         reports: Iterable[Report],
                         dictionary: Optional[SubPathDict] = None
                         ) -> Union[SessionStream, SessionVerdict]:
    """Authenticate one session's decoded ``reports`` (in sequence
    order), then expand them through the session's pinned
    ``dictionary`` and digest the **expanded** stream, so compressed
    and plain sessions of one execution share a cached replay. Never
    raises: a chain that fails authentication or names an unknown
    sub-path comes back as its rejected verdict, and is never replayed.
    """
    try:
        verifier = build_verifier(profile, key)
    except Exception as exc:  # unknown workload/method in the profile
        return SessionVerdict(
            device_id=device_id, profile=profile, accepted=False,
            reason=f"no verifier for profile {profile}: {exc}")
    stream = StreamingVerifier(verifier, challenge)
    try:
        for report in reports:
            stream.feed(report)
        stream.close()
        records, packed = stream.records, b"".join(stream.packed)
        if dictionary or any(type(r) is SpecRecord for r in records):
            try:
                records = expand(records, dictionary or {})
            except ValueError as exc:
                raise StreamError(
                    f"speculation expansion failed: {exc}") from None
            packed = expand_packed(stream.records, packed, dictionary or {})
    except (WireError, StreamError) as exc:
        return SessionVerdict(
            device_id=device_id, profile=profile, accepted=False,
            reason=str(exc), reports=stream.partials_accepted)
    return SessionStream(verifier=verifier, records=records, packed=packed,
                         digest=ReplayCache.key(packed),
                         reports=stream.partials_accepted)


def settle_session(device_id: str, profile: DeviceProfile,
                   stream: SessionStream,
                   cache: Optional[ReplayCache] = None,
                   info: Optional[dict] = None) -> SessionVerdict:
    """The verdict on an authenticated session: its replay, shared
    through ``cache`` between identical streams (cached or not, the
    verdicts are ``==``). ``info["cache_hit"]`` receives a side-band
    fact the evidence store records but verdict equality ignores."""
    summary: Optional[_ReplaySummary] = None
    if cache is not None:
        summary = cache.lookup(profile, stream.digest)
        if info is not None:
            info["cache_hit"] = summary is not None
    if summary is None:
        summary = _summarize(stream.verifier.replay(stream.records))
        if cache is not None:
            cache.store(profile, stream.digest, summary)
    return SessionVerdict(
        device_id=device_id,
        profile=profile,
        # every report authenticated; ok = replay clean on top
        accepted=summary.lossless and not summary.violations,
        authenticated=True,
        lossless=summary.lossless,
        violations=summary.violations,
        reason=summary.error,
        reports=stream.reports,
        records=summary.consumed,
        path_len=summary.path_len,
        path_digest=summary.path_digest,
        records_digest=stream.digest.hex(),
    )


def verify_session_chain(device_id: str, profile: DeviceProfile, key: bytes,
                         challenge: bytes, chunks: Sequence[bytes],
                         cache: Optional[ReplayCache] = None,
                         info: Optional[dict] = None,
                         dictionary: Optional[SubPathDict] = None
                         ) -> SessionVerdict:
    """Verify one session chain from its wire-encoded reports, in
    sequence order, each decoded as authentication reaches it. Never
    raises (see :func:`authenticate_session` and
    :func:`settle_session`)."""
    stream = authenticate_session(device_id, profile, key, challenge,
                                  map(decode_received, chunks), dictionary)
    if isinstance(stream, SessionVerdict):
        return stream
    return settle_session(device_id, profile, stream, cache, info)


# the worker-side replay cache (one per process, like _ARTIFACTS)
_WORKER_CACHE = ReplayCache()


def pool_settle(device_id: str, profile: DeviceProfile, key: bytes,
                packed: bytes, digest: bytes, reports: int,
                use_cache: bool) -> Tuple[SessionVerdict, int, int]:
    """Worker-pool entry point: settle a session the service already
    authenticated, whose expanded stream crosses as wire bytes.
    Returns ``(verdict, cache_hits_delta, cache_misses_delta)``."""
    stream = SessionStream(
        verifier=build_verifier(profile, key),
        records=decode_records(packed), packed=packed, digest=digest,
        reports=reports)
    hits0, misses0 = _WORKER_CACHE.hits, _WORKER_CACHE.misses
    verdict = settle_session(device_id, profile, stream,
                             _WORKER_CACHE if use_cache else None)
    return (verdict, _WORKER_CACHE.hits - hits0,
            _WORKER_CACHE.misses - misses0)
