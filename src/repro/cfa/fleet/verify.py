"""The single session-verification primitive behind the fleet service.

One attestation *session* is a device's whole wire-encoded report
chain; verifying it means running the exact serial machinery —
:class:`~repro.cfa.streaming.StreamingVerifier` fed one report at a
time — and folding the outcome into a :class:`SessionVerdict`, a pure
picklable value. The in-process path and the worker-pool path both
call :func:`verify_session_chain`, so serial and concurrent fleet
verification cannot drift apart (the same discipline
``eval/parallel.py`` applies to evaluation cells).

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
from typing import Dict, Optional, Sequence, Tuple

from repro.cfa.speccfa import SpecRecord, SubPathDict, expand
from repro.cfa.streaming import StreamError, StreamingVerifier
from repro.cfa.verifier import NaiveVerifier, ReplayTable, Verifier
from repro.cfa.wire import WireError
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

    @staticmethod
    def key(records) -> bytes:
        return hashlib.sha256(
            b"".join(r.pack() for r in records)).digest()

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


def verify_session_chain(device_id: str, profile: DeviceProfile, key: bytes,
                         challenge: bytes, chunks: Sequence[bytes],
                         cache: Optional[ReplayCache] = None,
                         reports: Optional[Sequence] = None,
                         info: Optional[dict] = None,
                         dictionary: Optional[SubPathDict] = None
                         ) -> SessionVerdict:
    """Verify one complete session chain exactly as the serial Vrf would.

    ``chunks`` are the session's wire-encoded reports in sequence
    order; when the caller already decoded them (the session manager
    does, for its protocol pre-filters), passing the decoded twins as
    ``reports`` skips the redundant wire decode — decoding is
    deterministic, so both forms yield the same verdict.
    Authentication (MACs, challenge, ``H_MEM``, sequencing) always runs
    per session; with a ``cache``, only the pure replay step is shared
    between identical chains — the cached and uncached paths produce
    ``==`` verdicts. Never raises: wire damage and protocol violations
    come back as a rejected verdict so a poisoned session cannot take a
    worker (or the service thread) down with it.

    ``dictionary`` is the speculation dictionary of the session's
    pinned epoch: after authentication, speculated tokens in the
    record stream are expanded through it before replay. The replay
    cache is keyed by the digest of the **expanded** stream, so a
    compressed session and a plain session of the same execution
    share one cached replay — and produce ``==`` verdicts.

    ``info``, when supplied, receives side-band facts that must *not*
    influence verdict equality — currently ``info["cache_hit"]``, True
    iff the replay half came from the cache. The evidence store uses
    it to annotate (never skip) the record for a cache-served verdict.
    """
    try:
        verifier = build_verifier(profile, key)
    except Exception as exc:  # unknown workload/method in the profile
        return SessionVerdict(
            device_id=device_id, profile=profile, accepted=False,
            reason=f"no verifier for profile {profile}: {exc}")
    stream = StreamingVerifier(verifier, challenge)
    try:
        if reports is not None:
            for report in reports:
                stream.feed(report)
        else:
            for chunk in chunks:
                stream.feed_bytes(chunk)
        if not stream.finished:
            raise StreamError("final report not yet received")
        records = stream.records
        if dictionary or any(isinstance(r, SpecRecord) for r in records):
            # expansion only after every report authenticated; a token
            # naming an unknown sub-path (wrong/missing dictionary) is
            # an explicit rejection, never a silent mis-expansion
            try:
                records = expand(records, dictionary or {})
            except ValueError as exc:
                raise StreamError(
                    f"speculation expansion failed: {exc}") from None
        key_digest = ReplayCache.key(records)
        if cache is not None:
            summary = cache.lookup(profile, key_digest)
            if info is not None:
                info["cache_hit"] = summary is not None
            if summary is None:
                summary = _summarize(_replay(verifier, records))
                cache.store(profile, key_digest, summary)
        else:
            summary = _summarize(_replay(verifier, records))
    except (WireError, StreamError) as exc:
        return SessionVerdict(
            device_id=device_id, profile=profile, accepted=False,
            reason=str(exc), reports=stream.partials_accepted)
    return SessionVerdict(
        device_id=device_id,
        profile=profile,
        # every report authenticated on feed; ok = replay clean on top
        accepted=summary.lossless and not summary.violations,
        authenticated=True,
        lossless=summary.lossless,
        violations=summary.violations,
        reason=summary.error,
        reports=len(chunks),
        records=summary.consumed,
        path_len=summary.path_len,
        path_digest=summary.path_digest,
        records_digest=key_digest.hex(),
    )


def _replay(verifier, records):
    """Replay an authenticated (and expanded) record stream."""
    outcome = verifier.replay(records)
    outcome.authenticated = True  # each report was checked on feed
    return outcome


# the worker-side replay cache (one per process, like _ARTIFACTS)
_WORKER_CACHE = ReplayCache()


def pool_verify(device_id: str, profile: DeviceProfile, key: bytes,
                challenge: bytes, chunks: Sequence[bytes],
                use_cache: bool,
                dictionary: Optional[SubPathDict] = None
                ) -> Tuple[SessionVerdict, int, int]:
    """Worker-pool entry point (module-level for pickling).

    Returns ``(verdict, cache_hits_delta, cache_misses_delta)`` so the
    service can aggregate worker-side cache effectiveness.
    """
    cache = _WORKER_CACHE if use_cache else None
    hits0, misses0 = _WORKER_CACHE.hits, _WORKER_CACHE.misses
    verdict = verify_session_chain(
        device_id, profile, key, challenge, chunks, cache=cache,
        dictionary=dictionary)
    return (verdict, _WORKER_CACHE.hits - hits0,
            _WORKER_CACHE.misses - misses0)

