"""Mine hot sub-paths from live fleet traffic (the Vrf-side learner).

The static :func:`repro.cfa.speccfa.mine_subpaths` only catches
*tandem* repeats (a loop body repeating back-to-back); real CFLogs are
full of hot sub-paths that recur **non**-adjacently — an inner-loop
body separated by data-dependent records, a helper call sequence, a
sensor-poll idiom — which a fixed tandem dictionary leaves
uncompressed. This miner closes that gap with the machinery the fleet
tier already provides:

* :class:`TrafficSampler` — a bounded, deduplicating tap on the
  authenticated record streams of *accepted* sessions. Identical
  executions across the fleet (the common case: same firmware, same
  inputs) collapse to one exemplar stream with a session count, so the
  sample a 10k-device fleet feeds the miner stays tiny while its
  weights still reflect live traffic volume.

* :func:`mine_fleet_dictionary` — n-gram frequency mining over the
  sampled streams, profit-scored by **measured** bytes saved: a
  candidate sub-path enters the dictionary only if actually
  compressing the weighted sample with it saves at least
  ``min_gain_bytes`` beyond what the already-chosen sub-paths save.
  Greedy selection with measured marginal gain makes the usual n-gram
  pathology (ten overlapping shifts of the same hot loop all scoring
  high, then shadowing each other) self-correcting.

Everything is deterministic for a fixed traffic sample: streams are
visited in sorted digest order and candidates are ranked with a full
tiebreak on their canonical serialization, so two Vrf replicas (or a
restarted one) mine byte-identical dictionaries — which is what makes
dictionary *epochs* content-addressable in the first place.
"""

from __future__ import annotations

import hashlib
import threading
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cfa.cflog import Record
from repro.cfa.fleet.verify import DeviceProfile
from repro.cfa.speccfa import SubPathDict, compress

#: one weighted exemplar: (record stream, sessions observed)
WeightedStream = Tuple[Tuple[Record, ...], int]


def _stream_bytes(records: Sequence[Record]) -> int:
    return sum(r.size_bytes for r in records)


def _stream_digest(records: Sequence[Record]) -> bytes:
    return hashlib.sha256(b"".join(r.pack() for r in records)).digest()


@dataclass
class ProfileSample:
    """The deduplicated traffic sample for one device profile."""

    #: stream digest -> exemplar record tuple (bounded by max_streams)
    streams: Dict[bytes, Tuple[Record, ...]] = field(default_factory=dict)
    #: stream digest -> sessions observed (bounded by max_digests;
    #: cold digests — and their exemplars — are evicted deterministically
    #: when the bound is hit)
    counts: Counter = field(default_factory=Counter)
    sessions: int = 0
    bytes_observed: int = 0


class TrafficSampler:
    """Bounded per-profile tap on accepted sessions' record streams.

    Both maps are hard-bounded, so a fleet of adversarially-diverse
    streams cannot grow Vrf memory without limit: at most
    ``max_streams`` exemplar record tuples are retained per profile,
    and the dedup-count map holds at most ``max_digests`` entries
    (default ``4 * max_streams``) — one 32-byte digest plus one int
    each, so the per-profile footprint is a few KiB however many
    distinct executions the fleet produces. When a new digest would
    exceed the cap, the *coldest* existing entry is evicted
    deterministically — minimum count, ties broken by lexicographically
    smallest digest, the newcomer itself never evicted — and its
    exemplar (if retained) is dropped with it. Evictions are counted
    (:attr:`evictions`, surfaced as ``sampler_evictions`` in
    :class:`~repro.cfa.fleet.metrics.FleetMetrics`); an evicted hot
    path that stays hot simply re-enters with a fresh count.
    """

    def __init__(self, max_streams: int = 64,
                 max_digests: Optional[int] = None):
        if max_streams < 1:
            raise ValueError("max_streams must be >= 1")
        self.max_streams = max_streams
        self.max_digests = (max(max_streams, max_digests)
                            if max_digests is not None
                            else 4 * max_streams)
        self.evictions = 0
        self._lock = threading.Lock()
        self._profiles: Dict[DeviceProfile, ProfileSample] = {}

    def _evict_coldest(self, sample: ProfileSample,
                       keep: bytes) -> None:
        """Deterministically evict the coldest digest (never ``keep``)."""
        victim = min(
            (d for d in sample.counts if d != keep),
            key=lambda d: (sample.counts[d], d))
        del sample.counts[victim]
        sample.streams.pop(victim, None)
        self.evictions += 1

    def observe(self, profile: DeviceProfile,
                records: Sequence[Record],
                digest: Optional[bytes] = None) -> None:
        """Absorb one accepted session's (expanded) record stream."""
        if digest is None:
            digest = _stream_digest(records)
        with self._lock:
            sample = self._profiles.setdefault(profile, ProfileSample())
            sample.sessions += 1
            sample.bytes_observed += _stream_bytes(records)
            sample.counts[digest] += 1
            while len(sample.counts) > self.max_digests:
                self._evict_coldest(sample, digest)
            if (digest in sample.counts
                    and digest not in sample.streams
                    and len(sample.streams) < self.max_streams):
                sample.streams[digest] = tuple(records)

    def sample(self, profile: DeviceProfile) -> List[WeightedStream]:
        """The weighted exemplar streams for one profile, in sorted
        digest order (the miner's deterministic input)."""
        with self._lock:
            sample = self._profiles.get(profile)
            if sample is None:
                return []
            return [(sample.streams[d], sample.counts[d])
                    for d in sorted(sample.streams)]

    def profiles(self) -> List[DeviceProfile]:
        with self._lock:
            return sorted(self._profiles,
                          key=lambda p: (p.workload, p.method))

    def sessions_observed(self, profile: DeviceProfile) -> int:
        with self._lock:
            sample = self._profiles.get(profile)
            return sample.sessions if sample else 0

    @staticmethod
    def merge(samplers: Sequence["TrafficSampler"]) -> "TrafficSampler":
        """Fold per-shard samplers into one fleet-wide sample (counts
        sum; both bounds apply to the merged set — the merged map is
        trimmed back to ``max_digests`` by the same coldest-first
        rule)."""
        merged = TrafficSampler(
            max_streams=max((s.max_streams for s in samplers), default=64),
            max_digests=max((s.max_digests for s in samplers),
                            default=None) or None)
        for sampler in samplers:
            with sampler._lock:
                items = list(sampler._profiles.items())
            for profile, sample in items:
                out = merged._profiles.setdefault(profile, ProfileSample())
                out.sessions += sample.sessions
                out.bytes_observed += sample.bytes_observed
                out.counts.update(sample.counts)
                for digest in sorted(sample.streams):
                    if (digest not in out.streams
                            and len(out.streams) < merged.max_streams):
                        out.streams[digest] = sample.streams[digest]
        for out in merged._profiles.values():
            while len(out.counts) > merged.max_digests:
                coldest = min(out.counts,
                              key=lambda d: (out.counts[d], d))
                del out.counts[coldest]
                out.streams.pop(coldest, None)
                merged.evictions += 1
        return merged


def _weighted_bytes(streams: Sequence[WeightedStream],
                    dictionary: SubPathDict) -> int:
    """Total wire bytes of the sample compressed under ``dictionary``."""
    if not dictionary:
        return sum(w * _stream_bytes(records) for records, w in streams)
    return sum(w * _stream_bytes(compress(list(records), dictionary))
               for records, w in streams)


def mine_fleet_dictionary(streams: Sequence[WeightedStream],
                          max_len: int = 8,
                          top_k: int = 16,
                          min_gain_bytes: int = 16,
                          candidate_pool: int = 96) -> SubPathDict:
    """Mine a speculation dictionary from weighted fleet traffic.

    Candidate sub-paths are every n-gram of length 2..``max_len``
    occurring in the sample, ranked by an upper-bound profit score
    ``(pattern bytes - token bytes) x weighted occurrences``; the top
    ``candidate_pool`` survivors are then admitted greedily, each one
    kept only if the **measured** compressed size of the whole sample
    drops by at least ``min_gain_bytes``. Because a token costs 4
    bytes and every pattern is at least 4 bytes, the mined dictionary
    can never expand a stream — profit is structurally non-negative.

    Deterministic: independent of stream order, candidate hash order,
    and dict iteration order.
    """
    ordered = sorted(streams,
                     key=lambda sw: _stream_digest(sw[0]))
    gains: Counter = Counter()
    for records, weight in ordered:
        n = len(records)
        for length in range(2, max_len + 1):
            for i in range(n - length + 1):
                gains[records[i:i + length]] += weight
    candidates = sorted(
        gains.items(),
        key=lambda kv: (-(_stream_bytes(kv[0]) - 4) * kv[1],
                        b"".join(r.pack() for r in kv[0])))
    candidates = [(pattern, count) for pattern, count in candidates
                  if (_stream_bytes(pattern) - 4) * count
                  >= min_gain_bytes][:candidate_pool]
    chosen: List[Tuple[Record, ...]] = []
    current_bytes = _weighted_bytes(ordered, {})
    for pattern, _count in candidates:
        if len(chosen) >= top_k:
            break
        trial = sorted(
            chosen + [pattern],
            key=lambda p: (-len(p), b"".join(r.pack() for r in p)))
        trial_bytes = _weighted_bytes(
            ordered, {i: p for i, p in enumerate(trial)})
        if current_bytes - trial_bytes >= min_gain_bytes:
            chosen = trial
            current_bytes = trial_bytes
    # longest-first ids so greedy compression prefers long matches,
    # with the serialization tiebreak keeping ids deterministic
    chosen.sort(key=lambda p: (-len(p), b"".join(r.pack() for r in p)))
    return {path_id: pattern for path_id, pattern in enumerate(chosen)}


def mining_gain(streams: Sequence[WeightedStream],
                dictionary: SubPathDict) -> int:
    """Measured profit: weighted sample bytes saved by ``dictionary``
    (non-negative by construction)."""
    return (_weighted_bytes(streams, {})
            - _weighted_bytes(streams, dictionary))


def learn_dictionaries(service, profiles=None, max_len: int = 8,
                       top_k: int = 16, min_gain_bytes: int = 16):
    """One fleet learning round: mine and publish per-profile epochs.

    ``service`` is the fleet front end,
    :class:`~repro.cfa.fleet.shard.ShardedFleetService` (any shard
    count), whose ``traffic_samples()`` and ``publish_dictionary()``
    are the learning surface. Returns ``profile -> DictEpoch`` for
    every profile whose mined dictionary was worth publishing. Pushing
    the new epochs to devices (and ingesting their ACKs) is the
    transport's job — see ``dictionary_pushes`` / ``ingest_dack`` on
    the front end.
    """
    samples = service.traffic_samples()
    published = {}
    for profile in sorted(samples, key=lambda p: (p.workload, p.method)):
        if profiles is not None and profile not in profiles:
            continue
        streams = samples[profile]
        if not streams:
            continue
        dictionary = mine_fleet_dictionary(
            streams, max_len=max_len, top_k=top_k,
            min_gain_bytes=min_gain_bytes)
        if not dictionary:
            continue
        published[profile] = service.publish_dictionary(profile, dictionary)
    return published
