"""The replay cache is an LRU held within a byte budget.

A summary can carry :data:`MAX_VERDICT_VIOLATIONS` violations, so the
budget is counted in estimated bytes rather than entries. Eviction is
harmless: replay is a pure function of the chain, so an evicted chain
replays again to an ``==`` verdict, and the hit and miss counters
count every lookup exactly once.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.cfa.fleet import (
    ChainFactory,
    DeviceProfile,
    DeviceSpec,
    DurableReplayCache,
    ReplayCache,
    device_key,
    verify_session_chain,
)
from repro.cfa.fleet import verify
from repro.cfa.fleet.verify import (
    MAX_VERDICT_VIOLATIONS,
    _entry_bytes,
    _ReplaySummary,
)

FIBCALL = DeviceProfile("fibcall")
BUDGET = 1 << 20


@pytest.fixture(autouse=True)
def budget(monkeypatch):
    monkeypatch.setattr(verify, "REPLAY_CACHE_BYTES", BUDGET)


@pytest.fixture(scope="module")
def factory():
    return ChainFactory(watermark=256)


def flood_summary(index: int) -> _ReplaySummary:
    """A summary as violation-heavy as a verdict may get."""
    violations = tuple(
        ("rop-return", 0x1000 + i,
         f"return to {0x2000 + i + index:#010x}, "
         f"call site expected {0x3000 + i:#010x}")
        for i in range(MAX_VERDICT_VIOLATIONS))
    return _ReplaySummary(
        lossless=True, violations=violations, error="", consumed=index,
        path_len=index, path_digest=f"{index:064x}")


def key_of(index: int) -> bytes:
    return hashlib.sha256(b"flood-%d" % index).digest()


@pytest.mark.parametrize("cache_type", [ReplayCache, DurableReplayCache])
def test_violation_floods_stay_within_budget(cache_type, tmp_path):
    cache = (cache_type(tmp_path) if cache_type is DurableReplayCache
             else cache_type())
    for index in range(40):
        cache.store(FIBCALL, key_of(index), flood_summary(index))
        assert cache.bytes <= BUDGET
    held = [entry for entry, _ in cache._entries.values()]
    assert 0 < len(held) < 40
    assert cache.bytes == sum(_entry_bytes(entry) for entry in held)
    # the newest entries survive, the oldest were evicted
    assert cache.lookup(FIBCALL, key_of(39)) == flood_summary(39)
    if cache_type is ReplayCache:
        assert cache.lookup(FIBCALL, key_of(0)) is None
        assert (cache.hits, cache.misses) == (1, 1)
    else:
        # the durable cache re-reads an evicted entry from disk, and
        # keeps no second in-memory copy of every summary
        assert cache.lookup(FIBCALL, key_of(0)) == flood_summary(0)
        assert (cache.hits, cache.misses, cache.disk_hits) == (2, 0, 1)
        assert not cache._cas._memory
        assert cache.bytes <= BUDGET


def test_entry_larger_than_budget_is_not_kept(monkeypatch):
    monkeypatch.setattr(verify, "REPLAY_CACHE_BYTES", 4096)
    cache = ReplayCache()
    cache.store(FIBCALL, key_of(0), flood_summary(0))
    assert cache.bytes == 0 and not cache._entries
    assert cache.lookup(FIBCALL, key_of(0)) is None


def test_recently_used_entry_survives():
    cache = ReplayCache()
    cache.store(FIBCALL, key_of(0), flood_summary(0))
    for index in range(1, 40):
        assert cache.lookup(FIBCALL, key_of(0)) is not None  # touch
        cache.store(FIBCALL, key_of(index), flood_summary(index))
    assert cache.lookup(FIBCALL, key_of(0)) == flood_summary(0)
    assert cache.lookup(FIBCALL, key_of(1)) is None


def test_evicted_chain_replays_to_equal_verdict(factory):
    device = "prv-0"
    nonce = b"lru-test-nonce"
    chunks = factory.chain(DeviceSpec(device, FIBCALL, "honest"), nonce)
    cache = ReplayCache()

    def check(expect_hit: bool):
        info = {}
        verdict = verify_session_chain(
            device, FIBCALL, device_key(device), nonce, chunks,
            cache=cache, info=info)
        assert info["cache_hit"] is expect_hit
        return verdict

    first = check(False)
    assert first.accepted
    assert check(True) == first
    for index in range(40):  # push the chain's entry out
        cache.store(FIBCALL, key_of(index), flood_summary(index))
    assert check(False) == first
    assert check(True) == first
    assert (cache.hits, cache.misses) == (2, 2)
    uncached = verify_session_chain(
        device, FIBCALL, device_key(device), nonce, chunks)
    assert uncached == first
