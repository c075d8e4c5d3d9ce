"""Differential battery: compiled replay against the per-step oracle.

:class:`~repro.cfa.verifier.Verifier` replays deterministic code as
precompiled runs (:class:`~repro.cfa.verifier.ReplayTable`). Its
contract is exactness: on every record stream, error paths included,
``lossless``, ``error``, ``consumed``, ``max_shadow_depth``,
``violations`` and the full ``path`` equal what the per-step replay in
``replay_reference.py`` produces. The battery checks that on every
honest and attack execution of the registry workloads under RAP-Track
and TRACES, on the mined gadget chains, and on hypothesis-mutated
streams with step guards small enough to cut runs in the middle.
"""

from __future__ import annotations

import functools
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.traces import TracesEngine
from repro.cfa.cflog import AddressRecord, BranchRecord, LoopRecord
from repro.cfa.engine import RapTrackEngine
from repro.cfa.verifier import (
    DEFAULT_MAX_STEPS,
    EXIT_SENTINEL,
    ReplayTable,
    Verifier,
)
from repro.core.analysis import synthesize_chains
from repro.eval.runner import prepare
from repro.tz.keystore import KeyStore
from repro.workloads import WORKLOADS, load_workload, vulnerable
from repro.workloads.base import make_mcu

import replay_reference

METHODS = ("rap-track", "traces")
FIELDS = ("lossless", "error", "consumed", "max_shadow_depth",
          "violations", "path")
KEY = KeyStore.provision().attestation_key


@functools.lru_cache(maxsize=None)
def build(workload: str, method: str):
    """(image, bound map, replay table) of one attested build."""
    image, bound = prepare(load_workload(workload), method)
    return image, bound, ReplayTable(image, bound)


@functools.lru_cache(maxsize=None)
def execution(workload: str, method: str, feed: str = "") -> tuple:
    """The record stream of one attested run (``feed`` selects the
    vulnerable firmware's benign or attack UART input)."""
    image, bound, _ = build(workload, method)
    spec = load_workload(workload)
    mcu = make_mcu(image, spec)
    if feed:
        mcu.mmio.device("uart").set_feed(
            vulnerable.attack_feed(image) if feed == "attack"
            else vulnerable.benign_feed())
    engine = RapTrackEngine if method == "rap-track" else TracesEngine
    result = engine(mcu, KeyStore.provision(), bound).attest(b"diff")
    return tuple(result.cflog.records)


def verifier(workload: str, method: str,
             max_steps: int = DEFAULT_MAX_STEPS) -> Verifier:
    image, bound, table = build(workload, method)
    return Verifier(image, bound, KEY, max_steps=max_steps, table=table)


def outcome(replay, vrf, records):
    """Every observable of one replay, or the exception it raised."""
    try:
        result = replay(vrf, records)
    except Exception as exc:  # the oracle's own escapes must match too
        return ("raised", type(exc), str(exc))
    return tuple(getattr(result, name) for name in FIELDS)


def assert_same(vrf, records):
    want = outcome(replay_reference.replay, vrf, records)
    got = outcome(Verifier.replay, vrf, records)
    if want[0] == "raised" or got[0] == "raised":
        assert got == want
        return want
    for name, a, b in zip(FIELDS, got, want):
        assert a == b, f"{name} differs"
    return want


class TestExecutions:
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_honest_execution(self, workload, method):
        lossless, error, *_ = assert_same(
            verifier(workload, method), execution(workload, method))
        assert lossless and error is None

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("feed", ["benign", "attack"])
    def test_vulnerable_execution(self, feed, method):
        result = assert_same(verifier("vulnerable", method),
                             execution("vulnerable", method, feed))
        violations = result[FIELDS.index("violations")]
        assert bool(violations) == (feed == "attack")

    @pytest.mark.parametrize("method", METHODS)
    def test_mined_gadget_chains(self, method):
        image, bound, _ = build("vulnerable", method)
        chains = synthesize_chains(image, bound, method)
        assert chains
        for chain in chains:
            assert_same(verifier("vulnerable", method), chain.records)

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("workload", ["geiger", "syringe", "fibcall"])
    def test_every_step_guard_cut(self, workload, method):
        """A guard at each of the first steps, mid-way and around the
        end cuts the path exactly where the per-step loop stopped."""
        records = execution(workload, method)
        total = len(verifier(workload, method).replay(records).path)
        guards = list(range(1, 120)) + [total // 3, total // 2,
                                        total - 1, total, total + 1]
        for max_steps in guards:
            assert_same(verifier(workload, method, max_steps), records)


class TestTable:
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("workload",
                             sorted(WORKLOADS) + ["vulnerable"])
    def test_each_code_address_stored_once(self, workload, method):
        image, _, table = build(workload, method)
        segments = {id(seg): seg for seg, _, _ in table.runs.values()}
        stored = Counter(pc for seg in segments.values() for pc in seg)
        assert max(stored.values()) == 1
        assert set(stored) == set(table.runs)
        assert not set(table.runs) & set(table.sites)
        assert set(table.runs) | set(table.sites) == set(image.instr_at)
        for pc, (seg, offset, _) in table.runs.items():
            assert seg[offset] == pc


# -- hypothesis-mutated streams ---------------------------------------------

#: (workload, method, feed) executions the mutations start from: loop
#: sites, TRACES thunks, recursion and a ROP attack between them
BASES = (("syringe", "rap-track", ""), ("ultrasonic", "traces", ""),
         ("fibcall", "rap-track", ""), ("gps", "traces", ""),
         ("temperature", "rap-track", ""),
         ("vulnerable", "rap-track", "attack"))


@st.composite
def mutated(draw):
    workload, method, feed = draw(st.sampled_from(BASES))
    image, bound, _ = build(workload, method)
    records = list(execution(workload, method, feed))
    code = sorted(image.instr_at)
    keys = sorted({r.key for r in records} | set(bound.loop_at))
    dst = st.one_of(st.sampled_from(code), st.just(EXIT_SENTINEL),
                    st.integers(0, 0xFFFFFFFF))

    def loop_value(key):
        # values the loop leaves within ~300 trips: a value that walks
        # toward trip_count's 10M-iteration guard costs seconds in both
        # replays alike (the known loop-value stall, still open)
        info = bound.loop_at.get(key)
        if info is None:
            return st.integers(0, 64)
        trips = st.integers(0, 300)
        return trips.map(lambda k: (info.bound - info.step * k)
                         & 0xFFFFFFFF)

    def record():
        kind = draw(st.sampled_from(("branch", "address", "loop")))
        key = draw(st.sampled_from(keys))
        if kind == "loop":
            return LoopRecord(key, draw(loop_value(key)))
        cls = BranchRecord if kind == "branch" else AddressRecord
        return cls(key, draw(dst))

    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(
            ("truncate", "insert", "delete", "swap", "dst", "loop")))
        at = draw(st.integers(0, max(0, len(records) - 1)))
        if op == "truncate":
            del records[at:]
        elif op == "insert":
            records.insert(at, record())
        elif op == "delete" and records:
            del records[at]
        elif op == "swap" and len(records) > 1:
            other = draw(st.integers(0, len(records) - 1))
            records[at], records[other] = records[other], records[at]
        elif op == "dst" and records and hasattr(records[at], "dst"):
            old = records[at]
            records[at] = type(old)(old.key, draw(dst))
        elif op == "loop":
            loops = [i for i, r in enumerate(records)
                     if isinstance(r, LoopRecord)]
            if loops:
                index = draw(st.sampled_from(loops))
                key = records[index].key
                records[index] = LoopRecord(key, draw(loop_value(key)))
    # small guards cut runs mid-way; the large one lets most streams
    # end on their own (a mutated stream can also loop without
    # consuming records, which only the guard stops)
    max_steps = draw(st.one_of(st.integers(1, 3000), st.just(100_000)))
    return workload, method, records, max_steps


class TestMutatedStreams:
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(mutated())
    def test_mutated_stream_matches_oracle(self, case):
        workload, method, records, max_steps = case
        assert_same(verifier(workload, method, max_steps), records)
