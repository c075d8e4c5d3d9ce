"""The load generator: closed- and open-loop delivery against a fleet.

A fleet workload (see :mod:`fleets`) hands the load generator *bursts*: one
device's wire chunks for one session attempt, plus what a correct
verifier must answer. It submits them and captures each
verdict the moment the call that produced it returns (verification
runs inline, ``workers=0``).

Device-side work — attesting an execution, signing and encoding
reports, checking HEAL frames — runs with the :class:`VrfClock`
stopped: devices are separate machines, so only the verifier's own
time counts. Every rate and latency below is measured on that clock,
which also rescales wall time to a reference host speed.
"""

from __future__ import annotations

import gc
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import List, Optional

import repro.cfa.fleet  # noqa: F401  (loads before repro.cfa.policy)
from repro.cfa.policy.engine import PolicyDeniedError


#: the probe's duration on the reference host speed
REFERENCE_PROBE_S = 1.0e-3
#: wall seconds between probes while the clock runs
PROBE_EVERY_S = 0.05


class _Cell:
    __slots__ = ("a", "b")


def speed_probe(n: int = 4000) -> float:
    """Seconds a fixed pure-Python loop takes: the host's speed now.

    Dict lookups, tuple keys, slot attributes and list appends, so it
    slows down the way the verifier's interpreter-bound code does when
    a neighbour shares the core.
    """
    start = time.perf_counter()
    table, out, cell = {}, [], _Cell()
    cell.a, cell.b = 0, 1
    for i in range(n):
        key = (i & 63, i & 7)
        cell.a = table.get(key, 0) + cell.b
        table[key] = cell.a
        out.append(key)
        if len(out) > 64:
            out.clear()
    return time.perf_counter() - start


def reference_seconds(run):
    """``(seconds, result)`` of ``run()``: its wall time rescaled to
    reference speed by probes taken just before and just after it."""
    before = [speed_probe() for _ in range(3)]
    start = time.perf_counter()
    result = run()
    wall = time.perf_counter() - start
    probes = before + [speed_probe() for _ in range(3)]
    return wall * REFERENCE_PROBE_S * len(probes) / sum(probes), result


class VrfClock:
    """The verifier's clock, in reference seconds.

    Device-side work runs inside :meth:`device`, with the clock
    stopped: devices are other machines. The host's own speed is not
    steady either — on a core shared with another guest the same loop
    takes up to twice as long at times — so the clock rescales wall
    time by the host's current speed: :meth:`tick` runs
    :func:`speed_probe` (clock stopped) every :data:`PROBE_EVERY_S`,
    and between two probes the clock advances
    ``REFERENCE_PROBE_S / probe`` seconds per wall second, averaged
    over the probes at both ends. A reading is what the work would
    take at reference speed; ``wall_s`` keeps the unscaled wall
    seconds.
    """

    def __init__(self):
        self._ref = 0.0
        self._stopped = False
        self.wall_s = 0.0  # folded in whenever the clock stops
        self.probes: List[float] = []
        self._rate = 1.0
        self._mark = time.perf_counter()
        self._probed = self._mark
        self.calibrate()

    def now(self) -> float:
        return self._ref + (time.perf_counter() - self._mark) * self._rate

    def wall(self) -> float:
        """Unscaled wall seconds the clock has run."""
        if self._stopped:
            return self.wall_s
        return self.wall_s + time.perf_counter() - self._mark

    def _stop(self) -> None:
        elapsed = time.perf_counter() - self._mark
        self._ref += elapsed * self._rate
        self.wall_s += elapsed

    @contextmanager
    def device(self):
        if self._stopped:  # already stopped by an enclosing caller
            yield
            return
        self._stop()
        self._stopped = True
        try:
            yield
        finally:
            self._stopped = False
            self._mark = time.perf_counter()

    def calibrate(self) -> None:
        """Probe the host's speed. The stretch since the last probe is
        rescaled by the mean of the rates at both its ends, so one
        long call that straddles a speed change is not read at the
        speed it started in."""
        if self._stopped:
            return
        elapsed = time.perf_counter() - self._mark
        probe = speed_probe()
        rate = REFERENCE_PROBE_S / probe
        self._ref += elapsed * (self._rate + rate) / 2
        self.wall_s += elapsed
        self.probes.append(probe)
        self._rate = rate
        self._probed = self._mark = time.perf_counter()

    def tick(self) -> None:
        if time.perf_counter() - self._probed >= PROBE_EVERY_S:
            self.calibrate()

    def sleep_until(self, due: float) -> None:
        wait = (due - self.now()) / self._rate
        if wait > 0:
            time.sleep(wait)


@dataclass
class Session:
    """One device session (one challenge round) and what a correct
    verifier must answer for it."""

    device: object  # the fleet's device record
    accept: bool
    #: expected ``records_digest`` (hex), when the fleet knows it
    digest: str = ""
    #: expected prefix of the rejection reason, when it is pinned
    reason: str = ""
    #: (profile, key, challenge, chunks, dictionary) for the serial
    #: uncached re-check the oracle runs after the phase
    recheck: Optional[tuple] = None
    verdict: object = None
    before: object = None  # the device's previous verdict object


@dataclass
class Burst:
    """One session attempt's wire chunks as the device sends them."""

    session: Session
    chunks: List[bytes]
    due: float = 0.0
    latency_s: Optional[float] = None
    lag_s: float = 0.0


@dataclass
class PhaseResult:
    vrf_s: float = 0.0  # reference seconds
    wall_s: float = 0.0
    sessions: List[Session] = field(default_factory=list)
    bursts: List[Burst] = field(default_factory=list)
    bytes_in: int = 0
    denials: int = 0
    #: (sessions settled, Vrf seconds) per round
    rounds: List[tuple] = field(default_factory=list)

    @property
    def settled(self) -> int:
        return sum(1 for s in self.sessions if s.verdict is not None)


class LoadGenerator:
    """Delivers rounds of sessions from one fleet to its service."""

    def __init__(self, fleet, clock: VrfClock, seed: int, tracer=None):
        self.fleet = fleet
        self.service = fleet.service
        self.clock = clock
        self.rng = random.Random(f"interleave:{seed}")
        self.tracer = tracer
        self.logical = 0.0  # the protocol's logical clock
        self.round_index = 0

    def _submit(self, burst: Burst, chunk: bytes, phase: PhaseResult):
        device_id = burst.session.device.device_id
        if self.tracer is not None:
            self.tracer.session = device_id
        phase.bytes_in += len(chunk)
        self.service.submit(device_id, chunk, self.logical)
        self.logical += 0.001
        self.clock.tick()

    def _capture(self, session: Session) -> bool:
        verdict = self.fleet.verdict_of(session.device.device_id)
        if session.verdict is None and verdict is not session.before:
            session.verdict = verdict
            return True
        return False

    def open(self, device, round_index: int,
             phase: PhaseResult) -> Optional[Burst]:
        """Challenge one device; it attests (clock stopped)."""
        try:
            challenge = self.service.open_session(
                device.device_id, device.profile, device.key, self.logical)
        except PolicyDeniedError:
            phase.denials += 1
            return None
        with self.clock.device():
            before = self.fleet.verdict_of(device.device_id)
            session, chunks = self.fleet.session(
                device, challenge.nonce, round_index)
            session.before = before
        phase.sessions.append(session)
        return Burst(session, chunks)

    # -- delivery -------------------------------------------------------------

    def _deliver_closed(self, bursts: List[Burst],
                        phase: PhaseResult) -> None:
        """One caller: each report goes out when ``submit`` returns."""
        queues = [(b, list(b.chunks)) for b in bursts if b.chunks]
        while queues:
            index = self.rng.randrange(len(queues))
            burst, queue = queues[index]
            self._submit(burst, queue.pop(0), phase)
            if not queue:
                queues.pop(index)
                self._capture(burst.session)
        for burst in bursts:
            burst.chunks = []  # delivered: keep only the timings
        phase.bursts.extend(bursts)

    def _deliver_open(self, burst: Burst, schedule,
                      phase: PhaseResult) -> None:
        """A burst goes out at its due time, late if the Vrf is busy;
        its latency runs from the due time to the verdict."""
        burst.due = schedule.next_due()
        self.clock.sleep_until(burst.due)
        burst.lag_s = max(0.0, self.clock.now() - burst.due)
        for chunk in burst.chunks:
            self._submit(burst, chunk, phase)
        self.clock.calibrate()  # read the verdict time at today's speed
        if self._capture(burst.session):
            burst.latency_s = self.clock.now() - burst.due
        burst.chunks = []  # delivered: keep only the timings
        phase.bursts.append(burst)

    def deliver(self, bursts: List[Burst], schedule,
                phase: PhaseResult) -> None:
        if schedule is None:
            self._deliver_closed(bursts, phase)
        else:
            for burst in bursts:
                self._deliver_open(burst, schedule, phase)

    def run_round(self, phase: PhaseResult, schedule=None) -> None:
        """Every device of the round attests once; stalled chains are
        re-challenged and expired; then the fleet's follow-up (healing
        orders, lifecycle notices)."""
        round_index = self.round_index
        self.round_index += 1
        self.logical += 100.0
        first = len(phase.sessions)
        devices = self.fleet.devices_for_round(round_index)
        if schedule is None:
            bursts = [self.open(d, round_index, phase) for d in devices]
            self.deliver([b for b in bursts if b is not None], None, phase)
        else:
            for device in devices:
                burst = self.open(device, round_index, phase)
                if burst is not None:
                    self._deliver_open(burst, schedule, phase)
        by_device = {s.device.device_id: s
                     for s in phase.sessions[first:]}
        manager = self.service.manager
        for _ in range(manager.max_attempts):
            self.logical += manager.idle_timeout + 1.0
            retries = self.service.tick(self.logical)
            if not retries:
                break
            with self.clock.device():
                bursts = [Burst(by_device[device_id],
                                self.fleet.retry_chunks(
                                    by_device[device_id], challenge.nonce,
                                    round_index))
                          for device_id, challenge in retries]
            self.deliver(bursts, schedule, phase)
        follow_up = self.fleet.after_round(round_index, self, phase)
        if follow_up:
            self.deliver(follow_up, schedule, phase)
        for session in phase.sessions[first:]:
            self._capture(session)  # verdicts released by expiry
        self.fleet.finish_round(round_index, self)

    def run_phase(self, seconds: float, schedule=None) -> PhaseResult:
        """Whole rounds until the Vrf has run ``seconds`` of wall time.

        CPython's cyclic collector runs at points set by allocation
        counts, and each pass walks every session the service retains:
        within a run a handful of those pauses decide the latency tail
        (on a 2-vCPU KVM guest, runs of the same code disagreed by
        30-80% on ``verdict_p99_ms``). The collector is therefore off
        inside a phase and runs between rounds with the clock stopped,
        so memory stays bounded by one round's cyclic garbage; the
        traced run reports what one full collection costs
        (``runtime.gc_collect.ms``).
        """
        phase = PhaseResult()
        with self.clock.device():
            gc.collect()
        gc.disable()
        try:
            start, wall = self.clock.now(), self.clock.wall()
            if schedule is not None:
                schedule.start(start)
            while self.clock.wall() - wall < seconds:
                began, settled = self.clock.now(), phase.settled
                self.run_round(phase, schedule)
                phase.rounds.append((phase.settled - settled,
                                     self.clock.now() - began))
                with self.clock.device():
                    gc.collect()
            phase.vrf_s = self.clock.now() - start
            phase.wall_s = self.clock.wall() - wall
        finally:
            gc.enable()
        return phase


class ArrivalSchedule:
    """Seeded arrivals at a fixed offered rate (sessions/s): gaps drawn
    uniformly from half to one and a half times the mean gap. Bounded
    jitter keeps the tail a property of the verifier, not of how many
    Poisson clumps a short run happened to draw."""

    def __init__(self, rate: float, seed: int):
        self.gap = 1.0 / rate
        self.rng = random.Random(f"arrivals:{seed}")
        self._due = 0.0

    def start(self, at: float) -> None:
        self._due = at

    def next_due(self) -> float:
        self._due += self.gap * self.rng.uniform(0.5, 1.5)
        return self._due


# -- statistics -----------------------------------------------------------


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0-100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    """The highest of p99.9/p99/p95/p90/p75/p50 that still has at least
    ten samples beyond it."""
    for q in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (100.0 - q) / 100.0 >= 10:
            return q
    return 50.0


def timing(values: List[float], scale: float = 1.0) -> dict:
    """p50 plus the highest percentile with ten samples beyond it."""
    q = tail_percentile(len(values))
    return {"n": len(values), "p50": percentile(values, 50) * scale,
            "tail_q": q, "tail": percentile(values, q) * scale}
