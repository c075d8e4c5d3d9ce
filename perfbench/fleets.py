"""The benchmark's three fleets, built only on the repository's public API.

Each fleet owns a verifier service and the device side that talks to
it. The load generator (:mod:`loop`) asks a fleet which devices attest in a
round, for the chain a device sends for a challenge, and what a
correct verifier must answer; the fleet's ``audit`` is the oracle run
after the timed phases.

The run seed changes device ids, peripheral seeds, interleaving and
arrival times. It never changes a fleet's composition.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional

from repro.cfa.cflog import CFLog
from repro.cfa.engine import EngineConfig, RapTrackEngine
from repro.cfa.fleet import (
    HONEST_BEHAVIORS,
    ChainFactory,
    DeviceProfile,
    DeviceSpec,
    EvidenceError,
    FleetService,
    FleetSimulator,
    ShardedFleetService,
    audit_key,
    build_campaign_specs,
    device_key,
    learn_dictionaries,
    verify_evidence_trail,
    verify_session_chain,
)
from repro.cfa.fleet import verify as fleet_verify
from repro.cfa.fleet.simulator import apply_behavior
from repro.cfa.policy.engine import state_name
from repro.cfa.policy.heal import verify_heal_frame, verify_policy_frame
from repro.cfa.report import Report
from repro.cfa.wire import decode_report, encode_report
from repro.core.analysis.certificate import (
    BoundsRegistry,
    certify_workload,
    sign_certificate,
)
from repro.eval import runner
from repro.machine.mcu import MCU
from repro.tz.keystore import KeyStore
from repro.workloads import gps, load_workload, syringe
from repro.workloads.base import (
    ADC_BASE,
    GEIGER_BASE,
    GPIO_BASE,
    STEPPER_BASE,
    ULTRASONIC_BASE,
    UART_BASE,
)
from repro.workloads.peripherals import (
    ADCDevice,
    GeigerTube,
    GPIOPort,
    StepperMotor,
    UartRx,
    UltrasonicRanger,
)

from loop import Burst, PhaseResult, Session

METHOD = "rap-track"
#: the fleet Vrf's service seed (evidence MAC key derivation)
SERVICE_SEED = b"fleet-vrf"
#: CFLog watermark of the simulated devices (one report per chain for
#: the input-driven firmwares; several for fibcall and prime)
WATERMARK = 1024
QUARANTINE_STATES = ("QUARANTINED", "HEALING", "REVOKED")


@dataclass(frozen=True)
class Device:
    spec: DeviceSpec
    key: bytes

    @property
    def device_id(self) -> str:
        return self.spec.device_id

    @property
    def profile(self) -> DeviceProfile:
        return self.spec.profile

    @property
    def behavior(self) -> str:
        return self.spec.behavior


def make_device(device_id: str, workload: str,
                behavior: str = "honest") -> Device:
    return Device(DeviceSpec(device_id, DeviceProfile(workload, METHOD),
                             behavior), device_key(device_id))


def derive_seed(*parts) -> int:
    """A nonzero 31-bit peripheral seed from the run seed and context."""
    text = ":".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:4], "little") \
        % 0x7FFFFFFE + 1


def records_digest(records) -> str:
    """SHA-256 over the packed record stream: what a verdict's
    ``records_digest`` must read for this execution."""
    return hashlib.sha256(b"".join(r.pack() for r in records)).hexdigest()


def forget_offline_artifacts() -> None:
    """Drop the verifier's per-process artifact memo so each set-up
    pays the offline phase cold, as a fresh verifier process would."""
    fleet_verify._ARTIFACTS.clear()


def certify(workloads, registry: BoundsRegistry) -> None:
    """Certify each image and admit its signed `BNDS1` blob."""
    for workload in workloads:
        cert = certify_workload(workload, METHOD)
        registry.admit_blob(sign_certificate(cert, registry.key))


def audit_store(store_dir: Path, sessions) -> List[str]:
    """Every evidence log must verify, and hold one session record per
    verdict the service released."""
    errors = []
    released: Dict[str, int] = {}
    for session in sessions:
        if session.verdict is not None:
            device_id = session.device.device_id
            released[device_id] = released.get(device_id, 0) + 1
    recorded: Dict[str, int] = {}
    key = audit_key(SERVICE_SEED)
    for path in sorted(store_dir.glob("evidence-*.log")):
        try:
            records = verify_evidence_trail(path, key)
        except EvidenceError as exc:
            errors.append(f"evidence {path.name}: {exc}")
            continue
        for record in records:
            if not getattr(record, "is_policy", False):
                recorded[record.device_id] = \
                    recorded.get(record.device_id, 0) + 1
    for device_id, count in released.items():
        if recorded.get(device_id, 0) < count:
            errors.append(f"{device_id}: {count} verdict(s) released, "
                          f"{recorded.get(device_id, 0)} in evidence")
    return errors


# -- the trace-diverse execution generator ----------------------------------


def _peripherals(workload: str, seed: int):
    gpio = (GPIO_BASE, GPIOPort(), "gpio")
    if workload == "temperature":
        return [(ADC_BASE, ADCDevice(seed=seed), "adc"), gpio]
    if workload == "ultrasonic":
        return [(ULTRASONIC_BASE, UltrasonicRanger(seed=seed), "sonar"), gpio]
    if workload == "geiger":
        return [(GEIGER_BASE, GeigerTube(seed=seed), "geiger"), gpio]
    if workload == "gps":
        return [(UART_BASE, UartRx(gps.nmea_feed(seed).encode()), "uart"),
                gpio]
    if workload == "syringe":
        return [(UART_BASE, UartRx(syringe.feed_bytes(seed)), "uart"),
                (STEPPER_BASE, StepperMotor(), "stepper"), gpio]
    raise ValueError(f"no peripheral model for {workload!r}")


@dataclass
class Execution:
    """One attested run of a firmware, ready to re-sign per session."""

    method: str
    h_mem: bytes
    cflogs: list
    digest: str


class ExecutionGenerator:
    """Attests distinct executions of input-driven firmware.

    Each execution runs on a fresh :class:`MCU` with freshly seeded
    peripherals and is attested once by :class:`RapTrackEngine`; a
    session re-signs its reports under the session challenge and the
    device key.
    """

    def __init__(self, workloads):
        self.artifacts = {
            name: (load_workload(name),
                   runner.prepare(load_workload(name), METHOD))
            for name in workloads}
        self.keystore = KeyStore.provision("bench-device")
        self.config = EngineConfig(watermark=WATERMARK)
        self.seen: set = set()
        self.duplicates = 0

    def attest(self, workload: str, seed: int) -> Execution:
        spec, (image, bound) = self.artifacts[workload]
        mcu = MCU(image, max_instructions=spec.max_instructions)
        for base, device, name in _peripherals(workload, seed):
            mcu.attach_device(base, device, name)
        result = RapTrackEngine(mcu, self.keystore, bound,
                                self.config).attest(b"bench-execution")
        digest = records_digest(
            r for report in result.reports for r in report.cflog.records)
        if digest in self.seen:
            self.duplicates += 1
        self.seen.add(digest)
        return Execution(result.reports[0].method, result.reports[0].h_mem,
                         [report.cflog for report in result.reports], digest)


def sign_chain(device: Device, challenge: bytes,
               execution: Execution) -> List[bytes]:
    last = len(execution.cflogs) - 1
    return [encode_report(Report(
        device_id=device.device_id.encode(), method=execution.method,
        challenge=challenge, h_mem=execution.h_mem, seq=seq,
        final=seq == last, cflog=cflog).sign(device.key))
        for seq, cflog in enumerate(execution.cflogs)]


# -- the fleets ---------------------------------------------------------------


class _Fleet:
    """Defaults shared by the fleets."""

    service = None

    def verdict_of(self, device_id: str):
        return self.service.verdicts.get(device_id)

    def retry_chunks(self, session: Session, nonce: bytes,
                     round_index: int) -> List[bytes]:
        raise RuntimeError(
            f"{session.device.device_id} was re-challenged, but no "
            f"device of this fleet stalls")

    def after_round(self, round_index: int, load, phase) -> List[Burst]:
        return []

    def finish_round(self, round_index: int, load) -> None:
        pass

    def warm(self, load) -> Optional[PhaseResult]:
        """Traffic the set-up needs before measuring (none by default)."""
        return None

    def close(self) -> None:
        if self.service is not None:
            self.service.close()

    def audit(self, sessions) -> List[str]:
        return []

    def facts(self) -> dict:
        return {}


class DiverseReplay(_Fleet):
    """Honest devices on the input-driven firmwares, every session a
    distinct execution: replay does the work."""

    #: workload -> devices per 40-device round. gps gets a smaller
    #: share: its NMEA feeds give fewer distinct traces (about 124 per
    #: 150 seeds), and repeats would be replay-cache hits
    ROSTER = (("temperature", 11), ("ultrasonic", 11), ("gps", 5),
              ("syringe", 11), ("geiger", 2))

    def __init__(self, root: Path, seed: int):
        self.seed = seed

    def setup(self) -> None:
        forget_offline_artifacts()
        workloads = [name for name, _ in self.ROSTER]
        self.generator = ExecutionGenerator(workloads)
        rng = random.Random(f"diverse:{self.seed}")
        devices = [
            make_device(f"dr{self.seed}-{name[:4]}-{index:02d}-"
                        f"{rng.randrange(1 << 16):04x}", name)
            for name, count in self.ROSTER for index in range(count)]
        # the seed shuffles the order, but the few slow geiger sessions
        # stay evenly spaced in it: whether two of them queue behind
        # each other is part of the composition, not of the seed
        slow = [d for d in devices if d.profile.workload == "geiger"]
        self.devices = [d for d in devices if d not in slow]
        rng.shuffle(self.devices)
        step = len(devices) // len(slow)
        for index, device in enumerate(slow):
            self.devices.insert(index * step, device)
        # the verifier's offline phase, paid cold
        for name in workloads:
            fleet_verify.build_verifier(DeviceProfile(name, METHOD), b"")
        # the first round's executions (their duplicates counted), and
        # each firmware's first one accepted by uncached serial
        # verification
        self.pool = {d.device_id: self._execution(d, 0)
                     for d in self.devices}
        self.setup_duplicates = self.generator.duplicates
        for name in workloads:
            device = next(d for d in self.devices
                          if d.profile.workload == name)
            execution = self.pool[device.device_id]
            challenge = b"bench-setup-chal"
            verdict = verify_session_chain(
                device.device_id, device.profile, device.key, challenge,
                sign_chain(device, challenge, execution))
            if not verdict.accepted \
                    or verdict.records_digest != execution.digest:
                raise RuntimeError(
                    f"{name}: set-up sample not accepted ({verdict.reason})")
        self.service = FleetService(workers=0, replay_cache=True)

    def _execution(self, device: Device, round_index: int) -> Execution:
        return self.generator.attest(
            device.profile.workload,
            derive_seed(self.seed, device.device_id, round_index))

    def devices_for_round(self, round_index: int) -> List[Device]:
        return self.devices

    def session(self, device: Device, nonce: bytes, round_index: int):
        execution = self.pool.pop(device.device_id, None) \
            or self._execution(device, round_index)
        return (Session(device, accept=True, digest=execution.digest),
                sign_chain(device, nonce, execution))

    def facts(self) -> dict:
        return {"executions": len(self.generator.seen)
                + self.generator.duplicates,
                "duplicate_executions": self.generator.duplicates,
                "duplicates_in_first_round": self.setup_duplicates}


class _Durable(_Fleet):
    """A 2-shard durable service: fsync'd evidence, the policy engine
    and the `BNDS1` admission screen on."""

    SHARDS = 2

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed
        self.store_dir: Optional[Path] = None
        self.recheck_rng = random.Random(f"recheck:{seed}")

    def _build(self, workloads, tag: str, **kwargs) -> None:
        forget_offline_artifacts()
        self.store_dir = self.root / f"{tag}-store"
        bounds = BoundsRegistry()
        certify(workloads, bounds)
        self.service = ShardedFleetService(
            shards=self.SHARDS, store_dir=self.store_dir, fsync=True,
            policy=True, key_lookup=device_key, bounds=bounds,
            idle_timeout=5.0, **kwargs)
        self.factory = ChainFactory(watermark=WATERMARK)
        # attest each firmware once and pin its measurement in the
        # signed policy registry
        for workload in workloads:
            spec = DeviceSpec("pin", DeviceProfile(workload, METHOD))
            report, _ = decode_report(self.factory.chain(spec, bytes(16))[0])
            self.service.policy.registry.publish(spec.profile, report.h_mem)

    def verdict_of(self, device_id: str):
        shard = self.service.shards[self.service.shard_of(device_id)]
        return shard.verdicts.get(device_id)

    def audit(self, sessions) -> List[str]:
        errors = audit_store(self.store_dir, sessions)
        states = self.service.policy.state_names()
        for device_id in sorted(self.honest_ids()):
            if states.get(device_id, "HEALTHY") in QUARANTINE_STATES:
                errors.append(f"{device_id}: honest device "
                              f"{states[device_id]}")
        return errors


class UniformDurable(_Durable):
    """Honest fibcall and prime devices, byte-identical chains per
    profile, dictionary-compressed after one learn round."""

    DEVICES = (("fibcall", 100), ("prime", 100))
    RECHECK_SHARE = 0.01

    def setup(self) -> None:
        self._build([name for name, _ in self.DEVICES], "uniform",
                    sampler=True)
        rng = random.Random(f"uniform:{self.seed}")
        self.devices = [
            make_device(f"ud{self.seed}-{name[:3]}-{index:03d}-"
                        f"{rng.randrange(1 << 16):04x}", name)
            for name, count in self.DEVICES for index in range(count)]
        rng.shuffle(self.devices)
        self.simulator = FleetSimulator([d.spec for d in self.devices],
                                        factory=self.factory)
        self.rechecked = 0

    def warm(self, load) -> PhaseResult:
        """One adaptive-speculation round: sample live traffic, mine
        and publish dictionaries, push them and collect device ACKs."""
        phase = PhaseResult()
        load.run_round(phase)
        learn_dictionaries(self.service)
        self.acked = self.simulator.handshake(self.service)
        if self.acked != len(self.devices):
            raise RuntimeError(f"{self.acked}/{len(self.devices)} "
                               f"devices acknowledged a dictionary")
        return phase

    def honest_ids(self):
        return (d.device_id for d in self.devices)

    def devices_for_round(self, round_index: int) -> List[Device]:
        return self.devices

    def session(self, device: Device, nonce: bytes, round_index: int):
        epoch = self.simulator.device_epochs.get(device.device_id)
        chunks = self.factory.chain(device.spec, nonce, epoch)
        session = Session(device, accept=True)
        if self.recheck_rng.random() < self.RECHECK_SHARE:
            challenge = decode_report(chunks[0])[0].challenge
            session.recheck = (device.profile, device.key, challenge,
                               chunks, epoch.dictionary if epoch else None)
        return session, chunks

    def audit(self, sessions) -> List[str]:
        errors = super().audit(sessions)
        rechecked = 0
        for session in sessions:
            if session.recheck is None or session.verdict is None:
                continue
            profile, key, challenge, chunks, dictionary = session.recheck
            serial = verify_session_chain(
                session.device.device_id, profile, key, challenge, chunks,
                dictionary=dictionary)
            rechecked += 1
            if serial != session.verdict:
                errors.append(f"{session.device.device_id}: fleet verdict "
                              f"differs from serial uncached verification")
        self.rechecked = rechecked
        return errors

    def facts(self) -> dict:
        return {"dictionary_acks": self.acked,
                "serial_rechecks": self.rechecked}


class HostileCampaign(_Durable):
    """Compromise-then-heal campaigns on the durable service, with
    transport faults and certificate-exceeding floods. One fixed fleet
    runs campaign after campaign: each starts with the same devices
    compromised again, and ends with every one of them healed."""

    #: rounds per campaign: compromise and catch the hard offenders,
    #: catch the soft ones, attest clean
    CAMPAIGN_ROUNDS = 3
    #: honest + attack/equivocate/tamper devices from
    #: build_campaign_specs (composition pinned by its seed 0) ...
    CAMPAIGN_DEVICES = 96
    COMPROMISED_FRACTION = 0.0625
    #: ... plus compromised devices on the bounded geiger image that
    #: re-sign twice their honest log, past the 180-record certificate
    FLOODERS = 4
    FLOOD_FACTOR = 2

    def setup(self) -> None:
        self._build(["fibcall", "prime", "geiger", "vulnerable"],
                    "campaign")
        specs = build_campaign_specs(
            self.CAMPAIGN_DEVICES,
            compromised_fraction=self.COMPROMISED_FRACTION, seed=0)
        specs += [DeviceSpec(f"flood-{index}",
                             DeviceProfile("geiger", METHOD), "flood")
                  for index in range(self.FLOODERS)]
        # fixed-length ids: a fault lands in the same report field for
        # every seed, so each campaign's outcome is identical
        prefix = "hc-" + hashlib.sha256(
            str(self.seed).encode()).hexdigest()[:8]
        self.devices = [Device(replace(spec, device_id=f"{prefix}-"
                                       f"{spec.device_id}"),
                               device_key(f"{prefix}-{spec.device_id}"))
                        for spec in specs]
        self.base_id = {d.device_id: spec.device_id
                        for d, spec in zip(self.devices, specs)}
        random.Random(prefix).shuffle(self.devices)
        self.by_id = {d.device_id: d for d in self.devices}
        self.compromised = {d.device_id for d in self.devices
                            if d.behavior not in HONEST_BEHAVIORS}
        self.healed: set = set()
        self.quarantined_round: Dict[str, int] = {}
        self.campaign_rounds_to_quarantine: List[float] = []
        self.errors: List[str] = []
        self.notices = 0
        # warm the templates each behavior draws on (attack: the ROP
        # execution on the vulnerable firmware)
        self.factory.chain(DeviceSpec("warm", DeviceProfile(
            "vulnerable", METHOD), "attack"), bytes(16))

    def honest_ids(self):
        return (d for d in self.by_id if d not in self.compromised)

    def devices_for_round(self, round_index: int) -> List[Device]:
        if round_index % self.CAMPAIGN_ROUNDS == 0:
            self.healed.clear()  # a new campaign compromises them again
            self.quarantined_round.clear()
        return self.devices

    def _fault_rng(self, device: Device, round_index: int,
                   attempt: str = "") -> random.Random:
        """Where a transport fault lands: fixed per device role and
        round of the campaign, independent of the run seed."""
        return random.Random(f"{self.base_id[device.device_id]}:"
                             f"{round_index % self.CAMPAIGN_ROUNDS}"
                             f"{attempt}")

    def _behavior(self, device: Device) -> str:
        if device.device_id in self.healed:
            return "honest"  # re-provisioned with the pinned image
        return device.behavior

    def _chain(self, device: Device, nonce: bytes, behavior: str,
               rng: random.Random) -> List[bytes]:
        spec = replace(device.spec, behavior=behavior)
        chunks = self.factory.chain(spec, nonce)
        if behavior == "flood":
            reports = [decode_report(chunk)[0] for chunk in chunks]
            log = CFLog()
            for _ in range(self.FLOOD_FACTOR):
                for report in reports:
                    log.extend(report.cflog.records)
            first = reports[0]
            return [encode_report(Report(
                device_id=first.device_id, method=first.method,
                challenge=first.challenge, h_mem=first.h_mem, seq=0,
                final=True, cflog=log).sign(device.key))]
        return apply_behavior(behavior, chunks, rng)

    def session(self, device: Device, nonce: bytes, round_index: int):
        behavior = self._behavior(device)
        rng = self._fault_rng(device, round_index)
        session = Session(device, accept=behavior in HONEST_BEHAVIORS,
                          reason="bounds:" if behavior == "flood" else "")
        return session, self._chain(device, nonce, behavior, rng)

    def retry_chunks(self, session: Session, nonce: bytes,
                     round_index: int) -> List[bytes]:
        device = session.device
        behavior = self._behavior(device)
        if behavior == "stall":  # a transient outage: answer in full
            behavior = "honest"
        rng = self._fault_rng(device, round_index, ":retry")
        return self._chain(device, nonce, behavior, rng)

    def _observe(self, round_index: int) -> None:
        for device in self.devices:
            state = self._state(device.device_id)
            if state in QUARANTINE_STATES:
                self.quarantined_round.setdefault(
                    device.device_id, round_index % self.CAMPAIGN_ROUNDS)
                if device.device_id not in self.compromised:
                    self.errors.append(
                        f"{device.device_id}: honest device {state}")

    def _state(self, device_id: str) -> str:
        return state_name(self.service.policy.state_of(device_id))

    def after_round(self, round_index: int, load, phase) -> List[Burst]:
        """Deliver heal orders; each healed device answers the healing
        challenge with a clean chain."""
        with load.clock.device():
            self._observe(round_index)
        pushes = self.service.heal_pushes(load.logical)
        bursts = []
        with load.clock.device():
            for device_id, frame in sorted(pushes):
                device = self.by_id[device_id]
                order = verify_heal_frame(device.key, device_id, frame)
                if order is None:
                    self.errors.append(f"{device_id}: HEAL frame refused")
                    continue
                self.healed.add(device_id)
                session = Session(device, accept=True,
                                  before=self.verdict_of(device_id))
                phase.sessions.append(session)
                bursts.append(Burst(session, self.factory.chain(
                    replace(device.spec, behavior="honest"), order[3])))
        return bursts

    def finish_round(self, round_index: int, load) -> None:
        notices = self.service.policy_pushes()
        with load.clock.device():
            for device_id, frame in notices:
                device = self.by_id[device_id]
                if verify_policy_frame(device.key, device_id,
                                       frame) is not None:
                    self.notices += 1
            self._observe(round_index)
            if round_index % self.CAMPAIGN_ROUNDS == \
                    self.CAMPAIGN_ROUNDS - 1:
                self._close_campaign()

    def _close_campaign(self) -> None:
        rounds = []
        for device in self.devices:
            if device.device_id not in self.compromised:
                continue
            if device.device_id not in self.quarantined_round:
                self.errors.append(f"{device.device_id}: compromised, "
                                   f"never quarantined")
                continue
            rounds.append(self.quarantined_round[device.device_id] + 1)
            state = self._state(device.device_id)
            if state != "REJOINED":
                self.errors.append(f"{device.device_id}: ended {state}, "
                                   f"not REJOINED")
        if rounds:
            self.campaign_rounds_to_quarantine.append(
                sum(rounds) / len(rounds))

    def audit(self, sessions) -> List[str]:
        return self.errors + super().audit(sessions)

    def facts(self) -> dict:
        values = sorted(set(self.campaign_rounds_to_quarantine))
        return {"campaigns": len(self.campaign_rounds_to_quarantine),
                "rounds_to_quarantine": values,
                "policy_notices_verified": self.notices}


FLEETS = {
    "diverse-replay": DiverseReplay,
    "uniform-durable": UniformDurable,
    "hostile-campaign": HostileCampaign,
}
