"""Concurrent fleet verification must equal serial verification.

A 50-device mixed fleet (honest, faulty, and hostile transports over
fibcall/prime/vulnerable) is interleaved against the service once
serially and once with 4 process-pool workers; the runs are driven by the same
seed, so every device transmits byte-identical traffic, and the
per-session verdicts must compare ``==`` — the whole point of routing
both paths through ``verify_session_chain``.
"""

import pytest

from repro.cfa.fleet import FleetService, FleetSimulator, build_fleet_specs

DEVICES = 50
SEED = 11


@pytest.fixture(scope="module")
def specs():
    return build_fleet_specs(DEVICES, attack_fraction=0.3, seed=SEED)


@pytest.fixture(scope="module")
def serial_run(specs):
    sim = FleetSimulator(specs, seed=SEED)
    service = FleetService(workers=0, idle_timeout=5.0)
    report = sim.run(service)
    return sim, report, dict(service.verdicts)


def concurrent_run(specs, serial_sim):
    sim = FleetSimulator(specs, seed=SEED)
    sim.factory = serial_sim.factory  # share the attested templates
    with FleetService(workers=4, idle_timeout=5.0) as service:
        report = sim.run(service)
        return report, dict(service.verdicts), service.metrics


class TestSerialBaseline:
    def test_every_expectation_met(self, serial_run):
        _, report, verdicts = serial_run
        assert report.ok, report.mismatches
        assert len(verdicts) == DEVICES

    def test_mixed_outcomes_present(self, specs, serial_run):
        _, _, verdicts = serial_run
        accepted = sum(1 for v in verdicts.values() if v.accepted)
        assert 0 < accepted < DEVICES  # the fleet is genuinely mixed


class TestConcurrentEqualsSerial:
    def test_verdicts_identical(self, specs, serial_run):
        serial_sim, _, serial_verdicts = serial_run
        report, verdicts, metrics = concurrent_run(specs, serial_sim)
        assert report.ok, report.mismatches
        assert verdicts == serial_verdicts
        assert metrics.workers == 4
        assert metrics.queue_depth == 0  # fully drained
