"""Tests: gadget mining, hostile-chain rejection, and fleet admission.

The miner runs against the three attested builds of
``workloads/vulnerable.py``. Every synthesized chain must be a
*working* attack transcript: the replay verifier consumes it
losslessly and rejects it with the predicted violation. The fleet
half exercises both rejection layers — the `BNDS1` admission screen
(a return-flood dies before replay, with an evidence record) and the
authoritative replay (a ROP chain dies identically with or without
the analyzer attached).
"""

import pytest

from repro.cfa.fleet import (
    ChainFactory,
    DeviceProfile,
    DeviceSpec,
    FleetService,
    device_key,
)
from repro.cfa.fleet.store import EvidenceStore, EvidenceRecord
from repro.cfa.verifier import NaiveVerifier, Verifier
from repro.core.analysis import (
    BoundsRegistry,
    certify_workload,
    chain_reports,
    mine_gadgets,
    synthesize_chains,
    synthesize_return_flood,
)
from repro.crypto.hashing import measure_image
from repro.eval.runner import prepare
from repro.tz.keystore import KeyStore
from repro.workloads import load_workload

METHODS = ("rap-track", "traces", "naive-mtb")


def violation_kinds(violations):
    """Violation kinds, whether Violation objects or verdict tuples."""
    return {getattr(v, "kind", None) or v[0] for v in violations}


@pytest.fixture(scope="module")
def builds():
    """method -> (image, bound_map, chains) for the vulnerable image."""
    out = {}
    workload = load_workload("vulnerable")
    for method in METHODS:
        image, bound = prepare(workload, method)
        out[method] = (image, bound, synthesize_chains(image, bound, method))
    return out


@pytest.fixture(scope="module")
def factory():
    return ChainFactory(watermark=256)


def verifier_for(method, image, bound):
    key = KeyStore.provision().attestation_key
    if method == "naive-mtb":
        return NaiveVerifier(image, key)
    return Verifier(image, bound, key)


class TestMining:
    @pytest.mark.parametrize("method", METHODS)
    def test_landing_pads_mined(self, builds, method):
        image, bound, _ = builds[method]
        gadgets = mine_gadgets(image, bound, method)
        pads = [g for g in gadgets if g.is_pad]
        assert pads, "no terminal landing pads mined"
        assert any(g.label == "maintenance_unlock" for g in pads), (
            "the planted dead-code pad must be discoverable")

    @pytest.mark.parametrize("method", METHODS)
    def test_chains_synthesized_per_method(self, builds, method):
        _, _, chains = builds[method]
        assert chains
        # the planted pad yields the flagship chain, listed first
        assert chains[0].name == "rop:maintenance_unlock"
        assert chains[0].expected_violation == "rop-return"
        assert all(c.records for c in chains)


class TestReplayRejection:
    @pytest.mark.parametrize("method", METHODS)
    def test_every_chain_rejected_with_predicted_violation(
            self, builds, method):
        image, bound, chains = builds[method]
        verifier = verifier_for(method, image, bound)
        for chain in chains:
            outcome = verifier.replay(list(chain.records))
            assert outcome.lossless, (
                f"{chain.name}: chain must replay losslessly — the "
                f"attack is in the control flow, not in framing")
            assert not outcome.ok
            assert chain.expected_violation \
                in violation_kinds(outcome.violations), chain.name

    @pytest.mark.parametrize("method", METHODS)
    def test_return_flood_raises_inferred_depth(self, builds, method):
        image, bound, _ = builds[method]
        flood = synthesize_return_flood(image, bound, method, hops=8)
        assert flood is not None
        outcome = verifier_for(method, image, bound).replay(
            list(flood.records))
        assert not outcome.ok and outcome.violations


class TestFleetRejection:
    def submit_chain(self, service, chain, image, device_id="prv-evil",
                     method="naive-mtb"):
        profile = DeviceProfile("vulnerable", method)
        challenge = service.open_session(
            device_id, profile, device_key(device_id), 0.0)
        reports = chain_reports(chain, device_id, challenge.nonce,
                                measure_image(image), device_key(device_id))
        for report in reports:
            service.submit(device_id, report)
        return service.verdicts.get(device_id)

    def test_flood_rejected_at_admission_with_evidence(self, tmp_path):
        registry = BoundsRegistry()
        registry.add(certify_workload("vulnerable", "naive-mtb"))
        store = EvidenceStore(tmp_path / "evidence.log",
                              device_key("vrf-store"))
        service = FleetService(workers=0, bounds=registry, store=store)
        image, bound = prepare(load_workload("vulnerable"), "naive-mtb")
        flood = synthesize_return_flood(image, bound, "naive-mtb", hops=8)
        assert flood is not None
        verdict = self.submit_chain(service, flood, image)
        metrics = service.close()

        assert verdict is not None and not verdict.accepted
        assert verdict.reason.startswith("bounds:")
        assert "stack depth" in verdict.reason
        assert metrics.sessions_bounds_rejected == 1
        # the fast-path rejection still leaves a durable evidence record
        recovered = EvidenceStore(tmp_path / "evidence.log",
                                  device_key("vrf-store")).recovered
        settled = [r for r in recovered if isinstance(r, EvidenceRecord)]
        assert len(settled) == 1
        assert not settled[0].accepted
        assert settled[0].reason.startswith("bounds:")
        assert settled[0].device_id == "prv-evil"

    def test_forged_flood_fails_authentication_before_the_screen(self):
        # the screen reads only authenticated streams: a flood signed
        # under the wrong key is rejected for its MAC, never screened
        registry = BoundsRegistry()
        registry.add(certify_workload("vulnerable", "naive-mtb"))
        service = FleetService(workers=0, bounds=registry)
        image, bound = prepare(load_workload("vulnerable"), "naive-mtb")
        flood = synthesize_return_flood(image, bound, "naive-mtb", hops=8)
        challenge = service.open_session(
            "prv-evil", DeviceProfile("vulnerable", "naive-mtb"),
            device_key("prv-evil"), 0.0)
        for report in chain_reports(flood, "prv-evil", challenge.nonce,
                                    measure_image(image),
                                    device_key("someone-else")):
            service.submit("prv-evil", report)
        metrics = service.close()
        assert service.verdicts["prv-evil"].reason == "bad MAC on report #0"
        assert metrics.sessions_bounds_rejected == 0

    @pytest.mark.parametrize("with_bounds", [False, True],
                             ids=["analyzer-off", "analyzer-on"])
    def test_rop_chain_rejected_either_way(self, builds, with_bounds):
        # replay stays authoritative: the ROP chain is within the
        # (unbounded-records) certificate, so the screen passes it and
        # replay rejects it — identically with the analyzer disabled
        image, bound, chains = builds["rap-track"]
        registry = None
        if with_bounds:
            registry = BoundsRegistry()
            registry.add(certify_workload("vulnerable", "rap-track"))
        service = FleetService(workers=0, bounds=registry)
        verdict = self.submit_chain(service, chains[0], image,
                                    method="rap-track")
        service.close()
        assert verdict is not None and not verdict.accepted
        assert "rop-return" in violation_kinds(verdict.violations)

    def test_honest_session_verdict_identical_with_analyzer(self, factory):
        verdicts = []
        for bounds in (None, self._fibcall_registry()):
            service = FleetService(workers=0, bounds=bounds)
            challenge = service.open_session(
                "prv-0", DeviceProfile("fibcall"), device_key("prv-0"), 0.0)
            chain = factory.chain(
                DeviceSpec("prv-0", DeviceProfile("fibcall"), "honest"),
                challenge.nonce)
            for chunk in chain:
                service.submit("prv-0", chunk)
            service.close()
            verdicts.append(service.verdicts["prv-0"])
        assert verdicts[0] == verdicts[1]
        assert verdicts[0].accepted

    @staticmethod
    def _fibcall_registry():
        registry = BoundsRegistry()
        registry.add(certify_workload("fibcall", "rap-track"))
        return registry
