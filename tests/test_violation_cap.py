"""A verdict's violation list is capped so it always persists.

A device whose Non-Secure app is compromised still signs whatever the
hardware logged, so it can drive replay to any number of violations.
EVD1 counts a record's violations in a u16: without a cap on the
verifier side, a chain with more than 65,535 violations could never be
written to evidence, and its verdict would never be released.
"""

import dataclasses

from repro.cfa.fleet import DeviceProfile, FleetService, device_key
from repro.cfa.fleet.store import EvidenceStore, verify_evidence_trail
from repro.cfa.fleet.verify import (
    MAX_VERDICT_VIOLATIONS,
    SessionVerdict,
    _summarize,
)
from repro.cfa.verifier import VerificationResult, Violation
from repro.core.analysis import chain_reports, synthesize_return_flood
from repro.crypto.hashing import measure_image
from repro.eval.runner import prepare
from repro.workloads import load_workload

KEY = b"\x5a" * 32


def test_capped_verdict_round_trips_through_evidence(tmp_path):
    outcome = VerificationResult(authenticated=True, lossless=True)
    outcome.violations = [Violation("return", 0x2000 + i, f"hop {i}")
                          for i in range(70_000)]
    summary = _summarize(outcome)
    assert len(summary.violations) == MAX_VERDICT_VIOLATIONS
    assert summary.violations[0] == ("return", 0x2000, "hop 0")
    verdict = SessionVerdict(
        device_id="prv-evil", profile=DeviceProfile("vulnerable"),
        accepted=False, authenticated=True, lossless=True,
        violations=summary.violations, records=70_000)
    store = EvidenceStore(tmp_path / "evidence.log", KEY, fsync=False)
    record = store.append(verdict, chain=b"\x00" * 32)
    store.close()
    assert record.to_verdict() == verdict
    (persisted,) = verify_evidence_trail(tmp_path / "evidence.log", KEY)
    assert persisted.to_verdict() == verdict


def test_signed_violation_flood_settles_with_evidence(tmp_path):
    # 66,010 return-to-return hops: 198,033 records, 25 signed reports
    image, bound = prepare(load_workload("vulnerable"), "naive-mtb")
    flood = synthesize_return_flood(image, bound, "naive-mtb", hops=10)
    hop, tail = flood.records[:3], flood.records[30:]
    assert flood.records == hop * 10 + tail
    flood = dataclasses.replace(flood, records=hop * 66_010 + tail)
    store = EvidenceStore(tmp_path / "evidence.log", KEY, fsync=False)
    service = FleetService(workers=0, store=store)
    device = "prv-evil"
    challenge = service.open_session(
        device, DeviceProfile("vulnerable", "naive-mtb"),
        device_key(device), 0.0)
    reports = chain_reports(flood, device, challenge.nonce,
                            measure_image(image), device_key(device),
                            watermark=65536)
    assert len(reports) == 25
    for report in reports:
        service.submit(device, report)
    service.close()

    verdict = service.verdicts[device]
    assert not verdict.accepted and verdict.authenticated
    assert verdict.records == 198_033
    assert len(verdict.violations) == MAX_VERDICT_VIOLATIONS
    (record,) = verify_evidence_trail(tmp_path / "evidence.log", KEY)
    assert record.to_verdict() == verdict
