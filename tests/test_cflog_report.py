"""Unit tests: CFLog records, wire sizes, reports."""

import pytest

from repro.cfa.cflog import AddressRecord, BranchRecord, CFLog, LoopRecord
from repro.cfa.report import AttestationResult, Report
from repro.tz.keystore import KeyStore
from conftest import chain_authenticates


class TestRecords:
    def test_wire_sizes(self):
        assert BranchRecord(1, 2).size_bytes == 8  # MTB packet
        assert AddressRecord(1, 2).size_bytes == 4  # TRACES entry
        assert LoopRecord(1, 2).size_bytes == 8
        assert LoopRecord(1, 2, size_bytes=4).size_bytes == 4

    def test_pack_distinguishes_types(self):
        assert BranchRecord(1, 2).pack() != AddressRecord(1, 2).pack()
        assert AddressRecord(1, 2).pack() != LoopRecord(1, 2).pack()

    def test_pack_sensitive_to_fields(self):
        assert BranchRecord(1, 2).pack() != BranchRecord(1, 3).pack()
        assert BranchRecord(1, 2).pack() != BranchRecord(2, 2).pack()


class TestCFLog:
    def test_size_accumulates(self):
        log = CFLog([BranchRecord(1, 2), AddressRecord(3, 4)])
        assert log.size_bytes == 12
        log.append(LoopRecord(5, 6))
        assert log.size_bytes == 20
        assert len(log) == 3

    def test_iteration_and_indexing(self):
        records = [BranchRecord(i, i + 1) for i in range(3)]
        log = CFLog(records)
        assert list(log) == records
        assert log[1] == records[1]

    def test_pack_order_sensitive(self):
        a = CFLog([BranchRecord(1, 2), BranchRecord(3, 4)])
        b = CFLog([BranchRecord(3, 4), BranchRecord(1, 2)])
        assert a.pack() != b.pack()

    def test_str(self):
        assert "2 records" in str(CFLog([BranchRecord(1, 2),
                                         BranchRecord(3, 4)]))


class TestReport:
    def _report(self, **kw):
        defaults = dict(
            device_id=b"dev", method="rap-track", challenge=b"ch",
            h_mem=b"h" * 32, seq=0, final=True,
            cflog=CFLog([BranchRecord(1, 2)]),
        )
        defaults.update(kw)
        return Report(**defaults)

    def test_sign_verify_roundtrip(self):
        key = KeyStore.provision().attestation_key
        report = self._report().sign(key)
        assert report.verify(key)

    @pytest.mark.parametrize("field,value", [
        ("challenge", b"other"),
        ("h_mem", b"x" * 32),
        ("seq", 1),
        ("final", False),
        ("method", "traces"),
        ("device_id", b"dev2"),
    ])
    def test_any_field_change_breaks_mac(self, field, value):
        key = KeyStore.provision().attestation_key
        report = self._report().sign(key)
        setattr(report, field, value)
        assert not report.verify(key)

    def test_log_change_breaks_mac(self):
        key = KeyStore.provision().attestation_key
        report = self._report().sign(key)
        report.cflog.append(BranchRecord(9, 9))
        assert not report.verify(key)


class TestAttestationResult:
    def _chain(self, key, count=3):
        reports = []
        for seq in range(count):
            reports.append(Report(
                device_id=b"d", method="m", challenge=b"c", h_mem=b"h",
                seq=seq, final=seq == count - 1,
                cflog=CFLog([BranchRecord(seq, seq + 1)]),
            ).sign(key))
        return AttestationResult(reports=reports)

    def test_chain_verifies(self):
        key = KeyStore.provision().attestation_key
        assert chain_authenticates(self._chain(key), key)

    def test_merged_cflog_order(self):
        key = KeyStore.provision().attestation_key
        result = self._chain(key)
        assert [r.key for r in result.cflog] == [0, 1, 2]
        assert result.partial_report_count == 2

    def test_empty_chain_fails(self):
        key = KeyStore.provision().attestation_key
        assert not chain_authenticates(AttestationResult(reports=[]), key)

    def test_gap_in_sequence_fails(self):
        key = KeyStore.provision().attestation_key
        result = self._chain(key)
        del result.reports[1]
        assert not chain_authenticates(result, key)

    def test_nonfinal_tail_fails(self):
        key = KeyStore.provision().attestation_key
        result = self._chain(key)
        result.reports[-1].final = False
        result.reports[-1].sign(key)
        assert not chain_authenticates(result, key)

    def test_mixed_challenge_fails(self):
        key = KeyStore.provision().attestation_key
        result = self._chain(key)
        result.reports[1].challenge = b"other"
        result.reports[1].sign(key)
        assert not chain_authenticates(result, key)
