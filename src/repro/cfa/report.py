"""Attestation reports: structure, authentication, and run results."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.cfa.cflog import CFLog
from repro.crypto.mac import mac_report, verify_mac


@dataclass
class Report:
    """One (possibly partial) attestation report.

    A full attestation is a chain of ``seq``-numbered reports sharing
    one challenge; only the last has ``final=True`` (paper section
    IV-E: partial reports under the MTB_FLOW watermark).
    """

    device_id: bytes
    method: str
    challenge: bytes
    h_mem: bytes
    seq: int
    final: bool
    cflog: CFLog
    mac: bytes = b""
    #: for a report decoded from the wire, the exact bytes it was
    #: decoded from (empty for a report built in memory). The stream
    #: authenticator checks the MAC over these bytes, so a decoded
    #: report must not be edited afterwards; it is not an init field,
    #: so ``dataclasses.replace`` drops it.
    received: bytes = field(default=b"", init=False, repr=False,
                            compare=False)

    def _fields(self):
        return (
            self.device_id,
            self.method.encode(),
            self.challenge,
            self.h_mem,
            self.seq.to_bytes(4, "little"),
            b"\x01" if self.final else b"\x00",
            self.cflog.pack(),
        )

    def sign(self, key: bytes) -> "Report":
        self.mac = mac_report(key, *self._fields())
        return self

    def verify(self, key: bytes) -> bool:
        # verifiers never call this: StreamingVerifier authenticates
        # the received bytes instead of re-encoding the fields
        return verify_mac(key, self.mac, *self._fields())


@dataclass
class AttestationResult:
    """Everything one attested execution produced, plus run metrics."""

    reports: List[Report] = field(default_factory=list)
    cycles: int = 0
    instructions: int = 0
    gateway_calls: int = 0
    gateway_cycles: int = 0
    exit_reason: str = ""
    mtb_packets: int = 0  # total packets the MTB captured (lifetime)
    report_cycles: int = 0  # report signing/transmission pause cycles

    @property
    def final_report(self) -> Report:
        return self.reports[-1]

    @property
    def cflog(self) -> CFLog:
        """The full log: all partial reports concatenated in order."""
        merged = CFLog()
        for report in self.reports:
            merged.extend(report.cflog.records)
        return merged

    @property
    def cflog_bytes(self) -> int:
        return sum(r.cflog.size_bytes for r in self.reports)

    @property
    def partial_report_count(self) -> int:
        return max(0, len(self.reports) - 1)
