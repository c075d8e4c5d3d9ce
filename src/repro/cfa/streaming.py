"""Streaming authentication of partial-report chains.

Section IV-E's partial reports exist because Prv cannot hold the whole
CFLog; the operational counterpart on the Vrf side is *incremental*
consumption: authenticate each partial as it arrives (rejecting bad
chains early, bounding Vrf memory to the running log) and replay once
the final report lands. :class:`StreamingVerifier` is the verifier's
only authenticator: it checks each MAC over the received bytes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.cfa.cflog import RECORD, Record
from repro.cfa.report import Report
from repro.cfa.wire import decode_report, encode_report, mac_input
from repro.crypto.mac import check

if TYPE_CHECKING:
    from repro.cfa.verifier import ReplayVerifier, VerificationResult


class StreamError(Exception):
    """A protocol violation in the incoming report stream."""


def decode_received(data: bytes) -> Report:
    """Decode exactly one wire-encoded report."""
    report, consumed = decode_report(data)
    if consumed != len(data):
        raise StreamError("trailing bytes after report")
    return report


class StreamingVerifier:
    """Authenticates a report chain one report at a time.

    Each report must carry a valid MAC under the verifier's key, answer
    ``challenge``, claim the verifier's ``H_MEM`` and arrive in
    sequence; the first that fails rejects the stream for good, with
    the reason as :class:`StreamError`.
    """

    def __init__(self, verifier: "ReplayVerifier", challenge: bytes):
        self.verifier = verifier
        self.challenge = challenge
        #: the authenticated records so far, and their wire bytes (one
        #: entry per report)
        self.records: List[Record] = []
        self.packed: List[bytes] = []
        self.partials_accepted = 0
        #: True once the final report has been absorbed
        self.finished = False
        self.rejected: Optional[str] = None

    def feed_bytes(self, data: bytes) -> None:
        """Feed one wire-encoded report."""
        self.feed(decode_received(data))

    def feed(self, report: Report) -> None:
        """Authenticate and absorb one report, in order.

        A decoded report is checked over the bytes it was decoded from;
        a report built in memory is encoded, and those bytes checked.
        """
        if self.finished:
            raise StreamError("stream already finished")
        if self.rejected:
            raise StreamError(f"stream already rejected: {self.rejected}")
        if not report.received:
            report = decode_received(encode_report(report))
        signed = mac_input(report.received)
        if not check(self.verifier.key, report.mac, signed):
            self.rejected = f"bad MAC on report #{report.seq}"
        elif report.challenge != self.challenge:
            self.rejected = f"challenge mismatch on report #{report.seq}"
        elif report.h_mem != self.verifier.expected_h_mem:
            self.rejected = f"H_MEM mismatch on report #{report.seq}"
        elif report.seq != self.partials_accepted:
            self.rejected = (f"out-of-order report #{report.seq}, "
                             f"expected #{self.partials_accepted}")
        if self.rejected:
            raise StreamError(self.rejected)
        self.records.extend(report.cflog.records)
        # the records' wire bytes end the MAC input
        self.packed.append(
            signed[len(signed) - RECORD.size * len(report.cflog):])
        self.partials_accepted += 1
        self.finished = report.final

    def close(self) -> None:
        """Require the final report: the chain is complete."""
        if not self.finished:
            raise StreamError("final report not yet received")

    def finish(self) -> "VerificationResult":
        """Replay the accumulated log after the final report."""
        self.close()
        outcome = self.verifier.replay(self.records)
        outcome.authenticated = True  # each report was checked on feed
        return outcome

