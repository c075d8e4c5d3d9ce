"""The control flow log (CFLog) and its entry formats.

Entry sizes follow the mechanisms that produce them:

* :class:`BranchRecord` — an MTB packet: two 32-bit words (source and
  destination of a non-sequential transfer), 8 bytes;
* :class:`AddressRecord` — a TRACES-style instrumentation entry: a
  single 32-bit destination word, 4 bytes (site identity is implicit in
  replay order, so it costs nothing on the wire);
* :class:`LoopRecord` — a logged loop condition. Through the MTB-less
  TRACES path this is one word (4 bytes); RAP-Track's engine stores it
  alongside 8-byte MTB packets (site word + value word).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterable, List, Union

#: the 9-byte tagged encoding every record packs to: u8 tag, then two
#: u32 words (tags: 1 branch, 2 address, 3 loop, 4 speculation token)
RECORD = struct.Struct("<BII")


@dataclass(frozen=True)
class BranchRecord:
    """An MTB packet: (recording-instruction address, destination)."""

    key: int  # packet source = address of the recording instruction
    dst: int
    size_bytes: int = 8

    def pack(self) -> bytes:
        return RECORD.pack(1, self.key, self.dst)


@dataclass(frozen=True)
class AddressRecord:
    """A TRACES instrumentation entry: destination only on the wire."""

    key: int  # logging site (svc) address — implicit in replay order
    dst: int
    size_bytes: int = 4

    def pack(self) -> bytes:
        return RECORD.pack(2, self.key, self.dst)


@dataclass(frozen=True)
class LoopRecord:
    """A logged loop condition (the counter value at loop entry)."""

    key: int  # logging site (svc) address
    value: int
    size_bytes: int = 8

    def pack(self) -> bytes:
        return RECORD.pack(3, self.key, self.value & 0xFFFFFFFF)


Record = Union[BranchRecord, AddressRecord, LoopRecord]


class CFLog:
    """An ordered control flow log with wire-size accounting."""

    def __init__(self, records: Iterable[Record] = ()):
        self.records: List[Record] = list(records)

    def append(self, record: Record) -> None:
        self.records.append(record)

    def extend(self, records: Iterable[Record]) -> None:
        self.records.extend(records)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def __getitem__(self, index):
        return self.records[index]

    @property
    def size_bytes(self) -> int:
        """Total wire size of the log."""
        return sum(r.size_bytes for r in self.records)

    def pack(self) -> bytes:
        """Deterministic serialization (MAC input)."""
        return b"".join(r.pack() for r in self.records)

    def __str__(self) -> str:
        return f"CFLog({len(self.records)} records, {self.size_bytes} B)"
