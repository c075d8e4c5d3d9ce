"""SpecCFA-style sub-path speculation (optional extension).

The paper points at CFLog transmission as the system's bottleneck and
cites SpecCFA (Caulfield et al., ACSAC 2024) for application-aware
sub-path speculation: Vrf and Prv agree on common record sub-sequences
("speculated sub-paths"); at runtime the Prv replaces each run of
matches with one compact token, shrinking the transmitted CFLog without
losing information (the Verifier expands tokens before replay).

This module implements the core of that idea over our record streams:

* :func:`mine_subpaths` — Vrf-side, offline: mine the most profitable
  tandem-repeating sub-sequences from a profiling run's CFLog;
* :func:`compress` / :func:`expand` — the lossless transform;
* :func:`speculate_result` — Prv-side: rewrite an attestation's report
  chain with compressed logs (re-signed, so authentication covers what
  is actually transmitted);
* :class:`SpeculativeVerifier` — the ordinary verifier's ``verify``
  with a dictionary: authenticate the compressed chain, expand, replay.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from repro.cfa.cflog import (
    RECORD,
    AddressRecord,
    BranchRecord,
    CFLog,
    LoopRecord,
    Record,
)
from repro.cfa.report import AttestationResult
from repro.codec import Reader, Writer

if TYPE_CHECKING:
    from repro.cfa.verifier import ReplayVerifier, VerificationResult


@dataclass(frozen=True)
class SpecRecord:
    """One token: ``count`` consecutive repetitions of sub-path ``path_id``.

    Wire size is one word (path id and count bit-packed), matching the
    compact encoding SpecCFA targets.
    """

    path_id: int
    count: int
    size_bytes: int = 4

    def pack(self) -> bytes:
        return RECORD.pack(4, self.path_id, self.count)


#: a dictionary of speculated sub-paths: id -> record tuple
SubPathDict = Dict[int, Tuple[Record, ...]]


class SubPath(tuple):
    """A decoded sub-path that keeps its records' wire bytes, sliced
    from the dictionary payload (see :func:`expand_packed`)."""

    packed: bytes


# -- dictionary serialization ------------------------------------------------
#
# A speculation dictionary crosses the wire (the fleet Vrf pushes mined
# dictionaries to devices), so it has a canonical byte layout::
#
#     payload := b"SPD1" u32 n_paths
#                ( u32 path_id u16 n_records (record)* )*
#     record  := u8 tag u32 a u32 b        # Record.pack, tags 1/2/3
#
# entries sorted by path id, so identical dictionaries serialize to
# identical bytes and :func:`dictionary_digest` is content-addressed.

DICTIONARY_MAGIC = b"SPD1"

_PATTERN_RECORDS = {
    1: BranchRecord,
    2: AddressRecord,
    3: LoopRecord,
}


def pack_dictionary(dictionary: SubPathDict) -> bytes:
    """Canonical serialization of a speculation dictionary."""
    out = Writer(ValueError).raw(DICTIONARY_MAGIC).u32(len(dictionary))
    for path_id in sorted(dictionary):
        pattern = dictionary[path_id]
        if not pattern:
            raise ValueError(f"sub-path {path_id} is empty")
        out.u32(path_id).u16(len(pattern))
        for record in pattern:
            if isinstance(record, SpecRecord):
                raise ValueError("sub-paths cannot nest speculation tokens")
            out.raw(record.pack())
    return out.getvalue()


def unpack_dictionary(payload: bytes) -> SubPathDict:
    """Invert :func:`pack_dictionary`; strict (raises ``ValueError``)."""
    reader = Reader(payload, ValueError, "dictionary")
    reader.header(DICTIONARY_MAGIC, "dictionary")
    dictionary: SubPathDict = {}
    for _ in range(reader.u32()):
        path_id, n_records = reader.u32(), reader.u16()
        if path_id in dictionary:
            raise ValueError(f"duplicate sub-path id {path_id}")
        if n_records == 0:
            raise ValueError(f"sub-path {path_id} is empty")
        start = reader.pos
        pattern = []
        for tag, a, b in reader.structs(RECORD, n_records, "record"):
            cls = _PATTERN_RECORDS.get(tag)
            if cls is None:
                raise ValueError(f"unknown sub-path record tag {tag}")
            pattern.append(cls(a, b))
        sub_path = SubPath(pattern)
        sub_path.packed = payload[start:reader.pos]
        dictionary[path_id] = sub_path
    reader.done("trailing bytes after dictionary")
    return dictionary


def dictionary_digest(dictionary: SubPathDict) -> bytes:
    """Content digest of a dictionary (its canonical serialization)."""
    return hashlib.sha256(pack_dictionary(dictionary)).digest()


#: the digest every Prv and Vrf agree on before any mining has happened
EMPTY_DICTIONARY_DIGEST = dictionary_digest({})


def mine_subpaths(records: Sequence[Record], *, max_len: int = 8,
                  top_k: int = 8, min_gain_bytes: int = 16) -> SubPathDict:
    """Mine profitable sub-paths from a profiling CFLog (Vrf side).

    Scans for sub-sequences that repeat back-to-back (tandem repeats —
    the shape loops produce) and keeps the ``top_k`` by total byte
    savings. Deterministic given the input.
    """
    gains: Counter = Counter()
    n = len(records)
    for length in range(1, max_len + 1):
        i = 0
        while i + length <= n:
            candidate = tuple(records[i:i + length])
            repeats = 1
            j = i + length
            while (j + length <= n
                   and tuple(records[j:j + length]) == candidate):
                repeats += 1
                j += length
            if repeats >= 2:
                saved = sum(r.size_bytes for r in candidate) * repeats - 4
                gains[candidate] += saved
                i = j
            else:
                i += 1
    chosen = [
        candidate for candidate, gain in gains.most_common()
        if gain >= min_gain_bytes
    ][:top_k]
    # longer sub-paths first so greedy compression prefers them
    chosen.sort(key=len, reverse=True)
    return {path_id: candidate for path_id, candidate in enumerate(chosen)}


def compress(records: Sequence[Record],
             dictionary: SubPathDict) -> List[Record]:
    """Greedy left-to-right sub-path substitution (Prv side)."""
    ordered = sorted(dictionary.items(), key=lambda kv: len(kv[1]),
                     reverse=True)
    out: List[Record] = []
    i = 0
    n = len(records)
    while i < n:
        matched = False
        for path_id, pattern in ordered:
            length = len(pattern)
            if tuple(records[i:i + length]) != pattern:
                continue
            count = 1
            j = i + length
            while tuple(records[j:j + length]) == pattern:
                count += 1
                j += length
            out.append(SpecRecord(path_id, count))
            i = j
            matched = True
            break
        if not matched:
            out.append(records[i])
            i += 1
    return out


def expand(records: Sequence[Record],
           dictionary: SubPathDict) -> List[Record]:
    """Invert :func:`compress` (Vrf side, after authentication)."""
    out: List[Record] = []
    for record in records:
        if isinstance(record, SpecRecord):
            try:
                pattern = dictionary[record.path_id]
            except KeyError:
                raise ValueError(
                    f"unknown speculated sub-path id {record.path_id}"
                ) from None
            out.extend(pattern * record.count)
        else:
            out.append(record)
    return out


def speculate_result(result: AttestationResult, dictionary: SubPathDict,
                     key: bytes) -> AttestationResult:
    """Rewrite a report chain with compressed CFLogs, re-signed.

    In a deployment the engine compresses before signing; applying the
    transform to an existing result models the same wire format.
    """
    return replace(result, reports=[
        replace(report, cflog=CFLog(compress(report.cflog.records,
                                             dictionary))).sign(key)
        for report in result.reports])


def expand_packed(records: Sequence[Record], packed: bytes,
                  dictionary: SubPathDict) -> bytes:
    """The wire bytes of ``expand(records, dictionary)``, spliced from
    ``packed``, the wire bytes of ``records`` (which :func:`expand`
    must have accepted): each token's 9 bytes become its sub-path's
    bytes, ``count`` times."""
    parts: List[bytes] = []
    start = 0
    for index, record in enumerate(records):
        if type(record) is SpecRecord:
            pattern = dictionary[record.path_id]
            pattern_bytes = getattr(pattern, "packed", None) or b"".join(
                r.pack() for r in pattern)  # a dictionary built in memory
            parts += [packed[start:index * RECORD.size],
                      pattern_bytes * record.count]
            start = (index + 1) * RECORD.size
    return b"".join(parts + [packed[start:]]) if parts else packed


class SpeculativeVerifier:
    """Vrf for compressed chains: the wrapped verifier's ``verify``,
    expanding through ``dictionary`` after authentication."""

    def __init__(self, verifier: "ReplayVerifier", dictionary: SubPathDict):
        self.verifier = verifier
        self.dictionary = dictionary

    def verify(self, result: AttestationResult,
               challenge: bytes) -> "VerificationResult":
        return self.verifier.verify(result, challenge, self.dictionary)
