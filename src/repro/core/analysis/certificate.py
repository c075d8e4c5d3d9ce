"""`BNDS1` path-bound certificates: canonical bytes, HMAC, CAS store.

A certificate pins the :mod:`~repro.core.analysis.bounds` result for
one ``(image, method)`` to the image's ``H_MEM`` digest, signed under a
dedicated HMAC key so the fleet can trust bounds it did not compute.
Serialization follows the repo's canonical-bytes discipline (SPD1,
FWP1): fixed magic, version byte, length-prefixed fields, sorted key
lists, strict decode — any malformation raises ``ValueError`` and an
attacker has no degrees of freedom below the MAC.

Layout (all little-endian)::

    "BNDS1" | u8 version
    | u16-lp workload | u16-lp method | u16-lp image_digest
    | u64 max_stack_depth | u64 max_log_records | u64 max_log_bytes
      (0xFFFF_FFFF_FFFF_FFFF = unbounded)
    | u8 depth_exact
    | u16 cycle_count { u16 member_count { u16-lp label } }
    | u32 call_key_count { u32 addr }    (sorted ascending)
    | u32 return_key_count { u32 addr }  (sorted ascending)
    | u16-lp hmac-sha256(payload)

Certificates are content-addressed next to the image artifacts: the
file name is the image digest (hex) plus the method, so the verifier
looks a session's pinned firmware up by the same ``H_MEM`` it already
authenticates.
"""

from __future__ import annotations

import hashlib
import os
import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.codec import Reader, Writer, atomic_write
from repro.crypto.mac import check, sign
from repro.core.analysis.bounds import UNBOUNDED

MAGIC = b"BNDS1"
VERSION = 1

#: default signing seed (deployments provision their own)
DEFAULT_BOUNDS_SEED = b"fleet-factory-secret"


def bounds_key(seed: bytes) -> bytes:
    """Derive the certificate-signing key from a deployment seed."""
    return hashlib.sha256(b"bounds-sign|" + seed).digest()


@dataclass(frozen=True)
class BoundsCertificate:
    """One signed, image-pinned static-bounds statement."""

    workload: str
    method: str
    image_digest: bytes  # H_MEM of the attested image
    max_stack_depth: Optional[int]  # None: unbounded
    max_log_records: Optional[int]
    max_log_bytes: Optional[int]
    recursion_cycles: Tuple[Tuple[str, ...], ...]
    depth_exact: bool
    call_keys: Tuple[int, ...]  # record keys that push a return frame
    return_keys: Tuple[int, ...]  # record keys that pop one

    @property
    def bounded(self) -> bool:
        return self.max_log_records is not None


_KEY = struct.Struct("<I")


def pack_certificate(cert: BoundsCertificate) -> bytes:
    """The unsigned canonical payload."""
    out = Writer(ValueError).raw(MAGIC).u8(VERSION)
    out.lp(cert.workload, 2).lp(cert.method, 2).lp(cert.image_digest, 2)
    for bound in (cert.max_stack_depth, cert.max_log_records,
                  cert.max_log_bytes):
        out.u64(UNBOUNDED if bound is None else bound)
    out.u8(1 if cert.depth_exact else 0).u16(len(cert.recursion_cycles))
    for cycle in cert.recursion_cycles:
        out.u16(len(cycle))
        for label in cycle:
            out.lp(label, 2)
    for keys in (cert.call_keys, cert.return_keys):
        out.u32(len(keys))
        for addr in sorted(keys):
            out.u32(addr)
    return out.getvalue()


def sign_certificate(cert: BoundsCertificate, key: bytes) -> bytes:
    """Canonical payload + MAC: the on-disk/wire blob."""
    payload = pack_certificate(cert)
    mac = sign(key, payload)
    return payload + Writer(ValueError).lp(mac, 2).getvalue()


def _bound(value: int) -> Optional[int]:
    return None if value == UNBOUNDED else value


def decode_certificate(blob: bytes) -> Tuple[BoundsCertificate, bytes]:
    """Strict parse of a signed blob -> (certificate, mac). Unauthenticated:
    callers that care must use :func:`verify_certificate`."""
    r = Reader(blob, ValueError, "certificate")
    r.header(MAGIC, "certificate", VERSION)
    workload = r.lp_str(2, field="workload")
    method = r.lp_str(2, field="method")
    digest = r.lp_bytes(2)
    depth, records, log_bytes = (_bound(r.u64()) for _ in range(3))
    flag = r.u8()
    if flag not in (0, 1):
        raise ValueError(f"depth_exact flag must be 0/1, got {flag}")
    cycles = tuple(
        tuple(r.lp_str(2, field="cycle label") for _ in range(r.u16()))
        for _ in range(r.u16()))
    key_lists: List[Tuple[int, ...]] = []
    for _ in range(2):
        keys = tuple(k for (k,) in r.structs(_KEY, r.u32(), "key"))
        if list(keys) != sorted(keys):
            raise ValueError("key list not sorted (non-canonical)")
        key_lists.append(keys)
    mac = r.lp_bytes(2)
    r.done("trailing bytes after certificate")
    cert = BoundsCertificate(
        workload=workload, method=method, image_digest=digest,
        max_stack_depth=depth, max_log_records=records,
        max_log_bytes=log_bytes, recursion_cycles=cycles,
        depth_exact=bool(flag), call_keys=key_lists[0],
        return_keys=key_lists[1],
    )
    return cert, mac


def verify_certificate(blob: bytes, key: bytes) -> BoundsCertificate:
    """Parse + authenticate; raises ``ValueError`` on any failure."""
    cert, mac = decode_certificate(blob)
    if not check(key, mac, pack_certificate(cert)):
        raise ValueError("certificate MAC mismatch")
    return cert


# -- content-addressed store -------------------------------------------------

def certificate_path(root: str, image_digest: bytes, method: str) -> str:
    return os.path.join(root, f"{image_digest.hex()}.{method}.bnds")


def store_certificate(root: str, cert: BoundsCertificate,
                      key: bytes) -> str:
    """Atomically write the signed blob next to the image artifacts."""
    os.makedirs(root, exist_ok=True)
    path = certificate_path(root, cert.image_digest, cert.method)
    atomic_write(path, sign_certificate(cert, key))
    return path


def load_certificate(root: str, image_digest: bytes, method: str,
                     key: bytes) -> Optional[BoundsCertificate]:
    """Load + verify a stored certificate; None when absent."""
    path = certificate_path(root, image_digest, method)
    if not os.path.exists(path):
        return None
    with open(path, "rb") as handle:
        return verify_certificate(handle.read(), key)


# -- admission screening -----------------------------------------------------

def screen_records(cert: BoundsCertificate,
                   records: Sequence[object]) -> Optional[str]:
    """Check a claimed (dictionary-expanded) record stream against the
    certificate. Returns a rejection reason, or None when the claim is
    within bounds.

    The length/byte checks apply whenever the certificate is bounded.
    The depth inference runs only when the certificate marks it exact
    (every shadow push/pop visible in the log — the naive baseline):
    the maximum net excess of return records over call records in any
    window of the stream is a lower bound on the stack depth the chain
    *claims*, and symmetrically for call floods. Trampoline methods
    leave direct calls/leaf returns unlogged, so no sound inference
    exists there — replay's shadow stack covers them instead.
    """
    count = len(records)
    if cert.max_log_records is not None and count > cert.max_log_records:
        return (f"bounds: {count} records exceed the certified maximum "
                f"{cert.max_log_records}")
    total = sum(getattr(r, "size_bytes", 0) for r in records)
    if cert.max_log_bytes is not None and total > cert.max_log_bytes:
        return (f"bounds: {total} log bytes exceed the certified maximum "
                f"{cert.max_log_bytes}")
    if not cert.depth_exact or cert.max_stack_depth is None:
        return None
    calls = frozenset(cert.call_keys)
    returns = frozenset(cert.return_keys)
    up = down = 0
    max_up = max_down = 0
    for record in records:
        key = getattr(record, "key", None)
        if key in calls:
            up += 1
            down = max(0, down - 1)
            if up > max_up:
                max_up = up
        elif key in returns:
            down += 1
            up = max(0, up - 1)
            if down > max_down:
                max_down = down
    inferred = max(max_up, max_down)
    if inferred > cert.max_stack_depth:
        return (f"bounds: inferred stack depth {inferred} exceeds the "
                f"certified maximum {cert.max_stack_depth}")
    return None


# -- production --------------------------------------------------------------

def frame_keys(image, bound_map,
               method: str) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """(call_keys, return_keys): the record keys that move the shadow
    stack, in the method's own record-key space.

    Trampoline methods key records by the rewrite map's ``rec_addr``;
    the naive baseline keys every packet by the transfer's own address
    in the unmodified image.
    """
    from repro.isa.instructions import InstrKind
    from repro.isa.operands import Reg
    from repro.isa.registers import LR, PC

    calls: List[int] = []
    returns: List[int] = []
    if method in ("rap-track", "traces"):
        if bound_map is not None:
            for addr, info in bound_map.indirect_at.items():
                if info.kind == "call":
                    calls.append(info.rec_addr)
                elif info.kind in ("return_pop", "return_bx"):
                    returns.append(info.rec_addr)
        return tuple(sorted(calls)), tuple(sorted(returns))
    if method != "naive-mtb":
        raise ValueError(f"no frame-key model for method {method!r}")
    for addr, instr in image.instr_at.items():
        kind = instr.kind
        if kind is InstrKind.CALL:
            target = instr.direct_target()
            if target is not None and \
                    image.addr_of(target.name) != addr + instr.size:
                calls.append(addr)
        elif kind is InstrKind.INDIRECT_CALL:
            calls.append(addr)
        elif kind is InstrKind.POP:
            (reglist,) = instr.operands
            if PC in reglist:
                returns.append(addr)
        elif kind is InstrKind.INDIRECT_BRANCH:
            (target,) = instr.operands
            if isinstance(target, Reg) and target.num == LR:
                returns.append(addr)
    return tuple(sorted(calls)), tuple(sorted(returns))


def certify_workload(name: str, method: str, *,
                     seed: bytes = DEFAULT_BOUNDS_SEED,
                     cache=None,
                     store_root: Optional[str] = None) -> BoundsCertificate:
    """Analyze one workload under one method and mint its certificate.

    Runs the whole pipeline: build the attested image, classify the
    original module, build the call graph, compute the path bounds, and
    pin everything to the image's ``H_MEM``. With ``store_root`` the
    signed blob is also written content-addressed next to the image
    artifacts.
    """
    from repro.core.analysis.callgraph import build_call_graph
    from repro.core.analysis.bounds import analyse_path_bounds
    from repro.core.classify import classify_module
    from repro.crypto.hashing import measure_image
    from repro.eval.runner import prepare
    from repro.workloads import load_workload

    workload = load_workload(name)
    image, bound_map = prepare(workload, method, cache=cache)
    classification = classify_module(workload.module())
    graph = build_call_graph(classification)
    bounds = analyse_path_bounds(classification, graph, method)
    calls, returns = frame_keys(image, bound_map, method)
    cert = BoundsCertificate(
        workload=name, method=method,
        image_digest=measure_image(image),
        max_stack_depth=bounds.max_stack_depth,
        max_log_records=bounds.max_log_records,
        max_log_bytes=bounds.max_log_bytes,
        recursion_cycles=bounds.recursion_cycles,
        depth_exact=bounds.depth_exact,
        call_keys=calls, return_keys=returns,
    )
    if store_root is not None:
        store_certificate(store_root, cert, bounds_key(seed))
    return cert


class BoundsRegistry:
    """In-memory (workload, method) -> certificate map for the fleet.

    The fleet service consults it at admission; entries are verified
    blobs (add via :meth:`admit_blob`) or locally produced certificates
    (:meth:`add`, for the in-process pipeline that just built them).
    """

    def __init__(self, key: Optional[bytes] = None):
        self.key = key if key is not None else bounds_key(
            DEFAULT_BOUNDS_SEED)
        self._by_profile: Dict[Tuple[str, str], BoundsCertificate] = {}

    def add(self, cert: BoundsCertificate) -> None:
        self._by_profile[(cert.workload, cert.method)] = cert

    def admit_blob(self, blob: bytes) -> BoundsCertificate:
        cert = verify_certificate(blob, self.key)
        self.add(cert)
        return cert

    def get(self, workload: str, method: str
            ) -> Optional[BoundsCertificate]:
        return self._by_profile.get((workload, method))

    def __len__(self) -> int:
        return len(self._by_profile)


__all__ = [
    "BoundsCertificate",
    "BoundsRegistry",
    "DEFAULT_BOUNDS_SEED",
    "bounds_key",
    "certificate_path",
    "certify_workload",
    "frame_keys",
    "decode_certificate",
    "load_certificate",
    "pack_certificate",
    "screen_records",
    "sign_certificate",
    "store_certificate",
    "verify_certificate",
]
