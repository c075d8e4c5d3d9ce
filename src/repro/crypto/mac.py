"""HMAC-SHA256: :func:`sign` and :func:`check` are the only places it
is named. Every signed format (RAPT reports, DACK, PLCY, HEAL, FWP1,
`BNDS1`, EVD1) calls them over its own domain prefix and field fold."""

from __future__ import annotations

import hashlib
import hmac
from typing import Iterable


def sign(key: bytes, data: bytes) -> bytes:
    """HMAC-SHA256 of ``data`` under ``key``."""
    return hmac.new(key, data, hashlib.sha256).digest()


def check(key: bytes, tag: bytes, data: bytes) -> bool:
    """Constant-time check that ``tag`` is the MAC of ``data``."""
    return hmac.compare_digest(tag, sign(key, data))


def fold(fields: Iterable[bytes]) -> bytes:
    """Each field behind its u32 little-endian length (no splicing)."""
    out = []
    for field in fields:
        out.append(len(field).to_bytes(4, "little"))
        out.append(field)
    return b"".join(out)


def mac_report(key: bytes, *fields: bytes) -> bytes:
    """HMAC over length-prefixed report fields."""
    return sign(key, fold(fields))


def verify_mac(key: bytes, tag: bytes, *fields: bytes) -> bool:
    """Constant-time verification of a report MAC."""
    return check(key, tag, fold(fields))
