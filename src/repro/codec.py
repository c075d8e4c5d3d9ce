"""The one binary codec under every wire, evidence and registry format.

Every format this system transmits or persists (RAPT reports, RSHD
shard frames, DICT/DACK, PLCY/HEAL, SPD1 dictionaries, FWP1 policies,
`BNDS1` certificates, EVD1 evidence) is built from the same parts:
a magic, usually a version byte, little-endian unsigned integers, and
length-prefixed fields. This module owns those parts, so the byte
layout of a format is a decision made once, here, and not re-derived
by each parser (docs/internals.md, "Binary formats", lists every
format's layout choices).

* :class:`Reader` — a bounded reader. Every overrun, bad header,
  bad UTF-8 field and trailing byte raises the *calling format's*
  exception class, so callers see ``WireError``, ``EvidenceError``,
  ``PolicyError`` or ``ValueError`` and never ``struct.error`` or
  ``IndexError``.
* :class:`Writer` — the matching builder. Every integer, count and
  length is range-checked against its width and raises the format's
  own exception class.
* :func:`atomic_write` — publish a file by temp file + rename.
"""

from __future__ import annotations

import os
import struct
import tempfile
from typing import Iterator, List, Tuple, Type, Union

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_UINTS = {1: struct.Struct("<B"), 2: _U16, 4: _U32, 8: _U64}


class Reader:
    """Bounded little-endian reader over one encoded blob.

    ``error`` is the calling format's exception class; ``what`` names
    the blob in the truncation message (``"truncated <what>"``).
    """

    def __init__(self, data: bytes, error: Type[Exception] = ValueError,
                 what: str = "data") -> None:
        self.data = data
        self.pos = 0
        self.error = error
        self.what = what

    def take(self, count: int) -> bytes:
        end = self.pos + count
        if end > len(self.data):
            raise self.error(f"truncated {self.what}")
        out = self.data[self.pos:end]
        self.pos = end
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return _U16.unpack(self.take(2))[0]

    def u32(self) -> int:
        return _U32.unpack(self.take(4))[0]

    def u64(self) -> int:
        return _U64.unpack(self.take(8))[0]

    def lp_bytes(self, width: int = 4) -> bytes:
        """A field prefixed by its u16 (``width=2``) or u32 length."""
        return self.take(self.u16() if width == 2 else self.u32())

    def lp_str(self, width: int = 4, field: str = "text field") -> str:
        try:
            return self.lp_bytes(width).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise self.error(f"{field} is not valid UTF-8: {exc}") from None

    def structs(self, layout: struct.Struct, count: int,
                label: str) -> Iterator[Tuple[int, ...]]:
        """``count`` fixed-size items; an impossible count is refused
        before any item is read, so it cannot drive a long loop."""
        if count * layout.size > len(self.data) - self.pos:
            raise self.error(
                f"{label} count {count} exceeds the remaining {self.what}")
        return layout.iter_unpack(self.take(count * layout.size))

    def header(self, magic: bytes, label: str, *versions: int) -> int:
        """Check the magic and, when ``versions`` are given, a version
        byte that must be one of them; returns the version (0 if the
        format has none)."""
        if self.take(len(magic)) != magic:
            raise self.error(f"bad {label} magic")
        if not versions:
            return 0
        version = self.u8()
        if version not in versions:
            raise self.error(f"unsupported {label} version {version}")
        return version

    @property
    def exhausted(self) -> bool:
        return self.pos == len(self.data)

    def done(self, message: str) -> None:
        """Refuse trailing bytes with ``message``."""
        if not self.exhausted:
            raise self.error(message)


class Writer:
    """Little-endian builder; methods chain and :meth:`getvalue` joins."""

    def __init__(self, error: Type[Exception] = ValueError) -> None:
        self.error = error
        self.parts: List[bytes] = []

    def raw(self, data: bytes) -> "Writer":
        self.parts.append(data)
        return self

    def uint(self, width: int, value: int) -> "Writer":
        if not 0 <= value < 1 << (8 * width):
            raise self.error(f"{value} does not fit u{8 * width}")
        self.parts.append(_UINTS[width].pack(value))
        return self

    def u8(self, value: int) -> "Writer":
        return self.uint(1, value)

    def u16(self, value: int) -> "Writer":
        return self.uint(2, value)

    def u32(self, value: int) -> "Writer":
        return self.uint(4, value)

    def u64(self, value: int) -> "Writer":
        return self.uint(8, value)

    def lp(self, data: Union[bytes, str], width: int = 4) -> "Writer":
        """``data`` (UTF-8 if text) behind its u16/u32 length."""
        if isinstance(data, str):
            data = data.encode()
        if len(data) >= 1 << (8 * width):
            raise self.error(f"field of {len(data)} bytes is too long "
                             f"for a u{8 * width} length prefix")
        self.parts.append(_UINTS[width].pack(len(data)))
        self.parts.append(data)
        return self

    def getvalue(self) -> bytes:
        return b"".join(self.parts)


def atomic_write(path: Union[str, os.PathLike[str]], data: bytes) -> None:
    """Publish ``data`` at ``path`` by temp file + rename.

    The temp file lives in the target's directory, so the rename is
    atomic: readers see the old file or the whole new one, never a
    torn write, and concurrent writers of one path each install a
    complete file. A failed write unlinks the temp file. There is no
    fsync: this is rename atomicity, not power-loss durability.
    """
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.fspath(path)) or ".",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
