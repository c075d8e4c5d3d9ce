"""Verifier-side report validation and lossless path reconstruction.

``Vrf`` holds the (public) rewritten binary, the linking metadata
(:class:`~repro.core.rewrite_map.BoundRewriteMap`), and the shared
attestation key. Verification has three layers:

1. **Authentication** — MAC chain, sequence numbers, challenge
   freshness, and the expected ``H_MEM``, checked over the received
   bytes by :class:`~repro.cfa.streaming.StreamingVerifier`. A chain
   that fails it is never replayed.
2. **Lossless replay** — the CFLog is replayed against the binary:
   deterministic transfers are followed statically, fixed loops are
   unrolled from their static trip counts, loop-opt loops from their
   logged conditions, and every trampolined site consumes exactly one
   matching record. Replay succeeding with the log fully consumed means
   the complete control flow path has been reconstructed.
3. **Policy evidence** — consumed indirect targets are screened against
   the binary's legal-target sets and a shadow return stack; mismatches
   become :class:`Violation` evidence of ROP/JOP-style attacks (the log
   itself stays authentic — CFA reports attacks, it does not mask them).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.asm.program import Image
from repro.cfa.cflog import AddressRecord, BranchRecord, LoopRecord, Record
from repro.cfa.report import AttestationResult
from repro.cfa.speccfa import SubPathDict, expand
from repro.cfa.streaming import StreamError, StreamingVerifier
from repro.cfa.wire import WireError, encode_report
from repro.core.loops import trip_count
from repro.core.rewrite_map import BoundRewriteMap
from repro.crypto.hashing import measure_image
from repro.isa.instructions import InstrKind

#: Replay step guard (a verifier-side runaway protection).
DEFAULT_MAX_STEPS = 20_000_000

#: The bare-metal exit sentinel (return to the reset value of LR).
EXIT_SENTINEL = 0xFFFF_FFFE


@dataclass(frozen=True)
class Violation:
    """One piece of attack evidence surfaced during replay."""

    kind: str  # e.g. "rop-return", "jop-call", "bad-jump-target"
    address: int  # site address in the attested binary
    detail: str


@dataclass
class VerificationResult:
    """Outcome of verifying one attestation."""

    authenticated: bool
    lossless: bool
    violations: List[Violation] = field(default_factory=list)
    path: List[int] = field(default_factory=list)
    consumed: int = 0
    #: deepest the reconstructed shadow return stack ever got — the
    #: observable the `BNDS1` static depth bound is checked against
    max_shadow_depth: int = 0
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        """Authentic, fully reconstructable, and attack-free."""
        return self.authenticated and self.lossless and not self.violations


class ReplayError(Exception):
    """The log cannot be losslessly replayed against the binary."""


#: decision-point opcodes of a :class:`ReplayTable`, one per branch of
#: the replay's per-site logic
(_LOOP, _INDIRECT, _COND, _FIXED, _LATCH, _CALL, _RETURN, _BKPT, _BRANCH,
 _UNCLASSIFIED, _PC_WRITE, _SVC) = range(12)


class ReplayTable:
    """An image's replay, compiled once per (image, bound rewrite map).

    RAP-Track leaves deterministic transfers unlogged, so most replay
    steps are instructions whose successor is fixed by the binary alone:
    sequential instructions and unconditional direct branches. The table
    splits the image's code addresses in two:

    * ``sites`` maps each *decision point* to
      ``(op, info, instr, size, target)``: the pcs of the rewrite map's
      ``loop_at``, ``indirect_at``, ``cond_at``, ``fixed_trip_at`` and
      ``loop_latches``, plus untracked ``bl``, ``bx lr``, ``bkpt`` and
      ``svc`` and any conditional or pc-writing instruction replay
      cannot classify. ``target`` is the resolved direct target, or
      None when there is none.
    * ``runs`` maps every other code address to
      ``(segment, offset, after)``: replay from that pc walks
      ``segment[offset:]`` and continues at ``after``, the next
      decision point or segment (or a non-code address, which replay
      rejects). Segments partition the deterministic addresses, so
      each address is stored in exactly one and the table stays linear
      in image size whatever a record stream does.

    A non-code address is in neither map. The table is built from the
    image alone, never from record content.
    """

    __slots__ = ("runs", "sites")

    def __init__(self, image: Image, rmap: BoundRewriteMap):
        self.sites: Dict[int, tuple] = {}
        successor: Dict[int, int] = {}
        for pc, instr in image.instr_at.items():
            info: object = None
            if pc in rmap.loop_at:
                op, info = _LOOP, rmap.loop_at[pc]
            elif pc in rmap.indirect_at:
                op, info = _INDIRECT, rmap.indirect_at[pc]
            elif pc in rmap.cond_at:
                op, info = _COND, rmap.cond_at[pc]
            elif pc in rmap.fixed_trip_at:
                op = _FIXED
            elif pc in rmap.loop_latches:
                op = _LATCH
            else:
                kind = instr.kind
                if kind is InstrKind.BRANCH and instr.cond is None:
                    target = _resolved_target(image, instr)
                    if target is not None:
                        successor[pc] = target
                        continue
                    op = _BRANCH
                elif kind is InstrKind.BRANCH:
                    op = _UNCLASSIFIED
                elif kind is InstrKind.CALL:
                    op = _CALL
                elif kind is InstrKind.INDIRECT_BRANCH:
                    op = _RETURN
                elif instr.mnemonic == "bkpt":
                    op = _BKPT
                elif instr.writes_pc():
                    op = _PC_WRITE
                elif instr.mnemonic == "svc":
                    op = _SVC
                else:
                    successor[pc] = pc + instr.size
                    continue
            self.sites[pc] = (op, info, instr, instr.size,
                              _resolved_target(image, instr))
        self.runs = _segment(successor, image)


def _resolved_target(image: Image, instr) -> Optional[int]:
    """An instruction's direct target address, or None without one."""
    target = instr.direct_target()
    if target is None:
        return None
    try:
        return image.addr_of(target.name)
    except KeyError:
        return None


def _segment(successor: Dict[int, int], image: Image) -> Dict[int, tuple]:
    """Partition deterministic addresses into straight-line segments.

    A segment starts at a *head*: an address not fed by exactly one
    deterministic predecessor (so every fall-through of a decision
    point), or a symbol, where branches land. It then follows
    ``successor`` until a decision point, a head or a non-code address,
    so replay mostly enters segments at their start; entering
    mid-segment (say, at a logged indirect target) walks the suffix.
    What is left after the heads are walked are head-less deterministic
    cycles, cut once around.
    """
    fed = Counter(successor.values())
    labels = set(image.symbols.values())
    heads = {pc for pc in successor if fed[pc] != 1 or pc in labels}
    runs: Dict[int, tuple] = {}

    def walk(start: int) -> None:
        pcs = [start]
        after = successor[start]
        while after in successor and after not in heads and after != start:
            pcs.append(after)
            after = successor[after]
        segment = tuple(pcs)
        for offset, pc in enumerate(segment):
            runs[pc] = (segment, offset, after)

    for pc in heads:
        walk(pc)
    for pc in successor:
        if pc not in runs:
            walk(pc)
    return runs


class ReplayVerifier:
    """What every verifier shares: one authenticated ``verify`` and the
    ``replay`` wrapper around the subclass's ``_replay``."""

    def __init__(self, image: Image, key: bytes,
                 max_steps: int = DEFAULT_MAX_STEPS,
                 expected_h_mem: Optional[bytes] = None):
        self.image = image
        self.key = key
        self.max_steps = max_steps
        # a pure function of the image: a caller that verifies many
        # sessions of one image passes it in, computed once
        self.expected_h_mem = (measure_image(image) if expected_h_mem is None
                               else expected_h_mem)

    def verify(self, result: AttestationResult, challenge: bytes,
               dictionary: Optional[SubPathDict] = None
               ) -> VerificationResult:
        """Authenticate the report chain, each report encoded once,
        then reconstruct the path (expanded through ``dictionary``, if
        given). A chain that fails authentication is never replayed: the
        result has an empty path and the stream's reason as ``error``.
        """
        stream = StreamingVerifier(self, challenge)
        try:
            for report in result.reports:
                stream.feed_bytes(encode_report(report))
            stream.close()
        except (WireError, StreamError) as exc:
            return VerificationResult(authenticated=False, lossless=False,
                                      error=str(exc))
        records = stream.records
        if dictionary is not None:
            try:
                records = expand(records, dictionary)
            except ValueError as exc:
                return VerificationResult(authenticated=True,
                                          lossless=False, error=str(exc))
        out = self.replay(records)
        out.authenticated = True
        return out

    def replay(self, records: Sequence[Record]) -> VerificationResult:
        """Reconstruct the complete execution path from the CFLog."""
        result = VerificationResult(authenticated=False, lossless=False)
        try:
            self._replay(records, result)
            result.lossless = result.error is None
        except ReplayError as exc:
            result.error = str(exc)
            result.lossless = False
        return result

    def _replay(self, records: Sequence[Record],
                result: VerificationResult) -> None:
        raise NotImplementedError


class Verifier(ReplayVerifier):
    """The remote Verifier for trampoline-based CFA (RAP-Track/TRACES)."""

    def __init__(self, image: Image, bound_map: BoundRewriteMap, key: bytes,
                 max_steps: int = DEFAULT_MAX_STEPS,
                 table: Optional["ReplayTable"] = None,
                 expected_h_mem: Optional[bytes] = None):
        super().__init__(image, key, max_steps, expected_h_mem)
        self.map = bound_map
        # like H_MEM, precomputed by callers that verify many sessions
        self.table = (ReplayTable(image, bound_map) if table is None
                      else table)

    # the shared wrapper, bound in this class's own namespace: the
    # per-layer tracer (perfbench/tracer.py) patches Verifier.replay
    replay = ReplayVerifier.replay

    def _replay(self, records: Sequence[Record],
                result: VerificationResult) -> None:
        image, rmap = self.image, self.map
        runs, sites = self.table.runs, self.table.sites
        max_steps = self.max_steps
        pc = image.entry
        cursor = 0
        shadow: List[int] = []
        fixed_state = {}
        loop_state = {}
        path = result.path
        steps = 0

        def peek() -> Optional[Record]:
            return records[cursor] if cursor < len(records) else None

        while True:
            run = runs.get(pc)
            if run is not None:
                # deterministic code: a whole run per iteration, cut at
                # exactly the step the guard would have stopped
                segment, offset, after = run
                end = offset + max_steps - steps
                if end < len(segment):
                    path.extend(segment[offset:end])
                    raise ReplayError("replay exceeded the step guard")
                path.extend(segment[offset:] if offset else segment)
                steps += len(segment) - offset
                pc = after
                continue
            steps += 1
            if steps > max_steps:
                raise ReplayError("replay exceeded the step guard")
            site = sites.get(pc)
            if site is None:
                raise ReplayError(f"replay left the code image at {pc:#010x}")
            path.append(pc)
            op, info, instr, size, target = site

            # 1. loop-condition log sites
            if op == _LOOP:
                entry = peek()
                if not isinstance(entry, LoopRecord) or entry.key != pc:
                    raise ReplayError(
                        f"missing loop-condition record at {pc:#010x}"
                    )
                cursor += 1
                trips = trip_count(info, entry.value)
                loop_state[info.latch_addr] = trips - 1
                pc += size
                continue

            # 2. trampolined indirect transfers
            if op == _INDIRECT:
                entry = peek()
                if (not isinstance(entry, (BranchRecord, AddressRecord))
                        or entry.key != info.rec_addr):
                    raise ReplayError(
                        f"missing record for indirect transfer at {pc:#010x}"
                    )
                cursor += 1
                if instr.mnemonic == "svc":
                    # TRACES shape: the instrumented branch follows the svc
                    path.append(pc + size)
                dst = entry.dst
                if dst == EXIT_SENTINEL and not shadow:
                    break  # top-level return: program exit
                if info.kind == "call":
                    shadow.append(self._call_resume(pc))
                    result.max_shadow_depth = max(
                        result.max_shadow_depth, len(shadow))
                    if dst not in rmap.function_entry_addrs:
                        result.violations.append(Violation(
                            "jop-call", pc,
                            f"indirect call to non-entry {dst:#010x}"))
                elif info.kind in ("return_pop", "return_bx"):
                    if shadow:
                        expected = shadow.pop()
                        if dst != expected:
                            result.violations.append(Violation(
                                "rop-return", pc,
                                f"return to {dst:#010x}, "
                                f"call site expected {expected:#010x}"))
                    else:
                        result.violations.append(Violation(
                            "rop-return", pc,
                            f"return to {dst:#010x} with empty call stack"))
                else:  # ldr / bx computed jumps
                    legal = (dst in rmap.address_taken_addrs
                             or dst in rmap.function_entry_addrs)
                    if not legal:
                        result.violations.append(Violation(
                            "bad-jump-target", pc,
                            f"computed jump to {dst:#010x}"))
                if image.instr_at.get(dst) is None:
                    raise ReplayError(
                        f"logged target {dst:#010x} is not code")
                pc = dst
                continue

            # 3. trampolined conditionals
            if op == _COND:
                entry = peek()
                match = (isinstance(entry, (BranchRecord, AddressRecord))
                         and entry.key == info.rec_addr)
                if info.flavor == "always":
                    # silent-cycle latch: a record is mandatory
                    if not match:
                        raise ReplayError(
                            f"missing record for latch at {pc:#010x}")
                    cursor += 1
                    rec = image.instr_at.get(info.rec_addr)
                    if rec is not None and rec.mnemonic == "svc":
                        path.append(info.rec_addr)
                        path.append(info.rec_addr + rec.size)
                    pc = info.taken_addr
                elif info.flavor == "taken":
                    if match:
                        cursor += 1
                        rec = image.instr_at.get(info.rec_addr)
                        if rec is not None and rec.mnemonic == "svc":
                            # TRACES in-text thunk: svc + direct branch
                            path.append(info.rec_addr)
                            path.append(info.rec_addr + rec.size)
                        pc = info.taken_addr
                    else:
                        pc += size
                else:  # forward-exit: a record means "stayed in the loop"
                    if match:
                        cursor += 1
                        # the in-text consume site (RAP: the inserted
                        # direct branch; TRACES: the inline svc)
                        path.append(pc + size)
                        pc = info.cont_addr
                    else:
                        pc = info.taken_addr
                continue

            # 4. fixed loops: unroll from the static trip count
            if op == _FIXED:
                remaining = fixed_state.get(pc)
                if remaining is None:
                    remaining = rmap.fixed_trip_at[pc] - 1
                if remaining > 0:
                    fixed_state[pc] = remaining - 1
                    pc = self._taken_target(pc, instr) if target is None \
                        else target
                else:
                    fixed_state.pop(pc, None)
                    pc += size
                continue

            # 5. loop-opt latches: governed by the consumed condition
            if op == _LATCH:
                remaining = loop_state.get(pc)
                if remaining is None:
                    raise ReplayError(
                        f"loop latch at {pc:#010x} reached without "
                        f"a logged loop condition")
                if remaining > 0:
                    loop_state[pc] = remaining - 1
                    pc = self._taken_target(pc, instr) if target is None \
                        else target
                else:
                    del loop_state[pc]
                    pc += size
                continue

            # 6. untracked decision points
            if op == _CALL:
                shadow.append(pc + size)
                result.max_shadow_depth = max(
                    result.max_shadow_depth, len(shadow))
                pc = self._taken_target(pc, instr) if target is None \
                    else target
            elif op == _RETURN:
                # untracked bx lr: a leaf return through an unspilled LR
                if not shadow:
                    break  # entry function returned: program exit
                pc = shadow.pop()
            elif op == _BKPT:
                break
            elif op == _BRANCH:  # no resolvable target: raises
                pc = self._taken_target(pc, instr)
            elif op == _UNCLASSIFIED:
                raise ReplayError(f"unclassified conditional at {pc:#010x}")
            elif op == _PC_WRITE:
                raise ReplayError(
                    f"unclassified pc-writing instruction at {pc:#010x}")
            else:
                raise ReplayError(f"unexpected svc at {pc:#010x}")

        result.consumed = cursor
        if cursor != len(records):
            raise ReplayError(
                f"{len(records) - cursor} CFLog records left after "
                f"execution reached its end")

    # -- helpers -----------------------------------------------------------

    def _taken_target(self, pc: int, instr) -> int:
        target = instr.direct_target()
        if target is None:
            raise ReplayError(f"no direct target at {pc:#010x}")
        return self.image.addr_of(target.name)

    def _call_resume(self, site: int) -> int:
        """Runtime return address of an indirect-call site.

        RAP-Track sites are a single ``bl`` (resume right after it); the
        TRACES shape is ``svc`` + the original ``blx`` (resume after the
        pair).
        """
        instr = self.image.instr_at[site]
        if instr.mnemonic == "svc":
            branch_addr = site + instr.size
            branch = self.image.instr_at[branch_addr]
            return branch_addr + branch.size
        return site + instr.size


class NaiveVerifier(ReplayVerifier):
    """Verifier for the naive-MTB baseline: replay of the *unmodified*
    binary where every non-sequential transfer consumes one MTB packet."""

    def _replay(self, records: Sequence[Record],
                result: VerificationResult) -> None:
        image = self.image
        pc = image.entry
        cursor = 0
        shadow: List[int] = []
        steps = 0
        while True:
            steps += 1
            if steps > self.max_steps:
                raise ReplayError("replay exceeded the step guard")
            instr = image.instr_at.get(pc)
            if instr is None:
                raise ReplayError(f"replay left the code image at {pc:#010x}")
            result.path.append(pc)

            def consume() -> BranchRecord:
                nonlocal cursor
                if cursor >= len(records):
                    raise ReplayError(f"CFLog exhausted at {pc:#010x}")
                entry = records[cursor]
                if not isinstance(entry, BranchRecord) or entry.key != pc:
                    raise ReplayError(
                        f"CFLog record mismatch at {pc:#010x}")
                cursor += 1
                return entry

            kind = instr.kind
            if kind is InstrKind.BRANCH and instr.cond is None:
                target = self.image.addr_of(instr.direct_target().name)
                if target == pc + instr.size:
                    pc = target  # branch-to-next retires sequentially
                else:
                    entry = consume()
                    pc = entry.dst
            elif (kind is InstrKind.COMPARE_BRANCH
                  or (kind is InstrKind.BRANCH and instr.cond is not None)):
                entry = records[cursor] if cursor < len(records) else None
                if isinstance(entry, BranchRecord) and entry.key == pc:
                    cursor += 1
                    pc = entry.dst
                else:
                    pc += instr.size
            elif kind is InstrKind.CALL:
                target = self.image.addr_of(instr.direct_target().name)
                shadow.append(pc + instr.size)
                result.max_shadow_depth = max(
                    result.max_shadow_depth, len(shadow))
                if target == pc + instr.size:
                    pc = target  # call-to-next retires sequentially
                else:
                    entry = consume()
                    pc = entry.dst
            elif kind is InstrKind.INDIRECT_CALL:
                entry = consume()
                shadow.append(pc + instr.size)
                result.max_shadow_depth = max(
                    result.max_shadow_depth, len(shadow))
                pc = entry.dst
            elif kind is InstrKind.INDIRECT_BRANCH:
                entry = consume()
                if entry.dst == EXIT_SENTINEL and not shadow:
                    break  # top-level return: program exit
                if shadow and entry.dst == shadow[-1]:
                    shadow.pop()
                pc = entry.dst
            elif instr.writes_pc():  # pop {...,pc} / ldr pc
                entry = consume()
                if entry.dst == EXIT_SENTINEL and not shadow:
                    break  # top-level return: program exit
                if kind is InstrKind.POP and shadow:
                    expected = shadow.pop()
                    if entry.dst != expected:
                        result.violations.append(Violation(
                            "rop-return", pc,
                            f"return to {entry.dst:#010x}, "
                            f"call site expected {expected:#010x}"))
                pc = entry.dst
            elif instr.mnemonic == "bkpt":
                break
            else:
                pc += instr.size

        result.consumed = cursor
        if cursor != len(records):
            raise ReplayError(
                f"{len(records) - cursor} CFLog records left after "
                f"execution reached its end")
