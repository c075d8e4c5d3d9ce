"""The per-step replay that the compiled verifier replay must match.

This is the verifier's original replay loop, kept verbatim as the
oracle of the differential battery (``test_replay_differential.py``
and ``benchmarks/bench_replay.py``). It re-derives every instruction's
kind, size and target on every step. ``replay(verifier, records)``
returns what ``verifier.replay(records)`` returned before replay was
compiled into runs: ``self`` below is the :class:`Verifier` whose
image, bound rewrite map, step guard and helpers it replays with.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.cfa.cflog import AddressRecord, BranchRecord, LoopRecord, Record
from repro.cfa.verifier import (
    EXIT_SENTINEL,
    ReplayError,
    VerificationResult,
    Violation,
)
from repro.core.loops import trip_count
from repro.isa.instructions import InstrKind


def replay(verifier, records: Sequence[Record]) -> VerificationResult:
    """Reconstruct the complete execution path from the CFLog."""
    result = VerificationResult(authenticated=False, lossless=False)
    try:
        _replay(verifier, records, result)
        result.lossless = result.error is None
    except ReplayError as exc:
        result.error = str(exc)
        result.lossless = False
    return result


def _replay(self, records: Sequence[Record],
            result: VerificationResult) -> None:
    image, rmap = self.image, self.map
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
        steps += 1
        if steps > self.max_steps:
            raise ReplayError("replay exceeded the step guard")
        instr = image.instr_at.get(pc)
        if instr is None:
            raise ReplayError(f"replay left the code image at {pc:#010x}")
        path.append(pc)

        # 1. loop-condition log sites
        if pc in rmap.loop_at:
            info = rmap.loop_at[pc]
            entry = peek()
            if not isinstance(entry, LoopRecord) or entry.key != pc:
                raise ReplayError(
                    f"missing loop-condition record at {pc:#010x}"
                )
            cursor += 1
            trips = trip_count(info, entry.value)
            loop_state[info.latch_addr] = trips - 1
            pc += instr.size
            continue

        # 2. trampolined indirect transfers
        if pc in rmap.indirect_at:
            info = rmap.indirect_at[pc]
            entry = peek()
            if (not isinstance(entry, (BranchRecord, AddressRecord))
                    or entry.key != info.rec_addr):
                raise ReplayError(
                    f"missing record for indirect transfer at {pc:#010x}"
                )
            cursor += 1
            if instr.mnemonic == "svc":
                # TRACES shape: the instrumented branch follows the svc
                path.append(pc + instr.size)
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
        if pc in rmap.cond_at:
            info = rmap.cond_at[pc]
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
                    pc += instr.size
            else:  # forward-exit: a record means "stayed in the loop"
                if match:
                    cursor += 1
                    # the in-text consume site (RAP: the inserted
                    # direct branch; TRACES: the inline svc)
                    path.append(pc + instr.size)
                    pc = info.cont_addr
                else:
                    pc = info.taken_addr
            continue

        # 4. fixed loops: unroll from the static trip count
        if pc in rmap.fixed_trip_at:
            remaining = fixed_state.get(pc)
            if remaining is None:
                remaining = rmap.fixed_trip_at[pc] - 1
            if remaining > 0:
                fixed_state[pc] = remaining - 1
                pc = self._taken_target(pc, instr)
            else:
                fixed_state.pop(pc, None)
                pc += instr.size
            continue

        # 5. loop-opt latches: governed by the consumed condition
        if pc in rmap.loop_latches:
            remaining = loop_state.get(pc)
            if remaining is None:
                raise ReplayError(
                    f"loop latch at {pc:#010x} reached without "
                    f"a logged loop condition")
            if remaining > 0:
                loop_state[pc] = remaining - 1
                pc = self._taken_target(pc, instr)
            else:
                del loop_state[pc]
                pc += instr.size
            continue

        # 6. untracked instructions
        kind = instr.kind
        if kind is InstrKind.BRANCH:
            if instr.cond is not None:
                raise ReplayError(
                    f"unclassified conditional at {pc:#010x}")
            pc = self._taken_target(pc, instr)
        elif kind is InstrKind.CALL:
            shadow.append(pc + instr.size)
            result.max_shadow_depth = max(
                result.max_shadow_depth, len(shadow))
            pc = self._taken_target(pc, instr)
        elif kind is InstrKind.INDIRECT_BRANCH:
            # untracked bx lr: a leaf return through an unspilled LR
            if not shadow:
                break  # entry function returned: program exit
            pc = shadow.pop()
        elif instr.mnemonic == "bkpt":
            break
        elif instr.writes_pc():
            raise ReplayError(
                f"unclassified pc-writing instruction at {pc:#010x}")
        elif instr.mnemonic == "svc":
            raise ReplayError(f"unexpected svc at {pc:#010x}")
        else:
            pc += instr.size

    result.consumed = cursor
    if cursor != len(records):
        raise ReplayError(
            f"{len(records) - cursor} CFLog records left after "
            f"execution reached its end")
