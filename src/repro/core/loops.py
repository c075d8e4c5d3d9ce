"""Natural loop detection and the paper's loop shape analysis."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.core.cfg import CFG
from repro.core.dominators import compute_dominators, dominates
from repro.isa.alu import MASK32, SIGN_BIT, s32
from repro.isa.conditions import normalise_cond
from repro.isa.instructions import Instr, InstrKind
from repro.isa.operands import Imm, Reg


@dataclass
class Loop:
    """One natural loop: header block, body blocks, and its latches."""

    header: int
    body: Set[int] = field(default_factory=set)
    latches: List[int] = field(default_factory=list)

    def contains_block(self, bid: int) -> bool:
        return bid in self.body


def find_natural_loops(cfg: CFG, entry: int) -> List[Loop]:
    """Back-edge based natural loops of the function rooted at ``entry``."""
    idom = compute_dominators(cfg, entry)
    universe = set(idom)
    by_header: Dict[int, Loop] = {}
    for block in cfg.blocks:
        if block.bid not in universe:
            continue
        for succ in block.succs:
            if succ in universe and dominates(idom, succ, block.bid):
                loop = by_header.setdefault(succ, Loop(header=succ))
                loop.latches.append(block.bid)
                _collect_body(cfg, loop, block.bid)
    for loop in by_header.values():
        loop.body.add(loop.header)
    return sorted(by_header.values(), key=lambda l: l.header)


def _collect_body(cfg: CFG, loop: Loop, latch: int) -> None:
    """Standard natural-loop body collection: walk predecessors from the
    latch until the header."""
    if latch == loop.header:
        loop.body.add(latch)
        return
    stack = [latch]
    loop.body.add(latch)
    while stack:
        node = stack.pop()
        for pred in cfg.blocks[node].preds:
            if pred not in loop.body and pred != loop.header:
                loop.body.add(pred)
                stack.append(pred)
            loop.body.add(loop.header)


@dataclass(frozen=True)
class SimpleLoopShape:
    """A loop matching the paper's 'simple loop' criteria (section IV-D).

    The latch compares a register-only iterator against a fixed constant
    and the body contains only deterministic transfers, so a single
    logged loop condition lets the Verifier recover every iteration.
    """

    latch_index: int  # instruction index of the latch conditional branch
    counter_reg: int
    bound: int  # the fixed comparison constant
    step: int  # signed per-iteration counter increment
    cond: str  # latch branch condition code
    init_const: Optional[int]  # statically known initial value, if any


def analyse_simple_loop(cfg: CFG, loop: Loop,
                        ignore_cond_indices: Optional[Set[int]] = None
                        ) -> Optional[SimpleLoopShape]:
    """Check a loop against the simple-loop criteria; None if it fails.

    Criteria (paper section IV-D): the loop comparison is made against a
    fixed constant, the iterator uses register-only arithmetic, and all
    internal branches are deterministic. We additionally require a single
    conditional latch — the common down-counting / up-counting MCU loop.

    ``ignore_cond_indices`` lists conditional-branch indices already
    proven deterministic (fixed inner loops), so nesting a fixed loop
    does not disqualify an outer simple loop.
    """
    flat = cfg.flat
    if len(loop.latches) != 1:
        return None
    latch_block = cfg.blocks[loop.latches[0]]
    latch_idx = latch_block.terminator_index
    latch = flat.instrs[latch_idx]
    if latch.kind is InstrKind.COMPARE_BRANCH:
        reg = latch.operands[0]
        counter, bound = reg.num, 0
        cond = "eq" if latch.mnemonic == "cbz" else "ne"
    elif latch.kind is InstrKind.BRANCH and latch.cond is not None:
        flag_setter = _preceding_flag_setter(flat, latch_block.start, latch_idx)
        if flag_setter is None:
            return None
        counter, bound, idiom = flag_setter
        cond = latch.cond
        if idiom == "self" and cond not in ("eq", "ne", "mi", "pl"):
            # flags of 'subs rI, rI, #k' only equal 'cmp rI_new, #0'
            # for the N/Z-derived conditions
            return None
    else:
        return None

    step = _counter_step(cfg, loop, counter)
    if step is None or step == 0:
        return None
    if not _body_is_deterministic(cfg, loop, latch_idx,
                                  ignore_cond_indices or set()):
        return None
    init = _initial_value(cfg, loop, counter)
    return SimpleLoopShape(latch_idx, counter, bound, step, cond, init)


def _preceding_flag_setter(flat, start: int, latch_idx: int):
    """Find what sets the latch's flags inside the latch block.

    Returns ``(counter_reg, bound, idiom)`` for the two simple idioms:
    ``cmp rI, #bound`` (idiom ``"cmp"``) and the self-flag-setting
    counter update ``add/sub rI, rI, #imm`` (idiom ``"self"``, an
    implicit compare against zero).
    """
    for idx in range(latch_idx - 1, start - 1, -1):
        instr = flat.instrs[idx]
        if instr.mnemonic == "cmp":
            reg_op, imm_op = instr.operands
            if isinstance(reg_op, Reg) and isinstance(imm_op, Imm):
                return reg_op.num, imm_op.value, "cmp"
            return None
        if instr.mnemonic in ("add", "sub"):
            dest, lhs, rhs = instr.operands
            if (isinstance(dest, Reg) and isinstance(lhs, Reg)
                    and dest.num == lhs.num and isinstance(rhs, Imm)):
                # flags come from the update itself: comparison against 0
                return dest.num, 0, "self"
            return None
        if instr.kind in (InstrKind.ALU, InstrKind.COMPARE,
                          InstrKind.MOVE):
            return None  # flags clobbered by something we don't model
    return None


def _counter_step(cfg: CFG, loop: Loop, counter: int) -> Optional[int]:
    """Net constant step applied to the counter per iteration.

    Requires exactly one ``add/sub counter, counter, #imm`` in the loop
    and no other write to the counter register (register-only iterator).
    """
    flat = cfg.flat
    step: Optional[int] = None
    for bid in loop.body:
        block = cfg.blocks[bid]
        for idx in range(block.start, block.end):
            instr = flat.instrs[idx]
            if not _writes_reg(instr, counter):
                continue
            if instr.mnemonic in ("add", "sub"):
                dest, lhs, rhs = instr.operands
                if (isinstance(lhs, Reg) and lhs.num == counter
                        and isinstance(rhs, Imm)):
                    delta = rhs.value if instr.mnemonic == "add" else -rhs.value
                    if step is not None:
                        return None  # multiple updates: not simple
                    step = delta
                    continue
            return None  # non-arithmetic or non-register-only update
    return step


def _writes_reg(instr: Instr, reg: int) -> bool:
    kind = instr.kind
    if kind in (InstrKind.MOVE, InstrKind.ALU, InstrKind.LOAD):
        dest = instr.operands[0]
        return isinstance(dest, Reg) and dest.num == reg
    if kind is InstrKind.POP:
        (reglist,) = instr.operands
        return reg in reglist
    if kind in (InstrKind.CALL, InstrKind.INDIRECT_CALL):
        return reg == 14  # clobbers LR
    return False


def _body_is_deterministic(cfg: CFG, loop: Loop, latch_idx: int,
                           ignore_cond_indices: Set[int]) -> bool:
    """All transfers inside the loop (other than the latch itself) must
    be deterministic: no calls, no indirect transfers, no conditionals
    other than latches of inner loops already proven fixed."""
    flat = cfg.flat
    for bid in loop.body:
        block = cfg.blocks[bid]
        for idx in range(block.start, block.end):
            if idx == latch_idx or idx in ignore_cond_indices:
                continue
            instr = flat.instrs[idx]
            kind = instr.kind
            if kind in (InstrKind.CALL, InstrKind.INDIRECT_CALL,
                        InstrKind.INDIRECT_BRANCH):
                return False
            if kind is InstrKind.COMPARE_BRANCH:
                return False
            if kind is InstrKind.BRANCH and instr.cond is not None:
                return False
            if instr.writes_pc() and kind is not InstrKind.BRANCH:
                return False
            if instr.mnemonic == "svc":
                return False
    return True


def _initial_value(cfg: CFG, loop: Loop, counter: int) -> Optional[int]:
    """Statically-known initial counter value, if the unique lexical
    predecessor of the header ends by setting ``counter`` to a constant.

    This is deliberately conservative: failure just demotes the loop
    from 'fixed/deterministic' to 'loop-opt' (logged condition).
    """
    flat = cfg.flat
    header = cfg.blocks[loop.header]
    preheaders = [p for p in header.preds if p not in loop.body]
    if len(preheaders) != 1:
        return None
    pre = cfg.blocks[preheaders[0]]
    for idx in range(pre.end - 1, pre.start - 1, -1):
        instr = flat.instrs[idx]
        if _writes_reg(instr, counter):
            if instr.mnemonic in ("mov", "mov32"):
                value = instr.operands[1]
                if isinstance(value, Imm):
                    return value.value
            return None
    return None


_INT32_MIN, _INT32_MAX = -(1 << 31), (1 << 31) - 1

#: ``cond`` of the latch after ``cmp counter, #bound`` (or the
#: self-flag-setting update, bound 0), evaluated on plain integers:
#: each maps the unsigned 32-bit ``(counter, bound)`` to whether the
#: branch is taken, exactly as the N/Z/C/V flags of ``counter - bound``
#: decide it. Signed orders compare with the sign bit flipped.
_LATCH_TAKEN = {
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "cs": lambda a, b: a >= b,
    "cc": lambda a, b: a < b,
    "mi": lambda a, b: (a - b) & SIGN_BIT != 0,
    "pl": lambda a, b: (a - b) & SIGN_BIT == 0,
    "vs": lambda a, b: not _INT32_MIN <= s32(a) - s32(b) <= _INT32_MAX,
    "vc": lambda a, b: _INT32_MIN <= s32(a) - s32(b) <= _INT32_MAX,
    "hi": lambda a, b: a > b,
    "ls": lambda a, b: a <= b,
    "ge": lambda a, b: a ^ SIGN_BIT >= b ^ SIGN_BIT,
    "lt": lambda a, b: a ^ SIGN_BIT < b ^ SIGN_BIT,
    "gt": lambda a, b: a ^ SIGN_BIT > b ^ SIGN_BIT,
    "le": lambda a, b: a ^ SIGN_BIT <= b ^ SIGN_BIT,
}


def trip_count(shape: SimpleLoopShape, init: int) -> int:
    """Number of body executions of a simple loop entered with ``init``.

    The latch branch is taken ``trip_count - 1`` times and falls through
    on the final evaluation. The counter is stepped one iteration at a
    time and the latch condition evaluated on plain integers, which
    matches hardware flag semantics exactly.
    """
    taken = _LATCH_TAKEN[normalise_cond(shape.cond)]
    step = shape.step
    bound = shape.bound & MASK32
    count = 0
    value = init & MASK32
    guard = 10_000_000
    while True:
        value = (value + step) & MASK32
        if not taken(value, bound):
            return count + 1  # final iteration executed, branch not taken
        count += 1
        if count > guard:
            raise ValueError("non-terminating simple loop")
