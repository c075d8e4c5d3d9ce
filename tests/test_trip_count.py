"""``core.loops.trip_count`` against a flag-simulating reference.

``trip_count`` evaluates the latch condition on plain integers. The
reference below steps the counter the way the hardware does: a ``SUBS``
against the bound sets N/Z/C/V, and ``cond_passed`` reads them. Both
must agree on every condition code, on steps of either sign and on
bounds anywhere in the 32-bit range.
"""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.loops import SimpleLoopShape, trip_count
from repro.isa import alu
from repro.isa.conditions import CONDITIONS, cond_passed
from repro.isa.registers import Flags


def reference_trip_count(shape, init: int, guard: int = 10_000_000) -> int:
    """Body executions of a simple loop, simulated through the flags."""
    count = 0
    value = init & alu.MASK32
    while True:
        value = alu.u32(value + shape.step)
        _, n, z, c, v = alu.sub_with_flags(value, shape.bound)
        if not cond_passed(shape.cond, Flags(n, z, c, v)):
            return count + 1  # final iteration executed, branch not taken
        count += 1
        if count > guard:
            raise ValueError("non-terminating simple loop")


def shape(cond: str, step: int, bound: int) -> SimpleLoopShape:
    return SimpleLoopShape(latch_index=0, counter_reg=0, bound=bound,
                           step=step, cond=cond, init_const=None)


steps = st.one_of(st.integers(-16, 16), st.integers(-(1 << 32), 1 << 32),
                  st.sampled_from([1 << 31, -(1 << 31), (1 << 31) - 1])
                  ).filter(bool)
bounds = st.one_of(st.integers(-64, 64), st.integers(-(1 << 31), 1 << 32),
                   st.sampled_from([0x7FFFFFFF, 0x80000000, 0xFFFFFFFF]))


@settings(max_examples=800, deadline=None)
@given(cond=st.sampled_from(CONDITIONS), step=steps, bound=bounds,
       offset=st.integers(-300, 300), wide=st.integers(0, 0xFFFFFFFF),
       near=st.booleans())
def test_matches_flag_simulation(cond, step, bound, offset, wide, near):
    loop = shape(cond, step, bound)
    # an initial value near the bound ends most loops within a few
    # hundred trips; a value anywhere exercises the wrap-around
    init = (bound + offset) if near else wide
    try:
        expected = reference_trip_count(loop, init, guard=2_000)
    except ValueError:
        # a loop past the reference's short guard; the 10M-iteration
        # guard itself is pinned by test_static_analysis
        assume(False)
    assert trip_count(loop, init) == expected


@pytest.mark.parametrize("cond", CONDITIONS)
def test_every_condition_code_both_signs(cond):
    for step in (1, -1, 3, -3):
        for bound in (0, 5, -5 & 0xFFFFFFFF, 0x7FFFFFFF, 0x80000000):
            for init in range(bound - 8, bound + 9):
                loop = shape(cond, step, bound)
                try:
                    expected = reference_trip_count(loop, init, guard=64)
                except ValueError:
                    continue
                assert trip_count(loop, init) == expected

