"""``generate`` under a policy that plays hypothesis-chosen roots and tuples,
illegal ones included: every run ends in a result that decodes strictly to
its assembly within its budgets, or in a BrickforgeError, with numpy's
RuntimeWarning raised as an error."""

import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brickforge.bricks import CATALOG_SIZES, BrickAssembly
from brickforge.decode import DecodeBudgets, ScriptedPolicy, generate
from brickforge.errors import BrickforgeError
from brickforge.geometry import VoxelGrid
from brickforge.tokenizer import detokenize

NUMPY_INTS = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64)
EXTREME_NUMPY_INTS = (np.int8(-128), np.int64(-2 ** 63), np.uint8(255), np.uint64(2 ** 64 - 1))

TARGET = np.zeros((20, 20, 20), dtype=bool)
TARGET[4:10, 4:10, 0:3] = True
TARGET = VoxelGrid(TARGET)


ILLEGAL = st.one_of(st.integers(-3, 40), st.integers(), st.sampled_from(EXTREME_NUMPY_INTS),
                    st.floats(), st.text(max_size=2), st.none())


def field(legal):
    """In one draw of eight an out-of-range integer, a float, a string or None;
    otherwise a legal value, as a Python or a numpy integer."""
    as_any_int = st.tuples(legal, st.sampled_from((int,) + NUMPY_INTS)).map(lambda t: t[1](t[0]))
    return st.tuples(st.integers(0, 7), as_any_int, ILLEGAL).map(lambda t: t[1] if t[0] else t[2])


FOOTPRINT = st.sampled_from(sorted(CATALOG_SIZES)).flatmap(
    lambda hw: st.tuples(field(st.just(hw[0])), field(st.just(hw[1]))))
ROOTS = st.tuples(field(st.integers(0, 12)), field(st.integers(0, 12)), field(st.integers(0, 2)),
                  FOOTPRINT).map(lambda r: r[:3] + r[3])
TUPLES = st.tuples(field(st.integers(0, 15)), FOOTPRINT, field(st.integers(0, 3))).map(
    lambda a: (a[0],) + a[1] + (a[2],))
ACTIONS = st.lists(st.tuples(st.integers(0, 4), TUPLES).map(lambda t: t[1] if t[0] else None),
                   max_size=12)  # one action in five is EOP
BUDGETS = st.builds(DecodeBudgets, st.integers(1, 4), st.integers(1, 3), st.integers(1, 12))


class CheckedPolicy(ScriptedPolicy):
    """Plays its script, and checks that the state it is shown holds ints."""

    def propose(self, target, state, rng):
        assert type(state.f_floor) is int
        return super().propose(target, state, rng)


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(root=ROOTS, actions=ACTIONS, budgets=BUDGETS)
# a legal tuple below a 2x4 parent at z = 5, as numpy uint8: r % ph - m % h wrapped
@example(root=(5, 5, 5, 2, 4), actions=[(np.uint8(9), 2, 2, np.uint8(3))],
         budgets=DecodeBudgets(4, 2, 6))
@example(root=(4, 4, 0, 2, 2), actions=[(np.int64(1), np.uint8(2), 2, 0), None],
         budgets=DecodeBudgets(4, 1, 4))
def test_generate_ends_in_a_checked_result_or_a_domain_error(root, actions, budgets):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            result = generate(CheckedPolicy(root, actions), TARGET, budgets, seed=0)
        except BrickforgeError:
            return
    bricks = result.assembly.bricks
    assert detokenize(result.sequence).bricks == bricks
    assert all(type(v) is int for brick in bricks for v in brick._key())
    assert BrickAssembly(bricks).bricks == bricks  # in bounds and collision-free
    assert 1 <= len(bricks) <= budgets.max_bricks
    assert result.trace.rollbacks <= budgets.max_rollbacks
    assert result.trace.resamples == sum(result.trace.rejected.values())
