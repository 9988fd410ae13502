"""``DecodeState`` driven the way ``generate`` drives it: roots, validated
tuples, EOPs and cuts back to a brick's first token, interleaved in any
order, with the state checked against a fresh replay after every step."""

import numpy as np
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from brickforge import decode
from brickforge.attach import decode_attachment
from brickforge.bricks import GRID, MAX_FOOTPRINT_AREA, Brick
from brickforge.decode import DecodeState, validate_tuple
from brickforge.tokenizer import detokenize
from brickforge.tokens import KIND_EOP, KIND_F, KIND_M, KIND_SIZE

from conftest import CATALOG


class DecodeStateMachine(RuleBasedStateMachine):
    """A rule that does not apply to the current state does nothing, so every
    drawn rule is a step (preconditions would leave one rule of four enabled
    in a fresh or finished state, and hypothesis discards such examples)."""

    def __init__(self):
        super().__init__()
        self.state = DecodeState()

    @rule(size=st.sampled_from(CATALOG), data=st.data())
    def root(self, size, data):
        if self.state.started:
            return
        h, w = size
        x = data.draw(st.integers(0, GRID - h), label="x")
        y = data.draw(st.integers(0, GRID - w), label="y")
        self.state.apply_root(Brick(h, w, x, y, data.draw(st.integers(0, GRID - 1), label="z")))

    @rule(pick=st.integers(0, 2 * MAX_FOOTPRINT_AREA * decode._TOTAL_ANCHORS - 1))  # any row
    def child(self, pick):
        """Validate the picked row of the parent's action table, then apply the
        first row from there on (cyclically) that ``validate_tuple`` accepts."""
        if self.state.current is None:
            return
        parent = self.state.current_parent()
        actions = decode._action_table(parent.h, parent.w)[0]
        before = self.state.fingerprint()
        for i in range(len(actions)):
            action = actions[(pick + i) % len(actions)]
            brick, _ = validate_tuple(self.state, *action)
            assert self.state.fingerprint() == before  # validation never mutates
            if brick is not None:
                self.state.apply_tuple(*action, brick)
                return

    @rule()
    def eop(self):
        if self.state.current is not None:
            self.state.apply_eop()

    @rule(data=st.data())
    def truncate(self, data):
        if self.state.started:
            self.state.truncate(data.draw(st.sampled_from(self.state.tuple_start), label="cut"))

    @invariant()
    def replays_to_the_same_state(self):
        state = self.state
        assert DecodeState.replay(state.body).fingerprint() == state.fingerprint()
        if state.started:
            assert detokenize(state.finalize()) == state.assembly()

    @invariant()
    def occupancy_is_a_fresh_stamp(self):
        occ = np.zeros((GRID,) * 3, bool)
        for b in self.state.bricks:
            occ[b.x:b.x + b.h, b.y:b.y + b.w, b.z] = True
        assert np.array_equal(self.state.assembly().occupancy, occ)

    @invariant()
    def parents_and_starts_match_the_body(self):
        state = self.state
        assert len(state.parent_of) == len(state.tuple_start) == len(state.bricks)
        assert state.tuple_start == sorted(set(state.tuple_start))
        if state.started:
            assert state.parent_of[0] is None and state.tuple_start[0] == 0
        for i in range(1, len(state.bricks)):
            start = state.tuple_start[i]
            group = state.body[start:start + 4]
            assert [t.kind for t in group] == [KIND_F, KIND_SIZE, KIND_SIZE, KIND_M]
            # parents are dequeued in brick order, one per EOP
            parent = sum(t.kind == KIND_EOP for t in state.body[:start])
            assert state.parent_of[i] == parent
            f, h, w, m = (t.value for t in group)
            assert decode_attachment(f, m, state.bricks[parent], (h, w)) == state.bricks[i]


DecodeStateMachine.TestCase.settings = settings(
    max_examples=120, stateful_step_count=50, deadline=None, database=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow])
TestDecodeStateMachine = DecodeStateMachine.TestCase
