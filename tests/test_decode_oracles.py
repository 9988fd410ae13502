"""The action-table decoder checked against the per-candidate enumerations
kept in ``conftest``: ``validate_tuple``, the greedy and uniform proposals,
and whole ``generate`` runs with the references patched in."""

from collections import Counter

import numpy as np
import pytest

from brickforge import decode
from brickforge.attach import AttachmentCode, decode_attachment, encode_attachment
from brickforge.bricks import CATALOG_SIZES, Brick
from brickforge.decode import (
    REJECT_ANCHOR,
    REJECT_BOUNDS,
    REJECT_COLLISION,
    REJECT_CONNECTOR,
    REJECT_NON_MONOTONE,
    REJECT_SIZE,
    DecodeBudgets,
    DecodeState,
    GreedyGeometryPolicy,
    UniformLegalPolicy,
    generate,
    validate_tuple,
)
from brickforge.geometry import VoxelGrid, voxelize_assembly
from brickforge.tokenizer import tokenize
from brickforge.tokens import KIND_EOP

from conftest import (
    greedy_candidates_reference,
    greedy_propose_reference,
    greedy_propose_root_reference,
    grow_random_assembly,
    uniform_propose_reference,
    validate_tuple_reference,
)


def random_states(seed: int, count: int):
    """Decoding states cut at random token boundaries of tokenized grown
    assemblies: mid-group states (f_floor >= 0), fresh groups and, with
    every group closed, finished states with no current parent."""
    rng = np.random.default_rng(seed)
    states = []
    while len(states) < count:
        n = int(rng.choice([1, 3, 10, 30, 80]))
        body = list(tokenize(grow_random_assembly(rng, n)).tokens)[1:-1]
        cuts, idx = [5], 5
        while idx < len(body):
            idx += 1 if body[idx].kind == KIND_EOP else 4
            cuts.append(idx)
        state = DecodeState.replay(body[:int(rng.choice(cuts))])
        if rng.random() < 0.05:
            while state.current is not None:
                state.apply_eop()
        states.append(state)
    return states


def random_target(rng) -> VoxelGrid:
    occ = np.zeros((20, 20, 20), dtype=bool)
    if rng.random() < 0.5:
        occ |= voxelize_assembly(grow_random_assembly(rng, 40)).occupancy
    occ |= rng.random((20, 20, 20)) < rng.choice([0.05, 0.3, 0.8])
    return VoxelGrid(occ)


def test_validate_tuple_matches_reference():
    rng = np.random.default_rng(11)
    reasons = Counter()
    states = random_states(1, 300)
    assert any(state.current is None for state in states)
    for state in states:
        for _ in range(200):
            if rng.random() < 0.7:  # mostly well-formed tuples
                f = int(rng.integers(0, 24))
                h, w = [(1, 1), (1, 2), (2, 4), (6, 2), (8, 1), (2, 2)][rng.integers(6)]
                m = int(rng.integers(0, h * w))
            else:
                f = int(rng.integers(-2, 26))
                h, w = (int(v) for v in rng.choice([0, 1, 2, 3, 4, 6, 8, 9], 2))
                m = int(rng.integers(-1, 14))
            ours = validate_tuple(state, f, h, w, m)
            assert ours == validate_tuple_reference(state, f, h, w, m), (f, h, w, m)
            reasons[ours[1]] += 1
    assert set(reasons) == {None, REJECT_CONNECTOR, REJECT_SIZE, REJECT_ANCHOR,
                            REJECT_NON_MONOTONE, REJECT_BOUNDS, REJECT_COLLISION}
    assert min(reasons.values()) >= 100


def captured_candidates(policy, target, state):
    """The (actions, scores) lists ``propose`` hands to ``_choose``."""
    seen = []
    policy._choose = lambda actions, scores, rng: seen.append((actions, scores))
    policy.propose(target, state, None)
    return seen[0]


def test_greedy_candidates_match_reference():
    rng = np.random.default_rng(12)
    policy = GreedyGeometryPolicy(0.0)
    states = [s for s in random_states(2, 120) if s.current is not None]
    for state in states:
        target = random_target(rng)
        actions, scores = captured_candidates(policy, target, state)
        ref_actions, ref_scores = greedy_candidates_reference(policy, target, state)
        assert actions == ref_actions
        assert scores == ref_scores
        assert [type(s) for s in scores] == [type(s) for s in ref_scores]
        assert all(type(v) is int for a in actions[1:] for v in a)


def test_uniform_propose_matches_reference():
    policy = UniformLegalPolicy()
    for i, state in enumerate(s for s in random_states(3, 200) if s.current is not None):
        ours, ref = np.random.default_rng(i), np.random.default_rng(i)
        for _ in range(20):
            assert policy.propose(None, state, ours) == uniform_propose_reference(
                policy, None, state, ref)
        assert ours.bit_generator.state == ref.bit_generator.state


@pytest.fixture
def reference_decoder(monkeypatch):
    """Patch the per-candidate enumerations back in, harness included."""
    def patch():
        monkeypatch.setattr(decode, "validate_tuple", validate_tuple_reference)
        monkeypatch.setattr(GreedyGeometryPolicy, "propose", greedy_propose_reference)
        monkeypatch.setattr(GreedyGeometryPolicy, "propose_root", greedy_propose_root_reference)
        monkeypatch.setattr(UniformLegalPolicy, "propose", uniform_propose_reference)
    return patch


def outcome(policy, target, seed, budgets=None):
    result = generate(policy, target, budgets, seed=seed)
    return result.sequence.to_text(), result.trace.to_dict(), result.report.scores


def grid_of(cells) -> VoxelGrid:
    occ = np.zeros((20, 20, 20), dtype=bool)
    for cell in cells:
        occ[cell] = True
    return VoxelGrid(occ)


TARGETS = {
    "column": lambda: grid_of([(4, 7, z) for z in range(3)]),
    "block": lambda: grid_of([(x, y, z) for x in range(6, 14) for y in range(6, 14)
                              for z in range(6)]),
    "grown8": lambda: voxelize_assembly(grow_random_assembly(np.random.default_rng(5), 8)),
    "grown12": lambda: voxelize_assembly(grow_random_assembly(np.random.default_rng(6), 12)),
    # the 80-brick target of the ROADMAP baseline
    "grown80": lambda: voxelize_assembly(grow_random_assembly(np.random.default_rng(3), 80)),
}


GREEDY_CASES = [(name, temperature, seed) for name in TARGETS
                for temperature, seed in ((0.0, 0), (0.5, 0), (0.5, 3))
                if name != "grown80" or seed == 0]  # the reference takes 20 s there


@pytest.mark.parametrize("name, temperature, seed", GREEDY_CASES)
def test_greedy_generate_matches_reference(name, temperature, seed, reference_decoder):
    target = TARGETS[name]()
    budgets = None if name in ("column", "block", "grown80") else DecodeBudgets(max_rollbacks=4)
    ours = outcome(GreedyGeometryPolicy(temperature), target, seed, budgets)
    reference_decoder()
    assert ours == outcome(GreedyGeometryPolicy(temperature), target, seed, budgets)


@pytest.mark.parametrize("seed", range(4))
def test_uniform_generate_matches_reference(seed, reference_decoder):
    target = TARGETS["grown12"]()
    budgets = DecodeBudgets(max_rollbacks=4, max_bricks=60)
    ours = outcome(UniformLegalPolicy(), target, seed, budgets)
    reference_decoder()
    assert ours == outcome(UniformLegalPolicy(), target, seed, budgets)


def test_action_table_rows_decode_like_decode_attachment():
    for parent in grow_random_assembly(np.random.default_rng(7), 60).bricks:
        state = DecodeState()
        state.apply_root(parent)
        actions, offsets, table = decode._action_table(parent.h, parent.w)
        assert len(actions) == len(offsets) == len(table) == 2 * parent.h * parent.w * 85
        assert list(actions) == sorted(actions) == list(offsets)
        for row in range(0, len(actions), 7):
            brick, reason = validate_tuple_reference(state, *actions[row])
            if brick is not None:
                dx, dy, dz, h, w = offsets[actions[row]]
                assert (brick.x - parent.x, brick.y - parent.y, brick.z - parent.z) == (dx, dy, dz)
                assert (h, w) == (brick.h, brick.w)
                assert tuple(table[row]) == (dx, dy, dz, brick.h, brick.w)


@pytest.mark.parametrize("ph, pw", sorted(CATALOG_SIZES))
def test_every_table_row_is_the_offset_decode_attachment_places(ph, pw):
    actions, offsets, table = decode._action_table(ph, pw)
    canonical = 0
    for row, (f, h, w, m) in enumerate(actions):
        dx, dy, dz, rh, rw = offsets[f, h, w, m]
        assert (rh, rw) == (h, w) and tuple(table[row]) == (dx, dy, dz, h, w)
        parent = Brick(ph, pw, max(0, -dx), max(0, -dy), 1)  # the child fits in the grid
        child = decode_attachment(f, m, parent, (h, w))
        assert child == Brick(h, w, parent.x + dx, parent.y + dy, parent.z + dz)
        # several rows place the same child; encoding names the one whose
        # shared stud is the low corner of the footprint overlap
        code = encode_attachment(parent, child)
        assert offsets[code.f, h, w, code.m] == (dx, dy, dz, h, w)
        up, vp, uc, vc = f % (ph * pw) % ph, f % (ph * pw) // ph, m % h, m // h
        if min(up, uc) == 0 and min(vp, vc) == 0:
            assert code == AttachmentCode(f, m)
            canonical += 1
    assert canonical == len({tuple(row) for row in table.tolist()})  # one per placement


@pytest.mark.parametrize("f, h, w, m, reason", [
    (8, 3, 3, 0, REJECT_CONNECTOR),    # f and size
    (-1, 2, 2, 4, REJECT_CONNECTOR),   # f and anchor
    (8, 5, 1, 9, REJECT_CONNECTOR),    # f, size and anchor
    (-1, 0, 0, -1, REJECT_CONNECTOR),  # f, size and anchor
    (2, 3, 3, 9, REJECT_SIZE),         # size and anchor
    (7, 1, 3, -1, REJECT_SIZE),        # size and anchor
    (0, 2, 2, 4, REJECT_ANCHOR),       # anchor and a non-monotone f
    (1, 1, 8, 8, REJECT_ANCHOR),       # anchor and a non-monotone f
])
def test_first_broken_field_names_the_rejection(f, h, w, m, reason):
    state = DecodeState()
    state.apply_root(Brick(2, 2, 4, 4, 1))  # f ranges over 0..7
    brick = validate_tuple(state, 1, 2, 2, 0)[0]
    state.apply_tuple(1, 2, 2, 0, brick)  # the group floor is f = 1
    assert validate_tuple(state, f, h, w, m) == (None, reason)
    assert validate_tuple_reference(state, f, h, w, m) == (None, reason)
