import json
import re
import sys
import textwrap
import time

import numpy as np
import pytest

from brickforge import decode
from brickforge.bricks import Brick, BrickAssembly
from brickforge.decode import (
    DecodeBudgets,
    DecodeState,
    GreedyGeometryPolicy,
    ScriptedPolicy,
    SubprocessPolicy,
    UniformLegalPolicy,
    generate,
    rollback,
    validate_tuple,
)
from brickforge.errors import (
    BudgetExhaustedError,
    CollisionError,
    InconsistentSequenceError,
    MalformedInputError,
    PolicyProcessError,
)
from brickforge.geometry import VoxelGrid, voxelize_assembly, iou
from brickforge.stability import PhysicsParams, certified_unstable, stability_scores
from brickforge.tokenizer import NonMonotoneFWarning, detokenize, tokenize
from brickforge.tokens import EOP, KIND_EOP, TokenSequence

from conftest import expected_rollback_fingerprint, record_rollbacks


def grid_with(cells):
    occ = np.zeros((20, 20, 20), dtype=bool)
    for c in cells:
        occ[c] = True
    return VoxelGrid(occ)


def state_for(*bricks):
    return DecodeState.replay(list(tokenize(BrickAssembly(bricks)).tokens)[1:-1])


class TestValidateTuple:
    def test_connector_out_of_range(self):
        state = state_for(Brick(1, 1, 5, 5, 0))
        brick, reason = validate_tuple(state, 2, 1, 1, 0)
        assert brick is None and reason == "connector_out_of_range"

    def test_size_not_in_library(self):
        state = state_for(Brick(2, 4, 5, 5, 0))
        brick, reason = validate_tuple(state, 0, 3, 2, 0)
        assert brick is None and reason == "size_not_in_library"

    def test_anchor_out_of_range(self):
        state = state_for(Brick(2, 4, 5, 5, 0))
        brick, reason = validate_tuple(state, 0, 1, 1, 1)
        assert brick is None and reason == "anchor_out_of_range"

    def test_non_monotone_f(self):
        state = state_for(Brick(4, 1, 5, 5, 0))
        brick, _ = validate_tuple(state, 2, 1, 1, 0)
        state.apply_tuple(2, 1, 1, 0, brick)
        again, reason = validate_tuple(state, 2, 1, 1, 0)
        assert again is None and reason == "non_monotone_f"
        lower, reason = validate_tuple(state, 1, 1, 1, 0)
        assert lower is None and reason == "non_monotone_f"

    def test_out_of_bounds(self):
        state = state_for(Brick(1, 1, 0, 0, 0))
        # child anchored by its far stud would land at x = -7
        brick, reason = validate_tuple(state, 0, 8, 1, 7)
        assert brick is None and reason == "out_of_bounds"

    def test_collision(self):
        state = state_for(Brick(2, 4, 0, 0, 0), Brick(1, 1, 0, 0, 1))
        # f=1 clears the group floor; the 2x2 child anchored by its (1,0)
        # stud still lands on the occupied cell (0,0,1)
        brick, reason = validate_tuple(state, 1, 2, 2, 1)
        assert brick is None and reason == "collision"

    def test_accept_returns_brick(self):
        state = state_for(Brick(2, 2, 5, 5, 0))
        brick, reason = validate_tuple(state, 0, 2, 2, 0)
        assert reason is None and brick == Brick(2, 2, 5, 5, 1)

    @pytest.mark.parametrize("action, expected", [
        ((1.5, 2, 2, 0), "connector_out_of_range"),
        ((1, 2.5, 2, 0), "size_not_in_library"),
        ((1, 2, 2, 0.5), "anchor_out_of_range"),
    ])
    def test_a_non_integer_field_is_named(self, action, expected):
        state = state_for(Brick(2, 4, 5, 5, 0))
        before = state.fingerprint()
        assert validate_tuple(state, *action) == (None, expected)
        assert state.fingerprint() == before


class TestPolicies:
    def test_uniform_generations_all_valid(self):
        target = grid_with([(0, 0, 0)])
        budgets = DecodeBudgets(max_resamples_per_tuple=32, max_rollbacks=1,
                                max_bricks=15)
        for seed in range(60):
            result = generate(UniformLegalPolicy(), target, budgets, seed=seed)
            back = detokenize(result.sequence)
            assert sorted(back.bricks) == sorted(result.assembly.bricks)

    def test_uniform_deterministic(self):
        target = grid_with([(0, 0, 0)])
        budgets = DecodeBudgets(32, 1, 10)
        a = generate(UniformLegalPolicy(), target, budgets, seed=7)
        b = generate(UniformLegalPolicy(), target, budgets, seed=7)
        assert a.assembly == b.assembly
        assert a.sequence == b.sequence

    def test_single_cell_cap_one(self):
        target = grid_with([(4, 4, 0)])
        result = generate(UniformLegalPolicy(), target,
                          DecodeBudgets(32, 1, 1), seed=3)
        assert len(result.assembly) == 1

    def test_greedy_column(self):
        target = grid_with([(4, 7, 0), (4, 7, 1), (4, 7, 2)])
        result = generate(GreedyGeometryPolicy(0.0), target, seed=0)
        assert result.assembly.bricks == (Brick(1, 1, 4, 7, 0), Brick(1, 1, 4, 7, 1),
                                          Brick(1, 1, 4, 7, 2))
        assert iou(voxelize_assembly(result.assembly), target) == 1.0
        assert result.trace.rollbacks == 0
        assert result.stable

    def test_greedy_single_footprint(self):
        # a 2x4 footprint is covered by one brick: score 8 beats every
        # smaller placement and any overflowing alternative
        target = grid_with([(x, y, 0) for x in (8, 9) for y in (8, 9, 10, 11)])
        result = generate(GreedyGeometryPolicy(0.0), target, seed=0)
        assert result.assembly.bricks == (Brick(2, 4, 8, 8, 0),)

    def test_greedy_deterministic(self):
        target = grid_with([(x, 5, z) for x in range(4, 9) for z in range(2)])
        a = generate(GreedyGeometryPolicy(0.0), target, seed=1)
        b = generate(GreedyGeometryPolicy(0.0), target, seed=2)
        assert a.assembly == b.assembly  # temperature 0 ignores the stream
        assert a.sequence == b.sequence

    def test_greedy_positive_temperature_seeded(self):
        target = grid_with([(x, 5, z) for x in range(4, 9) for z in range(2)])
        a = generate(GreedyGeometryPolicy(0.8), target, seed=5)
        b = generate(GreedyGeometryPolicy(0.8), target, seed=5)
        c = generate(GreedyGeometryPolicy(0.8), target, seed=6)
        assert a.sequence == b.sequence
        assert len(c.assembly) >= 1  # different stream still yields a structure

    @pytest.mark.filterwarnings("error")
    def test_greedy_tiny_positive_temperature(self):
        # scores / T overflowed to inf before the best score was subtracted,
        # and inf - inf is NaN
        policy = GreedyGeometryPolicy(1e-320)
        rng = np.random.default_rng(0)
        for _ in range(8):
            assert policy._choose([None, "a", "b", "c"], [0.0, 3.0, -2.0, 3.0], rng) in ("a", "c")
        target = grid_with([(4, 7, 0), (4, 7, 1), (4, 7, 2)])
        result = generate(policy, target, seed=0)
        assert result.assembly.bricks == (Brick(1, 1, 4, 7, 0), Brick(1, 1, 4, 7, 1),
                                          Brick(1, 1, 4, 7, 2))

    @pytest.mark.parametrize("temperature", [float("nan"), float("inf"), float("-inf")])
    def test_greedy_rejects_non_finite_temperature(self, temperature):
        with pytest.raises(ValueError, match="temperature"):
            GreedyGeometryPolicy(temperature)

    def test_budgets_validation(self):
        with pytest.raises(ValueError):
            DecodeBudgets(max_resamples_per_tuple=0)


class TestRollback:
    def test_chain_truncates_to_parent_tuple(self):
        a = BrickAssembly((Brick(1, 1, 5, 5, 0), Brick(1, 1, 5, 5, 1),
                           Brick(1, 1, 5, 5, 2)))
        seq = tokenize(a)
        state = rollback(DecodeState.replay(list(seq.tokens)[1:-1]), 2)
        assert state.bricks == [Brick(1, 1, 5, 5, 0)]  # root survives
        assert state.current == 0
        assert state.f_floor == -1
        assert len(state.body) == 5

    def test_root_child_unstable_restarts(self):
        a = BrickAssembly((Brick(1, 1, 5, 5, 0), Brick(1, 1, 5, 5, 1)))
        seq = tokenize(a)
        state = rollback(DecodeState.replay(list(seq.tokens)[1:-1]), 1)
        assert state.bricks == []
        assert not state.started

    def test_mid_group_truncation_state(self):
        # root with three children; the third child unstable -> cut before
        # the second child's tuple?  no: parent of any child is the root, so
        # a deeper chain is needed to exercise mid-group truncation
        a = BrickAssembly((
            Brick(4, 1, 5, 5, 0),
            Brick(1, 1, 5, 5, 1),
            Brick(1, 1, 8, 5, 1),
            Brick(1, 1, 5, 5, 2),
        ))
        seq = tokenize(a)
        # brick 3 is the grandchild via brick 1; its parent tuple is brick 1's,
        # the first tuple of the root group
        state = rollback(DecodeState.replay(list(seq.tokens)[1:-1]), 3)
        assert state.bricks == [a.bricks[0]]
        assert state.current == 0

    def test_mid_group_cut_restores_f_floor(self, monkeypatch):
        # root group: child at f=0, then child at f=3 whose own child is an
        # unstable cantilever; the cut lands between the two root tuples, so
        # the resumed state is mid-group with the f floor at 0
        script = ScriptedPolicy(root=(5, 5, 0, 4, 1),
                                actions=[(0, 1, 1, 0), (3, 1, 1, 0), None,
                                         None, (0, 8, 1, 0), None])
        target = grid_with([(5, 5, 0)])
        records = record_rollbacks(monkeypatch)
        result = generate(script, target,
                          DecodeBudgets(max_resamples_per_tuple=4,
                                        max_rollbacks=1, max_bricks=6), seed=0)
        assert result.trace.rollbacks == 1
        [event], [record] = result.trace.rollback_events, records
        bricks, parents, queue, current, floor, body = record.fingerprint_after
        assert bricks == (Brick(4, 1, 5, 5, 0), Brick(1, 1, 5, 5, 1))
        assert current == 0 and floor == 0 and queue == (1,)
        assert record.scores_before[record.brick] == 0.0
        assert event.brick == record.brick
        assert expected_rollback_fingerprint(record.sequence_before,
                                             record.brick) == record.fingerprint_after
        assert event.body_len_before == len(record.sequence_before) - 2
        assert event.body_len_after == len(body)

    def test_public_rollback_mid_group(self):
        a = BrickAssembly((
            Brick(4, 1, 5, 5, 0),
            Brick(1, 1, 5, 5, 1),
            Brick(1, 1, 8, 5, 1),
            Brick(8, 1, 8, 5, 2),
        ))
        seq = tokenize(a)
        state = rollback(DecodeState.replay(list(seq.tokens)[1:-1]), 3)
        assert state.bricks == [a.bricks[0], a.bricks[1]]
        assert state.current == 0 and state.f_floor == 0
        assert state.fingerprint()[2] == (1,)

    def test_decoder_state_machine_agrees_with_detokenizer(self, rng):
        # dual route: the incremental replay and Algorithm-2-style detokenizer
        # must reconstruct identical assemblies on the random corpus
        from conftest import grow_random_assembly
        for _ in range(30):
            a = grow_random_assembly(rng, int(rng.integers(5, 40)))
            seq = tokenize(a)
            via_detok = detokenize(seq)
            via_replay = DecodeState.replay(list(seq.tokens)[1:-1])
            assert tuple(via_replay.bricks) == via_detok.bricks

    def test_scripted_unstable_rollback_and_replay(self, monkeypatch):
        # the script rebuilds the same single-stud cantilever forever
        script = ScriptedPolicy(root=(5, 5, 0, 1, 1),
                                actions=[(0, 1, 1, 0), None, (0, 8, 1, 0), None])
        target = grid_with([(5, 5, 0)])
        budgets = DecodeBudgets(max_resamples_per_tuple=8, max_rollbacks=4,
                                max_bricks=8)
        records = record_rollbacks(monkeypatch)
        result = generate(script, target, budgets, seed=0)
        assert result.trace.rollbacks > 0
        assert result.stable or result.trace.budget_exhausted == "rollbacks"
        assert len(records) == len(result.trace.rollback_events)
        for event, record in zip(result.trace.rollback_events, records):
            assert event.body_len_after < event.body_len_before
            assert event.body_len_before == len(record.sequence_before) - 2
            assert event.body_len_after == len(record.fingerprint_after[-1])
            assert record.scores_before[record.brick] == 0.0
            # replay-equivalence against the independent state machine
            expected = expected_rollback_fingerprint(record.sequence_before, record.brick)
            assert expected == record.fingerprint_after


    def test_generate_with_rollbacks_never_replays(self, monkeypatch):
        calls = []
        replay = DecodeState.replay

        def counted(body):
            calls.append(len(body))
            return replay(body)

        monkeypatch.setattr(DecodeState, "replay", staticmethod(counted))
        records = record_rollbacks(monkeypatch)
        script = ScriptedPolicy(root=(5, 5, 0, 1, 1),
                                actions=[(0, 1, 1, 0), None, (0, 8, 1, 0), None])
        result = generate(script, grid_with([(5, 5, 0)]),
                          DecodeBudgets(max_resamples_per_tuple=8, max_rollbacks=4,
                                        max_bricks=8), seed=0)
        assert result.trace.rollbacks > 0
        assert calls == []
        assert len(records) == len(result.trace.rollback_events)
        for event, record in zip(result.trace.rollback_events, records):
            assert event.body_len_before == len(record.sequence_before) - 2
            assert event.body_len_after == len(record.fingerprint_after[-1])
            assert record.scores_before[record.brick] == 0.0
            assert expected_rollback_fingerprint(record.sequence_before,
                                                 record.brick) == record.fingerprint_after

    def test_a_spent_budget_returns_the_first_episode(self, monkeypatch):
        # every episode before a stable one scores 0, so none beats the first
        target = grid_with([(3, 3, 0), (3, 3, 1)])
        records = record_rollbacks(monkeypatch)
        outcomes = set()
        for seed in range(40):
            records.clear()
            result = generate(UniformLegalPolicy(), target,
                              DecodeBudgets(8, 1 + seed % 3, 8), seed=seed)
            assert len(records) == result.trace.rollbacks
            assert all(0.0 in record.scores_before for record in records)
            assert all(record.scores_before[record.brick] == 0.0 for record in records)
            assert result.report == stability_scores(result.assembly)
            if result.trace.budget_exhausted == "rollbacks":
                assert not result.stable
                assert result.sequence == records[0].sequence_before
            else:  # the last episode, grown from the last cut
                assert result.stable
                body = list(records[-1].fingerprint_after[-1]) if records else []
                while body and body[-1].kind == KIND_EOP:
                    body.pop()
                assert list(result.sequence.tokens[1:1 + len(body)]) == body
            outcomes.add((result.stable, result.trace.rollbacks > 0))
        assert outcomes == {(False, True), (True, False), (True, True)}

    def test_each_cut_names_a_zero_score_by_the_cheapest_rule(self, monkeypatch):
        # uniform runs, and greedy runs at T = 0 and T = 0.5, on a T-shaped target
        target = grid_with([(5, 5, 0), (5, 5, 1), (5, 5, 2)] + [(x, 5, 3) for x in range(3, 8)])
        runs = [(UniformLegalPolicy(), seed) for seed in range(40)]
        runs += [(GreedyGeometryPolicy(0.5), seed) for seed in range(40)]
        runs += [(GreedyGeometryPolicy(0.0), 0)]
        records = record_rollbacks(monkeypatch)
        causes, outcomes = set(), set()
        for policy, seed in runs:
            records.clear()
            result = generate(policy, target, DecodeBudgets(8, 4, 12), seed=seed)
            assert result.report == stability_scores(result.assembly)
            assert len(records) == len(result.trace.rollback_events)
            for event, record in zip(result.trace.rollback_events, records):
                assert event.brick == record.brick
                assert record.scores_before[record.brick] == 0.0
                assembly = DecodeState.replay(list(record.sequence_before.tokens)[1:-1]).assembly()
                grounded = any(b.z == 0 for b in assembly.bricks)
                certified = certified_unstable(assembly, PhysicsParams()) if grounded else None
                if event.cause == "floating":
                    assert not grounded and event.brick == 0
                elif event.cause == "certificate":
                    assert certified == event.brick
                else:
                    assert event.cause == "lp" and grounded and certified is None
                    assert record.scores_before.index(0.0) == event.brick
                causes.add(event.cause)
            outcomes.add(result.trace.budget_exhausted)
        assert causes == {"floating", "certificate", "lp"}
        assert outcomes == {None, "rollbacks"}

    def test_rollback_rejects_a_brick_out_of_range(self):
        a = BrickAssembly((Brick(1, 1, 5, 5, 0), Brick(1, 1, 5, 5, 1)))
        state = DecodeState.replay(list(tokenize(a).tokens)[1:-1])
        for brick in (-1, 2):
            with pytest.raises(InconsistentSequenceError, match="not one of the 2 bricks"):
                rollback(state, brick)
        assert len(state.bricks) == 2


class TestReplayRejects:
    # a 4x1 root whose group lists f=3 before f=0
    NON_MONOTONE = "BOS X5 Y5 Z0 H4 W1 F3 H1 W1 M0 F0 H1 W1 M0 EOS"
    # the root's child places its own child back onto the root's cell
    COLLIDING = "BOS X5 Y5 Z0 H1 W1 F0 H1 W1 M0 EOP F1 H1 W1 M0 EOS"

    def test_non_monotone_group(self):
        seq = TokenSequence.from_text(self.NON_MONOTONE)
        with pytest.raises(InconsistentSequenceError, match="f=0 after f=3"):
            DecodeState.replay(list(seq.tokens[1:-1]))
        with pytest.warns(NonMonotoneFWarning, match="f=0 after f=3"):
            assembly = detokenize(seq)
        assert assembly.bricks == (Brick(4, 1, 5, 5, 0), Brick(1, 1, 8, 5, 1),
                                   Brick(1, 1, 5, 5, 1))

    def test_colliding_child(self):
        seq = TokenSequence.from_text(self.COLLIDING)
        with pytest.raises(InconsistentSequenceError, match=r"collision: cell \(5, 5, 0\)"):
            DecodeState.replay(list(seq.tokens[1:-1]))
        with pytest.raises(CollisionError):
            detokenize(seq)


class TestDecodeStateQueue:
    def test_eop_without_a_parent_only_appends(self):
        # the pending parents are range(current + 1, len(bricks)): with no
        # current parent, an EOP leaves none
        state = DecodeState()
        assert state.fingerprint() == ((), (), (), None, -1, ())
        state.apply_eop()
        assert state.current is None and state.body == [EOP]
        state = state_for(Brick(1, 1, 5, 5, 0), Brick(1, 1, 5, 5, 1))
        state.apply_eop()  # the EOPs that tokenize strips: the root's, then the child's
        state.apply_eop()
        assert state.done
        before = state.fingerprint()
        state.apply_eop()
        assert state.current is None and state.body == list(before[-1]) + [EOP]
        assert state.fingerprint()[:5] == before[:5]


class TestGenerateContracts:
    def test_sequences_always_strict_detokenizable(self):
        target = grid_with([(3, 3, 0), (3, 3, 1)])
        budgets = DecodeBudgets(16, 2, 10)
        for seed in range(30):
            result = generate(UniformLegalPolicy(), target, budgets, seed=seed)
            assert detokenize(result.sequence).bricks == result.assembly.bricks

    def test_stability_report_attached(self):
        target = grid_with([(3, 3, 0)])
        result = generate(GreedyGeometryPolicy(0.0), target, seed=0)
        fresh = stability_scores(result.assembly)
        assert fresh.scores == result.report.scores

    def test_root_out_of_bounds_exhausts_the_root_budget(self):
        # a 2x2 root at (19, 19) leaves the workspace on every resample
        budgets = DecodeBudgets(max_resamples_per_tuple=5)
        with pytest.raises(BudgetExhaustedError) as err:
            generate(ScriptedPolicy((19, 19, 0, 2, 2), []), grid_with([(4, 4, 0)]), budgets)
        assert err.value.kind == "root_resamples"

    @pytest.mark.parametrize("first_root, code", [
        ((4, 4, 0, 3, 3), "size_not_in_library"),
        ((19, 19, 0, 2, 2), "out_of_bounds"),
    ])
    def test_rejected_root_counts_under_its_error_code(self, first_root, code):
        class TwoRoots(ScriptedPolicy):
            def propose_root(self, target, rng):
                self.roots = getattr(self, "roots", 0) + 1
                return first_root if self.roots == 1 else self.root

        result = generate(TwoRoots((4, 4, 0, 2, 2), []), grid_with([(4, 4, 0)]))
        assert result.trace.rejected == {code: 1} and result.trace.resamples == 1
        assert result.assembly.bricks == (Brick(2, 2, 4, 4, 0),)

    @pytest.mark.parametrize("root, actions", [
        ((5.0, 5, 0, 2, 2), []),
        ((4, 4, 0, 2, 2), [(1, 2, 2, 0.0)]),
        ((4, 4, 0, 2, 2), [(1.0, 2, 2, 0)]),
        ((4, 4, 0, 2, 2), [(1, 2.0, 2, 0)]),
        (("4", 4, 0, 2, 2), []),
    ])
    def test_non_integer_proposal_is_a_domain_error(self, root, actions):
        with pytest.raises(MalformedInputError, match="are not all ints"):
            generate(ScriptedPolicy(root, actions), grid_with([(4, 4, 0), (5, 4, 1)]))

    def test_numpy_integer_proposals_give_a_plain_result(self):
        root, actions = (4, 4, 0, 2, 2), [(1, 2, 2, 0), None]
        as_numpy = ScriptedPolicy(tuple(np.int64(v) for v in root),
                                  [tuple(np.int64(v) for v in actions[0]), None])
        target = grid_with([(4, 4, 0), (5, 4, 1)])
        result = generate(as_numpy, target)
        assert result.assembly.to_json() == generate(ScriptedPolicy(root, actions), target) \
            .assembly.to_json()
        assert json.loads(result.assembly.to_json())["bricks"][1] == \
            {"h": 2, "w": 2, "x": 5, "y": 4, "z": 1}


POLICY_SCRIPT = textwrap.dedent("""
    import json, sys
    for line in sys.stdin:
        req = json.loads(line)
        if req["parent"] is None:
            print(json.dumps({"action": "root", "x": 4, "y": 4, "z": 0, "h": 2, "w": 2}))
        elif len(req["state"]) < 10:
            print(json.dumps({"action": "tuple", "f": 0, "h": 2, "w": 2, "m": 0}))
        else:
            print(json.dumps({"action": "eop"}))
        sys.stdout.flush()
""")


class TestSubprocessPolicy:
    def test_external_policy_protocol(self):
        policy = SubprocessPolicy([sys.executable, "-c", POLICY_SCRIPT])
        try:
            result = generate(policy, grid_with([(4, 4, 0)]),
                              DecodeBudgets(8, 1, 4), seed=0)
        finally:
            policy.close()
        assert result.assembly.bricks == (Brick(2, 2, 4, 4, 0), Brick(2, 2, 4, 4, 1))
        assert result.stable

    ROOT = '{"action": "root", "x": 4, "y": 4, "z": 0, "h": 2, "w": 2}'

    @pytest.mark.parametrize("root_reply, reply, detail", [
        ("not json", "", "reply 'not json' is not a JSON object"),
        ('{"action": "root", "x": 4, "y": 4, "z": 0, "h": 2}', "",
         "needs int fields x, y, z, h, w"),
        (ROOT, '{"action": "tuple", "f": 0, "h": 2, "w": 2, "m": "0"}',
         "'m': '0'} needs int fields f, h, w, m"),
        (ROOT, "[0, 2, 2, 0]", "reply '[0, 2, 2, 0]' is not a JSON object"),
        pytest.param(ROOT, "[" * 100_000, "[[[[' is not a JSON object", id="nested-too-deep"),
        ('{"action": "eop"}', "", "expected a root action, got {'action': 'eop'}"),
        (ROOT, '{"action": "jump"}', "expected tuple/eop action, got {'action': 'jump'}"),
    ])
    def test_malformed_reply_is_a_domain_error(self, root_reply, reply, detail):
        script = ("import sys\nfor line in sys.stdin:\n"
                  f"    print({root_reply!r} if '\"parent\": null' in line else {reply!r},"
                  " flush=True)\n")
        with pytest.raises(MalformedInputError, match=re.escape(detail)):
            with SubprocessPolicy([sys.executable, "-c", script]) as policy:
                generate(policy, grid_with([(4, 4, 0)]), DecodeBudgets(8, 1, 4), seed=0)
        assert policy.proc.stdin.closed
        assert policy.proc.returncode == 0  # the child was reaped

    def test_missing_executable_is_a_domain_error(self, tmp_path):
        with pytest.raises(PolicyProcessError, match="cannot start external policy"):
            SubprocessPolicy([str(tmp_path / "no-such-policy")])

    def test_exited_child_is_a_domain_error(self):
        with pytest.raises(PolicyProcessError, match="exited before reading a request"):
            with SubprocessPolicy([sys.executable, "-c", "pass"]) as policy:
                policy.proc.wait()
                generate(policy, grid_with([(4, 4, 0)]), DecodeBudgets(8, 1, 4), seed=0)
        assert policy.proc.stdin.closed
        assert policy.proc.returncode == 0

    def test_last_reply_is_read_to_end_of_stream(self, monkeypatch):
        # the child answers once without a newline and closes its stdout:
        # that reply still counts, and the next request finds the stream closed
        monkeypatch.setattr(decode, "REPLY_TIMEOUT_S", 5.0)
        script = ("import os, sys\nsys.stdin.readline()\n"
                  "sys.stdout.write('{\"action\": \"eop\"}'); sys.stdout.flush(); os.close(1)\n"
                  "for line in sys.stdin: pass\n")
        state = state_for(Brick(2, 2, 4, 4, 0))
        with SubprocessPolicy([sys.executable, "-c", script]) as policy:
            assert policy.propose(None, state, None) is None
            with pytest.raises(PolicyProcessError, match="closed its output stream"):
                policy.propose(None, state, None)
        assert policy.proc.returncode == 0

    SLEEPER = [sys.executable, "-c", "import time; time.sleep(30)"]

    def test_silent_child_times_out_and_is_killed(self, monkeypatch):
        monkeypatch.setattr(decode, "REPLY_TIMEOUT_S", 0.3)
        monkeypatch.setattr(decode, "CLOSE_GRACE_S", 0.3)
        start = time.monotonic()
        with pytest.raises(PolicyProcessError, match="no reply within 0.3 s"):
            with SubprocessPolicy(self.SLEEPER) as policy:
                generate(policy, grid_with([(4, 4, 0)]), DecodeBudgets(8, 1, 4), seed=0)
        assert policy.proc.poll() is not None
        assert time.monotonic() - start < 2.0

    def test_partial_reply_line_times_out(self, monkeypatch):
        # the child writes half a line and stalls: the harness must not block
        # in a buffered read waiting for the rest
        monkeypatch.setattr(decode, "REPLY_TIMEOUT_S", 0.3)
        script = ("import sys, time\nsys.stdin.readline()\n"
                  "sys.stdout.write('{\"action\": '); sys.stdout.flush(); time.sleep(30)\n")
        start = time.monotonic()
        with pytest.raises(PolicyProcessError, match="no reply within"):
            with SubprocessPolicy([sys.executable, "-c", script]) as policy:
                generate(policy, grid_with([(4, 4, 0)]), DecodeBudgets(8, 1, 4), seed=0)
        assert policy.proc.poll() is not None
        assert time.monotonic() - start < 2.0

    def test_buffered_replies_are_all_read(self, monkeypatch):
        # every reply arrives in one write before the first request is read:
        # a reader that fills a buffer and then waits on the pipe would stall
        monkeypatch.setattr(decode, "REPLY_TIMEOUT_S", 1.0)
        root = '{"action": "root", "x": 4, "y": 4, "z": 0, "h": 2, "w": 2}'
        child = '{"action": "tuple", "f": 0, "h": 2, "w": 2, "m": 0}'
        script = (f"import sys\nsys.stdout.write({root!r} + '\\n' + {child!r} + '\\n'"
                  " + '{\"action\": \"eop\"}\\n' * 4)\nsys.stdout.flush()\n"
                  "for line in sys.stdin: pass\n")
        with SubprocessPolicy([sys.executable, "-c", script]) as policy:
            result = generate(policy, grid_with([(4, 4, 0)]), DecodeBudgets(8, 1, 4), seed=0)
        assert result.assembly.bricks == (Brick(2, 2, 4, 4, 0), Brick(2, 2, 4, 4, 1))
        assert policy.proc.returncode == 0

    def test_long_reply_is_read_in_linear_time(self):
        script = ("import sys\nfor line in sys.stdin:\n"
                  "    print('{\"action\": \"eop\", \"pad\": \"' + 'x' * 200_000 + '\"}', flush=True)\n")
        state = state_for(Brick(2, 2, 4, 4, 0))
        with SubprocessPolicy([sys.executable, "-c", script]) as policy:
            assert policy.propose(None, state, None) is None  # the child is up
            start = time.monotonic()
            assert policy.propose(None, state, None) is None
            assert time.monotonic() - start < 0.2
        assert policy.proc.returncode == 0

    def test_two_replies_in_one_write_come_back_in_order(self, monkeypatch):
        monkeypatch.setattr(decode, "REPLY_TIMEOUT_S", 1.0)
        first = '{"action": "tuple", "f": 0, "h": 2, "w": 2, "m": 0}'
        second = '{"action": "tuple", "f": 3, "h": 1, "w": 2, "m": 1}'
        script = (f"import sys\nsys.stdin.readline()\n"
                  f"sys.stdout.write({first!r} + '\\n' + {second!r} + '\\n')\nsys.stdout.flush()\n"
                  "for line in sys.stdin: pass\n")
        state = state_for(Brick(2, 2, 4, 4, 0))
        with SubprocessPolicy([sys.executable, "-c", script]) as policy:
            assert policy.propose(None, state, None) == (0, 2, 2, 0)
            assert policy.propose(None, state, None) == (3, 1, 2, 1)
        assert policy.proc.returncode == 0

    def test_endless_reply_line_is_cut_at_the_cap(self, monkeypatch):
        monkeypatch.setattr(decode, "MAX_REPLY_BYTES", 4096)
        script = ("import sys\nsys.stdin.readline()\n"
                  "while True:\n    sys.stdout.write('x' * 1000); sys.stdout.flush()\n")
        start = time.monotonic()
        with pytest.raises(MalformedInputError, match="reply is over 4096 bytes"):
            with SubprocessPolicy([sys.executable, "-c", script]) as policy:
                generate(policy, grid_with([(4, 4, 0)]), DecodeBudgets(8, 1, 4), seed=0)
        assert policy.proc.poll() is not None
        assert time.monotonic() - start < 2.0

    def test_close_kills_a_child_that_outlives_its_grace(self, monkeypatch):
        monkeypatch.setattr(decode, "CLOSE_GRACE_S", 0.3)
        start = time.monotonic()
        with SubprocessPolicy(self.SLEEPER) as policy:
            pass
        assert policy.proc.poll() is not None
        assert time.monotonic() - start < 2.0
