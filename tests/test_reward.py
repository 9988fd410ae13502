import itertools
import math
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brickforge import reward
from brickforge.bricks import Brick, BrickAssembly
from brickforge.errors import NonFiniteInputError
from brickforge.geometry import (
    PointCloud,
    extract_surface,
    iou,
    normalize_cloud,
    sample_surface,
    voxelize_assembly,
    voxelize_points,
)
from brickforge.reward import (
    build_preference_pairs,
    compose_reward,
    dpo_loss,
    post_loss,
    sft_loss,
    total_reward,
)
from brickforge.stability import stability_scores
from brickforge.tokens import TokenSequence

from conftest import build_preference_pairs_reference, chamfer_bruteforce, total_reward_reference

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import workloads  # noqa: E402


def column_assembly():
    """A 20-tall centered unit column: its cell centers voxelize back to
    exactly its own occupancy."""
    return BrickAssembly(tuple(Brick(1, 1, 10, 10, z) for z in range(20)))


def cell_center_cloud(assembly):
    cells = np.argwhere(assembly.occupancy).astype(float) + 0.5
    return PointCloud(cells)


class TestComposeReward:
    def test_cd_edge_values(self):
        assert compose_reward(0.0, 0.0, 0.0).r_cd == 1.0
        assert compose_reward(0.0, 0.2, 0.0).r_cd == 0.0
        assert compose_reward(0.0, 5.0, 0.0).r_cd == 0.0

    def test_bounds_fuzz(self, rng):
        for _ in range(2000):
            r_iou = float(rng.random())
            d_cd = float(rng.random() * 3)
            r_st = float(rng.random())
            b = compose_reward(r_iou, d_cd, r_st)
            assert 0.0 <= b.r_cd <= 1.0
            assert b.r_geo == b.r_iou + b.r_cd
            assert 0.0 <= b.r_geo <= 2.0
            assert b.r_total == b.r_geo + b.r_stable
            assert 0.0 <= b.r_total <= 3.0


class TestTotalReward:
    def test_identical_grids_grounded(self):
        a = column_assembly()
        breakdown = total_reward(cell_center_cloud(a), a, samples=2048, seed=1)
        assert breakdown.r_iou == 1.0
        assert breakdown.r_stable == 1.0
        assert breakdown.r_total == 2.0 + breakdown.r_cd

    def test_unstable_candidate_drops_stability_term(self):
        cantilever = BrickAssembly((Brick(1, 1, 10, 10, 0), Brick(8, 1, 10, 10, 1)))
        breakdown = total_reward(cell_center_cloud(cantilever), cantilever,
                                 samples=1024, seed=1)
        assert breakdown.r_stable == 0.0
        assert breakdown.r_total == breakdown.r_geo

    def test_matches_step_by_step_oracle(self, rng):
        candidate = BrickAssembly((Brick(2, 2, 9, 9, 0), Brick(2, 2, 10, 10, 1),
                                   Brick(1, 2, 10, 10, 2)))
        target = PointCloud(rng.normal(size=(200, 3)))
        got = total_reward(target, candidate, samples=512, seed=7)

        target_grid = voxelize_points(target, solid_fill=True)
        cand_grid = voxelize_assembly(candidate)
        r_iou = iou(target_grid, cand_grid)
        sampled = sample_surface(extract_surface(cand_grid), 512, 7)
        d_cd = chamfer_bruteforce(normalize_cloud(target), normalize_cloud(sampled))
        r_st = min(stability_scores(candidate).scores)
        assert got.r_iou == r_iou
        assert got.d_cd == pytest.approx(d_cd, abs=1e-9)
        assert got.r_cd == pytest.approx(max(1 - 5 * d_cd, 0.0), abs=1e-9)
        assert got.r_stable == r_st
        assert got.r_total == pytest.approx(r_iou + got.r_cd + r_st, abs=1e-12)


def shell_cloud() -> PointCloud:
    """Cell centres of the grid's outer faces: solid fill fills the grid."""
    cells = np.argwhere(np.ones((20, 20, 20), dtype=bool))
    return PointCloud(cells[((cells == 0) | (cells == 19)).any(axis=1)] + 0.5)


class TestTargetMemo:
    """``total_reward`` keeps one target's grid and normalized cloud between
    calls; every score must still be the one computed from scratch."""

    CANDIDATE = BrickAssembly((Brick(2, 4, 8, 8, 0), Brick(2, 2, 8, 9, 1),
                               Brick(1, 2, 9, 9, 2)))

    def test_targets_in_turn_match_the_reference(self, rng):
        a, b = shell_cloud(), PointCloud(rng.normal(size=(300, 3)))
        got = []
        for target, fill in ((a, True), (b, True), (a, True), (a, False)):
            ours = total_reward(target, self.CANDIDATE, samples=256, seed=3, solid_fill=fill)
            assert ours == total_reward_reference(target, self.CANDIDATE, samples=256,
                                                  seed=3, solid_fill=fill)
            got.append(ours)
        assert got[0] == got[2] and got[2].r_iou != got[3].r_iou

    def test_a_target_edited_in_place_scores_as_edited(self):
        target = shell_cloud()
        before = total_reward(target, self.CANDIDATE, samples=256, seed=3)
        target.points[:, 2] *= 0.5
        after = total_reward(target, self.CANDIDATE, samples=256, seed=3)
        assert after == total_reward_reference(target, self.CANDIDATE, samples=256, seed=3)
        assert after != before

    def test_candidates_of_one_target_voxelize_and_normalize_it_once(self, rng, monkeypatch):
        calls = []
        for name in ("voxelize_points", "normalize_cloud"):
            def counted(*args, _name=name, _fn=getattr(reward, name), **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(reward, name, counted)
        target = PointCloud(rng.normal(size=(200, 3)))  # unlike any earlier target
        for seed in range(3):
            total_reward(target, self.CANDIDATE, samples=128, seed=seed)
        assert calls.count("voxelize_points") == 1
        assert calls.count("normalize_cloud") == 1 + 3  # the target once, each sample

    def test_score_benchmark_ops_match_the_reference(self, tmp_path):
        wl = workloads.make("score", tmp_path)
        prepared = wl.prepare(inputs.build("score", 1))
        assert len(prepared) == 48
        for x in prepared:
            assert wl.op(x) == total_reward_reference(x.cloud, x.candidate, seed=x.sample_seed)


def seq(n):
    return TokenSequence.from_text(f"BOS X{n} Y0 Z0 H1 W1 EOS")


def fake(r_total):
    # breakdown carrying only the total, for filter tests
    return compose_reward(min(r_total, 1.0), 1.0, max(r_total - 1.0, 0.0)) \
        if r_total <= 2.0 else compose_reward(1.0, 0.0, r_total - 2.0)


class TestPreferencePairs:
    def test_pair_above_thresholds(self):
        pairs = build_preference_pairs([(seq(0), fake(2.5)), (seq(1), fake(2.2))])
        assert len(pairs) == 1
        assert pairs[0].winner == seq(0)
        assert pairs[0].reward_gap == pytest.approx(0.3)

    def test_floor_filters(self):
        assert build_preference_pairs([(seq(0), fake(0.9)), (seq(1), fake(0.5))]) == []

    def test_gap_filters(self):
        assert build_preference_pairs([(seq(0), fake(2.0)), (seq(1), fake(1.9))]) == []

    def test_all_ordered_pairs(self):
        totals = [2.8, 2.5, 2.1, 0.4]
        pairs = build_preference_pairs([(seq(i), fake(t)) for i, t in enumerate(totals)])
        got = {(p.reward_winner, p.reward_loser) for p in pairs}
        expect = {(w, l) for w in totals for l in totals
                  if w - l >= 0.2 and w >= 1.0}
        assert {(round(a, 6), round(b, 6)) for a, b in got} == \
               {(round(a, 6), round(b, 6)) for a, b in expect}

    def test_antisymmetric(self, rng):
        totals = [float(rng.random() * 3) for _ in range(6)]
        pairs = build_preference_pairs([(seq(i), fake(t)) for i, t in enumerate(totals)])
        seen = {(p.winner.to_text(), p.loser.to_text()) for p in pairs}
        assert not any((l, w) in seen for w, l in seen)

    # Binary fractions, so that gaps and totals fall exactly on the thresholds;
    # the defaults (0.2, 1.0) are checked on the same lists.
    @pytest.mark.parametrize("gap_min, floor", [(0.25, 1.0), (0.0, 1.0), (0.5, 0.75), (0.75, 1.5)])
    def test_pairs_equal_the_nested_loops_in_order(self, gap_min, floor):
        rng = np.random.default_rng(31)
        totals = (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 2.25)
        at_gap = at_floor = 0
        for k in range(90):
            drawn = [float(t) for t in rng.choice(totals, size=k % 9)]
            candidates = [(seq(i), fake(t)) for i, t in enumerate(drawn)]
            assert [c[1].r_total for c in candidates] == drawn
            ours = build_preference_pairs(candidates, gap_min, floor, condition=f"c{k}")
            assert ours == build_preference_pairs_reference(candidates, gap_min, floor, f"c{k}")
            assert build_preference_pairs(candidates) == build_preference_pairs_reference(candidates)
            at_gap += sum(p.reward_gap == gap_min for p in ours)
            at_floor += sum(p.reward_winner == floor for p in ours)
        assert at_gap > 0 and at_floor > 0

    @pytest.mark.parametrize("kwargs", [
        {"gap_min": -0.1}, {"gap_min": -5e-324}, {"gap_min": math.nan}, {"gap_min": math.inf},
        {"floor": math.nan}, {"floor": math.inf}, {"floor": -math.inf},
    ])
    def test_a_negative_or_non_finite_threshold_is_refused(self, kwargs):
        for n in (0, 2):
            with pytest.raises(ValueError, match=f"{next(iter(kwargs))} must be finite"):
                build_preference_pairs([(seq(i), fake(2.5 - i)) for i in range(n)], **kwargs)


# Finite floats, subnormals and the ends of the range among them.
FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [1e308, -1e308, 1.7976931348623157e308, 5e-324, -5e-324, 0.0, -0.0])
PROPERTY = settings(max_examples=300, deadline=None, database=None, derandomize=True)


def finite_or_non_finite_error(loss_fn, *args, name: str):
    """``loss_fn(*args)`` with RuntimeWarning as an error: a finite float, or
    NonFiniteInputError naming ``name``'s inputs (then None)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            loss = loss_fn(*args)
        except NonFiniteInputError as err:
            assert str(err).startswith(f"{name} is not finite for {{")
            return None
    assert type(loss) is float and math.isfinite(loss)
    return loss


@PROPERTY
@given(logps=st.tuples(FINITE, FINITE, FINITE, FINITE), gap=FINITE, beta=FINITE)
@example(logps=(-1e308, 1e308, 1e308, -1e308), gap=0.0, beta=1.0)
@example(logps=(-1e308, 1e308, 1e308, -1e308), gap=1.0, beta=1.0)
def test_dpo_loss_is_finite_or_a_domain_error(logps, gap, beta):
    if gap < 0 or beta <= 0:
        with pytest.raises(ValueError):
            dpo_loss(*logps, reward_gap=gap, beta=beta)
    elif finite_or_non_finite_error(dpo_loss, *logps, gap, beta, name="dpo_loss") is None:
        # refused only where an exact intermediate, or the loss, leaves the float range
        w_policy, l_policy, w_ref, l_ref = map(Fraction, logps)
        w_gain, l_gain = w_policy - w_ref, l_policy - l_ref
        margin = Fraction(beta) * (w_gain - l_gain)
        sizes = (w_gain, l_gain, w_gain - l_gain, margin, Fraction(gap) * max(1, abs(margin)))
        assert max(map(abs, sizes)) > Fraction(1e307)


@PROPERTY
@given(values=st.lists(FINITE, min_size=1, max_size=8))
@example(values=[-1e308, -1e308])
def test_sft_loss_is_finite_or_a_domain_error(values):
    if finite_or_non_finite_error(sft_loss, values, name="sft_loss") is None:
        assert max(map(abs, values)) > 1e307


@PROPERTY
@given(values=st.lists(FINITE, min_size=1, max_size=6))
@example(values=[1e308, -1e308, 1e308])
@example(values=[0.1, 0.2, 0.3, -0.6, 1e16, -1e16])
def test_sft_loss_is_the_same_in_any_order(values):
    def outcome(order):
        try:
            return repr(sft_loss(order))
        except NonFiniteInputError:
            return "refused"
    assert len({outcome(order) for order in itertools.permutations(values)}) == 1


@PROPERTY
@given(dpo=FINITE, sft=FINITE, weight=FINITE)
@example(dpo=1e308, sft=1e308, weight=1.0)
def test_post_loss_is_finite_or_a_domain_error(dpo, sft, weight):
    if weight < 0:
        with pytest.raises(ValueError):
            post_loss(dpo, sft, sft_weight=weight)
    elif finite_or_non_finite_error(post_loss, dpo, sft, weight, name="post_loss") is None:
        assert max(abs(dpo), abs(sft) * weight) > 1e307 / 2


@pytest.mark.parametrize("name, call, values", [
    ("dpo_loss", lambda v: dpo_loss(*v), [-3.0, -5.0, -3.0, -5.0, 1.7, 1.0]),
    ("sft_loss", sft_loss, [-1.0, -2.0, -3.0]),
    ("post_loss", lambda v: post_loss(*v), [2.0, 3.0, 0.5]),
])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_a_non_finite_input_is_a_domain_error(name, call, values, bad):
    for k in range(len(values)):
        with pytest.raises(NonFiniteInputError, match=f"{name} is not finite"):
            call(values[:k] + [bad] + values[k + 1:])


@pytest.mark.parametrize("loss_fn, args, names", [
    (dpo_loss, (-1e308, 1e308, 1e308, -1e308, 0.0), "'logp_w_policy': -1e+308, 'logp_l_policy':"
     " 1e+308, 'logp_w_ref': 1e+308, 'logp_l_ref': -1e+308, 'reward_gap': 0.0, 'beta': 1.0"),
    (dpo_loss, (-1e308, 1e308, 1e308, -1e308, 1.0), "'reward_gap': 1.0, 'beta': 1.0"),
    (post_loss, (1e308, 1e308), "'dpo': 1e+308, 'sft': 1e+308, 'sft_weight': 1.0"),
    (sft_loss, ([-1e308, -1e308],), "'token_logps': [-1e+308, -1e+308]"),
])
def test_overflowing_losses_raise_a_domain_error_naming_their_inputs(loss_fn, args, names):
    with pytest.raises(NonFiniteInputError, match=f"{loss_fn.__name__} is not finite for") as exc:
        loss_fn(*args)
    assert names in str(exc.value) and exc.value.code == "non_finite_input"


class TestDpoLoss:
    def test_policy_equals_reference(self):
        assert dpo_loss(-3.0, -5.0, -3.0, -5.0, reward_gap=1.7) == \
            pytest.approx(1.7 * math.log(2), abs=1e-12)

    def test_zero_gap(self):
        assert dpo_loss(-1.0, -2.0, -3.0, -4.0, reward_gap=0.0) == 0.0

    def test_gap_linearity(self, rng):
        for _ in range(50):
            lps = rng.normal(size=4) * 5
            gap = float(rng.random() * 2)
            one = dpo_loss(*lps, reward_gap=gap)
            two = dpo_loss(*lps, reward_gap=2 * gap)
            assert two == pytest.approx(2 * one, abs=1e-12)

    def test_monotonicity(self, rng):
        h = 1e-3
        for _ in range(100):
            lw, ll, rw, rl = rng.normal(size=4) * 3
            base = dpo_loss(lw, ll, rw, rl, reward_gap=1.0)
            assert dpo_loss(lw + h, ll, rw, rl, reward_gap=1.0) < base
            assert dpo_loss(lw, ll + h, rw, rl, reward_gap=1.0) > base

    def test_extreme_arguments_stable(self):
        assert dpo_loss(700.0, 0.0, 0.0, 0.0, reward_gap=1.0) == pytest.approx(0.0, abs=1e-12)
        loss = dpo_loss(-700.0, 0.0, 0.0, 0.0, reward_gap=1.0)
        assert math.isfinite(loss) and loss == pytest.approx(700.0, rel=1e-9)

    def test_non_finite(self):
        with pytest.raises(NonFiniteInputError):
            dpo_loss(float("nan"), 0.0, 0.0, 0.0, reward_gap=1.0)
        with pytest.raises(NonFiniteInputError):
            dpo_loss(float("inf"), 0.0, 0.0, 0.0, reward_gap=1.0)

    def test_negative_gap_rejected(self):
        with pytest.raises(ValueError):
            dpo_loss(0.0, 0.0, 0.0, 0.0, reward_gap=-0.1)

    @pytest.mark.parametrize("beta", [0.0, -1.0])
    def test_nonpositive_beta_rejected(self, beta):
        with pytest.raises(ValueError, match="beta must be positive"):
            dpo_loss(0.0, 0.0, 0.0, 0.0, reward_gap=1.0, beta=beta)


class TestSftLoss:
    def test_certain_prediction(self):
        assert sft_loss([0.0, 0.0, 0.0]) == 0.0

    def test_uniform_over_codebook(self):
        t = 11
        logp = math.log(1 / 65)
        assert sft_loss([logp] * t) == pytest.approx(t * math.log(65), abs=1e-9)

    def test_matches_direct_sum(self, rng):
        values = list(-rng.random(40) * 4)
        assert sft_loss(values) == pytest.approx(-sum(values), abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sft_loss([])


class TestPostLoss:
    def test_weight_zero(self):
        assert post_loss(2.5, 99.0, sft_weight=0.0) == 2.5

    def test_unit_weight(self):
        assert post_loss(2.0, 3.0, sft_weight=1.0) == 5.0

    def test_half_weight(self):
        assert post_loss(1.0, 4.0, sft_weight=0.5) == 3.0

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="sft_weight must be nonnegative"):
            post_loss(1.0, 4.0, sft_weight=-0.5)
