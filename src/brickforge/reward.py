"""Buildability-aware reward composition, preference-pair construction,
and the post-training loss arithmetic.

The reward adds a voxel-overlap term, a bounded surface-distance term, and
the minimum per-brick stability score.  All losses are pure evaluations so
an external trainer (or a policy hyperparameter search) can consume them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bricks import BrickAssembly
from .errors import NonFiniteInputError
from .geometry import (
    PointCloud,
    chamfer,
    extract_surface,
    iou,
    normalize_cloud,
    sample_surface,
    voxelize_assembly,
    voxelize_points,
)
from .stability import PhysicsParams, stability_scores
from .tokens import TokenSequence

DEFAULT_SURFACE_SAMPLES = 8192
CD_REWARD_SLOPE = 5.0
PAIR_GAP_MIN = 0.2
PAIR_FLOOR = 1.0


@dataclass(frozen=True)
class RewardBreakdown:
    r_iou: float
    d_cd: float
    r_cd: float
    r_geo: float
    r_stable: float
    r_total: float

    def to_dict(self) -> dict:
        return {"r_iou": self.r_iou, "d_cd": self.d_cd, "r_cd": self.r_cd,
                "r_geo": self.r_geo, "r_stable": self.r_stable, "r_total": self.r_total}


def compose_reward(r_iou: float, d_cd: float, r_stable: float) -> RewardBreakdown:
    """Assemble a breakdown from the three measured quantities."""
    r_cd = max(1.0 - CD_REWARD_SLOPE * d_cd, 0.0)
    r_geo = r_iou + r_cd
    return RewardBreakdown(r_iou=r_iou, d_cd=d_cd, r_cd=r_cd, r_geo=r_geo,
                           r_stable=r_stable, r_total=r_geo + r_stable)


def total_reward(target: PointCloud, candidate: BrickAssembly,
                 params: PhysicsParams | None = None, *,
                 samples: int = DEFAULT_SURFACE_SAMPLES, seed: int = 0,
                 solid_fill: bool = True) -> RewardBreakdown:
    """Score a candidate assembly against a target point cloud.

    Pipeline: voxelize both sides and take IoU; extract the candidate's
    surface, sample ``samples`` points, normalize both clouds independently
    and take the Chamfer distance; then add the minimum stability score.
    """
    target_grid = voxelize_points(target, solid_fill=solid_fill)
    candidate_grid = voxelize_assembly(candidate)
    r_iou = iou(target_grid, candidate_grid)
    mesh = extract_surface(candidate_grid)
    sampled = sample_surface(mesh, samples, seed)
    d_cd = chamfer(normalize_cloud(target), normalize_cloud(sampled))
    report = stability_scores(candidate, params)
    return compose_reward(r_iou, d_cd, report.min_score)


@dataclass(frozen=True)
class PreferencePair:
    condition: str
    winner: TokenSequence
    loser: TokenSequence
    reward_winner: float
    reward_loser: float

    @property
    def reward_gap(self) -> float:
        return self.reward_winner - self.reward_loser

    def to_dict(self) -> dict:
        return {"condition": self.condition,
                "winner": self.winner.to_text(),
                "loser": self.loser.to_text(),
                "reward_winner": self.reward_winner,
                "reward_loser": self.reward_loser,
                "reward_gap": self.reward_gap}


def build_preference_pairs(candidates: list[tuple[TokenSequence, RewardBreakdown]],
                           gap_min: float = PAIR_GAP_MIN, floor: float = PAIR_FLOOR,
                           condition: str = "") -> list[PreferencePair]:
    """All ordered pairs whose reward gap is at least ``gap_min`` and whose
    winner reward is no less than ``floor``."""
    pairs = []
    for i, (seq_w, rb_w) in enumerate(candidates):
        if rb_w.r_total < floor:
            continue
        for j, (seq_l, rb_l) in enumerate(candidates):
            if i == j:
                continue
            if rb_w.r_total - rb_l.r_total >= gap_min:
                pairs.append(PreferencePair(condition, seq_w, seq_l,
                                            rb_w.r_total, rb_l.r_total))
    return pairs


def _require_finite(*values: float):
    for v in values:
        if not math.isfinite(v):
            raise NonFiniteInputError(f"non-finite input {v!r}")


def _log_sigmoid(x: float) -> float:
    # branch on sign for stability at |x| up to ~700
    if x >= 0:
        return -math.log1p(math.exp(-x))
    return x - math.log1p(math.exp(x))


def dpo_loss(logp_w_policy: float, logp_l_policy: float,
             logp_w_ref: float, logp_l_ref: float,
             reward_gap: float, beta: float = 1.0) -> float:
    """Reward-weighted preference loss:
    -gap * log sigmoid(beta * ((logp_w_policy - logp_w_ref) - (logp_l_policy - logp_l_ref))).
    """
    _require_finite(logp_w_policy, logp_l_policy, logp_w_ref, logp_l_ref, reward_gap, beta)
    if reward_gap < 0:
        raise ValueError("reward_gap must be nonnegative")
    if beta <= 0:
        raise ValueError("beta must be positive")
    margin = beta * ((logp_w_policy - logp_w_ref) - (logp_l_policy - logp_l_ref))
    return -reward_gap * _log_sigmoid(margin)


def sft_loss(token_logps) -> float:
    """Negative sum of per-token log-probabilities of the ground truth."""
    values = list(token_logps)
    if not values:
        raise ValueError("token_logps must be nonempty")
    _require_finite(*values)
    return -sum(values)


def post_loss(dpo: float, sft: float, sft_weight: float = 1.0) -> float:
    """Combined post-training objective: dpo + sft_weight * sft."""
    _require_finite(dpo, sft, sft_weight)
    if sft_weight < 0:
        raise ValueError("sft_weight must be nonnegative")
    return dpo + sft_weight * sft
