"""Buildability-aware reward composition, preference-pair construction,
and the post-training loss arithmetic.

The reward adds a voxel-overlap term, a bounded surface-distance term, and
the minimum per-brick stability score.  All losses are pure evaluations so
an external trainer (or a policy hyperparameter search) can consume them;
each is a finite float or raises NonFiniteInputError, never nan or inf.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .bricks import BrickAssembly
from .errors import NonFiniteInputError
from .geometry import (
    PointCloud,
    VoxelGrid,
    chamfer,
    extract_surface,
    iou,
    normalize_cloud,
    sample_surface,
    voxelize_assembly,
    voxelize_points,
)
from .stability import PhysicsParams, certified_unstable, stability_scores
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
        return asdict(self)


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
    That term is 0.0 without an LP when ``certified_unstable`` finds a brick,
    even where the solver would fail with ``SolverFailureError``.  The
    target's grid and normalized cloud are kept for the next call on the
    same coordinates, so scoring many candidates builds them once.
    """
    target_grid, target_cloud = _target_side(target.points.tobytes(), solid_fill)
    candidate_grid = voxelize_assembly(candidate)
    r_iou = iou(target_grid, candidate_grid)
    mesh = extract_surface(candidate_grid)
    sampled = sample_surface(mesh, samples, seed)
    d_cd = chamfer(target_cloud, normalize_cloud(sampled))
    certified = certified_unstable(candidate, params) is not None
    r_stable = 0.0 if certified else stability_scores(candidate, params).min_score
    return compose_reward(r_iou, d_cd, r_stable)


@functools.lru_cache(maxsize=1)
def _target_side(points: bytes, solid_fill: bool) -> tuple[VoxelGrid, PointCloud]:
    """The target's grid and normalized cloud, keyed by its coordinates'
    bytes rather than its identity, since a cloud's points can be edited in
    place.  Both arrays are read-only, as every later call shares them."""
    target = PointCloud(np.frombuffer(points))
    grid = voxelize_points(target, solid_fill=solid_fill)
    cloud = normalize_cloud(target)
    grid.occupancy.flags.writeable = False
    cloud.points.flags.writeable = False
    return grid, cloud


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
    """All ordered pairs, winner-major in candidate order, whose reward gap is at
    least ``gap_min`` and whose winner reward is no less than ``floor``.  Raises
    ValueError for a negative or non-finite ``gap_min`` and a non-finite ``floor``."""
    if not 0 <= gap_min < math.inf:  # false for nan
        raise ValueError(f"gap_min must be finite and >= 0, got {gap_min}")
    if not math.isfinite(floor):
        raise ValueError(f"floor must be finite, got {floor}")
    return [PreferencePair(condition, seq_w, seq_l, rb_w.r_total, rb_l.r_total)
            for (seq_w, rb_w), (seq_l, rb_l) in itertools.permutations(candidates, 2)
            if rb_w.r_total >= floor and rb_w.r_total - rb_l.r_total >= gap_min]


def _finite_result(value: float, name: str, **inputs) -> float:
    """``value``, or NonFiniteInputError naming ``name``'s ``inputs``: a loss is
    not finite when an input is not, or when finite inputs overflow."""
    if not math.isfinite(value):
        raise NonFiniteInputError(f"{name} is not finite for {inputs}")
    return value


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
    if reward_gap < 0:
        raise ValueError("reward_gap must be nonnegative")
    if beta <= 0:
        raise ValueError("beta must be positive")
    margin = beta * ((logp_w_policy - logp_w_ref) - (logp_l_policy - logp_l_ref))
    loss = -reward_gap * _log_sigmoid(margin) if math.isfinite(margin) else math.nan
    return _finite_result(loss, "dpo_loss", logp_w_policy=logp_w_policy,
                          logp_l_policy=logp_l_policy, logp_w_ref=logp_w_ref,
                          logp_l_ref=logp_l_ref, reward_gap=reward_gap, beta=beta)


def sft_loss(token_logps) -> float:
    """Negative sum of per-token log-probabilities of the ground truth."""
    values = list(token_logps)
    if not values:
        raise ValueError("token_logps must be nonempty")
    return _finite_result(-sum(values), "sft_loss", token_logps=values)


def post_loss(dpo: float, sft: float, sft_weight: float = 1.0) -> float:
    """Combined post-training objective: dpo + sft_weight * sft."""
    if sft_weight < 0:
        raise ValueError("sft_weight must be nonnegative")
    return _finite_result(dpo + sft_weight * sft, "post_loss", dpo=dpo, sft=sft, sft_weight=sft_weight)
