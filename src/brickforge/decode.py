"""Validity-constrained autoregressive decoding with pluggable policies and
stability-guided rollback.

Generation mirrors the detokenizer's BFS state machine: a policy proposes
either a child tuple (f, h, w, m) or EOP for the current parent; the
harness validates each tuple in two stages (token-level legality, then
bounds and collision against the partial occupancy) and resamples on
rejection.  After a complete structure is produced its stability is
scored; if some brick is unstable, the sequence is truncated to just before
the tokens of that brick's parent and decoding resumes from the replayed
prefix state, up to a rollback budget.
"""

from __future__ import annotations

import functools
import json
import subprocess
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .attach import decode_attachment
from .bricks import CATALOG_SIZES, GRID, Brick, BrickAssembly
from .errors import (
    BrickforgeError,
    BudgetExhaustedError,
    EmptyTargetError,
    InconsistentSequenceError,
    NoUnstableBrickError,
)
from .geometry import VoxelGrid
from .stability import PhysicsParams, StabilityReport, stability_scores
from .tokens import (
    BOS,
    EOP,
    EOS,
    KIND_COORD,
    KIND_EOP,
    KIND_F,
    KIND_M,
    KIND_SIZE,
    Token,
    TokenSequence,
    coord,
    f_token,
    m_token,
    size,
)

# validate_tuple rejection reasons
REJECT_CONNECTOR = "connector_out_of_range"
REJECT_SIZE = "size_not_in_library"
REJECT_ANCHOR = "anchor_out_of_range"
REJECT_NON_MONOTONE = "non_monotone_f"
REJECT_BOUNDS = "out_of_bounds"
REJECT_COLLISION = "collision"

_CATALOG_ORDERED = tuple(sorted(CATALOG_SIZES))
_TOTAL_ANCHORS = sum(h * w for h, w in _CATALOG_ORDERED)  # 85 over the 14 rotated footprints


@functools.cache
def _action_table(ph: int, pw: int):
    """Legal-action table of a ph x pw parent: every child tuple (f, h, w, m)
    in lexicographic order, so each f spans _TOTAL_ANCHORS rows; each tuple's
    anchor offset (dx, dy, dz) from the parent, as ``decode_attachment``
    places it; and the int array of rows (dx, dy, dz, h, w)."""
    area = ph * pw
    offsets = {(f, h, w, m): (f % area % ph - m % h, f % area // ph - m // h, 1 - 2 * (f // area))
               for f in range(2 * area) for h, w in _CATALOG_ORDERED for m in range(h * w)}
    table = np.column_stack([list(offsets.values()), [a[1:3] for a in offsets]])
    return tuple(offsets), offsets, table


@dataclass(frozen=True)
class DecodeBudgets:
    max_resamples_per_tuple: int = 32
    max_rollbacks: int = 16
    max_bricks: int = 400

    def __post_init__(self):
        if min(self.max_resamples_per_tuple, self.max_rollbacks, self.max_bricks) < 1:
            raise ValueError("all budgets must be positive")


class DecodeState:
    """Mutable decoding process state: token prefix, partial assembly, and
    the BFS queue mirroring the detokenizer."""

    def __init__(self):
        self.bricks: list[Brick] = []
        self.parent_of: list[int | None] = []
        self.tuple_start: list[int] = []  # body index where each brick's tokens begin
        self.body: list[Token] = []       # tokens after BOS (header + groups, no EOS)
        self.queue: deque[int] = deque()
        self.current: int | None = None
        self.f_floor: int = -1
        self.occupancy = np.zeros((GRID, GRID, GRID), dtype=bool)

    @property
    def started(self) -> bool:
        return bool(self.bricks)

    @property
    def done(self) -> bool:
        return self.started and self.current is None

    def current_parent(self) -> Brick:
        return self.bricks[self.current]

    def _occupy(self, brick: Brick):
        self.occupancy[brick.x:brick.x + brick.h, brick.y:brick.y + brick.w, brick.z] = True

    def apply_root(self, brick: Brick):
        assert not self.started
        self.bricks.append(brick)
        self.parent_of.append(None)
        self.tuple_start.append(0)
        self.body += [coord(brick.x), coord(brick.y), coord(brick.z),
                      size(brick.h), size(brick.w)]
        self._occupy(brick)
        self.current = 0
        self.f_floor = -1

    def apply_tuple(self, f: int, h: int, w: int, m: int, brick: Brick):
        self.tuple_start.append(len(self.body))
        self.body += [f_token(f), size(h), size(w), m_token(m)]
        self.parent_of.append(self.current)
        self.bricks.append(brick)
        self.queue.append(len(self.bricks) - 1)
        self._occupy(brick)
        self.f_floor = f

    def apply_eop(self):
        self.body.append(EOP)
        self.current = self.queue.popleft() if self.queue else None
        self.f_floor = -1

    def assembly(self) -> BrickAssembly:
        return BrickAssembly(tuple(self.bricks))

    def finalize(self) -> TokenSequence:
        """Complete sequence for the current prefix: trailing EOP tokens are
        stripped and BOS/EOS added; the state itself is left untouched."""
        body = list(self.body)
        while body and body[-1].kind == KIND_EOP:
            body.pop()
        return TokenSequence([BOS] + body + [EOS])

    def fingerprint(self) -> tuple:
        return (tuple(self.bricks), tuple(self.parent_of), tuple(self.queue),
                self.current, self.f_floor, tuple(self.body))

    @staticmethod
    def replay(body: list[Token]) -> "DecodeState":
        """Rebuild the decoding state reached after consuming ``body``.

        The prefix must be internally consistent (validated while walking);
        raises InconsistentSequenceError otherwise.
        """
        state = DecodeState()
        if not body:
            return state
        if len(body) < 5:
            raise InconsistentSequenceError("prefix shorter than a root header")
        kinds = [t.kind for t in body[:5]]
        if kinds != [KIND_COORD, KIND_COORD, KIND_COORD, KIND_SIZE, KIND_SIZE]:
            raise InconsistentSequenceError(f"bad root header kinds {kinds}")
        x, y, z, h, w = (t.value for t in body[:5])
        try:
            state.apply_root(Brick(h, w, x, y, z))
        except BrickforgeError as err:
            raise InconsistentSequenceError(f"invalid root: {err}") from err
        idx = 5
        while idx < len(body):
            tok = body[idx]
            if tok.kind == KIND_EOP:
                if state.current is None:
                    raise InconsistentSequenceError("EOP with no active parent")
                state.apply_eop()
                idx += 1
                continue
            group = body[idx:idx + 4]
            if len(group) < 4 or [t.kind for t in group] != [KIND_F, KIND_SIZE, KIND_SIZE, KIND_M]:
                raise InconsistentSequenceError(f"bad tuple at body position {idx}")
            f, h, w, m = (t.value for t in group)
            brick, reason = validate_tuple(state, f, h, w, m)
            if brick is None:
                raise InconsistentSequenceError(f"tuple at body position {idx}: {reason}")
            state.apply_tuple(f, h, w, m, brick)
            idx += 4
        return state


def validate_tuple(state: DecodeState, f: int, h: int, w: int, m: int):
    """Two-stage tuple check against the current parent and partial assembly.

    Returns (brick, None) on acceptance or (None, reason) on rejection.
    """
    if state.current is None:
        return None, REJECT_CONNECTOR
    parent = state.current_parent()
    if not 0 <= f < 2 * parent.h * parent.w:
        return None, REJECT_CONNECTOR
    if (h, w) not in CATALOG_SIZES:
        return None, REJECT_SIZE
    if not 0 <= m < h * w:
        return None, REJECT_ANCHOR
    if f <= state.f_floor:
        return None, REJECT_NON_MONOTONE
    dx, dy, dz = _action_table(parent.h, parent.w)[1][f, h, w, m]
    x, y, z = parent.x + dx, parent.y + dy, parent.z + dz
    if not (0 <= x <= GRID - h and 0 <= y <= GRID - w and 0 <= z < GRID):
        return None, REJECT_BOUNDS
    if state.occupancy[x:x + h, y:y + w, z].any():
        return None, REJECT_COLLISION
    return decode_attachment(f, m, parent, (h, w)), None


class Policy:
    """Sequence-policy interface standing in for a conditioned model.

    ``propose_root`` returns (x, y, z, h, w); ``propose`` returns either a
    child tuple (f, h, w, m) or None for EOP.  Policies must be re-invocable
    after a rejection and deterministic given the rng handed in by the
    generation loop.
    """

    def propose_root(self, target: VoxelGrid, rng: np.random.Generator) -> tuple[int, int, int, int, int]:
        raise NotImplementedError

    def propose(self, target: VoxelGrid, state: DecodeState,
                rng: np.random.Generator) -> tuple[int, int, int, int] | None:
        raise NotImplementedError


class UniformLegalPolicy(Policy):
    """Samples uniformly among stage-1-legal tuples plus EOP (one action)."""

    def propose_root(self, target, rng):
        h, w = _CATALOG_ORDERED[rng.integers(0, len(_CATALOG_ORDERED))]
        x = int(rng.integers(0, GRID - h + 1))
        y = int(rng.integers(0, GRID - w + 1))
        z = int(rng.integers(0, GRID))
        return x, y, z, h, w

    def propose(self, target, state, rng):
        parent = state.current_parent()
        actions = _action_table(parent.h, parent.w)[0]
        start = (state.f_floor + 1) * _TOTAL_ANCHORS
        pick = int(rng.integers(0, len(actions) - start + 1))
        return actions[start + pick] if start + pick < len(actions) else None


class GreedyGeometryPolicy(Policy):
    """Scores placements by newly covered target cells minus a penalty per
    newly occupied non-target cell, then samples via softmax; at temperature
    zero it takes the argmax (EOP first on ties, then lexicographic tuple).

    A step scores every candidate at once: the rows of the parent's action
    table from f = f_floor + 1 on that lie in the workspace and cover no
    occupied cell, counted from 2-D summed-area tables of the layers z - 1
    and z + 1, so a deterministic argmax never stalls on an invalid proposal
    (the harness still validates).  Covered cells come from the target's.
    """

    def __init__(self, temperature: float = 0.0, overflow_penalty: float = 2.0):
        self.temperature = temperature
        self.overflow_penalty = overflow_penalty

    def _choose(self, actions: list[tuple], scores: list[float], rng):
        """actions[0] is EOP when present; ties at temperature zero prefer it."""
        if self.temperature <= 0.0:
            best = max(scores)
            for action, score in zip(actions, scores):
                if score == best:
                    return action
        logits = np.array(scores) / self.temperature
        logits -= logits.max()
        weights = np.exp(logits)
        pick = rng.choice(len(actions), p=weights / weights.sum())
        return actions[int(pick)]

    def propose_root(self, target, rng):
        occupied = np.argwhere(target.occupancy)
        if len(occupied) == 0:
            raise EmptyTargetError("target grid has no occupied cells")
        zs = occupied[:, 2]
        z0 = int(zs.min())
        at_floor = occupied[zs == z0]
        y0, x0 = min((int(c[1]), int(c[0])) for c in at_floor)
        actions, scores = [], []
        for h, w in _CATALOG_ORDERED:
            for x in range(max(0, x0 - h + 1), min(x0, GRID - h) + 1):
                for y in range(max(0, y0 - w + 1), min(y0, GRID - w) + 1):
                    covered = int(target.occupancy[x:x + h, y:y + w, z0].sum())
                    actions.append((x, y, z0, h, w))
                    scores.append(covered - self.overflow_penalty * (h * w - covered))
        if self.temperature <= 0.0:
            best = max(scores)
            return min(a for a, s in zip(actions, scores) if s == best)
        return self._choose(actions, scores, rng)

    def propose(self, target, state, rng):
        parent = state.current_parent()
        actions, _, table = _action_table(parent.h, parent.w)
        start = (state.f_floor + 1) * _TOTAL_ANCHORS
        placed = table[start:] + (parent.x, parent.y, parent.z, 0, 0)  # x, y, z, h, w
        x, y, z, h, w = placed.T
        inside = np.flatnonzero((x >= 0) & (x + h <= GRID) & (y >= 0) & (y + w <= GRID)
                                & (z >= 0) & (z < GRID))
        x, y, z, h, w = placed[inside].T
        layers = [k for k in (parent.z - 1, parent.z + 1) if 0 <= k < GRID]
        sat = np.zeros((2, GRID + 1, GRID + 1, GRID), dtype=np.int64)  # occupancy, target
        grids = np.stack([state.occupancy[..., layers], target.occupancy[..., layers]])
        sat[:, 1:, 1:, layers] = grids.cumsum(1).cumsum(2)
        box = sat[:, x + h, y + w, z] - sat[:, x, y + w, z] - sat[:, x + h, y, z] + sat[:, x, y, z]
        free = box[0] == 0
        covered = box[1, free]
        scores = covered - self.overflow_penalty * ((h * w)[free] - covered)
        rows = (start + inside[free]).tolist()
        return self._choose([None] + [actions[i] for i in rows],
                            [0.0] + scores.tolist(), rng)


class ScriptedPolicy(Policy):
    """Replays a fixed root and action list, cycling when exhausted.

    Intended for tests and adversarial scenarios; ignores the rng.
    """

    def __init__(self, root: tuple[int, int, int, int, int], actions, cycle: bool = True):
        self.root = root
        self.actions = list(actions)
        self.cycle = cycle
        self._cursor = 0

    def propose_root(self, target, rng):
        return self.root

    def propose(self, target, state, rng):
        if not self.actions:
            return None
        if self._cursor >= len(self.actions):
            if not self.cycle:
                return None
            self._cursor = 0
        action = self.actions[self._cursor]
        self._cursor += 1
        return action


class SubprocessPolicy(Policy):
    """Adapter for external policies speaking line-delimited JSON on stdio.

    Per step the harness writes one request line and reads one reply line.
    Requests: {"state": [token ids], "parent": {h,w,x,y,z} | null,
    "group_f_floor": int}; ``parent`` is null when a root header is wanted.
    Replies: {"action": "tuple", "f":, "h":, "w":, "m":} or
    {"action": "eop"} or {"action": "root", "x":, "y":, "z":, "h":, "w":}.
    All validation stays in the harness.
    """

    def __init__(self, command: list[str]):
        self.proc = subprocess.Popen(command, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True, bufsize=1)

    def close(self):
        if self.proc.stdin:
            self.proc.stdin.close()
        self.proc.wait(timeout=10)

    def _roundtrip(self, payload: dict) -> dict:
        self.proc.stdin.write(json.dumps(payload) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BrickforgeError("external policy closed its output stream")
        return json.loads(line)

    def _request(self, state: DecodeState, parent: Brick | None) -> dict:
        prefix = [BOS] + state.body
        return self._roundtrip({
            "state": TokenSequence(prefix).ids(),
            "parent": parent.to_dict() if parent else None,
            "group_f_floor": state.f_floor,
        })

    def propose_root(self, target, rng):
        reply = self._request(DecodeState(), None)
        if reply.get("action") != "root":
            raise BrickforgeError(f"expected a root action, got {reply!r}")
        return tuple(int(reply[k]) for k in ("x", "y", "z", "h", "w"))

    def propose(self, target, state, rng):
        reply = self._request(state, state.current_parent())
        action = reply.get("action")
        if action == "eop":
            return None
        if action == "tuple":
            return tuple(int(reply[k]) for k in ("f", "h", "w", "m"))
        raise BrickforgeError(f"expected tuple/eop action, got {reply!r}")


@dataclass
class RollbackEvent:
    sequence_before: TokenSequence
    scores_before: list[float]
    body_len_before: int
    body_len_after: int
    fingerprint_after: tuple


@dataclass
class GenerateTrace:
    resamples: int = 0
    rollbacks: int = 0
    forced_eops: int = 0
    rejected: dict[str, int] = field(default_factory=dict)
    budget_exhausted: str | None = None
    rollback_events: list[RollbackEvent] = field(default_factory=list)

    def reject(self, reason: str):
        self.resamples += 1
        self.rejected[reason] = self.rejected.get(reason, 0) + 1

    def to_dict(self) -> dict:
        return {"resamples": self.resamples, "rollbacks": self.rollbacks,
                "forced_eops": self.forced_eops, "rejected": dict(self.rejected),
                "budget_exhausted": self.budget_exhausted}


@dataclass
class GenerateResult:
    assembly: BrickAssembly
    sequence: TokenSequence
    report: StabilityReport
    trace: GenerateTrace

    @property
    def stable(self) -> bool:
        return bool(self.report.scores) and self.report.min_score > 0.0


def rollback(sequence: TokenSequence, assembly: BrickAssembly,
             report: StabilityReport) -> DecodeState:
    """Truncate to just before the tokens of the first unstable brick's
    parent and rebuild the decoding state for that prefix by replay.

    When that parent is the root (or the root itself is unstable) the state
    restarts from just after BOS.  Raises NoUnstableBrickError when every
    score is positive and InconsistentSequenceError when the sequence does
    not reproduce ``assembly``.
    """
    zeros = [i for i, s in enumerate(report.scores) if s == 0.0]
    if not zeros:
        raise NoUnstableBrickError("all per-brick scores are positive")
    k = zeros[0]
    tokens = sequence.tokens
    if len(tokens) < 2 or tokens[0].kind != "BOS" or tokens[-1].kind != "EOS":
        raise InconsistentSequenceError("sequence must be BOS ... EOS")
    full = DecodeState.replay(list(tokens[1:-1]))
    if tuple(full.bricks) != assembly.bricks:
        raise InconsistentSequenceError("sequence does not decode to the given assembly")
    parent = full.parent_of[k] if k < len(full.parent_of) else None
    if k == 0 or parent == 0 or parent is None:
        cut = 0  # restart from just after BOS
    else:
        cut = full.tuple_start[parent]
    return DecodeState.replay(full.body[:cut])


def _sample_root(policy: Policy, target: VoxelGrid, state: DecodeState,
                 rng: np.random.Generator, budgets: DecodeBudgets, trace: GenerateTrace):
    for _ in range(budgets.max_resamples_per_tuple):
        x, y, z, h, w = policy.propose_root(target, rng)
        try:
            brick = Brick(h, w, x, y, z)
        except BrickforgeError:
            trace.reject(REJECT_BOUNDS)
            continue
        state.apply_root(brick)
        return
    raise BudgetExhaustedError("root_resamples")


def _run_episode(policy: Policy, target: VoxelGrid, state: DecodeState,
                 rng: np.random.Generator, budgets: DecodeBudgets, trace: GenerateTrace):
    if not state.started:
        _sample_root(policy, target, state, rng, budgets, trace)
    while not state.done and len(state.bricks) < budgets.max_bricks:
        rejections = 0
        while True:
            action = policy.propose(target, state, rng)
            if action is None:
                state.apply_eop()
                break
            brick, reason = validate_tuple(state, *action)
            if brick is not None:
                state.apply_tuple(*action, brick)
                break
            trace.reject(reason)
            rejections += 1
            if rejections >= budgets.max_resamples_per_tuple:
                state.apply_eop()
                trace.forced_eops += 1
                break


def generate(policy: Policy, target: VoxelGrid,
             budgets: DecodeBudgets | None = None,
             params: PhysicsParams | None = None,
             seed: int = 0) -> GenerateResult:
    """Constrained generation loop.

    Produces a structure that is in bounds, collision-free, and strictly
    detokenizable by construction.  When the completed structure contains an
    unstable brick, a parent-aware rollback truncates the sequence and
    decoding resumes, up to ``max_rollbacks``; if the budget runs out the
    best attempt so far is returned with the trace flagged.
    """
    budgets = budgets or DecodeBudgets()
    params = params or PhysicsParams()
    rng = np.random.default_rng(seed)
    trace = GenerateTrace()
    state = DecodeState()
    best: tuple[float, BrickAssembly, TokenSequence, StabilityReport] | None = None

    while True:
        _run_episode(policy, target, state, rng, budgets, trace)
        sequence = state.finalize()
        assembly = state.assembly()
        report = stability_scores(assembly, params)
        score = report.min_score if report.scores else 0.0
        if best is None or score > best[0]:
            best = (score, assembly, sequence, report)
        if score > 0.0:
            return GenerateResult(assembly, sequence, report, trace)
        if trace.rollbacks >= budgets.max_rollbacks:
            trace.budget_exhausted = "rollbacks"
            _, assembly, sequence, report = best
            return GenerateResult(assembly, sequence, report, trace)
        body_before = len(sequence.tokens) - 2
        state = rollback(sequence, assembly, report)
        trace.rollbacks += 1
        trace.rollback_events.append(RollbackEvent(
            sequence_before=sequence,
            scores_before=list(report.scores),
            body_len_before=body_before,
            body_len_after=len(state.body),
            fingerprint_after=state.fingerprint(),
        ))
