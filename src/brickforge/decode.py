"""Validity-constrained autoregressive decoding with pluggable policies and
stability-guided rollback.

Generation drives the tokenizer's BFS state machine, ``DecodeState``: a
policy proposes either a child tuple (f, h, w, m) or EOP for the current
parent; the harness validates each tuple in two stages (token-level
legality, then bounds and collision against the partial occupancy) and
resamples on rejection.  After each complete structure one brick is blamed,
by the cheapest rule that can decide: brick 0 when nothing stands on z = 0,
else the first brick ``certified_unstable`` names from contact geometry,
else the first brick the equilibrium LP scores 0 (when none scores 0 the
structure is stable and returned with that report).  The sequence is then
truncated to just before the tokens of the blamed brick's parent and
decoding resumes from that prefix state; past the rollback budget the
first attempt is returned, its LP solved only then.
"""

from __future__ import annotations

import functools
import json
import os
import select
import subprocess
import time
from collections import namedtuple
from dataclasses import dataclass, field
from numbers import Integral
from operator import index

import numpy as np

from .attach import attachment_offset
from .attach import decode_attachment  # bound only for bench/tracer.py (ROADMAP item 11)
from .bricks import CATALOG_SIZES, GRID, Brick, BrickAssembly, _int_fields, is_free
from .errors import (
    BudgetExhaustedError,
    CollisionError,
    EmptyTargetError,
    InconsistentSequenceError,
    MalformedInputError,
    OutOfBoundsError,
    PolicyProcessError,
    SizeNotInLibraryError,
)
from .geometry import VoxelGrid
from .stability import PhysicsParams, StabilityReport, certified_unstable, stability_scores
from .tokenizer import DecodeState
from .tokens import BOS, TokenSequence

# validate_tuple rejection reasons
REJECT_CONNECTOR = "connector_out_of_range"
REJECT_SIZE = SizeNotInLibraryError.code
REJECT_ANCHOR = "anchor_out_of_range"
REJECT_NON_MONOTONE = "non_monotone_f"
REJECT_BOUNDS = OutOfBoundsError.code
REJECT_COLLISION = CollisionError.code

OVERFLOW_PENALTY = 2.0  # GreedyGeometryPolicy: score lost per newly occupied non-target cell
REPLY_TIMEOUT_S = 60.0  # SubprocessPolicy: the longest wait for one reply line
MAX_REPLY_BYTES = 1 << 20  # SubprocessPolicy: the longest reply line, its newline included
CLOSE_GRACE_S = 10.0    # SubprocessPolicy.close: the wait for the child to exit

_CATALOG_ORDERED = tuple(sorted(CATALOG_SIZES))
_TOTAL_ANCHORS = sum(h * w for h, w in _CATALOG_ORDERED)  # 85 over the 14 rotated footprints


@functools.cache
def _action_table(ph: int, pw: int):
    """Legal-action table of a ph x pw parent: every legal child tuple (f, h, w, m)
    in lexicographic order, so each f spans _TOTAL_ANCHORS rows; by tuple, its row
    (dx, dy, dz, h, w) of anchor offset from the parent and size; and those rows as an array."""
    rows = {(f, h, w, m): attachment_offset(f, m, ph, pw, h) + (h, w)
            for f in range(2 * ph * pw) for h, w in _CATALOG_ORDERED for m in range(h * w)}
    return tuple(rows), rows, np.array(list(rows.values()))


@dataclass(frozen=True)
class DecodeBudgets:
    max_resamples_per_tuple: int = 32
    max_rollbacks: int = 16
    max_bricks: int = 400

    def __post_init__(self):  # numpy integers pass; nan, 1.5 or "3" would never end or crash later
        for name, value in vars(self).items():
            if not isinstance(value, Integral) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


def validate_tuple(state: DecodeState, f: int, h: int, w: int, m: int):
    """Two-stage tuple check against the current parent and partial assembly.

    Returns (brick, None) on acceptance or (None, reason) on rejection.
    """
    if state.current is None:
        return None, REJECT_CONNECTOR
    parent = state.current_parent()
    row = _action_table(parent.h, parent.w)[1].get((f, h, w, m))
    if row is None:  # not a row of the table: name the first field out of range
        return None, (REJECT_CONNECTOR if f not in range(2 * parent.h * parent.w)
                      else REJECT_SIZE if (h, w) not in CATALOG_SIZES else REJECT_ANCHOR)
    if f <= state.f_floor:
        return None, REJECT_NON_MONOTONE
    dx, dy, dz, rh, rw = row  # the table's ints, even for a float field equal to one
    x, y, z = parent.x + dx, parent.y + dy, parent.z + dz
    if not (0 <= x <= GRID - rh and 0 <= y <= GRID - rw and 0 <= z < GRID):
        return None, REJECT_BOUNDS
    if not is_free(state.cells, rh, rw, x, y, z):
        return None, REJECT_COLLISION
    try:  # accepted: a float equal to an int is refused
        index(f), index(h), index(w), index(m)
    except TypeError:
        raise MalformedInputError(f"tuple fields {(f, h, w, m)!r} are not all ints") from None
    return Brick(rh, rw, x, y, z), None


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
    """Scores placements by newly covered target cells minus OVERFLOW_PENALTY per
    newly occupied non-target cell, then samples via softmax; at temperature
    zero it takes the argmax (EOP first on ties, then lexicographic tuple).

    A step scores every candidate at once: the rows of the parent's action
    table from f = f_floor + 1 on that lie in the workspace and cover no
    occupied cell, counted from 2-D summed-area tables of the layers z - 1
    and z + 1, so a deterministic argmax never stalls on an invalid proposal
    (the harness still validates).  Covered cells come from the target's.
    """

    def __init__(self, temperature: float = 0.0):
        if not np.isfinite(temperature):
            raise ValueError(f"temperature must be finite, got {temperature}")
        self.temperature = temperature

    def _choose(self, actions: list[tuple], scores: list[float], rng):
        """actions[0] is EOP when present; ties at temperature zero prefer it."""
        best = max(scores)
        if self.temperature <= 0.0:
            return actions[scores.index(best)]
        with np.errstate(over="ignore"):  # a tiny temperature sends the losers to -inf
            weights = np.exp((np.array(scores) - best) / self.temperature)
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
                    scores.append(covered - OVERFLOW_PENALTY * (h * w - covered))
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
        occupied = np.frombuffer(state.cells, dtype=bool).reshape(GRID, GRID, GRID)
        grids = np.stack([occupied[..., layers], target.occupancy[..., layers]])
        sat[:, 1:, 1:, layers] = grids.cumsum(1).cumsum(2)
        box = sat[:, x + h, y + w, z] - sat[:, x, y + w, z] - sat[:, x + h, y, z] + sat[:, x, y, z]
        free = box[0] == 0
        covered = box[1, free]
        scores = covered - OVERFLOW_PENALTY * ((h * w)[free] - covered)
        rows = (start + inside[free]).tolist()
        return self._choose([None] + [actions[i] for i in rows],
                            [0.0] + scores.tolist(), rng)


class ScriptedPolicy(Policy):
    """Replays a fixed root and action list, cycling when exhausted.

    Intended for tests and adversarial scenarios; ignores the rng.
    """

    def __init__(self, root: tuple[int, int, int, int, int], actions):
        self.root = root
        self.actions = list(actions)
        self._cursor = 0

    def propose_root(self, target, rng):
        return self.root

    def propose(self, target, state, rng):
        if not self.actions:
            return None
        action = self.actions[self._cursor % len(self.actions)]
        self._cursor += 1
        return action


class SubprocessPolicy(Policy):
    """Adapter for external policies speaking line-delimited JSON on stdio.

    Per step the harness writes one request line and reads one reply line.
    Requests: {"state": [token ids], "parent": {h,w,x,y,z} | null,
    "group_f_floor": int}; ``parent`` is null when a root header is wanted.
    Replies: {"action": "tuple", "f":, "h":, "w":, "m":} or
    {"action": "eop"} or {"action": "root", "x":, "y":, "z":, "h":, "w":},
    with int fields; any other reply raises MalformedInputError.  All
    validation stays in the harness.  A reply slower than REPLY_TIMEOUT_S
    (PolicyProcessError) or longer than MAX_REPLY_BYTES (MalformedInputError)
    kills the child.  Usable as a context manager that closes it on exit.
    """

    def __init__(self, command: list[str]):
        try:
            self.proc = subprocess.Popen(command, stdin=subprocess.PIPE,
                                         stdout=subprocess.PIPE)
        except OSError as err:  # missing executable, no permission
            raise PolicyProcessError(f"cannot start external policy: {err}") from None
        self._pending = bytearray()  # bytes read from the child but not yet returned

    def close(self):
        """Close the child's stdin and reap it, killing it after CLOSE_GRACE_S."""
        try:
            self.proc.stdin.close()
        except BrokenPipeError:  # the child exited before reading its last request
            pass
        try:
            self.proc.wait(timeout=CLOSE_GRACE_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self) -> "SubprocessPolicy":
        return self

    def __exit__(self, *exc_info):
        self.close()

    def _readline(self) -> str:
        """One reply line from ``_pending``, refilled in chunks after ``select``
        only while it holds no whole line."""
        deadline, fd, seen = time.monotonic() + REPLY_TIMEOUT_S, self.proc.stdout.fileno(), 0
        while not (end := self._pending.find(b"\n", seen, MAX_REPLY_BYTES) + 1):
            seen, left = len(self._pending), deadline - time.monotonic()  # no newline before seen
            if seen >= MAX_REPLY_BYTES or not select.select([fd], [], [], max(0.0, left))[0]:
                self.proc.kill()
                self.proc.wait()
                if seen >= MAX_REPLY_BYTES:
                    raise MalformedInputError(f"external policy reply is over {MAX_REPLY_BYTES} bytes")
                raise PolicyProcessError(f"external policy sent no reply within {REPLY_TIMEOUT_S} s")
            if not (chunk := os.read(fd, 1 << 16)):  # end of stream: the rest is the line
                end = seen
                break
            self._pending += chunk
        line, self._pending = self._pending[:end], self._pending[end:]
        return line.decode(errors="replace")

    def _roundtrip(self, payload: dict) -> dict:
        try:
            self.proc.stdin.write(json.dumps(payload).encode() + b"\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            raise PolicyProcessError("external policy exited before reading a request") from None
        line = self._readline()
        if not line:
            raise PolicyProcessError("external policy closed its output stream")
        try:
            reply = json.loads(line)
        except (ValueError, RecursionError):  # not JSON, or nested too deep
            reply = None
        if not isinstance(reply, dict):
            raise MalformedInputError(f"external policy reply {line.rstrip()!r} is not a JSON object")
        return reply

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
            raise MalformedInputError(f"expected a root action, got {reply!r}")
        return _int_fields(reply, "xyzhw", "external policy reply")

    def propose(self, target, state, rng):
        reply = self._request(state, state.current_parent())
        action = reply.get("action")
        if action == "eop":
            return None
        if action == "tuple":
            return _int_fields(reply, "fhwm", "external policy reply")
        raise MalformedInputError(f"expected tuple/eop action, got {reply!r}")


RollbackEvent = namedtuple("RollbackEvent", "body_len_before body_len_after brick cause")
RollbackEvent.__doc__ = """How far one rollback cut the sequence body back, the brick it blamed,
and which rule named that brick: "floating" (nothing stands on z = 0),
"certificate" (``certified_unstable``) or "lp" (a zero LP score)."""


@dataclass
class GenerateTrace:
    forced_eops: int = 0
    rejected: dict[str, int] = field(default_factory=dict)
    budget_exhausted: str | None = None
    rollback_events: list[RollbackEvent] = field(default_factory=list)

    @property
    def resamples(self) -> int:
        return sum(self.rejected.values())

    @property
    def rollbacks(self) -> int:
        return len(self.rollback_events)

    def reject(self, reason: str):
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


def rollback(state: DecodeState, brick: int) -> DecodeState:
    """Cut ``state`` in place to just before the tokens of the parent of
    brick ``brick``, the one blamed for instability, and return it.

    When that parent is the root (or the root itself is blamed) the state
    restarts from just after BOS.  A caller holding only tokens passes
    ``DecodeState.replay(body)``.  Raises InconsistentSequenceError when
    ``brick`` is not the index of a brick of ``state``.
    """
    if not 0 <= brick < len(state.bricks):
        raise InconsistentSequenceError(
            f"brick {brick} is not one of the {len(state.bricks)} bricks of the state")
    parent = state.parent_of[brick]
    state.truncate(state.tuple_start[parent] if parent else 0)
    return state


def _run_episode(policy: Policy, target: VoxelGrid, state: DecodeState,
                 rng: np.random.Generator, budgets: DecodeBudgets, trace: GenerateTrace):
    if not state.started:
        for _ in range(budgets.max_resamples_per_tuple):
            x, y, z, h, w = policy.propose_root(target, rng)
            try:
                brick = Brick(h, w, x, y, z)
                break
            except (OutOfBoundsError, SizeNotInLibraryError) as err:
                trace.reject(err.code)
        else:
            raise BudgetExhaustedError("root_resamples")
        state.apply_root(brick)
    while not state.done and len(state.bricks) < budgets.max_bricks:
        for _ in range(budgets.max_resamples_per_tuple):
            action = policy.propose(target, state, rng)
            if action is None:
                state.apply_eop()
                break
            brick, reason = validate_tuple(state, *action)
            if brick is not None:  # numpy integers enter the state as ints
                state.apply_tuple(*map(index, action), brick)
                break
            trace.reject(reason)
        else:  # every proposal was rejected
            state.apply_eop()
            trace.forced_eops += 1


def generate(policy: Policy, target: VoxelGrid,
             budgets: DecodeBudgets | None = None,
             params: PhysicsParams | None = None,
             seed: int = 0) -> GenerateResult:
    """Constrained generation loop.

    Produces a structure that is in bounds, collision-free, and strictly
    detokenizable by construction.  Each completed structure either ends the
    run or has one brick blamed for instability, by the first rule that
    decides: brick 0 when no brick stands on z = 0 (no LP); else the first
    brick ``certified_unstable`` names (no LP); else the equilibrium LP,
    whose report is returned when every score is positive and whose first
    zero score is blamed otherwise.  A parent-aware rollback then truncates
    the sequence at the blamed brick's parent and decoding resumes, up to
    ``max_rollbacks``; if the budget runs out the first attempt, which no
    later one can beat, is returned with the trace flagged.  The returned
    report is always ``stability_scores(result.assembly, params)``; the
    first attempt's LP is solved only when that attempt is returned.
    """
    budgets = budgets or DecodeBudgets()
    rng = np.random.default_rng(seed)
    trace = GenerateTrace()
    state = DecodeState()
    first = None

    while True:
        _run_episode(policy, target, state, rng, budgets, trace)
        assembly, sequence, report = state.assembly(), state.finalize(), None
        if all(b.z for b in assembly.bricks):
            brick, cause = 0, "floating"
        elif (brick := certified_unstable(assembly, params)) is not None:
            cause = "certificate"
        else:
            report = stability_scores(assembly, params)
            if report.min_score > 0.0:
                return GenerateResult(assembly, sequence, report, trace)
            brick, cause = report.scores.index(0.0), "lp"
        first = first or (assembly, sequence, report)
        if trace.rollbacks >= budgets.max_rollbacks:
            trace.budget_exhausted = "rollbacks"
            assembly, sequence, report = first
            return GenerateResult(assembly, sequence,
                                  report or stability_scores(assembly, params), trace)
        rollback(state, brick)
        trace.rollback_events.append(
            RollbackEvent(len(sequence) - 2, len(state.body), brick, cause))
