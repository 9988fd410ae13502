"""Per-brick stability scores from a static-equilibrium linear program.

The model balances vertical forces only: signed stud-contact forces between
vertically attached bricks (compression unbounded, tension bounded by a
scaled clutch capacity), nonnegative ground reactions under z = 0 cells,
and per-brick force/moment balance with elastic slack variables.  Gravity
induces no net lateral load, so omitting shear keeps the program small and
exactly testable while still exposing the failure modes that matter here:
floating parts, overloaded clutch joints, and unbalanced moments.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .bricks import GRID, MAX_FOOTPRINT_AREA, BrickAssembly, connected_components
from .errors import EmptyAssemblyError, SolverFailureError


SLACK_PENALTY = 1e6  # the LP objective's weight M on each slack variable

# Each parameter lies in (0, ceiling): HiGHS refuses a matrix entry from 1e15
# (the tension rows hold the clutch capacity) and reads a bound from 1e20 as
# infinite (a force row holds the weight of up to MAX_FOOTPRINT_AREA cells).
PARAM_CEILINGS = {"brick_weight_per_cell": 1e20 / MAX_FOOTPRINT_AREA,
                  "clutch_tension_capacity": 1e15, "slack_tolerance": math.inf}


@dataclass(frozen=True)
class PhysicsParams:
    brick_weight_per_cell: float = 1.0
    clutch_tension_capacity: float = 10.0
    slack_tolerance: float = 1e-6

    def __post_init__(self):
        for name, ceiling in PARAM_CEILINGS.items():
            value = getattr(self, name)
            if not 0 < value < ceiling:  # false for nan, and for inf at any ceiling
                raise ValueError(f"{name} must be finite and in (0, {ceiling:.7g}), got {value}")


EquilibriumProgram = namedtuple("EquilibriumProgram",
                                "indices contacts grounds c A_eq b_eq A_ub b_ub bounds")
EquilibriumProgram.__doc__ = """Sparse LP description: minimize M * sum|slack| + t subject to
per-brick force and moment balance.

Variable layout: contact forces, ground forces, split slack pairs
(force, moment-x, moment-y per brick), then the tension scale t.
Constraints: 3 equality rows per brick plus nonnegativity of the 6 split
slack variables per brick (ground forces and t are plain variable
bounds).  ``contacts`` has one (lower, upper, cx, cy) row per contact
column and ``grounds`` one (brick, cx, cy) row per ground column.
"""


def assemble_equilibrium_program(assembly: BrickAssembly, params: PhysicsParams,
                                 indices: list[int] | None = None) -> EquilibriumProgram:
    """Build the elastic equilibrium LP over ``indices`` (default: all bricks).

    Contacts are read off an owner grid that holds, for each cell, the
    position in ``indices`` of the brick there (-1 when empty), over a floor
    layer owned by a virtual brick ``len(indices)``: a contact is an owned
    cell whose upper neighbour is owned, and one whose lower owner is the
    floor is a ground cell.  Sorting by (lower, upper, cell) puts contacts
    first and ground cells last, each in ``indices`` order.  Always
    feasible: slack variables absorb any residual at penalty M.
    """
    from scipy.sparse import csr_array

    if indices is None:
        indices = list(range(len(assembly)))
    placed = [assembly.bricks[i] for i in indices]
    n_b = len(placed)
    owner = np.full((GRID, GRID, GRID + 2), -1)
    owner[:, :, 0] = n_b
    for k, b in enumerate(placed):
        owner[b.x:b.x + b.h, b.y:b.y + b.w, b.z + 1] = k
    cx, cy, cz = np.nonzero((owner[:, :, :-1] >= 0) & (owner[:, :, 1:] >= 0))
    lower, upper = owner[cx, cy, cz], owner[cx, cy, cz + 1]
    order = np.lexsort((cy, cx, upper, lower))
    lower, upper, cx, cy = lower[order], upper[order], cx[order], cy[order]
    n_c = int(np.count_nonzero(lower < n_b))
    slack0 = len(lower)  # contact and ground force columns come first
    n_vars = slack0 + 6 * n_b + 1
    t_var = n_vars - 1

    x, y, h, w = np.array([(b.x, b.y, b.h, b.w) for b in placed]).reshape(-1, 4).T
    centroid_x, centroid_y = x + h / 2.0, y + w / 2.0

    def point_forces(k, px, py):
        """Rows and values of unit upward forces at the centres of cells
        (px, py) of the bricks at positions k: force, moment-x (y arms) and
        moment-y (x arms) rows."""
        return 3 * k[:, None] + np.arange(3), np.column_stack(
            (np.ones(len(k)), py + 0.5 - centroid_y[k], px + 0.5 - centroid_x[k]))

    up_rows, up_vals = point_forces(upper, cx, cy)  # every contact and ground column
    lo_rows, lo_vals = point_forces(lower[:n_c], cx[:n_c], cy[:n_c])
    slack = np.arange(6 * n_b)  # row r's (+, -) slack pair is slack0 + 2r, slack0 + 2r + 1
    rows = np.concatenate((up_rows.ravel(), lo_rows.ravel(), slack // 2))
    cols = np.concatenate((np.repeat(np.arange(slack0), 3), np.repeat(np.arange(n_c), 3),
                           slack0 + slack))
    vals = np.concatenate((up_vals.ravel(), -lo_vals.ravel(), 1.0 - 2.0 * (slack % 2)))
    stored = vals != 0.0  # zero moment arms stay unstored, as in a dense matrix's CSC
    A_eq = csr_array((vals[stored], (rows[stored], cols[stored])), shape=(3 * n_b, n_vars))
    b_eq = np.zeros(3 * n_b)
    b_eq[::3] = h * w * params.brick_weight_per_cell

    # tension bound: -phi <= t * capacity for every contact
    contact = np.arange(n_c)
    A_ub = csr_array((np.repeat([-1.0, -params.clutch_tension_capacity], n_c),
                      (np.tile(contact, 2), np.append(contact, np.full(n_c, t_var)))),
                     shape=(n_c, n_vars))

    c = np.zeros(n_vars)
    c[slack0:t_var] = SLACK_PENALTY
    c[t_var] = 1.0

    # contact forces are free; ground forces, slacks and t are nonnegative
    bounds = [(None, None)] * n_c + [(0.0, None)] * (n_vars - n_c)

    positions = np.asarray(indices, dtype=int)
    return EquilibriumProgram(
        indices=indices,
        contacts=np.column_stack((positions[lower[:n_c]], positions[upper[:n_c]],
                                  cx[:n_c], cy[:n_c])),
        grounds=np.column_stack((positions[upper[n_c:]], cx[n_c:], cy[n_c:])),
        c=c, A_eq=A_eq, b_eq=b_eq, A_ub=A_ub, b_ub=np.zeros(n_c), bounds=bounds)


@dataclass
class StabilityReport:
    scores: list[float]
    brick_slack: list[float] = field(default_factory=list)
    feasible: bool = True
    tension_scale: float = 0.0

    @property
    def min_score(self) -> float:
        if not self.scores:
            raise EmptyAssemblyError("report covers no bricks")
        return min(self.scores)

    def to_json(self) -> str:
        payload = {"scores": [float(s) for s in self.scores],
                   "feasible": bool(self.feasible),
                   "min_score": float(self.min_score) if self.scores else 0.0}
        return json.dumps(payload, indent=2) + "\n"


def certified_unstable(assembly: BrickAssembly, params: PhysicsParams | None = None) -> int | None:
    """The first brick its contact cells show must score 0, or None; floating parts go unchecked.

    Forces act on a brick off z = 0 only at the centres of its contact cells
    (those with a brick directly below or above).  If these lie on a line
    a*(px - cx) + b*(py - cy) = e, a^2 + b^2 = 1, that misses the centroid,
    its rows give |a*s_my + b*s_mx - e*s_f| = |e|*W, so some slack residual
    is at least |e|*W / (|a| + |b| + |e|); with no contact cell it is W.  A
    brick counts when that bound exceeds ``slack_tolerance`` by 1e-6, 1000
    times the solver's 1e-9 feasibility tolerance.
    """
    params = params or PhysicsParams()
    for i, brick in enumerate(assembly.bricks):
        x, y, z, h, w = brick.x, brick.y, brick.z, brick.h, brick.w
        if z == 0:  # ground contact under every cell
            continue
        px, py = np.nonzero(assembly.occupancy[x:x + h, y:y + w, z - 1:z + 2:2].any(2))
        a, b, e = 0.0, 0.0, 1.0  # no contact cell: the force residual is W
        if len(px):
            dx, dy = px[0] + 0.5 - h / 2, py[0] + 0.5 - w / 2  # from the centroid
            ux, uy = int(px[-1] - px[0]), int(py[-1] - py[0])  # a line's ends, in row-major order
            if ux == uy == 0:  # one point: the axis-parallel line through it farther out
                ux, uy = (0, 1) if abs(dx) >= abs(dy) else (1, 0)
            elif np.any(ux * (py - py[0]) != uy * (px - px[0])):
                continue
            a, b = -uy / math.hypot(ux, uy), ux / math.hypot(ux, uy)
            e = abs(a * dx + b * dy)
        bound = e * h * w * params.brick_weight_per_cell / (abs(a) + abs(b) + e)
        if bound > params.slack_tolerance + 1e-6:
            return i
    return None


MAX_ITERATIONS = 100_000
_SOLVER_OPTIONS = {
    "maxiter": MAX_ITERATIONS,
    "primal_feasibility_tolerance": 1e-9,
    "dual_feasibility_tolerance": 1e-9,
}


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on the first solve so that
    importing the package skips scipy.  ``_solve`` calls it by this name."""
    from scipy.optimize import linprog as scipy_linprog
    return scipy_linprog(*args, **kwargs)


def _solve(program: EquilibriumProgram, options: dict):
    return linprog(program.c, A_ub=program.A_ub, b_ub=program.b_ub,
                   A_eq=program.A_eq, b_eq=program.b_eq, bounds=program.bounds,
                   method="highs", options=options)


def stability_scores(assembly: BrickAssembly, params: PhysicsParams | None = None) -> StabilityReport:
    """Score every brick in [0, 1].

    Bricks in components that never reach z = 0 score 0, with inf slack,
    without solving.  For the grounded part, the elastic LP is solved once;
    a brick scores 0 when any of its three slack residuals exceeds the
    tolerance, and otherwise 1 minus its worst clutch tension utilization.
    The report is feasible when no brick's slack exceeds the tolerance.
    """
    params = params or PhysicsParams()
    n = len(assembly.bricks)
    scores, slack = [0.0] * n, [math.inf] * n
    if all(b.z for b in assembly.bricks):  # nothing stands on z = 0, as in the empty assembly
        return StabilityReport(scores, slack, max(slack, default=0.0) <= params.slack_tolerance)

    grounded = sorted(i for comp in connected_components(assembly)
                      if any(assembly.bricks[k].z == 0 for k in comp) for i in comp)
    program = assemble_equilibrium_program(assembly, params, grounded)
    result = _solve(program, _SOLVER_OPTIONS)
    if not result.success:
        # HiGHS presolve occasionally stops at "Not Set" on a solvable program
        # after 0 iterations; the same LP without presolve solves.
        result = _solve(program, {**_SOLVER_OPTIONS, "presolve": False})
    if not result.success:
        raise SolverFailureError(int(getattr(result, "nit", MAX_ITERATIONS)),
                                 detail=result.message)

    x = result.x
    n_c, n_g = len(program.contacts), len(program.grounds)
    forces = x[:n_c]
    pulled = forces < 0.0
    utilization = np.zeros(n)
    for end in (0, 1):  # the lower and the upper brick of each contact
        np.maximum.at(utilization, program.contacts[pulled, end],
                      -forces[pulled] / params.clutch_tension_capacity)
    utilization = utilization.tolist()  # scores are plain floats

    split = x[n_c + n_g:-1].reshape(-1, 3, 2)  # (+, -) slack pairs per brick and row
    residuals = np.abs(split[:, :, 0] - split[:, :, 1]).max(1).tolist()  # plain floats too
    for brick_idx, worst in zip(program.indices, residuals):
        slack[brick_idx] = worst
        if worst <= params.slack_tolerance:
            scores[brick_idx] = max(0.0, 1.0 - utilization[brick_idx])
    return StabilityReport(scores, slack, max(slack, default=0.0) <= params.slack_tolerance,
                           float(x[-1]))
