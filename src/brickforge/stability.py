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
from dataclasses import dataclass, field

import numpy as np

from .bricks import GRID, BrickAssembly, connected_components
from .errors import EmptyAssemblyError, SolverFailureError


SLACK_PENALTY = 1e6  # the LP objective's weight M on each slack variable


@dataclass(frozen=True)
class PhysicsParams:
    brick_weight_per_cell: float = 1.0
    clutch_tension_capacity: float = 10.0
    slack_tolerance: float = 1e-6

    def __post_init__(self):
        for name in ("brick_weight_per_cell", "clutch_tension_capacity", "slack_tolerance"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and strictly positive, got {value}")


@dataclass
class EquilibriumProgram:
    """Sparse LP description: minimize M * sum|slack| + t subject to
    per-brick force and moment balance.

    Variable layout: contact forces, ground forces, split slack pairs
    (force, moment-x, moment-y per brick), then the tension scale t.
    Constraints: 3 equality rows per brick plus nonnegativity of the 6 split
    slack variables per brick (ground forces and t are plain variable
    bounds).  ``contacts`` has one (lower, upper, cx, cy) row per contact
    column and ``grounds`` one (brick, cx, cy) row per ground column.
    """

    indices: list[int]
    contacts: np.ndarray
    grounds: np.ndarray
    c: np.ndarray
    A_eq: object  # scipy.sparse.csr_array
    b_eq: np.ndarray
    A_ub: object  # scipy.sparse.csr_array
    b_ub: np.ndarray
    bounds: list[tuple[float | None, float | None]]


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

    Bricks in components that never reach z = 0 score 0 without solving.
    For the grounded part, the elastic LP is solved once; a brick scores 0
    when any of its three slack residuals exceeds the tolerance, and
    otherwise 1 minus its worst clutch tension utilization.
    """
    params = params or PhysicsParams()
    n = len(assembly.bricks)
    if n == 0:
        return StabilityReport(scores=[], feasible=True)

    components = connected_components(assembly)
    grounded: list[int] = []
    floating: set[int] = set()
    for comp in components:
        if any(assembly.bricks[i].z == 0 for i in comp):
            grounded.extend(comp)
        else:
            floating.update(comp)
    grounded.sort()

    scores = [0.0] * n
    slack = [math.inf] * n
    report = StabilityReport(scores=scores, brick_slack=slack,
                             feasible=not floating)
    if not grounded:
        return report

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
    contacts = program.contacts
    n_c, n_g = len(contacts), len(program.grounds)
    report.tension_scale = float(x[-1])

    forces = x[:n_c]
    pulled = forces < 0.0
    utilization = np.zeros(n)
    for end in (0, 1):  # the lower and the upper brick of each contact
        np.maximum.at(utilization, contacts[pulled, end],
                      -forces[pulled] / params.clutch_tension_capacity)
    utilization = utilization.tolist()  # scores are plain floats

    split = x[n_c + n_g:-1].reshape(-1, 3, 2)  # (+, -) slack pairs per brick and row
    for brick_idx, worst in zip(program.indices, np.abs(split[:, :, 0] - split[:, :, 1]).max(1)):
        slack[brick_idx] = worst
        if worst > params.slack_tolerance:
            report.feasible = False
        else:
            scores[brick_idx] = max(0.0, 1.0 - utilization[brick_idx])
    return report
