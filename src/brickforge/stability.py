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

from .bricks import BrickAssembly, footprints_overlap
from .bricks import connected_components
from .errors import EmptyAssemblyError, SolverFailureError


@dataclass(frozen=True)
class PhysicsParams:
    brick_weight_per_cell: float = 1.0
    clutch_tension_capacity: float = 10.0
    slack_penalty: float = 1e6
    slack_tolerance: float = 1e-6

    def __post_init__(self):
        for name in ("brick_weight_per_cell", "clutch_tension_capacity",
                     "slack_penalty", "slack_tolerance"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")


@dataclass(frozen=True)
class Contact:
    lower: int
    upper: int
    cell: tuple[int, int]


@dataclass(frozen=True)
class GroundCell:
    brick: int
    cell: tuple[int, int]


@dataclass
class EquilibriumProgram:
    """Dense LP description: minimize M * sum|slack| + t subject to per-brick
    force and moment balance.

    Variable layout: contact forces, ground forces, split slack pairs
    (force, moment-x, moment-y per brick), then the tension scale t.
    Constraints: 3 equality rows per brick plus nonnegativity of the 6 split
    slack variables per brick (ground forces and t are plain variable
    bounds).
    """

    indices: list[int]
    contacts: list[Contact]
    grounds: list[GroundCell]
    c: np.ndarray
    A_eq: np.ndarray
    b_eq: np.ndarray
    A_ub: np.ndarray
    b_ub: np.ndarray
    bounds: list[tuple[float | None, float | None]]

    @property
    def n_equalities(self) -> int:
        return len(self.indices) * 3

    @property
    def n_slack_nonnegativity(self) -> int:
        return len(self.indices) * 6

    @property
    def n_constraints(self) -> int:
        return self.n_equalities + self.n_slack_nonnegativity


def assemble_equilibrium_program(assembly: BrickAssembly, params: PhysicsParams,
                                 indices: list[int] | None = None) -> EquilibriumProgram:
    """Build the elastic equilibrium LP over ``indices`` (default: all bricks).

    Always feasible: slack variables absorb any residual at penalty M.
    """
    bricks = assembly.bricks
    if indices is None:
        indices = list(range(len(bricks)))
    pos = {brick_idx: k for k, brick_idx in enumerate(indices)}

    contacts: list[Contact] = []
    for ai in indices:
        for bi in indices:
            a, b = bricks[ai], bricks[bi]
            if b.z == a.z + 1 and footprints_overlap(a, b):
                for cx in range(max(a.x, b.x), min(a.x + a.h, b.x + b.h)):
                    for cy in range(max(a.y, b.y), min(a.y + a.w, b.y + b.w)):
                        contacts.append(Contact(lower=ai, upper=bi, cell=(cx, cy)))
    grounds = [GroundCell(i, cell) for i in indices if bricks[i].z == 0
               for cell in bricks[i].cells()]

    n_b = len(indices)
    n_c = len(contacts)
    n_g = len(grounds)
    n_vars = n_c + n_g + 6 * n_b + 1
    slack0 = n_c + n_g
    t_var = n_vars - 1

    A_eq = np.zeros((3 * n_b, n_vars))
    b_eq = np.zeros(3 * n_b)

    def rows(brick_idx):
        k = pos[brick_idx]
        return 3 * k, 3 * k + 1, 3 * k + 2  # force, moment-x (y arms), moment-y (x arms)

    def centroid(brick):
        return brick.x + brick.h / 2.0, brick.y + brick.w / 2.0

    for ci, contact in enumerate(contacts):
        up = bricks[contact.upper]
        lo = bricks[contact.lower]
        px, py = contact.cell[0] + 0.5, contact.cell[1] + 0.5
        fr, mxr, myr = rows(contact.upper)
        cx, cy = centroid(up)
        A_eq[fr, ci] += 1.0
        A_eq[mxr, ci] += py - cy
        A_eq[myr, ci] += px - cx
        fr, mxr, myr = rows(contact.lower)
        cx, cy = centroid(lo)
        A_eq[fr, ci] -= 1.0
        A_eq[mxr, ci] -= py - cy
        A_eq[myr, ci] -= px - cx

    for gi, ground in enumerate(grounds):
        brick = bricks[ground.brick]
        px, py = ground.cell[0] + 0.5, ground.cell[1] + 0.5
        fr, mxr, myr = rows(ground.brick)
        cx, cy = centroid(brick)
        col = n_c + gi
        A_eq[fr, col] += 1.0
        A_eq[mxr, col] += py - cy
        A_eq[myr, col] += px - cx

    for brick_idx in indices:
        fr, mxr, myr = rows(brick_idx)
        base = slack0 + 6 * pos[brick_idx]
        for offset, row in ((0, fr), (2, mxr), (4, myr)):
            A_eq[row, base + offset] += 1.0
            A_eq[row, base + offset + 1] -= 1.0
        b_eq[fr] = bricks[brick_idx].area * params.brick_weight_per_cell

    # tension bound: -phi <= t * capacity for every contact
    A_ub = np.zeros((n_c, n_vars))
    b_ub = np.zeros(n_c)
    A_ub[np.arange(n_c), np.arange(n_c)] = -1.0
    A_ub[:, t_var] = -params.clutch_tension_capacity

    c = np.zeros(n_vars)
    c[slack0:slack0 + 6 * n_b] = params.slack_penalty
    c[t_var] = 1.0

    # contact forces are free; ground forces, slacks and t are nonnegative
    bounds = [(None, None)] * n_c + [(0.0, None)] * (n_g + 6 * n_b + 1)

    return EquilibriumProgram(indices=indices, contacts=contacts, grounds=grounds,
                              c=c, A_eq=A_eq, b_eq=b_eq, A_ub=A_ub, b_ub=b_ub,
                              bounds=bounds)


@dataclass
class StabilityReport:
    scores: list[float]
    contact_forces: list[tuple[Contact, float]] = field(default_factory=list)
    ground_forces: list[tuple[GroundCell, float]] = field(default_factory=list)
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

    @staticmethod
    def from_json(text: str) -> "StabilityReport":
        data = json.loads(text)
        return StabilityReport(scores=[float(s) for s in data["scores"]],
                               feasible=bool(data["feasible"]))


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
    n_c, n_g = len(program.contacts), len(program.grounds)
    slack0 = n_c + n_g
    report.tension_scale = float(x[-1])
    report.contact_forces = [(c, float(x[i])) for i, c in enumerate(program.contacts)]
    report.ground_forces = [(g, float(x[n_c + i])) for i, g in enumerate(program.grounds)]

    utilization = [0.0] * n
    for contact, force in report.contact_forces:
        if force < 0.0:
            u = -force / params.clutch_tension_capacity
            utilization[contact.lower] = max(utilization[contact.lower], u)
            utilization[contact.upper] = max(utilization[contact.upper], u)

    for k, brick_idx in enumerate(program.indices):
        base = slack0 + 6 * k
        residuals = [x[base] - x[base + 1], x[base + 2] - x[base + 3], x[base + 4] - x[base + 5]]
        worst = max(abs(r) for r in residuals)
        slack[brick_idx] = worst
        if worst > params.slack_tolerance:
            scores[brick_idx] = 0.0
            report.feasible = False
        else:
            scores[brick_idx] = max(0.0, 1.0 - utilization[brick_idx])
    return report


def r_stable(report: StabilityReport) -> float:
    """Minimum per-brick score; raises EmptyAssemblyError on empty reports."""
    return report.min_score
