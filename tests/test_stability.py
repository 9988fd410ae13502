import json
import math

import numpy as np
import pytest
from scipy.optimize import OptimizeResult

from brickforge import stability
from brickforge.bricks import Brick, BrickAssembly, GRID
from brickforge.errors import EmptyAssemblyError, SolverFailureError
from brickforge.stability import (
    PhysicsParams,
    assemble_equilibrium_program,
    stability_scores,
)

from conftest import CATALOG, grow_random_assembly


def classify(report):
    return [s > 0.0 for s in report.scores]


class TestProgramConstruction:
    def test_single_grounded_2x2(self):
        a = BrickAssembly((Brick(2, 2, 0, 0, 0),))
        prog = assemble_equilibrium_program(a, PhysicsParams())
        assert len(prog.grounds) == 4
        assert len(prog.contacts) == 0
        assert prog.A_eq.shape[0] == 3  # force, moment-x and moment-y balance

    def test_two_stacked_2x2(self):
        a = BrickAssembly((Brick(2, 2, 0, 0, 0), Brick(2, 2, 0, 0, 1)))
        prog = assemble_equilibrium_program(a, PhysicsParams())
        assert len(prog.contacts) == 4
        assert len(prog.grounds) == 4

    def test_cantilever_single_contact(self):
        a = BrickAssembly((Brick(1, 1, 0, 0, 0), Brick(8, 1, 0, 0, 1)))
        prog = assemble_equilibrium_program(a, PhysicsParams())
        assert len(prog.contacts) == 1


class TestOracleCases:
    def test_single_grounded_brick(self):
        report = stability_scores(BrickAssembly((Brick(2, 4, 0, 0, 0),)))
        assert report.scores == [1.0]
        assert report.feasible
        assert report.tension_scale == pytest.approx(0.0, abs=1e-9)

    def test_floating_brick(self):
        report = stability_scores(BrickAssembly((Brick(1, 1, 0, 0, 3),)))
        assert report.scores == [0.0]
        assert not report.feasible

    def test_cantilever(self):
        # a 1x8 held by a single end stud cannot balance its own weight:
        # zero moment forces the contact to zero, leaving the full weight
        # as force residual (hand derivation: slack >= 8 either way)
        a = BrickAssembly((Brick(1, 1, 0, 0, 0), Brick(8, 1, 0, 0, 1)))
        report = stability_scores(a)
        assert report.scores[1] == 0.0
        assert report.brick_slack[1] > 1e-6
        assert report.scores[0] == 1.0  # the support stays balanced on the ground

    def test_tower_height_10(self):
        a = BrickAssembly(tuple(Brick(1, 1, 7, 7, z) for z in range(10)))
        report = stability_scores(a)
        assert report.scores == [1.0] * 10
        assert report.tension_scale == pytest.approx(0.0, abs=1e-9)

    def test_tower_full_height_compression(self):
        a = BrickAssembly(tuple(Brick(1, 1, 0, 0, z) for z in range(GRID)))
        report = stability_scores(a)
        assert classify(report) == [True] * GRID
        assert report.tension_scale == pytest.approx(0.0, abs=1e-9)

    def test_offset_pair_graded_tension(self):
        # 1x4 shelf overlapping its 1x4 base by two studs: the shelf's moment
        # balance forces contact tension of exactly 2 weight units
        a = BrickAssembly((Brick(1, 4, 0, 0, 0), Brick(1, 4, 0, 2, 1)))
        report = stability_scores(a)
        assert report.feasible
        assert report.tension_scale == pytest.approx(0.2, abs=1e-6)
        assert report.scores == pytest.approx([0.8, 0.8], abs=1e-6)

    def test_empty_assembly(self):
        report = stability_scores(BrickAssembly())
        assert report.scores == []
        with pytest.raises(EmptyAssemblyError):
            report.min_score


class TestProperties:
    def test_grounded_single_layer_always_stable(self, rng):
        for _ in range(5):
            bricks = []
            occ = np.zeros((GRID, GRID), dtype=bool)
            for _ in range(12):
                h, w = CATALOG[rng.integers(0, len(CATALOG))]
                x = int(rng.integers(0, GRID - h + 1))
                y = int(rng.integers(0, GRID - w + 1))
                if occ[x:x + h, y:y + w].any():
                    continue
                occ[x:x + h, y:y + w] = True
                bricks.append(Brick(h, w, x, y, 0))
            report = stability_scores(BrickAssembly(tuple(bricks)))
            assert report.scores == [1.0] * len(bricks)

    def test_mirror_symmetry(self, rng):
        # per-brick slack placement is basis-dependent on infeasible cases,
        # so compare the solver-stable quantities: the feasibility verdict,
        # and on feasible structures the optimal tension scale and min score
        for _ in range(8):
            a = grow_random_assembly(rng, 15, max_z=6)
            mirrored = BrickAssembly(tuple(
                Brick(b.h, b.w, GRID - b.x - b.h, b.y, b.z) for b in a.bricks))
            ra = stability_scores(a)
            rb = stability_scores(mirrored)
            assert ra.feasible == rb.feasible
            if ra.feasible:
                assert ra.tension_scale == pytest.approx(rb.tension_scale, abs=1e-6)
                assert min(ra.scores) == pytest.approx(min(rb.scores), abs=1e-6)
                assert sorted(classify(ra)) == sorted(classify(rb))

    def test_weight_scaling_preserves_classification(self, rng):
        for _ in range(5):
            a = grow_random_assembly(rng, 12, max_z=6)
            base = stability_scores(a, PhysicsParams())
            scaled = stability_scores(a, PhysicsParams(brick_weight_per_cell=3.0,
                                                       clutch_tension_capacity=30.0))
            assert classify(base) == classify(scaled)

    def test_heavier_never_fixes_infeasible(self):
        a = BrickAssembly((Brick(1, 1, 0, 0, 0), Brick(8, 1, 0, 0, 1)))
        light = stability_scores(a, PhysicsParams(brick_weight_per_cell=1.0))
        heavy = stability_scores(a, PhysicsParams(brick_weight_per_cell=5.0))
        assert not light.feasible and not heavy.feasible

    def test_repeat_solves_identical(self, rng):
        a = grow_random_assembly(rng, 20, max_z=8)
        r1 = stability_scores(a)
        r2 = stability_scores(a)
        assert r1.scores == r2.scores


class TestReporting:
    def test_r_stable_is_min(self):
        a = BrickAssembly((Brick(1, 4, 0, 0, 0), Brick(1, 4, 0, 2, 1)))
        report = stability_scores(a)
        assert report.min_score == min(report.scores)  # the reward's R_stable

    def test_json_shape(self):
        report = stability_scores(BrickAssembly((Brick(2, 2, 0, 0, 0),)))
        payload = json.loads(report.to_json())
        assert set(payload) == {"scores", "feasible", "min_score"}
        assert payload == {"scores": [1.0], "feasible": True, "min_score": 1.0}

    def test_params_validation(self):
        with pytest.raises(ValueError):
            PhysicsParams(brick_weight_per_cell=0.0)
        with pytest.raises(ValueError):
            PhysicsParams(clutch_tension_capacity=-1.0)

    @pytest.mark.parametrize("name", ["brick_weight_per_cell", "clutch_tension_capacity",
                                      "slack_tolerance"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_params_reject_non_finite(self, name, value):
        # nan <= 0 is False, so a plain sign check let NaN through
        with pytest.raises(ValueError, match=name):
            PhysicsParams(**{name: value})


# A 150-brick assembly, (h, w, x, y, z) in the brick order a tokenize and
# detokenize round trip gives it.  HiGHS presolve stopped on its equilibrium
# LP with "Status 0: Not Set" after 0 iterations; without presolve the same
# LP solves to optimality.
PRESOLVE_NOT_SET_BRICKS = (
    (1, 2, 13, 7, 0), (4, 1, 12, 8, 1), (1, 1, 14, 8, 2), (1, 2, 14, 8, 3), (1, 4, 14, 7, 4),
    (1, 1, 14, 9, 2), (4, 2, 11, 7, 5), (1, 4, 14, 10, 5), (1, 2, 14, 10, 3), (1, 6, 11, 2, 6),
    (1, 2, 13, 6, 6), (8, 1, 10, 8, 6), (1, 1, 14, 11, 6), (1, 6, 14, 12, 6), (4, 2, 14, 12, 4),
    (4, 1, 14, 11, 2), (4, 2, 8, 2, 7), (6, 1, 9, 6, 7), (2, 2, 10, 5, 5), (4, 1, 13, 7, 7),
    (6, 2, 13, 5, 5), (8, 1, 7, 8, 7), (2, 2, 16, 8, 7), (1, 2, 17, 8, 5), (6, 1, 11, 11, 7),
    (4, 1, 11, 12, 7), (2, 4, 14, 15, 7), (4, 2, 13, 17, 5), (1, 1, 15, 12, 5), (2, 2, 16, 12, 5),
    (2, 2, 13, 12, 3), (2, 4, 15, 10, 3), (1, 2, 17, 13, 3), (1, 1, 17, 11, 3), (2, 4, 14, 10, 1),
    (1, 4, 16, 10, 1), (2, 6, 17, 11, 1), (1, 4, 10, 2, 8), (2, 1, 9, 2, 6), (8, 1, 1, 3, 6),
    (1, 4, 9, 3, 6), (8, 1, 8, 6, 8), (1, 1, 12, 6, 6), (1, 8, 10, 5, 4), (6, 2, 8, 7, 8),
    (2, 1, 14, 7, 8), (1, 2, 15, 6, 6), (1, 4, 17, 4, 6), (1, 1, 16, 6, 6), (2, 2, 13, 5, 4),
    (1, 6, 18, 5, 4), (2, 2, 17, 9, 6), (2, 6, 12, 11, 6), (1, 1, 11, 12, 8), (2, 1, 12, 12, 8),
    (2, 1, 10, 12, 6), (1, 2, 14, 15, 8), (2, 1, 15, 17, 6), (8, 1, 12, 18, 6), (4, 2, 12, 17, 4),
    (2, 1, 12, 12, 4), (2, 6, 14, 12, 2), (1, 2, 15, 10, 4), (2, 1, 16, 11, 4), (2, 1, 15, 10, 2),
    (2, 4, 16, 13, 2), (1, 2, 17, 14, 4), (1, 1, 15, 10, 0), (4, 2, 13, 13, 0), (1, 2, 16, 9, 0),
    (1, 1, 16, 11, 0), (1, 2, 18, 11, 2), (8, 1, 11, 15, 0), (4, 1, 7, 5, 9), (4, 2, 6, 3, 5),
    (2, 4, 8, 5, 5), (1, 6, 12, 4, 9), (1, 6, 13, 2, 9), (4, 1, 15, 6, 7), (4, 2, 7, 9, 5),
    (8, 1, 9, 6, 3), (4, 1, 9, 7, 3), (2, 1, 9, 7, 9), (2, 1, 10, 8, 9), (4, 2, 11, 4, 3),
    (2, 2, 18, 10, 3), (1, 2, 12, 11, 5), (1, 1, 13, 12, 5), (4, 1, 9, 12, 9), (1, 6, 18, 13, 7),
    (1, 1, 13, 17, 3), (1, 1, 14, 17, 3), (4, 1, 9, 18, 3), (8, 1, 10, 15, 3), (6, 1, 13, 16, 3),
    (1, 1, 15, 14, 1), (6, 1, 11, 15, 1), (2, 2, 14, 16, 1), (1, 1, 15, 10, 5), (4, 1, 15, 11, 5),
    (1, 1, 16, 14, 1), (4, 1, 16, 15, 5), (1, 1, 13, 14, 1), (4, 1, 16, 9, 1), (1, 1, 18, 12, 3),
    (2, 6, 8, 5, 10), (2, 2, 8, 3, 4), (2, 4, 8, 6, 4), (1, 1, 12, 9, 10), (1, 4, 12, 1, 8),
    (1, 1, 12, 9, 8), (1, 4, 11, 6, 2), (1, 4, 12, 3, 2), (2, 2, 13, 6, 2), (1, 4, 10, 7, 10),
    (1, 6, 19, 11, 4), (1, 8, 19, 9, 2), (4, 1, 9, 12, 10), (1, 2, 18, 14, 6), (2, 6, 9, 13, 2),
    (1, 1, 12, 18, 2), (2, 1, 15, 15, 4), (1, 2, 13, 15, 2), (1, 1, 16, 16, 4), (1, 2, 18, 15, 4),
    (1, 1, 15, 10, 6), (2, 1, 12, 14, 2), (1, 4, 17, 7, 2), (2, 1, 18, 9, 0), (1, 2, 9, 6, 11),
    (2, 4, 9, 8, 11), (2, 2, 7, 10, 9), (1, 8, 8, 8, 3), (4, 1, 11, 9, 11), (4, 2, 12, 4, 7),
    (2, 1, 11, 8, 3), (2, 1, 18, 14, 5), (6, 2, 8, 12, 11), (1, 6, 9, 5, 12), (1, 6, 10, 8, 12),
    (6, 1, 6, 11, 10), (4, 2, 12, 9, 12), (1, 8, 14, 2, 10), (2, 2, 12, 12, 12), (6, 1, 5, 13, 10),
    (2, 6, 8, 7, 13), (2, 1, 10, 8, 13), (2, 2, 6, 11, 11), (1, 8, 13, 6, 13), (1, 1, 11, 8, 12),
)


class TestSolverFailure:
    def test_presolve_not_set_assembly_is_scored(self):
        bricks = tuple(Brick(*t) for t in PRESOLVE_NOT_SET_BRICKS)
        report = stability_scores(BrickAssembly(bricks))
        assert len(report.scores) == 150
        assert all(0.0 <= s <= 1.0 for s in report.scores)
        assert not report.feasible
        # the optimal tension scale does not depend on the brick order
        again = stability_scores(BrickAssembly(tuple(sorted(bricks))))
        assert report.tension_scale == pytest.approx(again.tension_scale, rel=1e-6)

    def test_failed_solve_is_retried_without_presolve(self, monkeypatch):
        presolve = []
        solve = stability.linprog

        def not_set_with_presolve(*args, options, **kwargs):
            presolve.append(options.get("presolve", True))
            if presolve[-1]:
                return OptimizeResult(success=False, nit=0, message="HiGHS Status 0: Not Set")
            return solve(*args, options=options, **kwargs)

        monkeypatch.setattr(stability, "linprog", not_set_with_presolve)
        report = stability_scores(BrickAssembly((Brick(2, 4, 0, 0, 0),)))
        assert report.scores == [1.0]
        assert presolve == [True, False]

    def test_raises_when_the_retry_fails_too(self, monkeypatch):
        calls = []

        def failing(*args, **kwargs):
            calls.append(kwargs["options"])
            return OptimizeResult(success=False, nit=7, message="HiGHS Status 0: Not Set")

        monkeypatch.setattr(stability, "linprog", failing)
        with pytest.raises(SolverFailureError) as err:
            stability_scores(BrickAssembly((Brick(2, 4, 0, 0, 0),)))
        assert err.value.iterations == 7
        assert len(calls) == 2
