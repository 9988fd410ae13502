"""``total_reward`` settles a zero stability term from contact geometry:
``certified_unstable`` names a brick that ``stability_scores`` must score 0,
and the reward then skips the LP.  Checked against the reward that always
solves (``total_reward_reference``) and against the LP itself."""

import numpy as np
import pytest
from scipy.optimize import OptimizeResult

from brickforge import reward, stability
from brickforge.bricks import GRID, Brick, BrickAssembly
from brickforge.errors import SolverFailureError
from brickforge.geometry import PointCloud
from brickforge.reward import total_reward
from brickforge.stability import PhysicsParams, certified_unstable, stability_scores

from conftest import grow_random_assembly, total_reward_reference
from test_stability import PRESOLVE_NOT_SET_BRICKS

PARAMS = (
    PhysicsParams(),
    PhysicsParams(brick_weight_per_cell=0.01),
    PhysicsParams(brick_weight_per_cell=5.0),
    PhysicsParams(slack_tolerance=1e-3),
    PhysicsParams(slack_tolerance=1e-9),
    PhysicsParams(clutch_tension_capacity=1.0),
)
PRESOLVE_NOT_SET = BrickAssembly(tuple(Brick(*t) for t in PRESOLVE_NOT_SET_BRICKS))
# Brick 1 rests on one row of studs, half a cell off its centroid's line.
OVERHANG = BrickAssembly((Brick(2, 4, 9, 8, 0), Brick(1, 4, 10, 11, 1)))
# The 2x2 stands on a 2x2 patch of studs: no line holds its contacts.
STACKED = BrickAssembly((Brick(2, 4, 9, 8, 0), Brick(2, 2, 9, 9, 1)))


def shifted(bricks, low: int) -> list[Brick]:
    """``bricks`` moved up or down so that the lowest stands on z = ``low``."""
    dz = low - min(b.z for b in bricks)
    return [Brick(b.h, b.w, b.x, b.y, b.z + dz) for b in bricks]


def grown_corpus(count: int = 300) -> list[BrickAssembly]:
    """``count`` grown assemblies of 2-150 bricks (every fifth of at most
    10), each followed by a shuffled copy.  A third stand on z = 0, a third are lifted off it, and a
    third lose a fifth of their bricks, which splits some into grounded and
    floating components."""
    rng = np.random.default_rng(2468)
    corpus = []
    for i in range(count):
        n_bricks = int(rng.integers(2, 11 if i % 5 == 0 else 151))
        bricks = list(grow_random_assembly(rng, n_bricks, max_z=int(rng.integers(2, 21))).bricks)
        if i % 3 == 0:
            bricks = shifted(bricks, 0)
        elif i % 3 == 1:
            top = max(b.z for b in bricks) - min(b.z for b in bricks)
            bricks = shifted(bricks, min(1 + i % 2, GRID - 1 - top))
        else:
            keep = rng.random(len(bricks)) >= 0.2
            bricks = [b for b, kept in zip(bricks, keep) if kept] or bricks[:1]
        corpus.append(BrickAssembly(tuple(bricks)))
        corpus.append(BrickAssembly(tuple(bricks[k] for k in rng.permutation(len(bricks)))))
    return corpus


@pytest.fixture(scope="module")
def corpus():
    return grown_corpus()


def cell_centres(assembly: BrickAssembly) -> PointCloud:
    return PointCloud(np.argwhere(assembly.occupancy) + 0.5)


def test_corpus_covers_sizes_and_grounding(corpus):
    sizes = [len(a) for a in corpus]
    assert len(corpus) == 600 and min(sizes) <= 2 and max(sizes) >= 140
    on_ground = [any(b.z == 0 for b in a.bricks) for a in corpus]
    assert 150 < sum(on_ground) < 450


@pytest.mark.parametrize("chunk", range(4))
def test_reward_matches_the_reference_that_always_solves(corpus, chunk, monkeypatch):
    solves, certified = [], []
    solve, certify = stability.linprog, reward.certified_unstable

    def counted_solve(*args, **kwargs):
        solves.append(1)
        return solve(*args, **kwargs)

    def counted_certify(*args):
        brick = certify(*args)
        certified.append(brick is not None)
        return brick

    monkeypatch.setattr(stability, "linprog", counted_solve)
    monkeypatch.setattr(reward, "certified_unstable", counted_certify)
    cases = [(a, PARAMS[k % len(PARAMS)]) for k, a in enumerate(corpus)][chunk::4]
    cases += [(PRESOLVE_NOT_SET, params) for params in PARAMS[chunk::4]]
    lp_path = 0
    for k, (assembly, params) in enumerate(cases):
        target = cell_centres(corpus[(k + 1) % len(corpus)])
        before = len(solves)
        ours = total_reward(target, assembly, params, samples=64, seed=k)
        lp_path += len(solves) > before
        assert ours == total_reward_reference(target, assembly, params, samples=64, seed=k)
    assert sum(certified) > 0 and lp_path > 0


@pytest.mark.parametrize("chunk", range(2))
def test_every_certified_brick_scores_zero(corpus, chunk):
    certified = 0
    for assembly in corpus[chunk::2]:
        brick = certified_unstable(assembly, PhysicsParams())
        if brick is not None:
            certified += 1
            assert stability_scores(assembly).scores[brick] == 0.0
    assert certified > 0.9 * len(corpus[chunk::2])


def test_certified_bricks_of_the_presolve_assembly_score_zero_in_any_order():
    rng = np.random.default_rng(5)
    for _ in range(5):
        bricks = PRESOLVE_NOT_SET.bricks
        shuffled = BrickAssembly(tuple(bricks[k] for k in rng.permutation(len(bricks))))
        brick = certified_unstable(shuffled, PhysicsParams())
        assert brick is not None
        assert stability_scores(shuffled).scores[brick] == 0.0


def test_a_tiny_weight_certifies_nothing(corpus):
    params = PhysicsParams(brick_weight_per_cell=1e-9)
    assert all(certified_unstable(a, params) is None for a in corpus + [PRESOLVE_NOT_SET])


def test_a_certified_candidate_scores_zero_where_the_solver_fails(monkeypatch):
    def failing(*args, **kwargs):
        return OptimizeResult(success=False, nit=7, message="HiGHS Status 0: Not Set")

    monkeypatch.setattr(stability, "linprog", failing)
    target = cell_centres(STACKED)
    assert total_reward(target, OVERHANG, samples=64).r_stable == 0.0
    with pytest.raises(SolverFailureError):
        total_reward(target, STACKED, samples=64)


@pytest.mark.parametrize("assembly, brick", [
    (OVERHANG, 1),
    (STACKED, None),
    (BrickAssembly((Brick(1, 8, 0, 0, 0),)), None),  # z = 0: ground under every cell
    (BrickAssembly((Brick(1, 4, 10, 8, 0), Brick(1, 4, 10, 8, 1))), None),  # centroid on the line
    (BrickAssembly((Brick(2, 2, 0, 0, 0), Brick(1, 1, 5, 5, 2))), 1),  # no contact cell
    (BrickAssembly((Brick(1, 1, 0, 0, 0), Brick(1, 1, 1, 1, 0), Brick(2, 4, 0, 0, 1))), 2),
    (BrickAssembly((Brick(8, 1, 10, 10, 1), Brick(1, 1, 10, 10, 0))), 0),  # first in order
])
def test_certified_brick(assembly, brick):
    assert certified_unstable(assembly, PhysicsParams()) == brick
    assert certified_unstable(assembly) == certified_unstable(assembly, PhysicsParams())
    if brick is not None:
        assert stability_scores(assembly).scores[brick] == 0.0


@pytest.mark.parametrize("assembly, bound", [
    # contacts on the diagonal y = x; the centroid is 1/sqrt(2) off it
    (BrickAssembly((Brick(1, 1, 0, 0, 0), Brick(1, 1, 1, 1, 0), Brick(2, 4, 0, 0, 1))),
     8 / 3),
    # one contact point, 3.5 cells off the centroid along x
    (BrickAssembly((Brick(1, 1, 10, 10, 0), Brick(8, 1, 10, 10, 1))), 3.5 * 8 / 4.5),
    (BrickAssembly((Brick(2, 2, 0, 0, 0), Brick(1, 2, 5, 5, 2))), 2.0),  # no contact: W
])
@pytest.mark.parametrize("weight", [1.0, 0.25])
def test_the_bound_must_clear_the_tolerance_by_the_margin(assembly, bound, weight):
    bound *= weight
    below = PhysicsParams(brick_weight_per_cell=weight, slack_tolerance=bound - 1e-6 - 1e-9)
    above = PhysicsParams(brick_weight_per_cell=weight, slack_tolerance=bound - 1e-6 + 1e-9)
    assert certified_unstable(assembly, below) is not None
    assert certified_unstable(assembly, above) is None
