"""The owner-grid sparse equilibrium LP and the array scoring built on it,
checked against the all-pairs dense builder and the per-contact scoring
loop kept in ``conftest``: HiGHS must receive the same program, so every
report matches exactly."""

import numpy as np
import pytest
from scipy.sparse import csc_array, vstack

from brickforge.bricks import Brick, BrickAssembly, connected_components
from brickforge.stability import PhysicsParams, assemble_equilibrium_program, stability_scores

from conftest import (
    assemble_equilibrium_program_reference,
    grow_random_assembly,
    stability_scores_reference,
)
from test_reward_certificate import PARAMS
from test_stability import PRESOLVE_NOT_SET_BRICKS


def seeded_corpus(count: int = 300) -> list[BrickAssembly]:
    """``PRESOLVE_NOT_SET_BRICKS`` and ``count`` random assemblies of 5-150
    bricks.  Every third loses a fifth of its bricks, so it splits into
    grounded and floating components; every second is shuffled."""
    rng = np.random.default_rng(9000)
    corpus = [BrickAssembly(tuple(Brick(*t) for t in PRESOLVE_NOT_SET_BRICKS))]
    for i in range(count):
        bricks = list(grow_random_assembly(rng, int(rng.integers(5, 151)),
                                           max_z=int(rng.integers(2, 21))).bricks)
        if i % 3 == 0:
            keep = rng.random(len(bricks)) >= 0.2
            bricks = [b for b, kept in zip(bricks, keep) if kept] or bricks[:1]
        if i % 2 == 0:
            bricks = [bricks[k] for k in rng.permutation(len(bricks))]
        corpus.append(BrickAssembly(tuple(bricks)))
    return corpus


@pytest.fixture(scope="module")
def corpus():
    return seeded_corpus()


def highs_matrix(program):
    """The constraint matrix as ``linprog(method="highs")`` hands it over."""
    if isinstance(program.A_eq, np.ndarray):
        return csc_array(np.vstack((program.A_ub, program.A_eq)))
    return csc_array(vstack((program.A_ub, program.A_eq)))


def assert_same_program(ours, ref):
    ours_matrix, ref_matrix = highs_matrix(ours), highs_matrix(ref)
    assert ours_matrix.shape == ref_matrix.shape
    assert np.array_equal(ours_matrix.indptr, ref_matrix.indptr)
    assert np.array_equal(ours_matrix.indices, ref_matrix.indices)
    assert np.array_equal(ours_matrix.data, ref_matrix.data)
    for name in ("c", "b_eq", "b_ub"):
        assert np.array_equal(getattr(ours, name), getattr(ref, name)), name
    assert ours.bounds == ref.bounds
    assert ours.contacts.tolist() == [[lo, up, *cell] for lo, up, cell in ref.contacts]
    assert ours.grounds.tolist() == [[brick, *cell] for brick, cell in ref.grounds]


def test_corpus_covers_floating_and_large_assemblies(corpus):
    sizes = [len(a) for a in corpus]
    assert len(corpus) > 300 and min(sizes) <= 5 and max(sizes) == 150
    grounded = [[any(a.bricks[i].z == 0 for i in comp) for comp in connected_components(a)]
                for a in corpus]
    assert sum(any(g) and not all(g) for g in grounded) > 30  # grounded and floating parts
    assert sum(not any(g) for g in grounded) > 5  # nothing on the ground


@pytest.mark.parametrize("chunk", range(4))
def test_sparse_program_matches_dense_builder(corpus, chunk):
    rng = np.random.default_rng(chunk)
    params = PhysicsParams(brick_weight_per_cell=1.5, clutch_tension_capacity=7.0)
    for assembly in corpus[chunk::4]:
        assert_same_program(assemble_equilibrium_program(assembly, params),
                            assemble_equilibrium_program_reference(assembly, params))
        # an explicit brick subset in any order orders columns by position
        subset = [int(i) for i in rng.permutation(len(assembly))[:max(1, len(assembly) // 2)]]
        assert_same_program(assemble_equilibrium_program(assembly, params, subset),
                            assemble_equilibrium_program_reference(assembly, params, subset))


@pytest.mark.parametrize("chunk", range(4))
def test_reports_match_dense_path_exactly(corpus, chunk):
    # every assembly at the default physics and at the next other params in
    # turn, whose weights and tolerances let the slack decide ``feasible``
    for k, assembly in enumerate(corpus[chunk::4]):
        for params in (PARAMS[0], PARAMS[1 + k % (len(PARAMS) - 1)]):
            ours = stability_scores(assembly, params)
            ref = stability_scores_reference(assembly, params)
            assert ours.scores == ref.scores
            assert list(map(repr, ours.scores)) == list(map(repr, ref.scores))
            assert ours.brick_slack == ref.brick_slack
            assert ours.feasible is ref.feasible
            assert ours.tension_scale == ref.tension_scale
