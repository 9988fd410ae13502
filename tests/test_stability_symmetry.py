"""Symmetries that the stability report keeps today.

The elastic LP's optimum is not unique, so per-brick scores may follow the
solver's basis.  What holds on a seeded corpus of grounded assemblies, plus
two stable ones: a one-cell translation in x or y leaves the report equal;
a floating brick inserted first leaves the grounded bricks' scores equal;
and an x mirror leaves ``min_score``, ``feasible``, ``tension_scale`` and
whether ``certified_unstable`` names a brick unchanged, though it may move
which bricks score 0.
"""

import numpy as np
import pytest

from brickforge.bricks import GRID, Brick, BrickAssembly
from brickforge.stability import PhysicsParams, certified_unstable, stability_scores

from conftest import grow_random_assembly

SIZES = [2 + 77 * k // 39 for k in range(40)]  # 2 to 79 bricks
STABLE = [
    ((4, 2, 3, 3, 0), (4, 2, 9, 3, 0), (6, 2, 5, 3, 1)),  # a bridge: no tension
    ((4, 2, 3, 3, 0), (4, 2, 5, 3, 1), (4, 2, 3, 3, 2)),  # held out by clutch tension
]


def grounded_corpus() -> list[BrickAssembly]:
    rng = np.random.default_rng(777)
    corpus = [BrickAssembly(tuple(Brick(*b) for b in bricks)) for bricks in STABLE]
    for n in SIZES:
        assembly = grow_random_assembly(rng, n, max_z=8)
        while all(b.z for b in assembly.bricks):
            assembly = grow_random_assembly(rng, n, max_z=8)
        corpus.append(assembly)
    return corpus


@pytest.fixture(scope="module")
def corpus():
    return [(a, stability_scores(a)) for a in grounded_corpus()]


def moved(assembly: BrickAssembly, move) -> BrickAssembly:
    return BrickAssembly(tuple(move(b) for b in assembly.bricks))


def test_corpus_spans_sizes_and_verdicts(corpus):
    assert [len(a) for a, _ in corpus] == [3, 3] + SIZES
    assert [report.feasible for _, report in corpus[:3]] == [True, True, False]
    assert [report.tension_scale > 0.0 for _, report in corpus[:2]] == [False, True]
    certified = [certified_unstable(a, PhysicsParams()) is not None for a, _ in corpus]
    assert 0 < sum(certified) < len(corpus)


@pytest.mark.parametrize("axis", ["x", "y"])
def test_one_cell_translation_leaves_the_report_equal(corpus, axis):
    shifts = 0
    for assembly, report in corpus:
        low = min(getattr(b, axis) for b in assembly.bricks)
        high = max(getattr(b, axis) + getattr(b, "h" if axis == "x" else "w")
                   for b in assembly.bricks)
        if low == 0 and high == GRID:  # spans the grid: no room to move
            continue
        step = -1 if low else 1
        shifted = moved(assembly, lambda b: Brick(
            b.h, b.w, b.x + step * (axis == "x"), b.y + step * (axis == "y"), b.z))
        assert stability_scores(shifted) == report
        shifts += 1
    assert shifts == len(corpus) - 1  # one grown assembly spans the grid on each axis


def test_a_floating_brick_inserted_first_leaves_the_grounded_scores_equal(corpus):
    for assembly, report in corpus:
        # grown below z = 8, so nothing touches a brick at the top of the grid
        floating = BrickAssembly((Brick(1, 1, 0, 0, GRID - 1),) + assembly.bricks)
        padded = stability_scores(floating)
        assert padded.scores == [0.0] + report.scores
        assert padded.tension_scale == report.tension_scale
        assert not padded.feasible


def test_an_x_mirror_keeps_the_verdicts(corpus):
    params = PhysicsParams()
    for assembly, report in corpus:
        mirror = moved(assembly, lambda b: Brick(b.h, b.w, GRID - b.x - b.h, b.y, b.z))
        flipped = stability_scores(mirror)
        assert flipped.min_score == pytest.approx(report.min_score, abs=1e-9)
        assert flipped.feasible == report.feasible
        assert flipped.tension_scale == pytest.approx(report.tension_scale, abs=1e-9)
        assert (certified_unstable(mirror, params) is None) == \
            (certified_unstable(assembly, params) is None)
