"""Seeded workload inputs as plain ``(h, w, x, y, z)`` brick tuples.

Nothing here imports ``brickforge``, so building the inputs stays outside
the set-up time the benchmark reports.  ``grow`` follows the growth law of
the test suite's random-assembly fixture: attach a random catalog brick
above or below a random existing brick, until ``n`` bricks or 400
consecutive failed attempts.
"""

from __future__ import annotations

import random
from collections import deque

GRID = 20
BASE_SIZES = ((1, 1), (1, 2), (1, 4), (1, 6), (1, 8), (2, 2), (2, 4), (2, 6))
CATALOG = sorted(set(BASE_SIZES) | {(w, h) for h, w in BASE_SIZES})

CORPUS_SIZES = (20, 80, 150)
CORPUS_PER_SIZE = 15       # 45 sequences: tail rank 35 of 45 sits in the N=150 third
LENIENT_EVERY = 4          # one sequence in four also goes through detokenize_lenient

# Shapes whose cost or quality swings from one shape to the next come from
# this fixed pool rather than from the run seed; see the README.
POOL_SEED = 0

SCORE_SIZES = (20, 80, 150)
SCORE_PER_SIZE = 4         # 12 targets x 4 candidates = 48 total_reward ops

GREEDY_TARGETS = 4
UNIFORM_RUNS = 20          # long runs: the tail rank falls among them
UNIFORM_MAX_BRICKS = 60
SHORT_RUNS = 24            # short runs: the median falls among them; n = 50, tail p80
SHORT_MAX_BRICKS = 20

CLI_SIZES = (20, 80, 150)
CLI_ROUNDS = 6             # 42 ops: the tail is p76
CLI_COMMANDS = ("tokenize", "detokenize", "validate", "stability", "score",
                "generate", "export-ldraw")


def grow(rng: random.Random, n: int, max_z: int = GRID) -> list[tuple]:
    """A connected assembly of up to ``n`` bricks, in growth order."""
    while True:
        h, w = CATALOG[rng.randrange(len(CATALOG))]
        root = (h, w, rng.randrange(GRID - h + 1), rng.randrange(GRID - w + 1),
                rng.randrange(min(3, max_z)))
        bricks = [root]
        occ = {(root[2] + a, root[3] + b, root[4]) for a in range(h) for b in range(w)}
        failures = 0
        while len(bricks) < n and failures < 400:
            bh, bw, bx, by, bz = bricks[rng.randrange(len(bricks))]
            z = bz + (1 if rng.random() < 0.5 else -1)
            if not 0 <= z < max_z:
                failures += 1
                continue
            h, w = CATALOG[rng.randrange(len(CATALOG))]
            x = bx + rng.randrange(bh) - rng.randrange(h)
            y = by + rng.randrange(bw) - rng.randrange(w)
            if not (0 <= x and x + h <= GRID and 0 <= y and y + w <= GRID):
                failures += 1
                continue
            cells = [(x + a, y + b, z) for a in range(h) for b in range(w)]
            if any(c in occ for c in cells):
                failures += 1
                continue
            bricks.append((h, w, x, y, z))
            occ.update(cells)
            failures = 0
        if len(bricks) >= min(n, 5) or n < 5:
            return bricks


def grounded(bricks: list[tuple]) -> list[tuple]:
    """Shift an assembly down so its lowest brick stands on z = 0.

    A grown assembly whose root started above the floor would otherwise
    float, and every brick of a floating assembly scores 0 without an LP.
    """
    dz = min(b[4] for b in bricks)
    return [(h, w, x, y, z - dz) for h, w, x, y, z in bricks]


def _attached(a: tuple, b: tuple) -> bool:
    return (abs(a[4] - b[4]) == 1 and a[2] < b[2] + b[0] and b[2] < a[2] + a[0]
            and a[3] < b[3] + b[1] and b[3] < a[3] + a[1])


def bfs_prefix(bricks: list[tuple], k: int) -> list[tuple]:
    """The first ``k`` bricks in BFS order from the lowest (z, y, x) brick;
    every such prefix is connected."""
    root = min(range(len(bricks)), key=lambda i: (bricks[i][4], bricks[i][3], bricks[i][2]))
    seen = {root}
    order = []
    queue = deque([root])
    while queue and len(order) < k:
        i = queue.popleft()
        order.append(i)
        for j in range(len(bricks)):
            if j not in seen and _attached(bricks[i], bricks[j]):
                seen.add(j)
                queue.append(j)
    return [bricks[i] for i in order]


def cells(bricks: list[tuple]) -> list[tuple]:
    """Occupied (x, y, z) cells, sorted."""
    return sorted((x + a, y + b, z) for h, w, x, y, z in bricks
                  for a in range(h) for b in range(w))


def column_cells() -> list[tuple]:
    """The three-cell column target of acceptance criterion 13."""
    return [(4, 7, z) for z in range(3)]


def block_cells() -> list[tuple]:
    """A solid 8x8x6 block standing on the floor."""
    return [(x, y, z) for x in range(6, 14) for y in range(6, 14) for z in range(6)]


def corpus_items(seed: int) -> list[dict]:
    rng = random.Random(seed)
    items = []
    for j in range(CORPUS_PER_SIZE):
        for n in CORPUS_SIZES:  # interleaved so every stretch of the list mixes sizes
            items.append({"stratum": f"n{n}", "bricks": grounded(grow(rng, n)),
                          "lenient": len(items) % LENIENT_EVERY == LENIENT_EVERY - 1})
    return items


def candidates(rng: random.Random, n: int):
    """A target and its four candidates: itself, its first N/3 and 2N/3
    bricks in BFS order, and an unrelated assembly of the same size."""
    target = grounded(grow(rng, n))
    return target, [target, bfs_prefix(target, max(1, len(target) // 3)),
                    bfs_prefix(target, max(1, 2 * len(target) // 3)),
                    grounded(grow(rng, n))]


def score_items(seed: int) -> list[dict]:
    """One item per target; each carries its four candidates.

    Targets and candidates come from the pool: over seeded shapes the mean
    r_iou (about 0.04) moved by a quarter of itself from seed to seed, and
    the tail by a sixth.  The run seed is the surface-sampling seed, which
    moves the Chamfer term and every total but not the cost.
    """
    pool = random.Random(POOL_SEED)
    items = []
    for j in range(SCORE_PER_SIZE):
        for n in SCORE_SIZES:
            target, cands = candidates(pool, n)
            items.append({"stratum": "target", "cloud": cells(target),
                          "candidates": cands, "sample_seed": seed})
    return items


def generate_items(seed: int) -> list[dict]:
    """Column, block, pooled greedy targets, and long and short uniform runs.

    One greedy run costs 0.04 s to 4.7 s, depending on its target and on
    whether it spends all 16 rollbacks, and an occasional uniform run stops
    after a few bricks that all stand: over seeded draws the pass time and
    stable_frac moved by tens of percent from seed to seed.  So the greedy
    targets and every sampler seed come from the pool, and the run seed
    draws only the uniform runs' targets, which that policy ignores.
    Greedy targets stand on the floor, so a greedy run can end stable.
    """
    pool, rng = random.Random(POOL_SEED), random.Random(seed)
    items = [{"stratum": "column", "policy": "greedy", "temperature": 0.0,
              "cells": column_cells(), "max_bricks": None, "gen_seed": 0},
             {"stratum": "block", "policy": "greedy", "temperature": 0.0,
              "cells": block_cells(), "max_bricks": None, "gen_seed": 0}]
    for j in range(GREEDY_TARGETS):
        target = grounded(grow(pool, pool.randint(4, 12), max_z=6))
        items.append({"stratum": "greedy", "policy": "greedy",
                      "temperature": 0.0 if j % 2 == 0 else 0.5,
                      "cells": cells(target), "max_bricks": None,
                      "gen_seed": pool.randrange(2 ** 31)})
    for stratum, runs, max_bricks in (("uniform", UNIFORM_RUNS, UNIFORM_MAX_BRICKS),
                                      ("uniform-short", SHORT_RUNS, SHORT_MAX_BRICKS)):
        for j in range(runs):
            target = grow(rng, rng.randint(4, 12), max_z=6)
            items.append({"stratum": stratum, "policy": "uniform", "temperature": 0.0,
                          "cells": cells(target), "max_bricks": max_bricks,
                          "gen_seed": pool.randrange(2 ** 31)})
    return items


def cli_items(seed: int) -> list[dict]:
    """Rounds of the seven commands on pooled assemblies, cycling through
    the sizes; the run seed is the ``score`` command's sampling seed, as in
    ``score``."""
    pool = random.Random(POOL_SEED)
    items = []
    for r in range(CLI_ROUNDS):
        n = CLI_SIZES[r % len(CLI_SIZES)]
        target, cands = candidates(pool, n)
        for command in CLI_COMMANDS:
            items.append({"stratum": command, "round": r, "command": command,
                          "bricks": target, "candidates": cands,
                          "sample_seed": seed})
    return items


MAKERS = {"corpus": corpus_items, "score": score_items,
            "generate": generate_items, "cli": cli_items}


def build(workload: str, seed: int) -> list[dict]:
    return MAKERS[workload](seed)
