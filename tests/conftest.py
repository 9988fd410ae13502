"""Shared fixtures and independent oracles used across the test suite."""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest

from brickforge.attach import decode_attachment
from brickforge.bricks import CATALOG_SIZES, GRID, Brick, BrickAssembly, attached
from brickforge.errors import CollisionError
from brickforge.tokens import KIND_EOP

CATALOG = sorted(CATALOG_SIZES)


def grow_random_assembly(rng: np.random.Generator, n_bricks: int,
                         max_z: int = GRID) -> BrickAssembly:
    """Grow a connected assembly by repeatedly attaching a random brick above
    or below a random existing brick."""
    while True:
        h, w = CATALOG[rng.integers(0, len(CATALOG))]
        root = Brick(h, w, int(rng.integers(0, GRID - h + 1)),
                     int(rng.integers(0, GRID - w + 1)),
                     int(rng.integers(0, min(3, max_z))))
        bricks = [root]
        occ = np.zeros((GRID, GRID, GRID), dtype=bool)
        occ[root.x:root.x + root.h, root.y:root.y + root.w, root.z] = True
        failures = 0
        while len(bricks) < n_bricks and failures < 400:
            base = bricks[rng.integers(0, len(bricks))]
            z = base.z + (1 if rng.random() < 0.5 else -1)
            if not 0 <= z < max_z:
                failures += 1
                continue
            h, w = CATALOG[rng.integers(0, len(CATALOG))]
            qx = base.x + int(rng.integers(0, base.h))
            qy = base.y + int(rng.integers(0, base.w))
            x = qx - int(rng.integers(0, h))
            y = qy - int(rng.integers(0, w))
            if not (0 <= x and x + h <= GRID and 0 <= y and y + w <= GRID):
                failures += 1
                continue
            if occ[x:x + h, y:y + w, z].any():
                failures += 1
                continue
            brick = Brick(h, w, x, y, z)
            bricks.append(brick)
            occ[x:x + h, y:y + w, z] = True
            failures = 0
        if len(bricks) >= min(n_bricks, 5) or n_bricks < 5:
            return BrickAssembly(tuple(bricks))


def place_reference(assembly: BrickAssembly, brick: Brick) -> BrickAssembly:
    """The full-rebuild ``place``, kept as the oracle for the one-brick stamp:
    check the new brick's cells, then re-stamp every brick into a fresh
    assembly through the validating constructor."""
    block = assembly.occupancy[brick.x:brick.x + brick.h, brick.y:brick.y + brick.w, brick.z]
    if block.any():
        idx = np.argwhere(block)[0]
        raise CollisionError((brick.x + int(idx[0]), brick.y + int(idx[1]), brick.z))
    return BrickAssembly(assembly.bricks + (brick,))


def attachment_edges_reference(assembly: BrickAssembly) -> set[tuple[int, int]]:
    """All-pairs attachment edges, kept as the oracle for the layer-bucketed
    ``attachment_edges``."""
    bricks = assembly.bricks
    return {(i, j) for i in range(len(bricks)) for j in range(i + 1, len(bricks))
            if attached(bricks[i], bricks[j])}


def replay_reference(body_tokens) -> tuple:
    """Independent re-implementation of the decoding state machine, used as
    the oracle for rollback replay-equivalence.  Returns the same fingerprint
    tuple layout as DecodeState.fingerprint()."""
    body = list(body_tokens)
    if not body:
        return ((), (), (), None, -1, ())
    x, y, z, h, w = (t.value for t in body[:5])
    bricks = [Brick(h, w, x, y, z)]
    parent_of: list[int | None] = [None]
    queue: deque[int] = deque()
    current: int | None = 0
    floor = -1
    idx = 5
    while idx < len(body):
        if body[idx].kind == KIND_EOP:
            current = queue.popleft() if queue else None
            floor = -1
            idx += 1
            continue
        f, h, w, m = (t.value for t in body[idx:idx + 4])
        child = decode_attachment(f, m, bricks[current], (h, w))
        bricks.append(child)
        parent_of.append(current)
        queue.append(len(bricks) - 1)
        floor = f
        idx += 4
    return (tuple(bricks), tuple(parent_of), tuple(queue), current, floor, tuple(body))


def expected_rollback_fingerprint(sequence, scores) -> tuple:
    """Oracle for the post-rollback state: locate the first unstable brick's
    parent, truncate just before its tuple, and replay independently."""
    tokens = list(sequence.tokens)[1:-1]
    full = replay_reference(tokens)
    k = next(i for i, s in enumerate(scores) if s == 0.0)
    parent = full[1][k]
    if k == 0 or parent == 0 or parent is None:
        return replay_reference([])
    idx, seen = 5, 0
    while idx < len(tokens):
        if tokens[idx].kind == KIND_EOP:
            idx += 1
            continue
        seen += 1
        if seen == parent:
            break
        idx += 4
    return replay_reference(tokens[:idx])


def mesh_edge_census(mesh) -> dict:
    """Map undirected edge -> list of orientations (+1 forward, -1 reversed)."""
    census: dict[tuple[int, int], list[int]] = {}
    for tri in mesh.triangles:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (min(a, b), max(a, b))
            census.setdefault(key, []).append(1 if a < b else -1)
    return census


def assert_watertight(mesh):
    """Every edge on exactly two triangles, traversed once in each direction."""
    for edge, orientations in mesh_edge_census(mesh).items():
        assert len(orientations) == 2, f"edge {edge} on {len(orientations)} triangles"
        assert sum(orientations) == 0, f"edge {edge} not consistently oriented"


def euler_characteristic(mesh) -> int:
    v = len(mesh.vertices)
    e = len(mesh_edge_census(mesh))
    f = mesh.n_triangles()
    return v - e + f


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
