"""Shared fixtures and independent oracles used across the test suite."""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest

from brickforge.attach import decode_attachment
from brickforge.bricks import CATALOG_SIZES, GRID, Brick, BrickAssembly, attached
from brickforge.errors import CollisionError
from brickforge.geometry import SurfaceMesh, VoxelGrid
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


# Boundary-face corner loops, ordered so triangle normals point outward.
_FACE_LOOPS = {
    (1, 0, 0): ((1, 0, 0), (1, 1, 0), (1, 1, 1), (1, 0, 1)),
    (-1, 0, 0): ((0, 0, 0), (0, 0, 1), (0, 1, 1), (0, 1, 0)),
    (0, 1, 0): ((0, 1, 0), (0, 1, 1), (1, 1, 1), (1, 1, 0)),
    (0, -1, 0): ((0, 0, 0), (1, 0, 0), (1, 0, 1), (0, 0, 1)),
    (0, 0, 1): ((0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)),
    (0, 0, -1): ((0, 0, 0), (0, 1, 0), (1, 1, 0), (1, 0, 0)),
}


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i: int, j: int):
        self.parent[self.find(i)] = self.find(j)


def _neighbor_face(occ, cell, normal, tangent):
    """The boundary face paired with (cell, normal) around the edge on the
    ``tangent`` side, found by rotating around the edge through the solid:
    the cell's own convex turn first, then the coplanar continuation, then
    the concave neighbor.  The rule is mutual, so every face edge pairs with
    exactly one partner, and solid wedges that touch only along an edge stay
    separate sheets (with coincident but distinct vertices), keeping the
    surface a closed oriented 2-manifold.
    """

    def occupied(c):
        return (0 <= c[0] < occ.shape[0] and 0 <= c[1] < occ.shape[1]
                and 0 <= c[2] < occ.shape[2] and occ[c])

    side = (cell[0] + tangent[0], cell[1] + tangent[1], cell[2] + tangent[2])
    if not occupied(side):
        return cell, tangent
    diag = (cell[0] + normal[0] + tangent[0], cell[1] + normal[1] + tangent[1],
            cell[2] + normal[2] + tangent[2])
    if not occupied(diag):
        return side, normal
    return diag, tuple(-t for t in tangent)


def extract_surface_reference(grid: VoxelGrid) -> SurfaceMesh:
    """The per-face ``extract_surface``, kept as the oracle for the array
    version: closed boundary surface of the occupied region.

    Emits two triangles per exposed unit face (the grid is implicitly padded
    with empty space, so the surface is always closed) and welds face corners
    only along the rotating edge pairing, which keeps every edge on exactly
    two triangles.  The result is an outward-oriented 2-manifold whose
    enclosed volume equals the occupied cell count exactly.
    """
    occ = grid.occupancy
    nx, ny, nz = occ.shape

    faces: list[tuple[tuple[int, int, int], tuple[int, int, int]]] = []
    face_ids: dict[tuple, int] = {}
    for x, y, z in np.argwhere(occ):
        cell = (int(x), int(y), int(z))
        for normal in _FACE_LOOPS:
            ox, oy, oz = cell[0] + normal[0], cell[1] + normal[1], cell[2] + normal[2]
            if 0 <= ox < nx and 0 <= oy < ny and 0 <= oz < nz and occ[ox, oy, oz]:
                continue
            face_ids[(cell, normal)] = len(faces)
            faces.append((cell, normal))

    if not faces:
        return SurfaceMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=int))

    corners = []  # absolute corner positions per face, in outward loop order
    for cell, normal in faces:
        loop = _FACE_LOOPS[normal]
        corners.append([(cell[0] + d[0], cell[1] + d[1], cell[2] + d[2]) for d in loop])

    slots = _UnionFind(4 * len(faces))
    partner: list[list[int]] = [[-1] * 4 for _ in faces]  # partner face per edge slot
    edge_users: dict[tuple, list[int]] = {}
    for fi, (cell, normal) in enumerate(faces):
        loop = corners[fi]
        for a in range(4):
            b = (a + 1) % 4
            # tangent pointing from the face interior toward this edge
            mid = tuple((loop[a][k] + loop[b][k]) for k in range(3))
            center2 = tuple(2 * cell[k] + 1 + normal[k] for k in range(3))
            tangent = tuple(mid[k] - center2[k] for k in range(3))
            oi = face_ids[_neighbor_face(occ, cell, normal, tangent)]
            partner[fi][a] = oi
            oloop = corners[oi]
            for slot, corner in ((a, loop[a]), (b, loop[b])):
                slots.union(4 * fi + slot, 4 * oi + oloop.index(corner))
            edge_users.setdefault((min(loop[a], loop[b]), max(loop[a], loop[b])), []).append(fi)

    vertices: list[tuple[float, float, float]] = []

    def add_vertex(position) -> int:
        vertices.append(tuple(float(v) for v in position))
        return len(vertices) - 1

    vertex_of_class: dict[int, int] = {}

    def corner_vertex(fi: int, slot: int) -> int:
        cls = slots.find(4 * fi + slot)
        if cls not in vertex_of_class:
            vertex_of_class[cls] = add_vertex(corners[fi][slot])
        return vertex_of_class[cls]

    # Two solid wedges meeting only along an edge produce two coincident
    # sheets whose corner vertices may still be shared through surrounding
    # cells; give each sheet its own midpoint vertex on the pinched edge so
    # no two topological edges collapse onto the same vertex pair.
    midpoint_of_pair: dict[tuple[int, int], int] = {}

    def pinch_midpoint(fi: int, a: int) -> int | None:
        loop = corners[fi]
        b = (a + 1) % 4
        key = (min(loop[a], loop[b]), max(loop[a], loop[b]))
        if len(edge_users.get(key, ())) != 4:
            return None
        pair = (min(fi, partner[fi][a]), max(fi, partner[fi][a]))
        if pair not in midpoint_of_pair:
            mid = tuple((loop[a][k] + loop[b][k]) / 2.0 for k in range(3))
            midpoint_of_pair[pair] = add_vertex(mid)
        return midpoint_of_pair[pair]

    triangles: list[tuple[int, int, int]] = []
    for fi, (cell, normal) in enumerate(faces):
        ring: list[int] = []
        split = False
        for a in range(4):
            ring.append(corner_vertex(fi, a))
            mid = pinch_midpoint(fi, a)
            if mid is not None:
                ring.append(mid)
                split = True
        if not split:
            triangles.append((ring[0], ring[1], ring[2]))
            triangles.append((ring[0], ring[2], ring[3]))
            continue
        center = add_vertex(tuple(cell[k] + 0.5 + 0.5 * normal[k] for k in range(3)))
        for i, v in enumerate(ring):
            triangles.append((center, v, ring[(i + 1) % len(ring)]))

    return SurfaceMesh(np.array(vertices, dtype=float), np.array(triangles, dtype=int))


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
