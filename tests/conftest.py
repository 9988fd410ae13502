"""Shared fixtures and independent oracles used across the test suite."""

from __future__ import annotations

import itertools
import json
import warnings
from collections import deque
from typing import NamedTuple

import numpy as np
import pytest

from brickforge import decode
from brickforge.attach import decode_attachment, encode_attachment
from brickforge.bricks import (
    CATALOG_SIZES,
    GRID,
    Brick,
    BrickAssembly,
    attachment_adjacency,
    connected_components,
    root_index,
)
from brickforge.decode import (
    OVERFLOW_PENALTY,
    REJECT_ANCHOR,
    REJECT_BOUNDS,
    REJECT_COLLISION,
    REJECT_CONNECTOR,
    REJECT_NON_MONOTONE,
    REJECT_SIZE,
    DecodeState,
)
from brickforge.errors import (
    BrickforgeError,
    CollisionError,
    DisconnectedGraphError,
    EmptyAssemblyError,
    EmptyCloudError,
    EmptyTargetError,
    InconsistentSequenceError,
    MalformedHeaderError,
    MalformedSequenceError,
    TuplesAfterQueueEmptyError,
)
from brickforge.geometry import (
    PointCloud,
    SurfaceMesh,
    VoxelGrid,
    extract_surface,
    iou,
    normalize_cloud,
    sample_surface,
    voxelize_assembly,
    voxelize_points,
)
from brickforge.ldraw import CELL_UNITS, COLOR, LAYER_UNITS, PART_IDS
from brickforge.reward import (
    DEFAULT_SURFACE_SAMPLES,
    PAIR_FLOOR,
    PAIR_GAP_MIN,
    PreferencePair,
    RewardBreakdown,
    compose_reward,
)
from brickforge.stability import (
    _SOLVER_OPTIONS,
    SLACK_PENALTY,
    EquilibriumProgram,
    PhysicsParams,
    StabilityReport,
    _solve,
    stability_scores,
)
from brickforge.tokenizer import NonMonotoneFWarning, SequenceStats
from brickforge.tokens import (
    BOS,
    EOP,
    EOS,
    KIND_BOS,
    KIND_COORD,
    KIND_EOP,
    KIND_EOS,
    KIND_F,
    KIND_M,
    KIND_PAD,
    KIND_SIZE,
    CodebookEntry,
    TokenSequence,
    coord,
    f_token,
    m_token,
    size,
)

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


def stamp_reference(occ: np.ndarray, brick: Brick) -> None:
    """The numpy ``_stamp``, kept as the oracle for the flat-bytes stamp: mark
    ``brick``'s cells in the boolean grid ``occ``; raises CollisionError naming
    the first occupied cell (x-major) when any of them is taken."""
    block = occ[brick.x:brick.x + brick.h, brick.y:brick.y + brick.w, brick.z]
    if block.any():
        idx = np.argwhere(block)[0]
        raise CollisionError((brick.x + int(idx[0]), brick.y + int(idx[1]), brick.z))
    block[...] = True


def place_reference(assembly: BrickAssembly, brick: Brick) -> BrickAssembly:
    """The full-rebuild ``place``, kept as the oracle for the one-brick stamp:
    check the new brick's cells, then re-stamp every brick into a fresh
    assembly through the validating constructor."""
    stamp_reference(assembly.occupancy.copy(), brick)
    return BrickAssembly(assembly.bricks + (brick,))


def footprints_overlap(a: Brick, b: Brick) -> bool:
    """The footprint test that ``attachment_edges`` inlines."""
    return (a.x < b.x + b.h and b.x < a.x + a.h
            and a.y < b.y + b.w and b.y < a.y + a.w)


def attached(a: Brick, b: Brick) -> bool:
    """Attachment-graph edge predicate: adjacent layers with overlapping footprints."""
    return abs(a.z - b.z) == 1 and footprints_overlap(a, b)


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


def enclosed_volume(mesh: SurfaceMesh) -> float:
    """Signed tetrahedron sum of a mesh, the watertightness oracle: positive
    for outward-oriented closed meshes, equal to the solid's volume."""
    a = mesh.vertices[mesh.triangles[:, 0]]
    b = mesh.vertices[mesh.triangles[:, 1]]
    c = mesh.vertices[mesh.triangles[:, 2]]
    return float(np.einsum("ij,ij->i", a, np.cross(b, c)).sum() / 6.0)


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


# The three hand-written walkers of the sequence grammar that DecodeState
# replaced, kept as oracles: the detokenizer generator behind both modes,
# the stats counter and the decoder's validating replay.
_HEADER_KINDS = [KIND_COORD, KIND_COORD, KIND_COORD, KIND_SIZE, KIND_SIZE]
_TUPLE_KINDS = [KIND_F, KIND_SIZE, KIND_SIZE, KIND_M]


def _parse_header_reference(tokens) -> Brick:
    if len(tokens) < 7 or tokens[0].kind != "BOS" or tokens[-1].kind != KIND_EOS:
        raise MalformedHeaderError("sequence must be BOS <header> ... EOS with 5 header tokens")
    hdr = tokens[1:6]
    kinds = [t.kind for t in hdr]
    if kinds != _HEADER_KINDS:
        raise MalformedHeaderError(f"root header kinds {kinds}")
    x, y, z, h, w = (t.value for t in hdr)
    return Brick(h, w, x, y, z)


def _detokenize_reference(sequence: TokenSequence):
    """Yields the assembly after each accepted brick; raises structural
    errors where strict mode would."""
    tokens = sequence.tokens
    assembly = BrickAssembly((_parse_header_reference(tokens),))
    yield assembly
    body = tokens[6:-1]
    queue: deque[int] = deque()
    current: int | None = 0
    last_f = -1
    idx = 0
    while idx < len(body):
        tok = body[idx]
        if tok.kind == KIND_EOP:
            idx += 1
            if queue:
                current = queue.popleft()
                last_f = -1
            elif idx < len(body):
                raise TuplesAfterQueueEmptyError("tokens remain after the BFS queue drained")
            else:
                current = None
            continue
        if current is None:
            raise TuplesAfterQueueEmptyError("tokens remain after the BFS queue drained")
        group = body[idx:idx + 4]
        if len(group) < 4 or [t.kind for t in group] != _TUPLE_KINDS:
            raise MalformedSequenceError(
                f"expected (f,h,w,m) tuple at body position {idx}, got {group}")
        f, h, w, m = (t.value for t in group)
        if (h, w) not in CATALOG_SIZES:
            raise MalformedSequenceError(f"({h},{w}) not a catalog footprint")
        if f <= last_f:
            warnings.warn(NonMonotoneFWarning(f"f={f} after f={last_f} in one group"))
        child = decode_attachment(f, m, assembly.bricks[current], (h, w))
        assembly = place_reference(assembly, child)
        queue.append(len(assembly.bricks) - 1)
        last_f = f
        idx += 4
        yield assembly


def detokenize_reference(sequence: TokenSequence) -> BrickAssembly:
    assembly = None
    for assembly in _detokenize_reference(sequence):
        pass
    return assembly


def detokenize_lenient_reference(sequence: TokenSequence) -> tuple[BrickAssembly, str | None]:
    assembly = BrickAssembly()
    gen = _detokenize_reference(sequence)
    while True:
        try:
            assembly = next(gen)
        except StopIteration:
            return assembly, None
        except BrickforgeError as err:
            return assembly, f"{err.code}: {err}"


def sequence_stats_reference(sequence: TokenSequence) -> SequenceStats:
    tokens = sequence.tokens
    _parse_header_reference(tokens)
    body = tokens[6:-1]
    n = 1
    i = 0
    idx = 0
    while idx < len(body):
        if body[idx].kind == KIND_EOP:
            i += 1
            idx += 1
            continue
        group = body[idx:idx + 4]
        if len(group) < 4 or [t.kind for t in group] != _TUPLE_KINDS:
            raise MalformedSequenceError(f"expected (f,h,w,m) tuple at body position {idx}")
        n += 1
        idx += 4
    t = len(tokens)
    if t != 4 * n + i + 3:
        raise MalformedSequenceError(f"length {t} != 4N+I+3 for N={n}, I={i}")
    if t > 5 * n + 2:
        raise MalformedSequenceError(f"length {t} exceeds 5N+2 for N={n}")
    return SequenceStats(n_bricks=n, n_eop=i, length=t)


def replay_checked_reference(body) -> tuple:
    """Validating replay: the fingerprint of the state reached after
    ``body``, checking every tuple with ``validate_tuple_reference``; raises
    InconsistentSequenceError on the first prefix the decoder could not
    have produced."""
    state = DecodeState()
    if not body:
        return state.fingerprint()
    if len(body) < 5:
        raise InconsistentSequenceError("prefix shorter than a root header")
    kinds = [t.kind for t in body[:5]]
    if kinds != _HEADER_KINDS:
        raise InconsistentSequenceError(f"bad root header kinds {kinds}")
    x, y, z, h, w = (t.value for t in body[:5])
    try:
        state.apply_root(Brick(h, w, x, y, z))
    except BrickforgeError as err:
        raise InconsistentSequenceError(f"invalid root: {err}") from err
    idx = 5
    while idx < len(body):
        if body[idx].kind == KIND_EOP:
            if state.current is None:
                raise InconsistentSequenceError("EOP with no active parent")
            state.apply_eop()
            idx += 1
            continue
        group = body[idx:idx + 4]
        if len(group) < 4 or [t.kind for t in group] != _TUPLE_KINDS:
            raise InconsistentSequenceError(f"bad tuple at body position {idx}")
        f, h, w, m = (t.value for t in group)
        brick, reason = validate_tuple_reference(state, f, h, w, m)
        if brick is None:
            raise InconsistentSequenceError(f"tuple at body position {idx}: {reason}")
        state.apply_tuple(f, h, w, m, brick)
        idx += 4
    return state.fingerprint()


def baseline_codebook_reference() -> list[CodebookEntry]:
    """The flat (h,w,x,y,z) codebook as it was typed out entry by entry, before
    ``baseline_codebook`` was cut from the tree codebook."""
    entries = [CodebookEntry(0, KIND_BOS, None, "BOS"),
               CodebookEntry(1, KIND_EOS, None, "EOS"),
               CodebookEntry(2, KIND_PAD, None, "PAD")]
    entries += [CodebookEntry(3 + v, KIND_COORD, v, f"C{v}") for v in range(GRID)]
    entries += [CodebookEntry(23 + i, KIND_SIZE, v, f"S{v}") for i, v in enumerate((1, 2, 4, 6, 8))]
    return entries


# The codec as it was before each tree edge was encoded once, the decoder
# stamped one occupancy buffer and LDraw lines became single f-strings, kept
# as oracles: the spanning tree that sorted children by a fresh encoding,
# the tokenizer that encoded every edge again, the list-building renderers.
# The decoder's oracles are the walkers above, ``detokenize_reference`` and
# ``detokenize_lenient_reference``.
def build_spanning_tree_reference(assembly: BrickAssembly) -> tuple:
    """(root, children, bfs_order) of the BFS spanning tree."""
    bricks = assembly.bricks
    if not bricks:
        raise EmptyAssemblyError("assembly has no bricks")
    adj = attachment_adjacency(assembly)
    root = root_index(assembly)
    children: dict[int, list[int]] = {}
    bfs_order: list[int] = []
    visited = [False] * len(bricks)
    visited[root] = True
    queue = deque([root])
    while queue:
        p = queue.popleft()
        bfs_order.append(p)
        unvisited = [c for c in adj[p] if not visited[c]]
        unvisited.sort(key=lambda c: encode_attachment(bricks[p], bricks[c]).f)
        children[p] = unvisited
        for c in unvisited:
            visited[c] = True
            queue.append(c)
    if len(bfs_order) != len(bricks):
        raise DisconnectedGraphError(len(connected_components(assembly)))
    return root, children, bfs_order


def tokenize_reference(assembly: BrickAssembly) -> TokenSequence:
    root, children, bfs_order = build_spanning_tree_reference(assembly)
    bricks = assembly.bricks
    r = bricks[root]
    body = [coord(r.x), coord(r.y), coord(r.z), size(r.h), size(r.w)]
    for p in bfs_order:
        for c in children[p]:
            code = encode_attachment(bricks[p], bricks[c])
            child = bricks[c]
            body += [f_token(code.f), size(child.h), size(child.w), m_token(code.m)]
        body.append(EOP)
    while body and body[-1].kind == KIND_EOP:
        body.pop()
    return TokenSequence([BOS] + body + [EOS])


_IDENTITY_REFERENCE = (1, 0, 0, 0, 1, 0, 0, 0, 1)
_ROT90_Y_REFERENCE = (0, 0, 1, 0, 1, 0, -1, 0, 0)


def export_ldraw_reference(assembly: BrickAssembly) -> str:
    lines = ["0 brickforge model", "0 Name: model.ldr"]
    for brick in assembly.bricks:
        part = PART_IDS[tuple(sorted((brick.h, brick.w)))]
        matrix = _IDENTITY_REFERENCE if brick.h >= brick.w else _ROT90_Y_REFERENCE
        x = CELL_UNITS * (2 * brick.x + brick.h) // 2
        z = CELL_UNITS * (2 * brick.y + brick.w) // 2
        y = -LAYER_UNITS * brick.z
        fields = ["1", str(COLOR), str(x), str(y), str(z)]
        fields += [str(v) for v in matrix]
        fields.append(f"{part}.dat")
        lines.append(" ".join(fields))
    return "\n".join(lines) + "\n"


def to_text_reference(sequence: TokenSequence) -> str:
    """The label-list ``TokenSequence.to_text``."""
    expect = ["X", "Y", "Z", "H", "W"]
    group = []
    out = []
    for tok in sequence:
        if tok.kind in (KIND_BOS, KIND_EOS, KIND_PAD, KIND_EOP):
            out.append(tok.kind)
            if tok.kind == KIND_EOP:
                group = []
            continue
        if tok.kind == KIND_COORD:
            label = expect.pop(0) if expect and expect[0] in "XYZ" else "C"
            out.append(f"{label}{tok.value}")
        elif tok.kind == KIND_SIZE:
            if expect and expect[0] in "HW":
                out.append(f"{expect.pop(0)}{tok.value}")
            elif group and group[0] in "HW":
                out.append(f"{group.pop(0)}{tok.value}")
            else:
                out.append(f"S{tok.value}")
        elif tok.kind == KIND_F:
            out.append(f"F{tok.value}")
            group = ["H", "W", "M"]
        else:
            out.append(f"M{tok.value}")
            group = []
    return " ".join(out)


def expected_rollback_fingerprint(sequence, brick) -> tuple:
    """Oracle for the post-rollback state: locate the blamed brick's
    parent, truncate just before its tuple, and replay independently."""
    tokens = list(sequence.tokens)[1:-1]
    full = replay_reference(tokens)
    parent = full[1][brick]
    if brick == 0 or parent == 0 or parent is None:
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


class RollbackRecord(NamedTuple):
    sequence_before: TokenSequence
    scores_before: list
    brick: int
    fingerprint_after: tuple


def record_rollbacks(monkeypatch) -> list[RollbackRecord]:
    """Wrap ``decode.rollback`` so that every cut ``generate`` makes is
    recorded: the finished sequence, the LP scores of its assembly (solved
    here, before the cut) and the blamed brick, and the state's fingerprint
    after the cut.  Returns the list the records go into, in the order of
    ``trace.rollback_events``."""
    records = []
    cut = decode.rollback

    def recording(state, brick):
        sequence, scores = state.finalize(), stability_scores(state.assembly()).scores
        state = cut(state, brick)
        records.append(RollbackRecord(sequence, scores, brick, state.fingerprint()))
        return state

    monkeypatch.setattr(decode, "rollback", recording)
    return records


def chamfer_reference(p: PointCloud, q: PointCloud) -> float:
    """``chamfer`` on scipy's default median-split trees, kept as the oracle
    that pins the sliding-midpoint trees to the same distances bit for bit."""
    if len(p) == 0 or len(q) == 0:
        raise EmptyCloudError("chamfer distance needs two nonempty clouds")
    from scipy.spatial import cKDTree
    d_pq = cKDTree(q.points).query(p.points)[0]
    d_qp = cKDTree(p.points).query(q.points)[0]
    return float(d_pq.mean() + d_qp.mean())


def chamfer_bruteforce(p: PointCloud, q: PointCloud) -> float:
    """O(n^2) reference implementation used as the oracle in tests."""
    if len(p) == 0 or len(q) == 0:
        raise EmptyCloudError("chamfer distance needs two nonempty clouds")
    diff = p.points[:, None, :] - q.points[None, :, :]
    dist = np.sqrt((diff ** 2).sum(axis=2))
    return float(dist.min(axis=1).mean() + dist.min(axis=0).mean())


# The per-candidate decoder enumerations, kept as oracles for the action
# table: ``validate_tuple``, ``UniformLegalPolicy.propose`` and the
# ``GreedyGeometryPolicy`` root and child proposals.  The policy functions
# take the policy as ``self``, so tests can patch them onto the classes.
_CATALOG_ORDERED = tuple(sorted(CATALOG_SIZES))
_AREA_CUMSUM = tuple(itertools.accumulate(h * w for h, w in _CATALOG_ORDERED))
_TOTAL_ANCHORS = _AREA_CUMSUM[-1]  # 85 anchors over the 14 rotated footprints


def validate_tuple_reference(state: DecodeState, f: int, h: int, w: int, m: int):
    """Two-stage tuple check against the current parent and partial assembly.

    Returns (brick, None) on acceptance or (None, reason) on rejection.
    """
    if state.current is None:
        return None, REJECT_CONNECTOR
    parent = state.current_parent()
    limit = 2 * parent.h * parent.w
    if not 0 <= f < limit:
        return None, REJECT_CONNECTOR
    if (h, w) not in CATALOG_SIZES:
        return None, REJECT_SIZE
    if not 0 <= m < h * w:
        return None, REJECT_ANCHOR
    if f <= state.f_floor:
        return None, REJECT_NON_MONOTONE
    try:
        brick = decode_attachment(f, m, parent, (h, w))
    except BrickforgeError:
        return None, REJECT_BOUNDS
    # the live cells one by one, where is_free reads strided slices
    cells, x, y, z = state.cells, brick.x, brick.y, brick.z
    if any(cells[((x + a) * GRID + y + b) * GRID + z]
           for a in range(brick.h) for b in range(brick.w)):
        return None, REJECT_COLLISION
    return brick, None


def uniform_propose_reference(self, target, state, rng):
    parent = state.current_parent()
    n_f = 2 * parent.h * parent.w - 1 - state.f_floor
    n_tuples = n_f * _TOTAL_ANCHORS
    pick = int(rng.integers(0, n_tuples + 1))
    if pick == n_tuples:
        return None
    f = state.f_floor + 1 + pick // _TOTAL_ANCHORS
    r = pick % _TOTAL_ANCHORS
    idx = 0
    while _AREA_CUMSUM[idx] <= r:
        idx += 1
    h, w = _CATALOG_ORDERED[idx]
    m = r - (_AREA_CUMSUM[idx - 1] if idx else 0)
    return f, h, w, m


def greedy_score_reference(self, target: VoxelGrid, occupancy, brick: Brick) -> float:
    block_t = target.occupancy[brick.x:brick.x + brick.h, brick.y:brick.y + brick.w, brick.z]
    block_o = occupancy[brick.x:brick.x + brick.h, brick.y:brick.y + brick.w, brick.z]
    fresh = ~block_o
    covered = int((block_t & fresh).sum())
    overflow = int((~block_t & fresh).sum())
    return covered - OVERFLOW_PENALTY * overflow


def greedy_propose_root_reference(self, target, rng):
    occupied = np.argwhere(target.occupancy)
    if len(occupied) == 0:
        raise EmptyTargetError("target grid has no occupied cells")
    zs = occupied[:, 2]
    z0 = int(zs.min())
    at_floor = occupied[zs == z0]
    y0, x0 = min((int(c[1]), int(c[0])) for c in at_floor)
    empty = np.zeros_like(target.occupancy)
    actions, scores = [], []
    for h, w in _CATALOG_ORDERED:
        for x in range(max(0, x0 - h + 1), min(x0, GRID - h) + 1):
            for y in range(max(0, y0 - w + 1), min(y0, GRID - w) + 1):
                brick = Brick(h, w, x, y, z0)
                actions.append((x, y, z0, h, w))
                scores.append(greedy_score_reference(self, target, empty, brick))
    if self.temperature <= 0.0:
        best = max(scores)
        return min(a for a, s in zip(actions, scores) if s == best)
    return self._choose(actions, scores, rng)


def greedy_candidates_reference(self, target, state):
    """The (actions, scores) lists the per-candidate greedy ``propose``
    hands to ``_choose``."""
    parent = state.current_parent()
    occupancy = state.assembly().occupancy
    actions: list[tuple | None] = [None]
    scores: list[float] = [0.0]
    for f in range(state.f_floor + 1, 2 * parent.h * parent.w):
        for h, w in _CATALOG_ORDERED:
            for m in range(h * w):
                brick, reason = validate_tuple_reference(state, f, h, w, m)
                if brick is None:
                    continue
                actions.append((f, h, w, m))
                scores.append(greedy_score_reference(self, target, occupancy, brick))
    return actions, scores


def greedy_propose_reference(self, target, state, rng):
    return self._choose(*greedy_candidates_reference(self, target, state), rng)


def assemble_equilibrium_program_reference(assembly: BrickAssembly, params: PhysicsParams,
                                           indices: list[int] | None = None
                                           ) -> EquilibriumProgram:
    """The all-pairs, dense equilibrium LP builder, kept as the oracle for
    the owner-grid sparse one: ``contacts`` holds (lower, upper, (cx, cy))
    and ``grounds`` (brick, (cx, cy)) tuples, and ``A_eq`` / ``A_ub`` are
    dense arrays."""
    bricks = assembly.bricks
    if indices is None:
        indices = list(range(len(bricks)))
    pos = {brick_idx: k for k, brick_idx in enumerate(indices)}

    contacts = []
    for ai in indices:
        for bi in indices:
            a, b = bricks[ai], bricks[bi]
            if b.z == a.z + 1 and footprints_overlap(a, b):
                for cx in range(max(a.x, b.x), min(a.x + a.h, b.x + b.h)):
                    for cy in range(max(a.y, b.y), min(a.y + a.w, b.y + b.w)):
                        contacts.append((ai, bi, (cx, cy)))
    grounds = [(i, cell) for i in indices if bricks[i].z == 0 for cell in bricks[i].cells()]

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

    for ci, (lower, upper, cell) in enumerate(contacts):
        up = bricks[upper]
        lo = bricks[lower]
        px, py = cell[0] + 0.5, cell[1] + 0.5
        fr, mxr, myr = rows(upper)
        cx, cy = centroid(up)
        A_eq[fr, ci] += 1.0
        A_eq[mxr, ci] += py - cy
        A_eq[myr, ci] += px - cx
        fr, mxr, myr = rows(lower)
        cx, cy = centroid(lo)
        A_eq[fr, ci] -= 1.0
        A_eq[mxr, ci] -= py - cy
        A_eq[myr, ci] -= px - cx

    for gi, (brick_idx, cell) in enumerate(grounds):
        brick = bricks[brick_idx]
        px, py = cell[0] + 0.5, cell[1] + 0.5
        fr, mxr, myr = rows(brick_idx)
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
        b_eq[fr] = bricks[brick_idx].h * bricks[brick_idx].w * params.brick_weight_per_cell

    A_ub = np.zeros((n_c, n_vars))
    A_ub[np.arange(n_c), np.arange(n_c)] = -1.0
    A_ub[:, t_var] = -params.clutch_tension_capacity
    c = np.zeros(n_vars)
    c[slack0:slack0 + 6 * n_b] = SLACK_PENALTY
    c[t_var] = 1.0
    bounds = [(None, None)] * n_c + [(0.0, None)] * (n_g + 6 * n_b + 1)
    return EquilibriumProgram(indices=indices, contacts=contacts, grounds=grounds, c=c,
                              A_eq=A_eq, b_eq=b_eq, A_ub=A_ub, b_ub=np.zeros(n_c),
                              bounds=bounds)


def stability_scores_reference(assembly: BrickAssembly,
                               params: PhysicsParams | None = None) -> StabilityReport:
    """The per-contact scoring loop over the dense LP, kept as the oracle
    for the array-based ``stability_scores``."""
    params = params or PhysicsParams()
    n = len(assembly.bricks)
    if n == 0:
        return StabilityReport(scores=[], feasible=True)
    grounded, floating = [], False
    for comp in connected_components(assembly):
        if any(assembly.bricks[i].z == 0 for i in comp):
            grounded.extend(comp)
        else:
            floating = True
    grounded.sort()
    scores = [0.0] * n
    slack = [float("inf")] * n
    report = StabilityReport(scores=scores, brick_slack=slack, feasible=not floating)
    if not grounded:
        return report
    program = assemble_equilibrium_program_reference(assembly, params, grounded)
    result = _solve(program, _SOLVER_OPTIONS)
    if not result.success:
        result = _solve(program, {**_SOLVER_OPTIONS, "presolve": False})
    assert result.success, result.message
    x = result.x
    n_c, n_g = len(program.contacts), len(program.grounds)
    report.tension_scale = float(x[-1])
    contact_forces = [(c, float(x[i])) for i, c in enumerate(program.contacts)]
    utilization = [0.0] * n
    for (lower, upper, _), force in contact_forces:
        if force < 0.0:
            u = -force / params.clutch_tension_capacity
            utilization[lower] = max(utilization[lower], u)
            utilization[upper] = max(utilization[upper], u)
    for k, brick_idx in enumerate(program.indices):
        base = n_c + n_g + 6 * k
        residuals = [x[base] - x[base + 1], x[base + 2] - x[base + 3], x[base + 4] - x[base + 5]]
        worst = max(abs(r) for r in residuals)
        slack[brick_idx] = worst
        if worst > params.slack_tolerance:
            report.feasible = False
        else:
            scores[brick_idx] = max(0.0, 1.0 - utilization[brick_idx])
    return report


def total_reward_reference(target: PointCloud, candidate: BrickAssembly,
                           params: PhysicsParams | None = None, *,
                           samples: int = DEFAULT_SURFACE_SAMPLES, seed: int = 0,
                           solid_fill: bool = True) -> RewardBreakdown:
    """The reward that voxelizes and normalizes the target on every call,
    takes Chamfer on default trees and solves the equilibrium LP for every
    candidate, kept as the oracle for ``total_reward``, which keeps the
    target's side between calls and settles a certified zero stability term
    from geometry."""
    target_grid = voxelize_points(target, solid_fill=solid_fill)
    candidate_grid = voxelize_assembly(candidate)
    r_iou = iou(target_grid, candidate_grid)
    mesh = extract_surface(candidate_grid)
    sampled = sample_surface(mesh, samples, seed)
    d_cd = chamfer_reference(normalize_cloud(target), normalize_cloud(sampled))
    report = stability_scores(candidate, params)
    return compose_reward(r_iou, d_cd, report.min_score)


def build_preference_pairs_reference(candidates, gap_min: float = PAIR_GAP_MIN,
                                     floor: float = PAIR_FLOOR,
                                     condition: str = "") -> list[PreferencePair]:
    """Preference pairs from two index loops with an ``i == j`` skip, kept as
    the oracle for ``build_preference_pairs``, which walks
    ``itertools.permutations`` once."""
    pairs = []
    for i, (seq_w, rb_w) in enumerate(candidates):
        if rb_w.r_total < floor:
            continue
        for j, (seq_l, rb_l) in enumerate(candidates):
            if i == j:
                continue
            if rb_w.r_total - rb_l.r_total >= gap_min:
                pairs.append(PreferencePair(condition, seq_w, seq_l,
                                            rb_w.r_total, rb_l.r_total))
    return pairs


def cloud_to_text_reference(cloud: PointCloud) -> str:
    """``PointCloud.to_text`` formatting each point and its normal apart, kept
    as the oracle for the one-table formatter."""
    rows = []
    for i, p in enumerate(cloud.points):
        fields = [repr(float(v)) for v in p]
        if cloud.normals is not None:
            fields += [repr(float(v)) for v in cloud.normals[i]]
        rows.append(" ".join(fields))
    return "\n".join(rows) + "\n"


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


DEEP_JSON = "[" * 200_000 + "]" * 200_000  # nested far past the interpreter's recursion limit


def recursion_message(text: str) -> str:
    """What the RecursionError of ``json.loads(text)`` says.  The words are
    the interpreter's, so tests read them from it rather than spell them."""
    try:
        json.loads(text)
    except RecursionError as err:
        return str(err)
    raise AssertionError("the text parses within the recursion limit")
