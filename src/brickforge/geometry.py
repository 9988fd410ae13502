"""Point clouds, voxel grids, surface meshes, and the geometric metrics
(voxel IoU and Chamfer distance) used by the reward pipeline."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage
from scipy.spatial import cKDTree

from .bricks import GRID, BrickAssembly
from .errors import (
    DegenerateCloudError,
    DegenerateExtentError,
    EmptyCloudError,
    EmptyMeshError,
    NonFiniteInputError,
)


@dataclass
class PointCloud:
    """Real-coordinate points with optional unit normals."""

    points: np.ndarray
    normals: np.ndarray | None = None

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float).reshape(-1, 3)
        if not np.isfinite(self.points).all():
            raise NonFiniteInputError("point cloud has a NaN or infinite coordinate")
        if self.normals is not None:
            self.normals = np.asarray(self.normals, dtype=float).reshape(-1, 3)
            if not np.isfinite(self.normals).all():
                raise NonFiniteInputError("point cloud has a NaN or infinite normal")
            if len(self.normals) != len(self.points):
                raise ValueError("normals must match point count")
            norms = np.linalg.norm(self.normals, axis=1)
            if np.any(np.abs(norms - 1.0) > 1e-6):
                raise ValueError("normals must have unit length within 1e-6")

    def __len__(self):
        return len(self.points)

    def to_text(self) -> str:
        """One point per line: ``x y z [nx ny nz]``."""
        rows = []
        for i, p in enumerate(self.points):
            fields = [repr(float(v)) for v in p]
            if self.normals is not None:
                fields += [repr(float(v)) for v in self.normals[i]]
            rows.append(" ".join(fields))
        return "\n".join(rows) + "\n"

    @staticmethod
    def from_text(text: str) -> "PointCloud":
        points, normals = [], []
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            values = [float(v) for v in line.split()]
            if len(values) not in (3, 6):
                raise ValueError(f"point line needs 3 or 6 fields, got {len(values)}")
            points.append(values[:3])
            if len(values) == 6:
                normals.append(values[3:])
        if normals and len(normals) != len(points):
            raise ValueError("normals present on some lines but not all")
        return PointCloud(np.array(points), np.array(normals) if normals else None)


@dataclass
class VoxelGrid:
    """A fixed 20x20x20 boolean occupancy grid."""

    occupancy: np.ndarray
    provenance: str = "unknown"

    def __post_init__(self):
        self.occupancy = np.asarray(self.occupancy, dtype=bool)
        if self.occupancy.shape != (GRID, GRID, GRID):
            raise ValueError(f"grid must be {GRID}^3, got {self.occupancy.shape}")

    @staticmethod
    def empty(provenance: str = "unknown") -> "VoxelGrid":
        return VoxelGrid(np.zeros((GRID, GRID, GRID), dtype=bool), provenance)

    def count(self) -> int:
        return int(self.occupancy.sum())

    def occupied_cells(self) -> list[tuple[int, int, int]]:
        return [tuple(int(v) for v in c) for c in np.argwhere(self.occupancy)]

    def to_dict(self) -> dict:
        return {"shape": [GRID, GRID, GRID], "occupied": [list(c) for c in self.occupied_cells()]}

    @staticmethod
    def from_dict(data: dict) -> "VoxelGrid":
        if tuple(data.get("shape", (GRID, GRID, GRID))) != (GRID, GRID, GRID):
            raise ValueError("grid shape must be 20x20x20")
        occ = np.zeros((GRID, GRID, GRID), dtype=bool)
        for x, y, z in data["occupied"]:
            occ[int(x), int(y), int(z)] = True
        return VoxelGrid(occ, "file")


@dataclass
class SurfaceMesh:
    """Triangle mesh: float vertices and integer index triples."""

    vertices: np.ndarray
    triangles: np.ndarray

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float).reshape(-1, 3)
        self.triangles = np.asarray(self.triangles, dtype=int).reshape(-1, 3)
        if len(self.triangles) and self.triangles.max() >= len(self.vertices):
            raise ValueError("triangle index out of range")

    def n_triangles(self) -> int:
        return len(self.triangles)

    def triangle_areas(self) -> np.ndarray:
        a = self.vertices[self.triangles[:, 0]]
        b = self.vertices[self.triangles[:, 1]]
        c = self.vertices[self.triangles[:, 2]]
        return 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)

    def enclosed_volume(self) -> float:
        """Signed tetrahedron sum; positive for outward-oriented closed meshes."""
        a = self.vertices[self.triangles[:, 0]]
        b = self.vertices[self.triangles[:, 1]]
        c = self.vertices[self.triangles[:, 2]]
        return float(np.einsum("ij,ij->i", a, np.cross(b, c)).sum() / 6.0)

    def to_obj(self) -> str:
        lines = [f"v {v[0]} {v[1]} {v[2]}" for v in self.vertices]
        lines += [f"f {t[0] + 1} {t[1] + 1} {t[2] + 1}" for t in self.triangles]
        return "\n".join(lines) + "\n"


def voxelize_points(cloud: PointCloud, solid_fill: bool = True) -> VoxelGrid:
    """Register a point cloud to the workspace grid.

    The cloud is centered at its bounding-box center and uniformly scaled so
    the largest extent spans exactly 20 cells; a cell is occupied when it
    contains at least one point.  With ``solid_fill`` the exterior is
    flood-filled from the grid boundary and every non-exterior cell becomes
    occupied, so hollow shells voxelize to solid volumes.
    """
    if len(cloud) == 0:
        raise EmptyCloudError("cannot voxelize an empty cloud")
    pts = cloud.points
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    extent = float((hi - lo).max())
    if extent <= 0.0:
        raise DegenerateExtentError("all points coincide")
    # extremes land on the centers of the outermost cells, so the cloud
    # covers exactly 20 cells along its largest axis without clamping bias
    scaled = (pts - (lo + hi) / 2.0) * ((GRID - 1) / extent) + GRID / 2.0
    cells = np.clip(np.floor(scaled).astype(int), 0, GRID - 1)
    occ = np.zeros((GRID, GRID, GRID), dtype=bool)
    occ[cells[:, 0], cells[:, 1], cells[:, 2]] = True
    if solid_fill:
        occ = ndimage.binary_fill_holes(occ)
    return VoxelGrid(occ, "from-points")


def voxelize_assembly(assembly: BrickAssembly) -> VoxelGrid:
    """Occupancy grid of an assembly: the union of its brick cells."""
    return VoxelGrid(assembly.occupancy.copy(), "from-bricks")


def iou(a: VoxelGrid, b: VoxelGrid) -> float:
    """Intersection-over-union of two grids; 0 when both are empty."""
    union = np.logical_or(a.occupancy, b.occupancy).sum()
    if union == 0:
        return 0.0
    return float(np.logical_and(a.occupancy, b.occupancy).sum() / union)


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


def extract_surface(grid: VoxelGrid) -> SurfaceMesh:
    """Closed boundary surface of the occupied region.

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


def sample_surface(mesh: SurfaceMesh, n: int, seed: int) -> PointCloud:
    """Sample ``n`` points area-uniformly from a mesh; deterministic per seed."""
    if mesh.n_triangles() == 0:
        raise EmptyMeshError("cannot sample an empty mesh")
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    areas = mesh.triangle_areas()
    picks = rng.choice(len(areas), size=n, p=areas / areas.sum())
    u = rng.random(n)
    v = rng.random(n)
    fold = u + v > 1.0
    u[fold] = 1.0 - u[fold]
    v[fold] = 1.0 - v[fold]
    a = mesh.vertices[mesh.triangles[picks, 0]]
    b = mesh.vertices[mesh.triangles[picks, 1]]
    c = mesh.vertices[mesh.triangles[picks, 2]]
    points = a + u[:, None] * (b - a) + v[:, None] * (c - a)
    return PointCloud(points)


def normalize_cloud(cloud: PointCloud) -> PointCloud:
    """Center at the centroid and scale so the maximum radial distance is 1."""
    if len(cloud) == 0:
        raise EmptyCloudError("cannot normalize an empty cloud")
    centered = cloud.points - cloud.points.mean(axis=0)
    radius = float(np.linalg.norm(centered, axis=1).max())
    if radius <= 0.0:
        raise DegenerateCloudError("cloud has no extent around its centroid")
    return PointCloud(centered / radius, cloud.normals)


def chamfer(p: PointCloud, q: PointCloud) -> float:
    """Symmetric mean nearest-neighbor L2 distance (unsquared terms)."""
    if len(p) == 0 or len(q) == 0:
        raise EmptyCloudError("chamfer distance needs two nonempty clouds")
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
