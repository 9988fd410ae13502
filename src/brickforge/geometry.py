"""Point clouds, voxel grids, surface meshes, and the geometric metrics
(voxel IoU and Chamfer distance) used by the reward pipeline."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bricks import GRID, BrickAssembly
from .errors import (
    DegenerateCloudError,
    DegenerateExtentError,
    EmptyCloudError,
    EmptyMeshError,
    MalformedInputError,
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
                raise MalformedInputError("normals must have unit length within 1e-6")

    def __len__(self):
        return len(self.points)

    def to_text(self) -> str:
        """One point per line: ``x y z [nx ny nz]``."""
        table = self.points if self.normals is None else np.hstack((self.points, self.normals))
        return "\n".join(" ".join(map(repr, row)) for row in table.tolist()) + "\n"

    @staticmethod
    def from_text(text: str) -> "PointCloud":
        points, normals = [], []
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            if len(fields) not in (3, 6):
                raise MalformedInputError(f"point line needs 3 or 6 fields, got {len(fields)}")
            try:
                values = [float(v) for v in fields]
            except ValueError as err:
                raise MalformedInputError(f"point line has a non-numeric field ({err})") from None
            points.append(values[:3])
            if len(values) == 6:
                normals.append(values[3:])
        if normals and len(normals) != len(points):
            raise MalformedInputError("normals present on some lines but not all")
        return PointCloud(np.array(points), np.array(normals) if normals else None)


@dataclass
class VoxelGrid:
    """A fixed 20x20x20 boolean occupancy grid."""

    occupancy: np.ndarray

    def __post_init__(self):
        self.occupancy = np.asarray(self.occupancy, dtype=bool)
        if self.occupancy.shape != (GRID, GRID, GRID):
            raise ValueError(f"grid must be {GRID}^3, got {self.occupancy.shape}")

    def to_dict(self) -> dict:
        return {"shape": [GRID, GRID, GRID], "occupied": np.argwhere(self.occupancy).tolist()}

    @staticmethod
    def from_dict(data: dict) -> "VoxelGrid":
        """Inverse of :meth:`to_dict`; raises MalformedInputError on any other
        layout and on a cell outside the grid."""
        try:
            shape = list(data.get("shape", [GRID] * 3))
            cells = [list(cell) for cell in data["occupied"]]
        except (AttributeError, KeyError, TypeError) as err:
            raise MalformedInputError(f"grid needs a shape and an occupied cell list ({err!r})")
        if shape != [GRID] * 3:
            raise MalformedInputError(f"grid shape must be {[GRID] * 3}, got {shape}")
        occ = np.zeros((GRID, GRID, GRID), dtype=bool)
        for cell in cells:
            if len(cell) != 3 or not all(type(v) is int and 0 <= v < GRID for v in cell):
                raise MalformedInputError(f"occupied cell {cell} is not in the {GRID}^3 grid")
            occ[tuple(cell)] = True
        return VoxelGrid(occ)


@dataclass
class SurfaceMesh:
    """Triangle mesh: float vertices and integer index triples."""

    vertices: np.ndarray
    triangles: np.ndarray

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float).reshape(-1, 3)
        self.triangles = np.asarray(self.triangles, dtype=int).reshape(-1, 3)
        if not np.isfinite(self.vertices).all():
            raise NonFiniteInputError("mesh has a NaN or infinite vertex")
        if len(self.triangles) and (self.triangles.min() < 0
                                    or self.triangles.max() >= len(self.vertices)):
            raise ValueError("triangle index out of range")

    def n_triangles(self) -> int:
        return len(self.triangles)

    def triangle_areas(self) -> np.ndarray:
        a, b, c = self.vertices[self.triangles.T]
        return 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)


def voxelize_points(cloud: PointCloud, solid_fill: bool = True) -> VoxelGrid:
    """Register a point cloud to the workspace grid.

    The cloud is centered at its bounding-box center and uniformly scaled so
    the largest extent spans exactly 20 cells; a cell is occupied when it
    contains at least one point.  With ``solid_fill`` the exterior is
    flood-filled from the grid boundary and every non-exterior cell becomes
    occupied, so hollow shells voxelize to solid volumes.  A cloud whose
    extent or centre has no finite value raises DegenerateExtentError.
    """
    if len(cloud) == 0:
        raise EmptyCloudError("cannot voxelize an empty cloud")
    pts = cloud.points
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    with np.errstate(over="ignore", divide="ignore"):  # such extents are rejected below
        extent = (hi - lo).max()
        scale = (GRID - 1) / extent
    if not np.isfinite((extent, scale)).all():  # points that coincide, or too close or far apart
        raise DegenerateExtentError(f"extent {extent} has no finite scale to the grid")
    # extremes land on the centers of the outermost cells, so the cloud
    # covers exactly 20 cells along its largest axis without clamping bias
    with np.errstate(over="ignore", invalid="ignore"):  # such a centre is rejected below
        scaled = (pts - (lo + hi) / 2.0) * scale + GRID / 2.0
    if not np.isfinite(scaled).all():  # lo + hi overflows near the largest floats
        raise DegenerateExtentError(
            f"coordinates up to {np.abs(pts).max()} have no finite centre on the grid")
    cells = np.clip(np.floor(scaled).astype(int), 0, GRID - 1)
    occ = np.zeros((GRID, GRID, GRID), dtype=bool)
    occ[cells[:, 0], cells[:, 1], cells[:, 2]] = True
    if solid_fill:
        occ = _fill_holes(occ)
    return VoxelGrid(occ)


def _fill_holes(occ: np.ndarray) -> np.ndarray:
    """``occ`` plus every empty cell with no 6-connected path of empty cells
    to a face of the grid, as ``ndimage.binary_fill_holes`` computes it."""
    face = np.ones(occ.shape, dtype=bool)
    face[1:-1, 1:-1, 1:-1] = False
    hidden = np.pad(~occ, 1).ravel()  # empty cells not yet reached from a face
    frontier = np.flatnonzero(np.pad(face & ~occ, 1))
    steps = np.outer([1, -1], _strides(np.add(occ.shape, 2))).ravel()
    while frontier.size:  # the zero padding keeps every step inside the grid
        hidden[frontier] = False
        near = np.zeros_like(hidden)  # a mask, not an index list, so no cell repeats
        near[(frontier[:, None] + steps).ravel()] = True
        frontier = np.flatnonzero(near & hidden)
    return occ | hidden.reshape(np.add(occ.shape, 2))[1:-1, 1:-1, 1:-1]


def voxelize_assembly(assembly: BrickAssembly) -> VoxelGrid:
    """Occupancy grid of an assembly: the union of its brick cells."""
    return VoxelGrid(assembly.occupancy.copy())


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
_NORMALS = np.array(list(_FACE_LOOPS))          # normal k ^ 1 is minus normal k
_LOOPS = np.array(list(_FACE_LOOPS.values()))
# unit step from a face's centre toward its edge (corner a, corner a + 1),
# and that step as an index into _NORMALS
_EDGE_TANGENTS = _LOOPS + np.roll(_LOOPS, -1, axis=1) - 1 - _NORMALS[:, None, :]
_TANGENT_NORMAL = (_EDGE_TANGENTS[:, :, None, :] == _NORMALS).all(axis=3).argmax(axis=2)
_UNSPLIT_RIM = np.array([0, 0, 1, 0, 1, 0, 1, 0, 0], dtype=bool)


def _strides(shape) -> np.ndarray:
    """Flat-index step per axis of a C-ordered array of ``shape``."""
    return np.array([shape[1] * shape[2], shape[2], 1])


def extract_surface(grid: VoxelGrid) -> SurfaceMesh:
    """Closed boundary surface of the occupied region.

    Emits two triangles per exposed unit face (the grid is implicitly padded
    with empty space, so the surface is always closed) and welds face corners
    only along the rotating edge pairing, which keeps every edge on exactly
    two triangles.  The result is an outward-oriented 2-manifold whose
    enclosed volume equals the occupied cell count exactly.

    An edge pairs with the face met by rotating around it through the solid:
    the cell's own convex turn, else the coplanar continuation, else the
    concave neighbour.  Wedges touching along an edge stay separate sheets;
    each gets its own midpoint there, and its faces fan from their centres.
    Faces come in ``np.argwhere`` then ``_FACE_LOOPS`` order, and vertices
    are numbered by first use over each face's corners, midpoints and centre.
    """
    # Cells are flat indices into the padded grid; points (corners, edge
    # midpoints, face centres) are flat indices into a grid of half steps.
    padded = np.pad(grid.occupancy, 1)
    solid = padded.ravel()
    stride = _strides(padded.shape)
    half_shape = tuple(2 * n + 1 for n in grid.occupancy.shape)
    half_stride = _strides(half_shape)
    xyz = np.argwhere(grid.occupancy)
    cells = (xyz + 1) @ stride
    cell_of, normal_of = np.nonzero(~solid[cells[:, None] + _NORMALS @ stride])
    n_faces = len(normal_of)
    if n_faces == 0:
        return SurfaceMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=int))
    here = cells[cell_of][:, None]
    face_at = np.full(6 * solid.size, -1)
    face_at[6 * here[:, 0] + normal_of] = np.arange(n_faces)

    # partner face across each edge, by the rotating rule
    tangent = (_EDGE_TANGENTS @ stride)[normal_of]
    normal = (_NORMALS @ stride)[normal_of][:, None]
    side = solid[here + tangent]
    diagonal = solid[here + tangent + normal]
    concave = side & diagonal
    other_cell = here + side * tangent + concave * normal
    turn = _TANGENT_NORMAL[normal_of]
    other_normal = np.where(side, np.where(concave, turn ^ 1, normal_of[:, None]), turn)
    partner = face_at[6 * other_cell + other_normal]
    if (partner < 0).any():
        raise ValueError("a surface edge has no partner face")

    # Slot 4 * face + a is the face's corner a.  Each edge's first corner
    # welds to the same corner of its partner; the partner walks the shared
    # edge the other way and welds the second.  So ``weld`` is a permutation
    # whose cycles are the rings of faces around each vertex.
    corner = (2 * xyz[cell_of] @ half_stride)[:, None] + (2 * _LOOPS @ half_stride)[normal_of]
    match = corner[partner] == corner[:, :, None]
    if not match.any(axis=2).all():
        raise ValueError("a partner face lacks the shared corner")
    at = match[..., 1] + 2 * match[..., 2] + 3 * match[..., 3]
    weld = (4 * partner + at).ravel()
    if (np.bincount(weld, minlength=len(weld)) != 1).any():
        raise ValueError("face corners do not weld into rings")
    # label each ring by its smallest slot, doubling the jump until it settles
    corner_ring = np.arange(4 * n_faces)
    while True:
        lower = np.minimum(corner_ring, corner_ring[weld])
        if np.array_equal(lower, corner_ring):
            break
        corner_ring, weld = lower, weld[weld]
    # an edge whose side neighbour is empty but whose diagonal one is solid
    # is used by four faces: two solid wedges touch along it only
    pinched = diagonal & ~side
    split = pinched.any(axis=1)

    # Per face, in vertex-numbering order: C0 M0 C1 M1 C2 M2 C3 M3 centre.
    # A corner's key is its ring, a midpoint's the lower of the two edge
    # slots that share it, a centre's its face.
    key = np.empty((n_faces, 9), dtype=np.int64)
    key[:, 0:8:2] = corner_ring.reshape(n_faces, 4)
    own_edge = np.arange(4 * n_faces).reshape(n_faces, 4)
    key[:, 1:8:2] = 4 * n_faces + np.minimum(own_edge, 4 * partner + (at + 3) % 4)
    key[:, 8] = 8 * n_faces + np.arange(n_faces)
    point = np.empty((n_faces, 9), dtype=np.int64)
    point[:, 0:8:2] = corner
    point[:, 1:8:2] = (corner + np.roll(corner, -1, axis=1)) // 2
    point[:, 8] = (2 * xyz[cell_of] + 1 + _NORMALS[normal_of]) @ half_stride
    used = np.ones((n_faces, 9), dtype=bool)
    used[:, 1:8:2] = pinched
    used[:, 8] = split

    used_key = key[used]
    first = np.full(9 * n_faces, len(used_key))
    np.minimum.at(first, used_key, np.arange(len(used_key)))
    keys_seen = np.flatnonzero(first < len(used_key))
    by_first_use = keys_seen[np.argsort(first[keys_seen])]
    number = np.empty(9 * n_faces, dtype=int)
    number[by_first_use] = np.arange(len(by_first_use))
    vertex = np.full((n_faces, 9), -1)
    vertex[used] = number[used_key]
    vertices = np.stack(np.unravel_index(point[used][first[by_first_use]], half_shape),
                        axis=1) / 2.0

    # Fan each face from a hub over its rim: an unsplit face from C0 over
    # C1 C2 C3, a split one from its centre over C0 M0 ... C3 M3 and back to C0.
    hub = np.where(split, vertex[:, 8], vertex[:, 0])
    rim = np.column_stack([vertex[:, :8], vertex[:, 0]])
    on_rim = np.where(split[:, None], np.column_stack([used[:, :8], split]), _UNSPLIT_RIM)
    rim = rim[on_rim]
    size = on_rim.sum(axis=1)
    spoke = np.delete(np.arange(len(rim)), np.cumsum(size) - 1)
    triangles = np.column_stack([np.repeat(hub, size - 1), rim[spoke], rim[spoke + 1]])
    return SurfaceMesh(vertices, triangles)


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
    a, b, c = mesh.vertices[mesh.triangles[picks].T]
    points = a + u[:, None] * (b - a) + v[:, None] * (c - a)
    return PointCloud(points)


def normalize_cloud(cloud: PointCloud) -> PointCloud:
    """Center at the centroid and scale so the maximum radial distance is 1.

    A cloud whose centroid or radius overflows raises DegenerateExtentError;
    one whose radius is below 1e-150, where squared distances lose digits
    and then underflow, is measured in units of its largest centred
    coordinate instead.
    """
    if len(cloud) == 0:
        raise EmptyCloudError("cannot normalize an empty cloud")
    pts = cloud.points
    with np.errstate(over="ignore", invalid="ignore"):  # such clouds are rejected below
        centered = pts - pts.mean(axis=0)
        radius = float(np.linalg.norm(centered, axis=1).max())
    if not np.isfinite(radius):  # an infinite or NaN centroid leaves no finite radius either
        raise DegenerateExtentError(
            f"coordinates up to {np.abs(pts).max()} have no finite radius about their centroid")
    if radius < 1e-150 and centered.any():  # squares below ~1e-308 lose digits: rescale first
        centered = centered / np.abs(centered).max()
        radius = float(np.linalg.norm(centered, axis=1).max())
    if radius <= 0.0:
        raise DegenerateCloudError("cloud has no extent around its centroid")
    return PointCloud(centered / radius, cloud.normals)


def chamfer(p: PointCloud, q: PointCloud) -> float:
    """Symmetric mean nearest-neighbor L2 distance (unsquared terms)."""
    if len(p) == 0 or len(q) == 0:
        raise EmptyCloudError("chamfer distance needs two nonempty clouds")
    from scipy.spatial import cKDTree  # here, so importing the package skips scipy
    # sliding-midpoint trees build faster than median splits on the reward's
    # clouds, and a query still returns the exact nearest distance
    d_pq = cKDTree(q.points, balanced_tree=False).query(p.points)[0]
    d_qp = cKDTree(p.points, balanced_tree=False).query(q.points)[0]
    return float(d_pq.mean() + d_qp.mean())
