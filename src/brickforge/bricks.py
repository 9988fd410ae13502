"""Brick data model, workspace occupancy, and the vertical attachment graph.

The workspace is a fixed 20x20x20 integer grid.  A brick occupies a single
z layer with an axis-aligned (h, w) footprint of studs; h runs along x and
w along y.  Two bricks are attached when they sit in adjacent z layers and
their footprints overlap.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import CollisionError, MalformedInputError, OutOfBoundsError, SizeNotInLibraryError

GRID = 20

# The eight catalog bricks, closed under 90-degree rotation.
BASE_SIZES = ((1, 1), (1, 2), (1, 4), (1, 6), (1, 8), (2, 2), (2, 4), (2, 6))
CATALOG_SIZES = frozenset(BASE_SIZES) | frozenset((w, h) for h, w in BASE_SIZES)
SIZE_VALUES = (1, 2, 4, 6, 8)
MAX_FOOTPRINT_AREA = 12  # largest catalog footprint (2x6)


@dataclass(frozen=True, order=True)
class Brick:
    """A single brick: footprint (h, w) anchored at grid cell (x, y, z)."""

    h: int
    w: int
    x: int
    y: int
    z: int

    def __post_init__(self):
        if (self.h, self.w) not in CATALOG_SIZES:
            raise SizeNotInLibraryError(f"({self.h},{self.w}) not a catalog footprint")
        if not (0 <= self.x and self.x + self.h <= GRID
                and 0 <= self.y and self.y + self.w <= GRID
                and 0 <= self.z < GRID):
            raise OutOfBoundsError(
                f"brick {self.h}x{self.w} at ({self.x},{self.y},{self.z}) leaves the workspace")

    @property
    def area(self) -> int:
        return self.h * self.w

    def cells(self):
        """Iterate the (cx, cy) footprint cells."""
        for a in range(self.h):
            for b in range(self.w):
                yield (self.x + a, self.y + b)

    def to_dict(self) -> dict:
        return {"h": self.h, "w": self.w, "x": self.x, "y": self.y, "z": self.z}

    @staticmethod
    def from_dict(d: dict) -> "Brick":
        """Inverse of :meth:`to_dict`; every field must be an int (not a bool,
        a float or a string), or MalformedInputError is raised."""
        values = [d.get(k) for k in "hwxyz"] if isinstance(d, dict) else [None]
        if not all(type(v) is int for v in values):
            raise MalformedInputError(f"brick {d!r} needs int fields h, w, x, y, z")
        return Brick(*values)


def footprint(brick: Brick) -> set[tuple[int, int]]:
    """Footprint of a brick as a set of (cx, cy) cells; |result| = h*w."""
    return set(brick.cells())


def footprints_overlap(a: Brick, b: Brick) -> bool:
    return (a.x < b.x + b.h and b.x < a.x + a.h
            and a.y < b.y + b.w and b.y < a.y + a.w)


def attached(a: Brick, b: Brick) -> bool:
    """Attachment-graph edge predicate: adjacent layers with overlapping footprints."""
    return abs(a.z - b.z) == 1 and footprints_overlap(a, b)


def _stamp(occ: np.ndarray, brick: Brick) -> None:
    """Mark ``brick``'s cells in ``occ``; raises CollisionError naming the
    first occupied cell (x-major) when any of them is taken."""
    block = occ[brick.x:brick.x + brick.h, brick.y:brick.y + brick.w, brick.z]
    if block.any():
        idx = np.argwhere(block)[0]
        raise CollisionError((brick.x + int(idx[0]), brick.y + int(idx[1]), brick.z))
    block[...] = True


class BrickAssembly:
    """An ordered, collision-free collection of bricks with a dense occupancy grid.

    Instances are immutable by convention: mutating operations return new
    assemblies, so values are safe to share across threads.
    """

    def __init__(self, bricks: tuple[Brick, ...] = ()):
        occ = np.zeros((GRID, GRID, GRID), dtype=bool)
        for brick in bricks:
            _stamp(occ, brick)
        self._bricks = tuple(bricks)
        self._occ = occ
        self._occ.setflags(write=False)

    @classmethod
    def _checked(cls, bricks: tuple[Brick, ...], occ: np.ndarray) -> "BrickAssembly":
        """Wrap bricks whose occupancy ``occ`` the caller has already built
        collision-free; skips the per-brick re-stamping of ``__init__``."""
        self = cls.__new__(cls)
        self._bricks = bricks
        self._occ = occ
        occ.setflags(write=False)
        return self

    @property
    def bricks(self) -> tuple[Brick, ...]:
        return self._bricks

    @property
    def occupancy(self) -> np.ndarray:
        """Read-only 20x20x20 boolean occupancy grid."""
        return self._occ

    def __len__(self) -> int:
        return len(self._bricks)

    def __eq__(self, other) -> bool:
        return isinstance(other, BrickAssembly) and self._bricks == other._bricks

    def __hash__(self) -> int:
        return hash(self._bricks)

    def to_json(self) -> str:
        return json.dumps({"bricks": [b.to_dict() for b in self._bricks]}, indent=2) + "\n"

    @staticmethod
    def from_json(text: str) -> "BrickAssembly":
        """Inverse of :meth:`to_json`; raises MalformedInputError on invalid
        JSON and on any other layout."""
        try:
            data = json.loads(text)
        except ValueError as err:
            raise MalformedInputError(f"assembly is not JSON: {err}") from None
        if not isinstance(data, dict) or not isinstance(data.get("bricks"), list):
            raise MalformedInputError('assembly JSON needs a "bricks" list')
        return BrickAssembly(tuple(Brick.from_dict(d) for d in data["bricks"]))


def place(assembly: BrickAssembly, brick: Brick) -> BrickAssembly:
    """Return a new assembly with ``brick`` added.

    Only the new brick is stamped, into a copy of the parent's occupancy;
    the parent's bricks are not re-checked.  Raises OutOfBoundsError /
    SizeNotInLibraryError (from Brick validation, when given raw values) or
    CollisionError when the brick intersects an occupied cell.
    """
    occ = assembly.occupancy.copy()
    _stamp(occ, brick)
    return BrickAssembly._checked(assembly.bricks + (brick,), occ)


def attachment_edges(assembly: BrickAssembly) -> set[tuple[int, int]]:
    """Undirected attachment edges as (i, j) index pairs with i < j.

    Bricks are bucketed by layer, so only layers z and z + 1 are compared.
    """
    bricks = assembly.bricks
    layers: dict[int, list[int]] = {}
    for i, brick in enumerate(bricks):
        layers.setdefault(brick.z, []).append(i)
    edges = set()
    for z, lower in layers.items():
        upper = layers.get(z + 1, ())
        for i in lower:
            a = bricks[i]
            for j in upper:
                if footprints_overlap(a, bricks[j]):
                    edges.add((i, j) if i < j else (j, i))
    return edges


def attachment_adjacency(assembly: BrickAssembly) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in assembly.bricks]
    for i, j in attachment_edges(assembly):
        adj[i].append(j)
        adj[j].append(i)
    for neighbors in adj:
        neighbors.sort()
    return adj


def connected_components(assembly: BrickAssembly) -> list[list[int]]:
    adj = attachment_adjacency(assembly)
    seen = [False] * len(adj)
    components = []
    for start in range(len(adj)):
        if seen[start]:
            continue
        comp = []
        queue = deque([start])
        seen[start] = True
        while queue:
            i = queue.popleft()
            comp.append(i)
            for j in adj[i]:
                if not seen[j]:
                    seen[j] = True
                    queue.append(j)
        components.append(comp)
    return components


def is_connected(assembly: BrickAssembly) -> bool:
    """True iff the attachment graph has a single component (empty: True)."""
    return len(connected_components(assembly)) <= 1


def root_index(assembly: BrickAssembly) -> int:
    """Index of the root brick: lexicographically smallest (z, y, x)."""
    bricks = assembly.bricks
    return min(range(len(bricks)), key=lambda i: (bricks[i].z, bricks[i].y, bricks[i].x))
