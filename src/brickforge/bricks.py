"""Brick data model, workspace occupancy, and the vertical attachment graph.

The workspace is a fixed 20x20x20 integer grid.  A brick occupies a single
z layer with an axis-aligned (h, w) footprint of studs; h runs along x and
w along y.  Two bricks are attached when they sit in adjacent z layers and
their footprints overlap.  Occupancy is kept as flat bytes, so this module
(and the tokenizer built on it) imports without numpy.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass

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


def footprints_overlap(a: Brick, b: Brick) -> bool:
    return (a.x < b.x + b.h and b.x < a.x + a.h
            and a.y < b.y + b.w and b.y < a.y + a.w)


def _stamp(cells: bytearray, brick: Brick) -> None:
    """Mark ``brick``'s cells in the flat grid ``cells`` (cell (x, y, z) at
    ``(x*GRID + y)*GRID + z``); raises CollisionError naming the first
    occupied cell (x-major), before writing any, when one of them is taken."""
    start = (brick.x * GRID + brick.y) * GRID + brick.z
    # One strided slice per line along the long side: at most two per brick.
    if brick.h <= brick.w:
        lines, step, n = range(start, start + brick.h * GRID * GRID, GRID * GRID), GRID, brick.w
    else:
        lines, step, n = range(start, start + brick.w * GRID, GRID), GRID * GRID, brick.h
    for i in lines:
        if 1 in cells[i:i + n * step:step]:
            a, b = next((a, b) for a in range(brick.h) for b in range(brick.w)
                        if cells[start + (a * GRID + b) * GRID])
            raise CollisionError((brick.x + a, brick.y + b, brick.z))
    ones = b"\x01" * n
    for i in lines:
        cells[i:i + n * step:step] = ones


class BrickAssembly:
    """An ordered, collision-free collection of bricks with a dense occupancy grid.

    Instances are immutable by convention: mutating operations return new
    assemblies, so values are safe to share across threads.
    """

    def __init__(self, bricks: tuple[Brick, ...] = ()):
        cells = bytearray(GRID ** 3)
        for brick in bricks:
            _stamp(cells, brick)
        self._bricks = tuple(bricks)
        self._cells = bytes(cells)
        self._occ = None

    @classmethod
    def _checked(cls, bricks: tuple[Brick, ...], cells: bytes) -> "BrickAssembly":
        """Wrap bricks whose flat occupancy ``cells`` the caller has already
        built collision-free; skips the per-brick re-stamping of ``__init__``."""
        self = cls.__new__(cls)
        self._bricks = bricks
        self._cells = cells
        self._occ = None
        return self

    @property
    def bricks(self) -> tuple[Brick, ...]:
        return self._bricks

    @property
    def occupancy(self):
        """Read-only 20x20x20 boolean numpy grid, a view of the cell bytes
        built on first access (numpy is imported then, not before)."""
        if self._occ is None:
            import numpy as np
            self._occ = np.ndarray((GRID, GRID, GRID), dtype=bool, buffer=self._cells)
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
        JSON, JSON nested too deep to parse, and any other layout."""
        try:
            data = json.loads(text)
        except (ValueError, RecursionError) as err:
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
    cells = bytearray(assembly._cells)
    _stamp(cells, brick)
    return BrickAssembly._checked(assembly.bricks + (brick,), bytes(cells))


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
