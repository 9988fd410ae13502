"""LDraw export so assemblies open in standard brick viewers.

Conventions: one grid cell is 20 LDraw units horizontally and one layer is
24 units vertically; LDraw y points down, so layer k maps to y = -24k.  The
reference point of each part is placed at the footprint center, which makes
every coordinate an integer.
"""

from __future__ import annotations

from .bricks import Brick, BrickAssembly

# Part numbers for the eight catalog bricks, keyed by sorted footprint.
PART_IDS = {
    (1, 1): "3005",
    (1, 2): "3004",
    (1, 4): "3010",
    (1, 6): "3009",
    (1, 8): "3008",
    (2, 2): "3003",
    (2, 4): "3001",
    (2, 6): "2456",
}

CELL_UNITS = 20
LAYER_UNITS = 24
COLOR = 4

_IDENTITY = (1, 0, 0, 0, 1, 0, 0, 0, 1)
_ROT90_Y = (0, 0, 1, 0, 1, 0, -1, 0, 0)


def _brick_line(brick: Brick) -> str:
    part = PART_IDS[tuple(sorted((brick.h, brick.w)))]
    # parts put their long axis along LDraw x; rotate when ours runs along y
    matrix = _IDENTITY if brick.h >= brick.w else _ROT90_Y
    x = CELL_UNITS * (2 * brick.x + brick.h) // 2
    z = CELL_UNITS * (2 * brick.y + brick.w) // 2
    y = -LAYER_UNITS * brick.z
    fields = ["1", str(COLOR), str(x), str(y), str(z)]
    fields += [str(v) for v in matrix]
    fields.append(f"{part}.dat")
    return " ".join(fields)


def export_ldraw(assembly: BrickAssembly) -> str:
    """Render an assembly as an LDraw document (one type-1 line per brick)."""
    lines = ["0 brickforge model", "0 Name: model.ldr"]
    lines += [_brick_line(b) for b in assembly.bricks]
    return "\n".join(lines) + "\n"
