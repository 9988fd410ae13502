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

# LDraw rotation matrices, row-major: parts put their long axis along LDraw x,
# so a brick whose long side runs along our y is turned a quarter about y
_IDENTITY = "1 0 0 0 1 0 0 0 1"
_ROT90_Y = "0 0 1 0 1 0 -1 0 0"


def _brick_line(brick: Brick) -> str:
    h, w = brick.h, brick.w
    part, matrix = (PART_IDS[w, h], _IDENTITY) if h >= w else (PART_IDS[h, w], _ROT90_Y)
    return (f"1 {COLOR} {CELL_UNITS * (2 * brick.x + h) // 2} {-LAYER_UNITS * brick.z}"
            f" {CELL_UNITS * (2 * brick.y + w) // 2} {matrix} {part}.dat")


def export_ldraw(assembly: BrickAssembly) -> str:
    """Render an assembly as an LDraw document (one type-1 line per brick)."""
    lines = ["0 brickforge model", "0 Name: model.ldr"]
    lines += [_brick_line(b) for b in assembly.bricks]
    return "\n".join(lines) + "\n"
