"""Attachment-code arithmetic between a parent brick and a vertically attached child.

The parent-side token f packs the vertical direction s (0 = child above,
1 = child below) together with the parent-local stud (u_p, v_p) of a
canonical shared stud; the child-side token m packs the matching
child-local stud (u_c, v_c).  The canonical stud is the lexicographically
smallest (x, y) cell of the footprint intersection, which makes the pair
(f, m) a reversible local encoding of the child placement.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bricks import Brick, MAX_FOOTPRINT_AREA
from .errors import NotAttachedError, TokenOutOfRangeError

F_RANGE = 2 * MAX_FOOTPRINT_AREA  # two directions times the largest footprint
M_RANGE = MAX_FOOTPRINT_AREA


@dataclass(frozen=True)
class AttachmentCode:
    f: int
    m: int


def encode_attachment(parent: Brick, child: Brick) -> AttachmentCode:
    """Encode the placement of ``child`` relative to ``parent``.

    Raises NotAttachedError unless the bricks sit in adjacent z layers with
    overlapping footprints.
    """
    if abs(child.z - parent.z) != 1:
        raise NotAttachedError("bricks are not in adjacent z layers")
    lo_x = max(parent.x, child.x)
    hi_x = min(parent.x + parent.h, child.x + child.h)
    lo_y = max(parent.y, child.y)
    hi_y = min(parent.y + parent.w, child.y + child.w)
    if lo_x >= hi_x or lo_y >= hi_y:
        raise NotAttachedError("footprints do not overlap")
    qx, qy = lo_x, lo_y  # lexicographic minimum of the intersection
    s = 0 if child.z == parent.z + 1 else 1
    up, vp = qx - parent.x, qy - parent.y
    uc, vc = qx - child.x, qy - child.y
    f = s * parent.h * parent.w + vp * parent.h + up
    m = vc * child.h + uc
    return AttachmentCode(f, m)


def decode_attachment(f: int, m: int, parent: Brick, child_size: tuple[int, int]) -> Brick:
    """Recover the unique child brick encoded by (f, m) against ``parent``.

    Inverse of :func:`encode_attachment`.  Raises TokenOutOfRangeError when a
    token exceeds the range implied by the parent or child footprint, and
    propagates Brick validation errors when the decoded placement leaves the
    workspace.
    """
    h, w = child_size
    if not 0 <= f < 2 * parent.h * parent.w:
        raise TokenOutOfRangeError("f", 2 * parent.h * parent.w, f)
    if not 0 <= m < h * w:
        raise TokenOutOfRangeError("m", h * w, m)
    dx, dy, dz = attachment_offset(f, m, parent.h, parent.w, h)
    return Brick(h, w, parent.x + dx, parent.y + dy, parent.z + dz)


def attachment_offset(f: int, m: int, ph: int, pw: int, h: int) -> tuple[int, int, int]:
    """The (dx, dy, dz) step from a ph x pw parent's anchor to the anchor of
    the child with h rows that the in-range pair (f, m) encodes."""
    s, r = divmod(f, ph * pw)
    return r % ph - m % h, r // ph - m // h, 1 - 2 * s
