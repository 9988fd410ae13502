"""Deterministic BFS spanning tree over the vertical attachment graph."""

from __future__ import annotations

from collections import deque

from .attach import AttachmentCode, encode_attachment
from .bricks import BrickAssembly, attachment_adjacency, connected_components, root_index
from .errors import DisconnectedGraphError, EmptyAssemblyError


class AttachmentTree:
    """BFS spanning tree: per-parent children sorted by f, the BFS order, and
    each non-root brick's attachment code against its parent."""

    __slots__ = ("root", "children", "bfs_order", "codes")

    def __init__(self, root: int):
        self.root = root
        self.children: dict[int, list[int]] = {}
        self.bfs_order: list[int] = []
        self.codes: dict[int, AttachmentCode] = {}


def build_spanning_tree(assembly: BrickAssembly) -> AttachmentTree:
    """BFS from the lexicographic root, assigning each brick to the first
    dequeued neighbor; a parent's children are enqueued in increasing order
    of their parent-side attachment token f.  Each tree edge is encoded once.

    Raises EmptyAssemblyError on no bricks, DisconnectedGraphError when the
    attachment graph has more than one component.
    """
    bricks = assembly.bricks
    if not bricks:
        raise EmptyAssemblyError("assembly has no bricks")
    adj = attachment_adjacency(assembly)
    root = root_index(assembly)
    tree = AttachmentTree(root)
    codes = tree.codes
    visited = [False] * len(bricks)
    visited[root] = True
    queue = deque([root])
    while queue:
        p = queue.popleft()
        tree.bfs_order.append(p)
        parent = bricks[p]
        unvisited = [c for c in adj[p] if not visited[c]]
        for c in unvisited:
            visited[c] = True
            codes[c] = encode_attachment(parent, bricks[c])
        unvisited.sort(key=lambda c: codes[c].f)
        tree.children[p] = unvisited
        queue.extend(unvisited)
    if len(tree.bfs_order) != len(bricks):
        raise DisconnectedGraphError(len(connected_components(assembly)))
    return tree
