"""Deterministic BFS spanning tree over the vertical attachment graph."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .attach import encode_attachment
from .bricks import BrickAssembly, attachment_adjacency, connected_components, root_index
from .errors import DisconnectedGraphError


@dataclass
class AttachmentTree:
    """BFS spanning tree: per-parent children sorted by f, and the BFS order."""

    root: int
    children: dict[int, list[int]] = field(default_factory=dict)
    bfs_order: list[int] = field(default_factory=list)


def build_spanning_tree(assembly: BrickAssembly) -> AttachmentTree:
    """BFS from the lexicographic root, assigning each brick to the first
    dequeued neighbor; a parent's children are enqueued in increasing order
    of their parent-side attachment token f.

    Raises DisconnectedGraphError when the attachment graph has more than
    one component.
    """
    bricks = assembly.bricks
    if not bricks:
        raise DisconnectedGraphError(0)
    adj = attachment_adjacency(assembly)
    root = root_index(assembly)
    tree = AttachmentTree(root=root)
    visited = [False] * len(bricks)
    visited[root] = True
    queue = deque([root])
    while queue:
        p = queue.popleft()
        tree.bfs_order.append(p)
        unvisited = [c for c in adj[p] if not visited[c]]
        unvisited.sort(key=lambda c: encode_attachment(bricks[p], bricks[c]).f)
        tree.children[p] = unvisited
        for c in unvisited:
            visited[c] = True
            queue.append(c)
    if len(tree.bfs_order) != len(bricks):
        raise DisconnectedGraphError(len(connected_components(assembly)))
    return tree
