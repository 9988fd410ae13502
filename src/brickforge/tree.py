"""Deterministic BFS spanning tree over the vertical attachment graph."""

from __future__ import annotations

from collections import deque, namedtuple

from .attach import encode_attachment
from .bricks import BrickAssembly, attachment_adjacency, connected_components, root_index
from .errors import DisconnectedGraphError, EmptyAssemblyError

# root, {parent: children sorted by f}, the BFS order, and each non-root
# brick's AttachmentCode against its parent
AttachmentTree = namedtuple("AttachmentTree", "root children bfs_order codes")


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
    children, bfs_order, codes = {}, [], {}
    visited = [False] * len(bricks)
    visited[root] = True
    queue = deque([root])
    while queue:
        p = queue.popleft()
        bfs_order.append(p)
        parent = bricks[p]
        unvisited = [c for c in adj[p] if not visited[c]]
        for c in unvisited:
            visited[c] = True
            codes[c] = encode_attachment(parent, bricks[c])
        unvisited.sort(key=lambda c: codes[c].f)
        children[p] = unvisited
        queue.extend(unvisited)
    if len(bfs_order) != len(bricks):
        raise DisconnectedGraphError(len(connected_components(assembly)))
    return AttachmentTree(root, children, bfs_order, codes)
