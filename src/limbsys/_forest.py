"""The forest kernel: union-find roots and paths through a forest.

Nodes are any hashable labels.  ``find`` works on a parent mapping (a dict,
or a list indexed by integer nodes) in which every root is its own parent;
``tree_path`` works on an adjacency mapping of a graph without cycles, where
the path between two nodes is unique.
"""

from __future__ import annotations


def find(parent, v):
    """Root of the set holding ``v``, halving the path on the way up.

    Halving only re-points nodes at an ancestor in the same set, so the
    partition and every root stay as they were.
    """
    while parent[v] != v:
        parent[v] = parent[parent[v]]
        v = parent[v]
    return v


def tree_path(adjacency, start, goal) -> list:
    """The nodes on the unique path from ``start`` to ``goal``, both included.

    ``adjacency`` maps every node on the path to its neighbours; the two
    nodes must lie in one tree of the forest.
    """
    trail = {start: None}
    stack = [start]
    while stack:
        u = stack.pop()
        if u == goal:
            path = [u]
            while trail[u] is not None:
                u = trail[u]
                path.append(u)
            return path[::-1]
        for v in adjacency[u]:
            if v not in trail:
                trail[v] = u
                stack.append(v)
    raise AssertionError("the two nodes lie in different trees")
