"""Extremality of couplings via support acyclicity.

A coupling with prescribed marginals is an extreme point of the feasible set
exactly when its support, read as a bipartite graph on row and column nodes,
contains no cycle.  This module decides that by peeling leaves, the same
pass that levels a forest support into limbs (``limbs.decompose``), walks
what is left into a cycle witness, and cross-checks the verdict through the
rank of the additive-function evaluation matrix on the support.  The cycle
is the whole certificate of non-extremality: :func:`split_witness` turns it,
on demand, into an explicit convex split of the coupling.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index
from typing import Optional

from .errors import CycleError, SizeLimitError
from .measures import Coupling, thresholds

__all__ = [
    "SupportGraph",
    "CycleWitness",
    "ExtremalityCertificate",
    "support_graph",
    "is_acyclic",
    "dl_rank_test",
    "split_witness",
    "is_extremal",
]


@dataclass(frozen=True)
class SupportGraph:
    """Bipartite graph on m row nodes and n column nodes, one edge per
    occupied cell of a product grid."""

    m: int
    n: int
    edges: frozenset

    def __post_init__(self):
        object.__setattr__(self, "m", index(self.m))
        object.__setattr__(self, "n", index(self.n))
        object.__setattr__(self, "edges", frozenset((index(i), index(j)) for i, j in self.edges))
        if self.m <= 0 or self.n <= 0:
            raise ValueError("support graph dimensions must be positive")
        for i, j in self.edges:
            if not (0 <= i < self.m and 0 <= j < self.n):
                raise ValueError(f"edge ({i}, {j}) outside the {self.m}x{self.n} grid")


@dataclass(frozen=True)
class CycleWitness:
    """Alternating closed walk through 2k support cells, k >= 2.

    Edges alternate sharing a row then a column: ``edges[2t]`` and
    ``edges[2t+1]`` sit in the same row, ``edges[2t+1]`` and ``edges[2t+2]``
    in the same column, wrapping around at the end.  Rows are pairwise
    distinct, as are columns.
    """

    edges: tuple

    def __post_init__(self):
        edges = tuple((index(i), index(j)) for i, j in self.edges)
        object.__setattr__(self, "edges", edges)
        if len(edges) < 4 or len(edges) % 2 != 0:
            raise ValueError("a cycle witness needs an even number of edges, at least 4")
        k = len(edges) // 2
        rows = [edges[2 * t][0] for t in range(k)]
        cols = [edges[2 * t][1] for t in range(k)]
        if len(set(rows)) != k or len(set(cols)) != k:
            raise ValueError("cycle witness must visit k distinct rows and k distinct columns")
        for t in range(k):
            if edges[2 * t + 1][0] != rows[t]:
                raise ValueError(f"edges {2 * t} and {2 * t + 1} do not share a row")
            if edges[2 * t + 1][1] != cols[(t + 1) % k]:
                raise ValueError(f"edges {2 * t + 1} and {(2 * t + 2) % (2 * k)} do not share a column")

    def k(self) -> int:
        return len(self.edges) // 2


@dataclass(frozen=True)
class ExtremalityCertificate:
    """A cycle in the support when the coupling is not extremal, None when
    it is; :func:`split_witness` builds the convex split from the cycle."""

    cycle: Optional[CycleWitness] = None

    @property
    def extremal(self) -> bool:
        return self.cycle is None

    @property
    def verdict(self) -> str:
        return "extremal" if self.cycle is None else "non-extremal"


def support_graph(gamma: Coupling) -> SupportGraph:
    """Edges are exactly the cells with mass above the mass threshold of
    ``gamma``'s entries; smaller float masses are solver dust and do not
    count as support.  With exact masses every stored cell is support."""
    eps, _ = thresholds(masses=([w for _, _, w in gamma.entries],))
    return SupportGraph(
        gamma.m, gamma.n, frozenset((i, j) for i, j, w in gamma.entries if w > eps)
    )


def _witness_from_node_cycle(node_cycle: list) -> CycleWitness:
    # node_cycle alternates row, col, row, col, ... starting at a row and is
    # closed by the edge (node_cycle[0], node_cycle[-1]).
    rows, cols = node_cycle[0::2], node_cycle[1::2]
    return CycleWitness(tuple((r, c) for t, r in enumerate(rows) for c in (cols[t - 1], cols[t])))


def _peel(graph: SupportGraph):
    """Peel the leaves of ``graph`` in rounds; return its adjacency, the
    centre of every tree, and a cycle witness, None on a forest.

    Points are numbered rows 0..m-1, then columns m..m+n-1.  A point falls
    once at most one neighbour is left standing; a tree's centre is what
    falls last, with no neighbour standing, and of two centres falling
    together the column is taken.  Points on a cycle never fall, and every
    point left standing keeps two standing neighbours.  So a walk from the
    lowest standing point, always stepping to the lowest standing neighbour
    other than the one it just left, comes back to a point it has met; the
    loop it closes there, started at a row, is the witness.  It depends on
    the edge set alone.
    """
    m = graph.m
    adjacency = [[] for _ in range(m + graph.n)]
    for i, j in graph.edges:
        adjacency[i].append(m + j)
        adjacency[m + j].append(i)

    degree = [len(nbrs) for nbrs in adjacency]
    standing = [d > 0 for d in degree]
    falling = [v for v, d in enumerate(degree) if d == 1]
    roots = []
    while falling:
        for v in falling:
            standing[v] = False
        peeled = set(falling)
        upcoming = []
        for v in falling:
            alive = False
            for u in adjacency[v]:
                if standing[u]:
                    alive = True
                    degree[u] -= 1
                    if degree[u] == 1:
                        upcoming.append(u)
            # A lone centre, or the column of two centres falling together.
            if not alive and (v >= m or not any(u in peeled for u in adjacency[v])):
                roots.append(v)
        falling = upcoming
    if not any(standing):
        return adjacency, roots, None

    met = {}  # walk position of every point met, in walk order
    u, before = standing.index(True), None
    while u not in met:
        met[u] = len(met)
        u, before = min(v for v in adjacency[u] if standing[v] and v != before), u
    loop = list(met)[met[u]:]
    if loop[0] >= m:
        loop = loop[1:] + loop[:1]
    return adjacency, roots, _witness_from_node_cycle([v if v < m else v - m for v in loop])


def is_acyclic(graph: SupportGraph) -> tuple[bool, Optional[CycleWitness]]:
    """Decide whether the bipartite support graph is a forest.

    Leaves are peeled in rounds (:func:`_peel`); the graph is a forest
    exactly when no point is left standing.  Otherwise the witness is the
    loop closed by a walk from the lowest standing point that always steps
    to the lowest standing neighbour other than the one it just left, so it
    depends on the edge set alone.
    """
    witness = _peel(graph)[2]
    return witness is None, witness


# Largest support the rank test accepts.
RANK_TEST_MAX_CELLS = 4096


def dl_rank_test(gamma: Coupling) -> bool:
    """Functional-analytic extremality criterion at finite scale.

    Functions of the form (i, j) -> a_i + b_j span all functions on the
    support exactly when the |S| x (m+n) evaluation matrix has rank |S|.
    Agrees with :func:`is_acyclic` on every coupling; both say "extremal".

    The matrix is the incidence matrix of a bipartite graph, which is
    totally unimodular: every square minor is 0 or +-1.  A minor is nonzero
    over the rationals exactly when it is odd, so the rank over GF(2)
    equals the rank over the rationals, and elimination on rows held as
    int bitmasks decides it exactly, with no threshold that could flap.
    """
    cells = sorted(support_graph(gamma).edges)
    if len(cells) > RANK_TEST_MAX_CELLS:
        raise SizeLimitError(
            f"support has {len(cells)} cells, above the cap of {RANK_TEST_MAX_CELLS}"
        )
    pivots = {}  # bit length -> the reduced row with that leading bit
    for i, j in cells:
        row = 1 << i | 1 << (gamma.m + j)
        while row.bit_length() in pivots:
            row ^= pivots[row.bit_length()]
        if not row:
            return False
        pivots[row.bit_length()] = row
    return True


def split_witness(gamma: Coupling, cycle: CycleWitness) -> tuple[Coupling, Coupling]:
    """Perturb ``gamma`` around an alternating cycle in its support.

    With eps the minimum mass along the cycle and sigma alternating +1/-1 on
    consecutive cycle cells, returns (gamma + eps*sigma, gamma - eps*sigma).
    Both parts share the marginals of ``gamma``, average back to it, and
    differ, which is the convex decomposition disproving extremality.  Only
    the 2k cycle cells change; a cell brought to exactly zero is dropped.
    """
    threshold, _ = thresholds(masses=([w for _, _, w in gamma.entries],))
    mass = {}
    for edge in cycle.edges:
        mass[edge] = gamma.mass_at(*edge)
        if not mass[edge] > threshold:
            raise CycleError(f"cycle edge {edge} is not in the coupling support")
    eps = min(mass.values())
    step = {edge: eps if t % 2 == 0 else -eps for t, edge in enumerate(cycle.edges)}
    plus, minus = [], []
    for i, j, w in gamma.entries:
        s = step.get((i, j))
        a, b = (w, w) if s is None else (w + s, w - s)
        if a:
            plus.append((i, j, a))
        if b:
            minus.append((i, j, b))
    return Coupling(gamma.m, gamma.n, tuple(plus)), Coupling(gamma.m, gamma.n, tuple(minus))


def is_extremal(gamma: Coupling) -> ExtremalityCertificate:
    """Certificate-producing extremality decision.

    Extremality depends on the support alone, so the certificate is the
    cycle :func:`is_acyclic` finds in it, or None.  Call
    :func:`split_witness` on that cycle for the convex split; its parts
    inherit the marginals of ``gamma``.
    """
    return ExtremalityCertificate(is_acyclic(support_graph(gamma))[1])
