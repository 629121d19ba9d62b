"""Extremality of couplings via support acyclicity.

A coupling with prescribed marginals is an extreme point of the feasible set
exactly when its support, read as a bipartite graph on row and column nodes,
contains no cycle.  This module decides that by peeling leaves, the same
pass that levels a forest support into limbs (``limbs.decompose``), walks
what is left into a cycle witness, cross-checks the verdict through the rank
of the additive-function evaluation matrix on the support, and, for cyclic
supports, produces an explicit convex split certifying non-extremality.
"""

from __future__ import annotations

from dataclasses import dataclass
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
        object.__setattr__(self, "edges", frozenset((int(i), int(j)) for i, j in self.edges))
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
        edges = tuple((int(i), int(j)) for i, j in self.edges)
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
    """Verdict plus, when non-extremal, a cycle and a convex split that
    averages back to the tested coupling."""

    verdict: str
    cycle: Optional[CycleWitness] = None
    split: Optional[tuple] = None

    def __post_init__(self):
        if self.verdict not in ("extremal", "non-extremal"):
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if self.verdict == "non-extremal" and (self.cycle is None or self.split is None):
            raise ValueError("a non-extremal certificate must carry a cycle and a split")

    @property
    def extremal(self) -> bool:
        return self.verdict == "extremal"


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


def _integer_rank(matrix: list) -> int:
    """Exact rank by fraction-free Gaussian elimination (Bareiss).

    The evaluation matrix is 0/1, so exact integer elimination decides the
    rank without any threshold that could flap near a tolerance.
    """
    rows = [list(r) for r in matrix]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    denom = 1
    for col in range(ncols):
        pivot_row = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        pivot = rows[rank][col]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col]
            for c in range(col, ncols):
                rows[r][c] = (pivot * rows[r][c] - factor * rows[rank][c]) // denom
        denom = pivot
        rank += 1
        if rank == len(rows):
            break
    return rank


# Largest support the rank test accepts.
RANK_TEST_MAX_CELLS = 4096


def dl_rank_test(gamma: Coupling) -> bool:
    """Functional-analytic extremality criterion at finite scale.

    Functions of the form (i, j) -> a_i + b_j span all functions on the
    support exactly when the |S| x (m+n) evaluation matrix has rank |S|.
    Agrees with :func:`is_acyclic` on every coupling; both say "extremal".
    """
    cells = sorted(support_graph(gamma).edges)
    if len(cells) > RANK_TEST_MAX_CELLS:
        raise SizeLimitError(
            f"support has {len(cells)} cells, above the cap of {RANK_TEST_MAX_CELLS}"
        )
    if not cells:
        return True
    width = gamma.m + gamma.n
    matrix = []
    for i, j in cells:
        row = [0] * width
        row[i] = 1
        row[gamma.m + j] = 1
        matrix.append(row)
    return _integer_rank(matrix) == len(cells)


def split_witness(gamma: Coupling, cycle: CycleWitness) -> tuple[Coupling, Coupling]:
    """Perturb ``gamma`` around an alternating cycle in its support.

    With eps the minimum mass along the cycle and sigma alternating +1/-1 on
    consecutive cycle cells, returns (gamma + eps*sigma, gamma - eps*sigma).
    Both parts share the marginals of ``gamma``, average back to it, and
    differ, which is the convex decomposition disproving extremality.
    """
    support = support_graph(gamma).edges
    for edge in cycle.edges:
        if edge not in support:
            raise CycleError(f"cycle edge {edge} is not in the coupling support")
    mass = {(i, j): w for i, j, w in gamma.entries}
    eps = min(mass[edge] for edge in cycle.edges)
    plus, minus = dict(mass), dict(mass)
    for t, edge in enumerate(cycle.edges):
        step = eps if t % 2 == 0 else -eps
        plus[edge] = mass[edge] + step
        minus[edge] = mass[edge] - step
    return tuple(
        Coupling.from_entries(gamma.m, gamma.n, [(i, j, w) for (i, j), w in part.items()])
        for part in (plus, minus)
    )


def is_extremal(gamma: Coupling) -> ExtremalityCertificate:
    """Certificate-producing extremality decision.

    Extremality depends on the support alone; marginals only enter through
    the feasibility of the split parts, which inherit them from ``gamma``.
    """
    acyclic, witness = is_acyclic(support_graph(gamma))
    if acyclic:
        return ExtremalityCertificate("extremal")
    return ExtremalityCertificate("non-extremal", witness, split_witness(gamma, witness))
