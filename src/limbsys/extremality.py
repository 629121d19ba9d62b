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

from bisect import bisect_left
from operator import index, itemgetter

from .errors import CycleError, SizeLimitError
from .measures import Coupling, Record, _dimensions, thresholds

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


class SupportGraph(Record):
    """Bipartite graph on m row nodes and n column nodes, one edge per
    occupied cell of a product grid.  ``edges`` may be any iterable of
    cells; it is checked and stored as a frozenset in one pass."""

    def __init__(self, m: int, n: int, edges: frozenset):
        m, n = _dimensions(m, n, "support graph")
        edges = frozenset([(index(i), index(j)) for i, j in edges])
        for i, j in edges:
            if not (0 <= i < m and 0 <= j < n):
                i, j = min(e for e in edges if not (0 <= e[0] < m and 0 <= e[1] < n))
                raise ValueError(f"edge ({i}, {j}) outside the {m}x{n} grid")
        self._store(m=m, n=n, edges=edges)


class CycleWitness(Record):
    """Alternating cycle through k >= 2 distinct rows and k distinct columns:
    row ``rows[t]`` meets columns ``cols[t-1]`` and ``cols[t]``.  ``edges``
    lists its 2k support cells in walk order, consecutive cells sharing a
    row then a column, wrapping around at the end."""

    def __init__(self, rows: tuple, cols: tuple):
        rows, cols = tuple(map(index, rows)), tuple(map(index, cols))
        k = len(rows)
        if k < 2 or len(cols) != k:
            raise ValueError(f"a cycle witness needs k >= 2 rows and k columns, not {k} and {len(cols)}")
        for name, points in (("row", rows), ("column", cols)):
            if len(set(points)) != k:
                repeated = next(p for t, p in enumerate(points) if p in points[:t])
                raise ValueError(f"cycle witness visits {name} {repeated} twice")
        self._store(rows=rows, cols=cols)

    @property
    def edges(self) -> tuple:
        return tuple((r, c) for t, r in enumerate(self.rows) for c in (self.cols[t - 1], self.cols[t]))

    def k(self) -> int:
        return len(self.rows)


class ExtremalityCertificate(Record):
    """A cycle in the support when the coupling is not extremal, None when
    it is; :func:`split_witness` builds the convex split from the cycle."""

    def __init__(self, cycle: CycleWitness | None = None):
        self._store(cycle=cycle)

    @property
    def extremal(self) -> bool:
        return self.cycle is None

    @property
    def verdict(self) -> str:
        return "extremal" if self.cycle is None else "non-extremal"


def support_graph(gamma: Coupling) -> SupportGraph:
    """Edges are exactly the cells with mass above the mass threshold of
    ``gamma``'s entries; smaller float masses are solver dust and do not
    count as support.  A coupling stores positive masses only, so with
    exact masses every stored cell is support, kept without a comparison."""
    masses = [w for _, _, w in gamma.entries]
    eps, _ = thresholds(masses=(masses,))
    # Lazy either way: SupportGraph builds the one list of cells it keeps.
    edges = ((i, j) for i, j, w in gamma.entries if w > eps) if eps else map(itemgetter(0, 1), gamma.entries)
    return SupportGraph(gamma.m, gamma.n, edges)


def _peel(graph: SupportGraph):
    """Peel the leaves of ``graph`` in rounds; return the point each point
    hangs from, the order the points fall in, and a cycle witness, None on
    a forest.

    Points are numbered rows 0..m-1, then columns m..m+n-1.  A point falls
    once at most one neighbour is left standing, and hangs from it: the next
    point toward its tree's centre.  A centre falls with no neighbour
    standing and hangs from nothing, but of two centres falling together the
    row hangs from the column.  Points on a cycle never fall, and every
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
    above = [None] * len(adjacency)
    order = []
    while falling:
        for v in falling:
            standing[v] = False
        order += falling
        upcoming = []
        for v in falling:
            for u in adjacency[v]:
                if standing[u]:
                    above[v] = u
                    degree[u] -= 1
                    if degree[u] == 1:
                        upcoming.append(u)
            if above[v] is None and v < m:  # of two centres, the row hangs from the column
                above[v] = next((u for u in adjacency[v] if above[u] != v), None)
        falling = upcoming
    if not any(standing):
        return above, order, None

    met = {}  # walk position of every point met, in walk order
    u, before = standing.index(True), None
    while u not in met:
        met[u] = len(met)
        u, before = min(v for v in adjacency[u] if standing[v] and v != before), u
    loop = list(met)[met[u]:]
    if loop[0] >= m:
        loop = loop[1:] + loop[:1]
    return above, order, CycleWitness(loop[0::2], [v - m for v in loop[1::2]])


def is_acyclic(graph: SupportGraph) -> tuple[bool, CycleWitness | None]:
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
    entries = gamma.entries
    threshold, _ = thresholds(masses=([w for _, _, w in entries],))
    at = []  # entry index of each cycle cell, in walk order
    for edge in cycle.edges:
        if not gamma.mass_at(*edge) > threshold:
            raise CycleError(f"cycle edge {edge} is not in the coupling support")
        at.append(bisect_left(entries, edge))  # (i, j) sorts just before (i, j, w)
    eps = min(entries[k][2] for k in at)
    # Patched from the last cell back, so deleting one keeps the earlier positions.
    steps = sorted(((k, eps if t % 2 == 0 else -eps) for t, k in enumerate(at)), reverse=True)
    parts = []
    for plus in (True, False):
        cells = list(entries)
        for k, s in steps:
            i, j, w = cells[k]
            w = w + s if plus else w - s
            if w:
                cells[k] = (i, j, w)
            else:
                del cells[k]
        parts.append(Coupling(gamma.m, gamma.n, tuple(cells)))
    return tuple(parts)


def is_extremal(gamma: Coupling) -> ExtremalityCertificate:
    """Certificate-producing extremality decision.

    Extremality depends on the support alone, so the certificate is the
    cycle :func:`is_acyclic` finds in it, or None.  Call
    :func:`split_witness` on that cycle for the convex split; its parts
    inherit the marginals of ``gamma``.
    """
    return ExtremalityCertificate(is_acyclic(support_graph(gamma))[1])
