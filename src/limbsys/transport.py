"""Kantorovich transportation problems on finite marginals.

The solver is a primal network simplex on the bipartite transportation
graph, after the LEMON design (Kovacs 2015).  An artificial root joined to
every point gives a strongly feasible start; arcs are priced by block
search; the basis is a spanning tree kept as parent, depth and
flow-to-parent arrays, so a pivot walks only its cycle and shifts the
potentials of the re-hung subtree only.  Strongly feasible bases
(Cunningham 1976) rule out cycling on degenerate instances, so the simplex
needs no pivot budget.  With exact (int/Fraction) data every comparison is
exact and the returned optimum is exact; with floats the pivot threshold and
the dust below which masses are dropped scale with the largest cost and the
largest mass of the instance (``measures.thresholds``).  No comparison
changes when the masses are multiplied by one positive number and the costs
by another, so exact data are solved over ints: the masses are scaled once
by the lcm of their denominators, the costs by that of theirs, and the
optimum and its potentials are divided back into Fractions at the end.

The optimal-vertex oracle lists the whole optimal face.  By complementary
slackness every optimal dual cuts out the same face: the feasible couplings
supported on the zero set of its reduced costs.  So the oracle takes the
simplex's potentials, and one peel-and-branch walk per component of that
zero set visits every spanning tree whose flow is nonnegative, pruning a
branch at its first negative leaf mass.  A tree counts only when the point
left unpeeled in its component carries no net supply, so every vertex
listed is a coupling on the zero set.  That proves the potentials: a
feasible coupling on the zero set of feasible potentials has the dual value
as its cost, so both are optimal (weak duality), and potentials that are not
optimal leave some component with no tree and raise.  The oracle and the
solver run on one checked instance, so the walk runs on ints too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import mul, sub
from typing import NamedTuple, Sequence

from .errors import (
    DualInfeasibleError,
    InfeasibleError,
    ShapeMismatchError,
    SizeLimitError,
)
from .extremality import SupportGraph
from .measures import Coupling, CostMatrix, DiscreteMarginal, common_denominator, float_range, thresholds

__all__ = [
    "DualPotentials",
    "SolveReport",
    "solve",
    "c_transform",
    "zero_set",
    "enumerate_optimal_vertices",
    "is_unique_optimum",
]


@dataclass(frozen=True)
class DualPotentials:
    """Kantorovich dual pair: q per row point, r per column point.

    Feasible when c[i][j] - q[i] - r[j] is nonnegative, within the cost
    threshold, everywhere; the solver normalizes the one-dimensional gauge
    freedom by r[0] = 0.
    """

    q: tuple
    r: tuple

    def __post_init__(self):
        object.__setattr__(self, "q", tuple(self.q))
        object.__setattr__(self, "r", tuple(self.r))


@dataclass(frozen=True)
class SolveReport:
    """An optimal coupling, its potentials and both objective values.

    ``iterations`` counts the simplex pivots and ``degenerate_pivots`` those
    of them that moved no mass.
    """

    coupling: Coupling
    potentials: DualPotentials
    primal_value: object
    dual_value: object
    iterations: int
    degenerate_pivots: int


class _Instance(NamedTuple):
    """A checked instance as the loops run it: the masses times ``L`` and
    the costs times ``K``, the lcms of their denominators, as ints on exact
    data, and the caller's values with L = K = 1 on float data; the (mass,
    cost) thresholds; the gap allowed between the totals, and the gap
    between them, the int 0 on exact data so that thresholds built from it
    stay ints."""

    mu: Sequence
    nu: Sequence
    rows: Sequence
    L: int
    K: int
    eps_mass: object
    eps_cost: object
    slack: object
    gap: object


def _check_instance(mu: DiscreteMarginal, nu: DiscreteMarginal, c: CostMatrix) -> _Instance:
    """Reject mismatched shapes and unbalanced totals; return the instance
    the loops run on."""
    if (c.m, c.n) != (mu.size, nu.size):
        raise ShapeMismatchError(
            f"cost matrix is {c.m}x{c.n} but marginals have sizes {mu.size} and {nu.size}"
        )
    eps_mass, eps_cost = thresholds(masses=(mu.weights, nu.weights), costs=c.rows)
    slack = (mu.size + nu.size) * eps_mass
    ta, tb = mu.total(), nu.total()
    if math.inf in (ta, tb):
        # Float totals overflowed, and inf - inf is NaN.  Scaling every
        # weight by 2**-k with 2**k above the point count keeps both sums
        # finite, and scaling by a power of two is exact.
        k = -(mu.size + nu.size).bit_length()
        sa, sb = (sum(math.ldexp(w, k) for w in x.weights) for x in (mu, nu))
        unbalanced = abs(sa - sb) > math.ldexp(slack, k)
        gap = 0 if unbalanced else math.ldexp(abs(sa - sb), -k)
    else:
        with float_range((ta, tb)):
            gap = abs(ta - tb)
        unbalanced = gap > slack
    if unbalanced:
        raise InfeasibleError(
            f"total masses differ: first marginal carries {ta!r}, second {tb!r}; "
            "no coupling has both for marginals"
        )
    mu_w, nu_w, rows, L, K = mu.weights, nu.weights, c.rows, 1, 1
    if not isinstance(eps_mass, float):
        L, K = common_denominator(mu_w, nu_w), common_denominator(*rows)
        mu_w, nu_w, rows = _times(mu_w, L), _times(nu_w, L), [_times(row, K) for row in rows]
    return _Instance(mu_w, nu_w, rows, L, K, eps_mass, eps_cost, slack, gap or 0)


def solve(mu: DiscreteMarginal, nu: DiscreteMarginal, c: CostMatrix) -> SolveReport:
    """Minimize sum of c[i][j] * mass(i, j) over couplings of (mu, nu).

    Returns a basic optimal solution (forest support), dual potentials with
    r[0] = 0 satisfying complementary slackness on the support, and both
    objective values.  Unbalanced or mismatched inputs raise; they are never
    repaired behind the caller's back.
    """
    return _solve(mu, nu, c, _check_instance(mu, nu, c))


def _solve(mu, nu, c, instance: _Instance) -> SolveReport:
    """:func:`solve` on ``instance``, the checked form of (mu, nu, c).  Exact
    data pivot as ints; masses are divided by L and potentials by K on the
    way out, and both objective values come from the caller's values."""
    m, n = mu.size, nu.size
    mu_w, nu_w, c_rows, L, K, eps_mass, pivot_tol, slack, gap = instance

    # Nodes: columns 0..n-1, rows n..n+m-1 and an artificial root m+n.  Arc
    # (i, j) runs from row n+i to column j.  The start joins every point to
    # the root: a point with nothing to receive (every row, and a column with
    # nu[j] = 0) by an arc toward the root of cost 0, any other column by an
    # arc away from it of cost ``art``.  Every arc carrying nothing then
    # points toward the root, so the tree is strongly feasible, and
    # ``art`` above any detour's saving keeps mass off the root at the end.
    root = m + n
    top = max(max(map(abs, row)) for row in c_rows)
    # Potentials and reduced costs stay below 8(m+n+1) times the largest
    # cost.  Float costs for which that bound would overflow are priced
    # scaled down by a power of two, which is exact, and the potentials are
    # scaled back at the end.
    shrink = max(0, math.frexp(top)[1] + (8 * (m + n + 1)).bit_length() - 1023) if pivot_tol else 0
    if shrink:
        c_rows = tuple(tuple(math.ldexp(v, -shrink) for v in row) for row in c_rows)
        top, pivot_tol = math.ldexp(top, -shrink), math.ldexp(pivot_tol, -shrink)
    art = 2 * (m + n + 1) * top if top else 1
    parent = [root] * (m + n) + [None]
    depth = [1] * (m + n) + [0]
    children = [[] for _ in range(m + n)] + [list(range(m + n))]
    flow = list(nu_w) + list(mu_w)  # mass on the arc to the parent
    up = [w == 0 for w in nu_w] + [True] * m  # that arc points to the parent
    pi = [0 if toward else art for toward in up] + [0]
    # The reduced cost of (i, j) is c[i][j] + pi[n + i] - pi[j].

    # Block search: price whole rows, about sqrt(m*n) arcs a block, going
    # round from where the last search stopped, and enter the most negative
    # reduced cost of the first block holding one below the pivot threshold.
    block = max(1, math.isqrt(m * n) // n)
    next_row = 0
    iterations = degenerate = 0
    while True:
        best, entering = -pivot_tol, None
        for step in range(m):
            i = (next_row + step) % m
            row = c_rows[i]
            low = min(map(sub, row, pi))
            if low + pi[n + i] < best:
                best = low + pi[n + i]
                entering = (i, list(map(sub, row, pi)).index(low))
            if entering is not None and (step + 1) % block == 0:
                break
        if entering is None:
            break
        next_row = (i + 1) % m
        iterations += 1

        # The cycle is the entering arc a -> b closed by the tree paths from
        # a and b up to their lowest common ancestor.  Mass moves down the
        # path to a and up the path from b.
        i, j = entering
        a, b = n + i, j
        u, v = a, b
        while u != v:
            if depth[u] >= depth[v]:
                u = parent[u]
            else:
                v = parent[v]
        join = u
        # Leaving arc: the last blocking arc met going round the cycle from
        # the join, which keeps the tree strongly feasible (Cunningham).
        delta, out, on_a_side = None, None, True
        u = a
        while u != join:
            if up[u] and (delta is None or flow[u] < delta):
                delta, out = flow[u], u
            u = parent[u]
        u = b
        while u != join:
            if not up[u] and (delta is None or flow[u] <= delta):
                delta, out, on_a_side = flow[u], u, False
            u = parent[u]
        if delta:
            u = a
            while u != join:
                flow[u] = flow[u] - delta if up[u] else flow[u] + delta
                u = parent[u]
            u = b
            while u != join:
                flow[u] = flow[u] + delta if up[u] else flow[u] - delta
                u = parent[u]
        else:
            degenerate += 1

        # Drop the arc above ``out`` and hang its subtree from the other end
        # of the entering arc, reversing the tree path between the two.
        w, above, carried = (a, b, delta) if on_a_side else (b, a, delta)
        top_of_subtree = w
        while True:
            old_parent, old_flow = parent[w], flow[w]
            children[old_parent].remove(w)
            children[above].append(w)
            parent[w], flow[w], up[w] = above, carried, w >= n
            if w == out:
                break
            w, above, carried = old_parent, w, old_flow
        # One shift over the re-hung subtree makes the entering arc tight.
        shift = -best if on_a_side else best
        stack = [top_of_subtree]
        while stack:
            w = stack.pop()
            pi[w] = pi[w] + shift
            depth[w] = depth[parent[w]] + 1
            stack.extend(children[w])

    # Pivots keep the net flow at the root, but the gap between the totals,
    # which the instance check bounds by ``slack``, may ride to it on real
    # arcs as well as on artificial ones.  As in the vertex oracle, masses
    # up to the mass threshold plus that gap are dust and are dropped.
    entries, stray = [], 0
    for u in range(m + n):
        p, w = parent[u], flow[u]
        if p == root:
            stray += w
        elif w > eps_mass + gap:
            entries.append((u - n, p, w) if u >= n else (p - n, u, w))
    if stray > slack:
        raise AssertionError(f"the artificial arcs still carry {stray!r}")
    entries.sort()
    q = [pi[0] - pi[n + i] for i in range(m)]
    r = [pi[j] - pi[0] for j in range(n)]
    if L > 1:
        entries = [(i, j, Fraction(w, L)) for i, j, w in entries]
    if K > 1:
        q, r = ([Fraction(x, K) for x in xs] for xs in (q, r))
    coupling = Coupling(m, n, tuple(entries))
    if shrink:
        try:
            q, r = ([math.ldexp(x, shrink) for x in xs] for xs in (q, r))
        except OverflowError:
            raise ValueError("the optimal potentials of these costs leave the float range") from None
    # Values of data near the edge of the float range may leave it.
    with float_range(mu.weights, nu.weights, *c.rows):
        primal = sum(c.rows[i][j] * w for i, j, w in entries) if entries else 0
        dual = sum(map(mul, q, mu.weights)) + sum(map(mul, r, nu.weights))
    return SolveReport(coupling, DualPotentials(q, r), primal, dual, iterations, degenerate)


def _times(values, s):
    """Exact ``values`` times ``s``, a multiple of each of their
    denominators, as ints."""
    return [v.numerator * (s // v.denominator) for v in values]


def c_transform(r: Sequence, c: CostMatrix) -> tuple:
    """Tightest row potentials compatible with ``r``:
    q[i] = min_j (c[i][j] - r[j])."""
    if len(r) != c.n:
        raise ShapeMismatchError(f"potential has {len(r)} entries but cost has {c.n} columns")
    with float_range(r, *c.rows):
        return tuple(min(row[j] - r[j] for j in range(c.n)) for row in c.rows)


def zero_set(c: CostMatrix, p: DualPotentials) -> SupportGraph:
    """Cells where the reduced cost c[i][j] - q[i] - r[j] vanishes (within
    the cost threshold of c, q and r; exactly, for exact data).  Every
    optimal coupling concentrates on this set, by complementary slackness.
    Infeasible potentials raise.  The threshold is never below the pivot
    threshold of :func:`solve`, so the potentials it returns are accepted."""
    if (len(p.q), len(p.r)) != (c.m, c.n):
        raise ShapeMismatchError(
            f"potentials have sizes {len(p.q)} and {len(p.r)} but cost is {c.m}x{c.n}"
        )
    _, eps = thresholds(costs=(p.q, p.r, *c.rows))
    edges = set()
    for i, row in enumerate(c.rows):
        qi = p.q[i]
        for j in range(c.n):
            rc = row[j] - qi - p.r[j]
            if rc < -eps:
                raise DualInfeasibleError(
                    f"potentials are infeasible at cell ({i}, {j}): reduced cost {rc!r}"
                )
            if rc <= eps:
                edges.add((i, j))
    return SupportGraph(c.m, c.n, frozenset(edges))


def _feasible_bases(nodes, edges, supplies, eps, gap, budget):
    """Yield the arc masses, as (edge, mass) pairs, of every spanning tree of
    a connected component whose flow is nonnegative and meets every supply;
    masses in [-eps - gap, 0) are clamped to 0.

    One walk over the sorted edges.  A leaf's one edge lies in every
    spanning tree of what is left and carries the leaf's remaining supply,
    so leaves are peeled, and a mass below ``-eps - gap`` prunes the
    branch.  Then the walk branches on the lowest undecided edge: keep it,
    unless it closes a cycle of kept edges, then delete it, unless that
    disconnects the component.  A finished tree counts when the one point
    left unpeeled has at most ``len(nodes) * eps + gap`` net supply, none on
    exact data.  ``gap`` bounds the gap between the instance's totals, which
    may sit in any point of the component and so in any leaf's mass.  State
    changes in place and is undone on return; each walk state is charged to
    ``budget``.
    """
    ends = sorted(edges)
    incident = {v: [] for v in nodes}
    for e, (u, v) in enumerate(ends):
        incident[u].append((e, v))
        incident[v].append((e, u))
    degree = {v: len(incident[v]) for v in nodes}
    net = {v: supplies[v] for v in nodes}
    alive = [True] * len(ends)  # neither deleted nor peeled
    kept = {v: v for v in nodes}  # union-find of kept edges
    tree = []  # peeled (leaf, edge, other end, mass, other end's net before)

    def peel(leaves):
        """Peel ``leaves`` and every leaf that exposes; False at a mass below -eps - gap."""
        while leaves:
            v = leaves.pop()
            if degree[v] == 1:
                e, u = next(pair for pair in incident[v] if alive[pair[0]])
                w = net[v]
                if w < 0:
                    if w < -eps - gap:
                        return False
                    w = 0
                tree.append((v, e, u, w, net[u]))
                alive[e], degree[v], degree[u], net[u] = False, 0, degree[u] - 1, net[u] - w
                if degree[u] == 1:
                    leaves.append(u)
        return True

    def bypassed(e, a, b):
        """True when ``a`` and ``b`` stay connected without edge ``e``."""
        seen, stack = {a}, [a]
        while stack:
            for f, u in incident[stack.pop()]:
                if alive[f] and f != e and u not in seen:
                    if u == b:
                        return True
                    seen.add(u)
                    stack.append(u)
        return False

    def walk(e):
        budget[0] -= 1
        if budget[0] < 0:
            raise SizeLimitError("optimal face has too many spanning-forest bases to enumerate")
        if len(tree) == len(nodes) - 1:
            # The other end of the last peeled edge is the one point left.
            if abs(net[tree[-1][2] if tree else nodes[0]]) <= len(nodes) * eps + gap:
                yield [(ends[f], w) for _, f, _, w, _ in tree]
            return
        while not alive[e]:  # a connected graph without leaves has an undecided edge
            e += 1
        a, b = ends[e]
        ra, rb = _root(kept, a), _root(kept, b)
        if ra != rb:
            kept[ra] = rb
            yield from walk(e + 1)
            kept[ra] = ra
        if ra == rb or bypassed(e, a, b):
            mark = len(tree)
            alive[e], degree[a], degree[b] = False, degree[a] - 1, degree[b] - 1
            if peel([a, b]):
                yield from walk(e + 1)
            while len(tree) > mark:
                v, f, u, _, old = tree.pop()
                alive[f], degree[v], degree[u], net[u] = True, 1, degree[u] + 1, old
            alive[e], degree[a], degree[b] = True, degree[a] + 1, degree[b] + 1

    if peel([v for v in nodes if degree[v] == 1]):
        yield from walk(0)


def _root(parent, v):
    """Union-find root of ``v``.  Paths are never compressed, so resetting
    the one link a union set undoes it."""
    while parent[v] != v:
        v = parent[v]
    return v


# Desk-scale guards of the oracle: the largest grid it accepts and the most
# walk states it visits.
ORACLE_MAX_CELLS = 64
ORACLE_MAX_BASES = 200000


def enumerate_optimal_vertices(mu: DiscreteMarginal, nu: DiscreteMarginal, c: CostMatrix) -> list:
    """All optimal basic feasible solutions of the transportation problem.

    The potentials of :func:`solve` pin down the zero set of reduced costs;
    by complementary slackness the optimal face consists of the feasible
    couplings supported inside the zero set of any optimal dual.
    Exhausting, component by component, the spanning trees of that
    subgraph whose flow is nonnegative and meets every supply lists every
    vertex of the face.  Such a flow proves the potentials optimal, by weak
    duality; were they not, some component would have no such tree and an
    ``AssertionError`` is raised.  On float data the totals may differ by
    up to the slack the instance check allows, and the gap between them
    can ride on any edge of a tree, so masses at or below the mass
    threshold plus that gap are dropped as dust; balanced totals add
    nothing, and exact data get neither.  Each vertex is listed once per
    support, and the list is sorted by entries.

    Refuses grids above ``ORACLE_MAX_CELLS`` cells and faces whose walk
    visits more than ``ORACLE_MAX_BASES`` states.
    """
    instance = _check_instance(mu, nu, c)
    m, n, eps_mass, gap = mu.size, nu.size, instance.eps_mass, instance.gap
    if m * n > ORACLE_MAX_CELLS:
        raise SizeLimitError(
            f"instance has {m * n} cells, above the oracle guard of {ORACLE_MAX_CELLS}"
        )

    potentials = _solve(mu, nu, c, instance).potentials
    zero_edges = [(i, m + j) for i, j in sorted(zero_set(c, potentials).edges)]

    # Connected components of the zero-set subgraph over all m+n nodes.
    parent = list(range(m + n))
    for u, v in zero_edges:
        parent[_root(parent, u)] = _root(parent, v)
    comp_nodes: dict = {}
    for v in range(m + n):
        comp_nodes.setdefault(_root(parent, v), []).append(v)
    comp_edges: dict = {root: [] for root in comp_nodes}
    for u, v in zero_edges:
        comp_edges[_root(parent, u)].append((u, v))

    # Exact supplies are walked as ints, times L, which keeps every sign and
    # order; the masses of the listed vertices are divided back at the end.
    supplies = instance.mu + instance.nu
    budget = [ORACLE_MAX_BASES]
    per_component = []
    for root, nodes in sorted(comp_nodes.items()):
        # A vertex is fixed by its support, a forest; keyed by support, float
        # copies of one vertex that differ in the last digits count once.
        options = {}
        for masses in _feasible_bases(nodes, comp_edges[root], supplies, eps_mass, gap, budget):
            entries = tuple(sorted((u, v - m, w) for (u, v), w in masses if w > eps_mass + gap))
            options.setdefault(tuple(cell[:2] for cell in entries), entries)
        if not options:
            raise AssertionError("every component of the zero set supports an optimal restriction")
        per_component.append(sorted(options.values()))

    vertices = []
    for combo in product(*per_component):
        merged = []
        for part in combo:
            merged.extend(part)
        vertices.append(sorted(merged))
    vertices.sort()
    if instance.L > 1:
        vertices = [[(i, j, Fraction(w, instance.L)) for i, j, w in entries] for entries in vertices]
    return [Coupling(m, n, tuple(entries)) for entries in vertices]


def is_unique_optimum(mu: DiscreteMarginal, nu: DiscreteMarginal, c: CostMatrix) -> bool:
    """True iff the optimal face is a single point.

    The face is a bounded polytope, hence the convex hull of its vertices:
    one vertex means the face is that vertex, two or more mean a whole
    segment of optima.
    """
    return len(enumerate_optimal_vertices(mu, nu, c)) == 1
