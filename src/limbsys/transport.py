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
by another, and the instance check makes that its one scaling rule: exact
masses and costs become ints times L and K, the lcms of their denominators
(``measures.exact_ints``), and float data near the float maximum are
multiplied by L = 2**-a and K = 2**-b, which is exact
(``measures.edge_scaled``; a and b are 0 elsewhere).  The simplex runs on
that instance alone; masses are divided back by L, potentials by K and both
objective values, summed on the scaled data, by L·K, once each.  The balance
check is one comparison of the scaled totals.

The optimal-vertex oracle lists the whole optimal face.  By complementary
slackness every optimal dual cuts out the same face: the feasible couplings
supported on the zero set of its reduced costs.  So the oracle cuts that
zero set with the simplex's potentials, in the scaled units, which change no
comparison, reading nothing back, and one peel-and-branch walk per component
lists every spanning tree whose flow is nonnegative, pruning a branch at its
first negative leaf mass, at a point that has sent more than its mass
allows, or at a point the peel strands.  A tree counts only when the point
left unpeeled in its component carries no net supply, so every vertex listed
is a coupling on the zero set.  That proves the potentials: a feasible
coupling on the zero set of feasible potentials has the dual value as its
cost, so both are optimal (weak duality), and potentials that are not
optimal leave some component with no tree and raise.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from itertools import chain, product
from operator import mul, sub, truediv

from .errors import (
    DualInfeasibleError,
    InfeasibleError,
    LimbsysError,
    ShapeMismatchError,
    SizeLimitError,
    SuboptimalPotentialsError,
)
from .extremality import SupportGraph
from .measures import Coupling, CostMatrix, DiscreteMarginal, Record, _is_finite_number, edge_scaled, exact_ints
from .measures import magnitudes, thresholds, thresholds_of

__all__ = [
    "DualPotentials",
    "SolveReport",
    "solve",
    "zero_set",
    "enumerate_optimal_vertices",
    "is_unique_optimum",
]


class DualPotentials(Record):
    """Kantorovich dual pair: q per row point, r per column point.

    Feasible when c[i][j] - q[i] - r[j] is nonnegative, within the cost
    threshold, everywhere; the solver normalizes the one-dimensional gauge
    freedom by r[0] = 0.
    """

    def __init__(self, q: tuple, r: tuple):
        self._store(q=_finite("q", q), r=_finite("r", r))


def _finite(name, values) -> tuple:
    """``values`` as a tuple; ValueError names the first entry of ``name``
    that is not a finite number."""
    values = tuple(values)
    for i, x in enumerate(values):
        if not _is_finite_number(x):
            raise ValueError(f"potential {name} at index {i} is not a finite number: {x!r}")
    return values


class SolveReport(Record):
    """An optimal coupling, its potentials and both objective values.

    ``iterations`` counts the simplex pivots and ``degenerate_pivots`` those
    of them that moved no mass.
    """

    def __init__(self, coupling: Coupling, potentials: DualPotentials, primal_value, dual_value,
                 iterations: int, degenerate_pivots: int):
        self._store(coupling=coupling, potentials=potentials, primal_value=primal_value,
                    dual_value=dual_value, iterations=iterations, degenerate_pivots=degenerate_pivots)


class _Instance(namedtuple("_Instance", "mu nu rows L K unit eps_mass eps_cost slack gap top")):
    """A checked instance as the loops run it: the masses and the costs
    multiplied by ``L`` and ``K``, ints times the lcms of their denominators
    on exact data (``measures.exact_ints``), floats times powers of two on
    float data (2**-a and 2**-b of ``measures.edge_scaled``), None where
    nothing is scaled; ``unit``, which divides a result back by L or K
    (``Fraction`` on exact data); the (mass, cost) thresholds; the gap
    allowed between the totals, and the gap between them; the largest |cost|
    of ``rows``.  All but ``unit`` are in the scaled units."""

    __slots__ = ()


def _check_instance(mu: DiscreteMarginal, nu: DiscreteMarginal, c: CostMatrix) -> _Instance:
    """Reject mismatched shapes and unbalanced totals; return the instance
    the loops run on."""
    if (c.m, c.n) != (mu.size, nu.size):
        raise ShapeMismatchError(
            f"cost matrix is {c.m}x{c.n} but marginals have sizes {mu.size} and {nu.size}"
        )
    tops = magnitudes(masses=(mu.weights, nu.weights), costs=c.rows)
    eps_mass, eps_cost = thresholds_of(tops)
    if tops is None:
        (mu_w, nu_w), L = exact_ints(mu.weights, nu.weights)
        rows, K = exact_ints(*c.rows)
        unit, top = Fraction, max(max(map(abs, row)) for row in rows)
    else:
        # Flows stay below the total mass and potentials below 8(m+n+1)
        # times the largest cost, so data within 16(m+n+1) of the float
        # maximum run scaled down.
        factor = 16 * (mu.size + nu.size + 1)
        (mu_w, nu_w), L = edge_scaled(factor, tops[:1], mu.weights, nu.weights)
        rows, K = edge_scaled(factor, tops[1:], *c.rows)
        unit, eps_mass, eps_cost, top = truediv, eps_mass * (L or 1), eps_cost * (K or 1), tops[1] * (K or 1)
    slack = (mu.size + nu.size) * eps_mass
    gap = abs(sum(mu_w) - sum(nu_w))
    if gap > slack:
        raise InfeasibleError(
            f"total masses differ: first marginal carries {mu.total()!r}, second {nu.total()!r}; "
            "no coupling has both for marginals"
        )
    return _Instance(mu_w, nu_w, rows, L, K, unit, eps_mass, eps_cost, slack, gap, top)


def _simplex(instance: _Instance) -> tuple:
    """The pivots of :func:`solve` on ``instance``, the dust filter and the
    stray-flow check: the sorted (i, j, mass) entries, q, r, the pivot count
    and the degenerate pivots, in the scaled units of ``instance``."""
    mu_w, nu_w, c_rows, _, _, _, eps_mass, pivot_tol, slack, gap, top = instance
    m, n = len(mu_w), len(nu_w)

    # Nodes: columns 0..n-1, rows n..n+m-1 and an artificial root m+n.  Arc
    # (i, j) runs from row n+i to column j.  The start joins every point to
    # the root: a point with nothing to receive (every row, and a column with
    # nu[j] = 0) by an arc toward the root of cost 0, any other column by an
    # arc away from it of cost ``art``.  Every arc carrying nothing then
    # points toward the root, so the tree is strongly feasible, and
    # ``art`` above any detour's saving keeps mass off the root at the end.
    root = m + n
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
    # reduced cost of the first block holding one below the pivot threshold,
    # found in the one list of reduced costs kept for the block's best row.
    block = max(1, math.isqrt(m * n) // n)
    next_row = 0
    iterations = degenerate = 0
    while True:
        best, entering = -pivot_tol, None
        for step in range(m):
            i = (next_row + step) % m
            reduced = list(map(sub, c_rows[i], pi))
            low = min(reduced)
            if low + pi[n + i] < best:
                best, entering = low + pi[n + i], (i, reduced, low)
            if entering is not None and (step + 1) % block == 0:
                break
        if entering is None:
            break
        next_row = (i + 1) % m
        iterations += 1

        # The cycle is the entering arc a -> b closed by the tree paths from
        # a and b up to their lowest common ancestor, the join.  Mass moves
        # down the path to a and up the path from b.  The leaving arc is the
        # last blocking arc met going round the cycle from the join, which
        # keeps the tree strongly feasible (Cunningham): the one climb to the
        # join keeps the first smallest of the a side, nearest a, and the
        # last smallest of the b side, nearest the join, which wins a tie.
        i, reduced, low = entering
        a, b = n + i, reduced.index(low)
        u, v = a, b
        delta_a = delta_b = None
        while u != v:
            if depth[u] >= depth[v]:
                if up[u] and (delta_a is None or flow[u] < delta_a):
                    delta_a, out_a = flow[u], u
                u = parent[u]
            else:
                if not up[v] and (delta_b is None or flow[v] <= delta_b):
                    delta_b, out_b = flow[v], v
                v = parent[v]
        join = u
        on_a_side = delta_b is None or (delta_a is not None and delta_a < delta_b)
        delta, out = (delta_a, out_a) if on_a_side else (delta_b, out_b)
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
        # Past m + n mass thresholds, some root arc carries more than one.
        carriers = (u for u in sorted(children[root]) if abs(flow[u]) > eps_mass)
        points = (f"row {u - n}" if u >= n else f"column {u}" for u in carriers)
        raise LimbsysError(f"the artificial arcs still carry {stray!r}, at {', '.join(points)}")
    entries.sort()
    q = [pi[0] - pi[n + i] for i in range(m)]
    r = [pi[j] - pi[0] for j in range(n)]
    return entries, q, r, iterations, degenerate


def solve(mu: DiscreteMarginal, nu: DiscreteMarginal, c: CostMatrix) -> SolveReport:
    """Minimize sum of c[i][j] * mass(i, j) over couplings of (mu, nu).

    Returns a basic optimal solution (forest support), dual potentials with
    r[0] = 0 satisfying complementary slackness on the support, and both
    objective values.  Unbalanced or mismatched inputs raise; they are never
    repaired behind the caller's back, and an optimum value or potentials
    beyond the float range raise ValueError.  The pivots run on the checked
    instance; masses, potentials and both values are divided back once each.
    """
    instance = _check_instance(mu, nu, c)
    entries, q, r, iterations, degenerate = _simplex(instance)
    mu_w, nu_w, c_rows, L, K, unit, _, _, _, _, top = instance
    m, n = len(mu_w), len(nu_w)
    # Float sums whose terms could overflow run over masses scaled down by D.
    exact, D = unit is Fraction, None
    costs, flows = [c_rows[i][j] for i, j, _ in entries], [w for _, _, w in entries]
    if not exact:
        tops = max(top, *map(abs, q + r)), max(*mu_w, *nu_w)
        (flows, mu_w, nu_w), D = edge_scaled(m + n, tops, flows, mu_w, nu_w)
    primal = sum(map(mul, costs, flows)) if entries or exact else 0.0
    dual = sum(map(mul, q, mu_w)) + sum(map(mul, r, nu_w))
    if L or K or D:
        scale = (L or 1) * (K or 1) * (D or 1)
        primal, dual = unit(primal, scale), unit(dual, scale)
    if L:
        entries = [(i, j, unit(w, L)) for i, j, w in entries]
    if K:
        q, r = ([unit(x, K) for x in xs] for xs in (q, r))
    try:
        potentials = DualPotentials(q, r)
    except ValueError:
        raise ValueError("the optimal potentials of these costs leave the float range") from None
    if not (_is_finite_number(primal) and _is_finite_number(dual)):
        raise ValueError(
            f"the optimum value of these data leaves the float range: primal {primal!r}, dual {dual!r}"
        )
    return SolveReport(Coupling(m, n, tuple(entries)), potentials, primal, dual, iterations, degenerate)


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
    return SupportGraph(c.m, c.n, _zero_cells(c.rows, p.q, p.r))


def _zero_cells(rows, q, r) -> list:
    """Row-major cells whose reduced cost rows[i][j] - q[i] - r[j] is within
    the cost threshold of all three, 0 on exact data; one below minus it raises."""
    _, eps = thresholds(costs=(q, r, *rows))
    cells = []
    for i, (row, qi) in enumerate(zip(rows, q)):
        for j, (cost, rj) in enumerate(zip(row, r)):
            rc = cost - qi - rj
            if rc < -eps:
                raise DualInfeasibleError(
                    f"potentials are infeasible at cell ({i}, {j}): reduced cost {rc!r}"
                )
            if rc <= eps:
                cells.append((i, j))
    return cells


def _feasible_bases(nodes, edges, supplies, eps, gap, budget) -> list:
    """The arc masses, as lists of (edge, mass) pairs, of every spanning tree
    of a connected component whose flow is nonnegative and meets every
    supply; masses in [-eps - gap, 0) are clamped to 0.

    One walk over the edges, which come sorted.  A leaf's one edge lies in
    every spanning tree of what is left and carries the leaf's remaining
    supply, so leaves are peeled, and a mass below ``-eps - gap`` prunes
    the branch; so does a point stranded with no edge while others stand,
    as the component has come apart.  Then the walk branches on the lowest
    undecided edge: keep it, unless it closes a cycle of kept edges, then
    delete it.  A finished tree counts when the one point left unpeeled has
    at most ``tol = len(nodes) * eps + gap`` net supply, none on exact data.
    ``gap`` bounds the gap between the instance's totals, which may sit in
    any point of the component and so in any leaf's mass.  Clamped masses
    are never negative, so a point's net supply only falls; one below
    ``-tol <= -eps - gap`` can neither peel nor be left last, and prunes at
    once, losing no tree.  Points are numbered 0..k-1 in the order of
    ``nodes``; state changes in place and is undone on return; each walk
    state is charged to ``budget``.  A path deciding over
    ``ORACLE_MAX_DEPTH`` edges, one frame each, is refused."""
    k = len(nodes)
    local = {v: x for x, v in enumerate(nodes)}
    ends = [(local[u], local[v]) for u, v in edges]
    incident = [[] for _ in range(k)]
    for e, (a, b) in enumerate(ends):
        incident[a].append((e, b))
        incident[b].append((e, a))
    degree = [len(pairs) for pairs in incident]
    net = [supplies[v] for v in nodes]
    alive = [True] * len(edges)  # neither deleted nor peeled
    kept = list(range(k))  # union-find of kept edges, uncompressed: one reset undoes a union
    tree = []  # peeled (leaf, edge, other end, mass, other end's net before)
    floor, tol, last = -eps - gap, k * eps + gap, k - 1
    found = []

    def peel(leaves):
        """Peel ``leaves`` and every leaf that exposes; False at a mass below
        -eps - gap or at a stranded point."""
        while leaves:
            v = leaves.pop()
            if degree[v] == 1:
                for e, u in incident[v]:
                    if alive[e]:
                        break
                w = net[v]
                if w < 0:
                    if w < floor:
                        return False
                    w = 0
                tree.append((v, e, u, w, net[u]))
                alive[e] = False
                degree[v] = 0
                degree[u] -= 1
                net[u] -= w
                if net[u] < -tol:
                    return False
                if degree[u] == 1:
                    leaves.append(u)
                elif degree[u] == 0 and len(tree) < last:
                    return False
        return True

    def walk(e, depth):
        budget[0] -= 1
        if budget[0] < 0:
            raise SizeLimitError("optimal face has too many spanning-forest bases to enumerate")
        if depth > ORACLE_MAX_DEPTH:
            raise SizeLimitError(f"optimal face needs more than {ORACLE_MAX_DEPTH} nested edge decisions")
        if len(tree) == last:
            # The other end of the last peeled edge is the one point left.
            if abs(net[tree[-1][2] if tree else 0]) <= tol:
                found.append([(edges[f], w) for _, f, _, w, _ in tree])
            return
        # Every standing point keeps two alive edges, so they hold a cycle,
        # which kept edges never close: an undecided edge remains.
        while not alive[e]:
            e += 1
        a, b = ends[e]
        ra, rb = a, b
        while kept[ra] != ra:
            ra = kept[ra]
        while kept[rb] != rb:
            rb = kept[rb]
        if ra != rb:
            kept[ra] = rb
            walk(e + 1, depth + 1)
            kept[ra] = ra
        mark = len(tree)
        alive[e] = False
        degree[a] -= 1
        degree[b] -= 1
        if (degree[a] > 1 and degree[b] > 1) or peel([a, b]):
            walk(e + 1, depth + 1)
        while len(tree) > mark:
            v, f, u, _, old = tree.pop()
            alive[f], degree[v], net[u] = True, 1, old
            degree[u] += 1
        alive[e] = True
        degree[a] += 1
        degree[b] += 1

    if peel([v for v in range(k) if degree[v] == 1]):
        walk(0, 0)
    return found


# Desk-scale guards of the oracle: the most walk states it visits and cells
# it lists; the most edges it decides on one path, well inside 1,000 frames.
ORACLE_MAX_BASES = 200000
ORACLE_MAX_DEPTH = 500


def _face_components(mu: DiscreteMarginal, nu: DiscreteMarginal, c: CostMatrix) -> tuple:
    """The checked instance and, per zero-set component in label order, its
    options: each vertex of the face on it, once per support, as sorted
    entries in the scaled units; the options sorted."""
    instance = _check_instance(mu, nu, c)
    m, eps_mass, gap = mu.size, instance.eps_mass, instance.gap
    _, q, r, _, _ = _simplex(instance)
    zero_edges = [(i, m + j) for i, j in _zero_cells(instance.rows, q, r)]

    # Zero-set components over all m+n nodes, by relabelling: one (nodes, edges) each.
    label = list(range(m + nu.size))
    for u, v in zero_edges:
        if label[u] != label[v]:
            old = label[u]
            label = [label[v] if x == old else x for x in label]
    components: dict = {}
    for v, x in enumerate(label):
        components.setdefault(x, ([], []))[0].append(v)
    for u, v in zero_edges:
        components[label[u]][1].append((u, v))

    # Supplies stay in the scaled units, ints on exact data, which keep every sign and order.
    supplies = instance.mu + instance.nu
    budget = [ORACLE_MAX_BASES]
    per_component = []
    for _, (nodes, edges) in sorted(components.items()):
        # A vertex is fixed by its support, a forest; keyed by support, float
        # copies of one vertex that differ in the last digits count once.
        options = {}
        for masses in _feasible_bases(nodes, edges, supplies, eps_mass, gap, budget):
            entries = tuple(sorted((u, v - m, w) for (u, v), w in masses if w > eps_mass + gap))
            options.setdefault(tuple(cell[:2] for cell in entries), entries)
        if not options:
            points = ", ".join(f"row {v}" if v < m else f"column {v - m}" for v in nodes)
            raise SuboptimalPotentialsError(
                f"potentials are not optimal: no flow on their zero set meets the masses of {points}"
            )
        per_component.append(sorted(options.values()))
    return instance, per_component


def enumerate_optimal_vertices(mu: DiscreteMarginal, nu: DiscreteMarginal, c: CostMatrix) -> list:
    """All optimal basic feasible solutions of the transportation problem.

    The potentials of the simplex pin down the zero set of reduced costs;
    by complementary slackness the optimal face consists of the feasible
    couplings supported inside the zero set of any optimal dual.
    Exhausting, component by component, the spanning trees of that
    subgraph whose flow is nonnegative and meets every supply lists the
    options of each component, whose products are the face's vertices.
    Such a flow proves the potentials optimal, by weak duality; were they
    not, some component would have no such tree and
    :class:`SuboptimalPotentialsError` names its points.  On float data the
    totals may differ by up to the slack the instance check allows, and the
    gap between them can ride on any edge of a tree, so masses at or below
    the mass threshold plus that gap are dropped as dust; balanced totals
    add nothing, and exact data get neither.  Each vertex is listed once per
    support, and the list is sorted by entries.

    Masses are typed as by :func:`solve`.  Refuses, before listing, faces
    whose walk visits over ``ORACLE_MAX_BASES`` states or decides over
    ``ORACLE_MAX_DEPTH`` edges on one path, or whose vertices times m + n - 1
    cells each pass ``ORACLE_MAX_BASES``.
    """
    instance, per_component = _face_components(mu, nu, c)
    m, n, L, unit = mu.size, nu.size, instance.L, instance.unit
    count = math.prod(map(len, per_component))
    if count * (m + n - 1) > ORACLE_MAX_BASES:
        raise SizeLimitError(f"{count} optimal vertices of up to {m + n - 1} cells are too many to list")
    if L:
        # A component's options share most entries: each is divided back once.
        back = {e: (e[0], e[1], unit(e[2], L)) for parts in per_component for e in set(chain(*parts))}
        per_component = [[[back[e] for e in part] for part in parts] for parts in per_component]
    # Components hold disjoint cells, so a merged vertex sorts by cell alone.
    vertices = sorted(sorted(chain.from_iterable(combo)) for combo in product(*per_component))
    return [Coupling(m, n, tuple(entries)) for entries in vertices]


def is_unique_optimum(mu: DiscreteMarginal, nu: DiscreteMarginal, c: CostMatrix) -> bool:
    """True iff the optimal face is a single point: each zero-set component
    has one option.  Nothing is listed, so only the walk's guards refuse.

    The face is a bounded polytope, hence the convex hull of its vertices:
    one vertex means the face is that vertex, two or more mean a whole
    segment of optima.
    """
    return all(len(parts) == 1 for parts in _face_components(mu, nu, c)[1])
