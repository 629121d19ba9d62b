"""Kantorovich transportation problems on finite marginals.

The solver is a primal network simplex on the bipartite transportation
graph: northwest-corner start, Bland's anti-cycling pivot rule, basis kept
as a spanning tree.  With exact (int/Fraction) data every comparison is
exact and the returned optimum is exact; with floats the pivot threshold and
the dust below which masses are dropped scale with the largest cost and the
largest mass of the instance (``measures.thresholds``).

The optimal-vertex oracle is deliberately a different algorithm: optimal
dual potentials come from a successive-shortest-path solver, the zero set of
their reduced costs cuts out the optimal face, and every spanning-forest
basis of that subgraph is enumerated exhaustively.  The two routes share no
code beyond the data types, the instance check and the tolerance rule (the
simplex walks basis paths with ``tree_path``, the oracle splits components
with ``find``), so they can check each other.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import product
from typing import Sequence

from ._forest import find, tree_path
from .errors import (
    DualInfeasibleError,
    InfeasibleError,
    ShapeMismatchError,
    SizeLimitError,
)
from .extremality import SupportGraph
from .measures import Coupling, CostMatrix, DiscreteMarginal, thresholds

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
    coupling: Coupling
    potentials: DualPotentials
    primal_value: object
    dual_value: object
    iterations: int


def _check_instance(mu: DiscreteMarginal, nu: DiscreteMarginal, c: CostMatrix):
    """Reject mismatched shapes and unbalanced totals; return the instance's
    (mass, cost) thresholds."""
    if (c.m, c.n) != (mu.size, nu.size):
        raise ShapeMismatchError(
            f"cost matrix is {c.m}x{c.n} but marginals have sizes {mu.size} and {nu.size}"
        )
    eps_mass, eps_cost = thresholds(masses=(mu.weights, nu.weights), costs=c.rows)
    slack = (mu.size + nu.size) * eps_mass
    ta, tb = mu.total(), nu.total()
    gap = abs(ta - tb)
    if math.isinf(ta) or math.isinf(tb):
        # Float totals overflowed, and inf - inf is NaN.  Scaling every
        # weight by 2**-k with 2**k above the point count keeps both sums
        # finite, and scaling by a power of two is exact.
        k = -(mu.size + nu.size).bit_length()
        sa, sb = (sum(math.ldexp(w, k) for w in x.weights) for x in (mu, nu))
        gap = abs(sa - sb)
        slack = math.ldexp(slack, k)
    if gap > slack:
        raise InfeasibleError(
            f"total masses differ: first marginal carries {ta!r}, second {tb!r}; "
            "no coupling has both for marginals"
        )
    return eps_mass, eps_cost


def _northwest_corner(mu, nu):
    """Initial basic solution: m+n-1 arcs forming a spanning staircase tree,
    including degenerate zero arcs when a row and column exhaust together."""
    m, n = len(mu), len(nu)
    rem_a, rem_b = list(mu), list(nu)
    flows = {}
    i = j = 0
    while True:
        t = rem_a[i] if rem_a[i] <= rem_b[j] else rem_b[j]
        flows[(i, j)] = t
        rem_a[i] = rem_a[i] - t
        rem_b[j] = rem_b[j] - t
        if i == m - 1 and j == n - 1:
            break
        if rem_a[i] == 0 and i < m - 1:
            i += 1
        elif j < n - 1:
            j += 1
        else:
            i += 1
    return flows


def _tree_potentials(m, n, c_rows, adjacency):
    """Solve q[i] + r[j] = c[i][j] over the basis tree, rooted at column 0
    with r[0] = 0.  Nodes are rows 0..m-1 and columns m..m+n-1."""
    q = [None] * m
    r = [None] * n
    r[0] = 0
    stack = [m]
    seen = {m}
    while stack:
        u = stack.pop()
        for v in adjacency[u]:
            if v in seen:
                continue
            seen.add(v)
            if u >= m:  # column -> row
                q[v] = c_rows[v][u - m] - r[u - m]
            else:  # row -> column
                r[v - m] = c_rows[u][v - m] - q[u]
            stack.append(v)
    return q, r


def solve(mu: DiscreteMarginal, nu: DiscreteMarginal, c: CostMatrix) -> SolveReport:
    """Minimize sum of c[i][j] * mass(i, j) over couplings of (mu, nu).

    Returns a basic optimal solution (forest support), dual potentials with
    r[0] = 0 satisfying complementary slackness on the support, and both
    objective values.  Unbalanced or mismatched inputs raise; they are never
    repaired behind the caller's back.
    """
    eps_mass, pivot_tol = _check_instance(mu, nu, c)
    m, n = mu.size, nu.size
    c_rows = c.rows

    flows = _northwest_corner(mu.weights, nu.weights)
    adjacency = {u: set() for u in range(m + n)}
    for (i, j) in flows:
        adjacency[i].add(m + j)
        adjacency[m + j].add(i)

    max_pivots = 1000 + 20 * m * n
    iterations = 0
    while True:
        q, r = _tree_potentials(m, n, c_rows, adjacency)
        entering = None
        for i in range(m):
            qi = q[i]
            row = c_rows[i]
            for j in range(n):
                if row[j] - qi - r[j] < -pivot_tol:
                    entering = (i, j)
                    break
            if entering is not None:
                break
        if entering is None:
            break

        iterations += 1
        if iterations > max_pivots:
            raise RuntimeError("network simplex exceeded its pivot budget; data may be pathological")

        i, j = entering
        path = tree_path(adjacency, i, m + j)
        # Entering arc gains t; walking the tree path from the entering row,
        # arcs alternately lose and gain, starting with a loss.
        cycle = []
        for t in range(len(path) - 1):
            u, v = path[t], path[t + 1]
            arc = (u, v - m) if u < m else (v, u - m)
            cycle.append((arc, -1 if t % 2 == 0 else 1))

        theta, leaving = None, None
        for arc, sign in cycle:
            if sign == -1:
                f = flows[arc]
                if theta is None or f < theta or (f == theta and arc < leaving):
                    theta, leaving = f, arc
        for arc, sign in cycle:
            flows[arc] = flows[arc] + sign * theta
        flows[(i, j)] = theta
        del flows[leaving]
        adjacency[leaving[0]].discard(m + leaving[1])
        adjacency[m + leaving[1]].discard(leaving[0])
        adjacency[i].add(m + j)
        adjacency[m + j].add(i)

    q, r = _tree_potentials(m, n, c_rows, adjacency)
    entries = [(i, j, w) for (i, j), w in sorted(flows.items()) if w > eps_mass]
    coupling = Coupling(m, n, tuple(entries))
    primal = sum(c_rows[i][j] * w for i, j, w in entries) if entries else 0
    dual = sum(qi * wi for qi, wi in zip(q, mu.weights)) + sum(
        rj * wj for rj, wj in zip(r, nu.weights)
    )
    return SolveReport(coupling, DualPotentials(tuple(q), tuple(r)), primal, dual, iterations)


def c_transform(r: Sequence, c: CostMatrix) -> tuple:
    """Tightest row potentials compatible with ``r``:
    q[i] = min_j (c[i][j] - r[j])."""
    if len(r) != c.n:
        raise ShapeMismatchError(f"potential has {len(r)} entries but cost has {c.n} columns")
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


# ---------------------------------------------------------------------------
# Independent oracle: successive shortest paths, then the optimal face.
# ---------------------------------------------------------------------------


def _ssp_duals(mu, nu, c_rows, stop):
    """Optimal dual potentials by successive shortest augmenting paths.

    Maintains node potentials keeping residual reduced costs nonnegative,
    so each augmentation is a Dijkstra run.  Supplies and demands at or
    below ``stop`` count as met.  Exact with Fraction data.
    """
    m, n = len(mu), len(nu)
    rem_a, rem_b = list(mu), list(nu)
    flows: dict = {}

    pi_row = [0] * m
    pi_col = [min(c_rows[i][j] for i in range(m)) for j in range(n)]

    budget = 10000 + 10 * m * n
    while any(w > stop for w in rem_a):
        budget -= 1
        if budget < 0:
            raise RuntimeError("shortest-path solver exceeded its augmentation budget")

        dist = {}
        parent = {}
        heap = []
        counter = 0
        for i, w in enumerate(rem_a):
            if w > stop:
                dist[i] = 0
                heapq.heappush(heap, (0, counter, i))
                counter += 1
        settled = set()
        target = None
        while heap:
            d, _, u = heapq.heappop(heap)
            if u in settled:
                continue
            settled.add(u)
            if u >= m and rem_b[u - m] > stop:
                target = u
                break
            if u < m:
                base = c_rows[u]
                for j in range(n):
                    w = base[j] + pi_row[u] - pi_col[j]
                    if w < 0:
                        w = 0  # float round-off only; exact data keeps w >= 0
                    nd = d + w
                    v = m + j
                    if v not in settled and (v not in dist or nd < dist[v]):
                        dist[v] = nd
                        parent[v] = u
                        heapq.heappush(heap, (nd, counter, v))
                        counter += 1
            else:
                j = u - m
                for (i, jj), f in flows.items():
                    if jj != j or f <= 0:
                        continue
                    w = -c_rows[i][j] + pi_col[j] - pi_row[i]
                    if w < 0:
                        w = 0
                    nd = d + w
                    if i not in settled and (i not in dist or nd < dist[i]):
                        dist[i] = nd
                        parent[i] = u
                        heapq.heappush(heap, (nd, counter, i))
                        counter += 1
        if target is None:
            raise AssertionError("augmenting path must exist on a balanced instance")

        d_target = dist[target]
        for u in range(m):
            du = dist.get(u)
            shift = d_target if du is None or du > d_target else du
            pi_row[u] = pi_row[u] + shift
        for j in range(n):
            du = dist.get(m + j)
            shift = d_target if du is None or du > d_target else du
            pi_col[j] = pi_col[j] + shift

        # Trace the path and find the bottleneck.
        path = [target]
        while path[-1] in parent:
            path.append(parent[path[-1]])
        path.reverse()
        source, sink = path[0], path[-1] - m
        delta = rem_a[source]
        if rem_b[sink] < delta:
            delta = rem_b[sink]
        for t in range(len(path) - 1):
            u, v = path[t], path[t + 1]
            if u >= m:  # backward arc: flow on (v, u-m) decreases
                f = flows[(v, u - m)]
                if f < delta:
                    delta = f
        rem_a[source] = rem_a[source] - delta
        rem_b[sink] = rem_b[sink] - delta
        for t in range(len(path) - 1):
            u, v = path[t], path[t + 1]
            if u < m:
                arc = (u, v - m)
                flows[arc] = flows.get(arc, 0) + delta
            else:
                arc = (v, u - m)
                left = flows[arc] - delta
                if left <= 0:
                    del flows[arc]
                else:
                    flows[arc] = left

    q = tuple(-p for p in pi_row)
    r = tuple(pi_col)
    return q, r


def _spanning_trees(nodes, edges, budget):
    """Yield every spanning tree of a connected component, as a tuple of
    edges, by ordered backtracking over the canonical edge list."""
    want = len(nodes) - 1
    if want == 0:
        yield ()
        return
    edges = sorted(edges)

    def extend(start, chosen, parents):
        budget[0] -= 1
        if budget[0] < 0:
            raise SizeLimitError("optimal face has too many spanning-forest bases to enumerate")
        if len(chosen) == want:
            yield tuple(chosen)
            return
        if len(chosen) + (len(edges) - start) < want:
            return
        for k in range(start, len(edges)):
            u, v = edges[k]
            ru, rv = find(parents, u), find(parents, v)
            if ru == rv:
                continue
            nxt = dict(parents)
            nxt[ru] = rv
            chosen.append(edges[k])
            yield from extend(k + 1, chosen, nxt)
            chosen.pop()

    yield from extend(0, [], {v: v for v in nodes})


def _tree_flow(tree_edges, supplies, eps):
    """Unique mass assignment on a tree basis, by leaf peeling.

    Returns the arc masses, or None when some mass comes out below ``-eps``,
    in which case the basis is infeasible; smaller negatives are clamped.
    """
    net = dict(supplies)
    degree = {v: 0 for v in net}
    incident = {v: [] for v in net}
    for e in tree_edges:
        u, v = e
        degree[u] += 1
        degree[v] += 1
        incident[u].append(e)
        incident[v].append(e)
    alive = set(tree_edges)
    leaves = [v for v, d in degree.items() if d == 1]
    masses = {}
    while leaves:
        v = leaves.pop()
        edge = next((e for e in incident[v] if e in alive), None)
        if edge is None:
            continue
        w = net[v]
        if w < -eps:
            return None
        if w < 0:
            w = 0
        masses[edge] = w
        alive.discard(edge)
        other = edge[0] if edge[1] == v else edge[1]
        net[other] = net[other] - w
        net[v] = 0
        degree[other] -= 1
        if degree[other] == 1:
            leaves.append(other)
    return masses


def enumerate_optimal_vertices(
    mu: DiscreteMarginal,
    nu: DiscreteMarginal,
    c: CostMatrix,
    max_cells: int = 64,
    max_bases: int = 200000,
) -> list:
    """All optimal basic feasible solutions of the transportation problem.

    Dual potentials from the shortest-path solver pin down the zero set of
    reduced costs; by complementary slackness the optimal face consists of
    the feasible couplings supported inside it.  Exhausting the
    spanning-forest bases of that subgraph, component by component, lists
    every vertex of the face.  Deduplicated and deterministically ordered.

    Desk-scale guard: refuses grids above ``max_cells`` cells and faces with
    more than ``max_bases`` bases to examine.
    """
    eps_mass, eps_cost = _check_instance(mu, nu, c)
    m, n = mu.size, nu.size
    if m * n > max_cells:
        raise SizeLimitError(f"instance has {m * n} cells, above the oracle guard of {max_cells}")

    q, r = _ssp_duals(mu.weights, nu.weights, c.rows, eps_mass)
    zero_edges = []
    for i in range(m):
        for j in range(n):
            rc = c.rows[i][j] - q[i] - r[j]
            if rc < -eps_cost:
                raise AssertionError("shortest-path duals must be feasible")
            if rc <= eps_cost:
                zero_edges.append((i, m + j))

    # Connected components of the zero-set subgraph over all m+n nodes.
    parent = list(range(m + n))
    for u, v in zero_edges:
        parent[find(parent, u)] = find(parent, v)
    comp_nodes: dict = {}
    for v in range(m + n):
        comp_nodes.setdefault(find(parent, v), []).append(v)
    comp_edges: dict = {root: [] for root in comp_nodes}
    for u, v in zero_edges:
        comp_edges[find(parent, u)].append((u, v))

    supplies = {i: mu.weights[i] for i in range(m)}
    supplies.update({m + j: nu.weights[j] for j in range(n)})

    budget = [max_bases]
    per_component = []
    for root, nodes in sorted(comp_nodes.items()):
        options = {}
        for tree in _spanning_trees(nodes, comp_edges[root], budget):
            masses = _tree_flow(tree, {v: supplies[v] for v in nodes}, eps_mass)
            if masses is None:
                continue
            entries = tuple(
                sorted((u, v - m, w) for (u, v), w in masses.items() if w > 0)
            )
            options[entries] = None
        if not options:
            raise AssertionError("every component of the zero set supports an optimal restriction")
        per_component.append(sorted(options))

    vertices = []
    for combo in product(*per_component):
        merged = []
        for part in combo:
            merged.extend(part)
        vertices.append(Coupling(m, n, tuple(sorted(merged))))
    vertices.sort(key=lambda g: g.entries)
    return vertices


def is_unique_optimum(
    mu: DiscreteMarginal,
    nu: DiscreteMarginal,
    c: CostMatrix,
    max_cells: int = 64,
    max_bases: int = 200000,
) -> bool:
    """True iff the optimal face is a single point.

    The face is a bounded polytope, hence the convex hull of its vertices:
    one vertex means the face is that vertex, two or more mean a whole
    segment of optima.
    """
    return len(enumerate_optimal_vertices(mu, nu, c, max_cells, max_bases)) == 1
