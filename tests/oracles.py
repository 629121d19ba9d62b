"""Independent brute-force oracles and instance generators for the tests.

Nothing here shares algorithmic code with the package: linear systems are
solved by dense Gaussian elimination over Fractions, acyclicity comes from
networkx, vertex checks from numpy's rank, and vertices of small feasible
sets are enumerated by trying every possible spanning-tree basis.  Slow and
obvious on purpose.  Optimal duals come from a successive-shortest-path
solver kept here, which shares no code with the package's simplex; the
optimal-face check takes its reference value from them.  Faces too large
for that brute force are enumerated on the zero set of those duals by
ordered backtracking over all their spanning trees, each tree's flow peeled
from scratch and nothing pruned, as a reference for the package's pruned
walk on the zero set of the simplex's duals.  The push-forward of a
marginal through a graph or antigraph and the c-transform of a potential
are written out from their definitions, as references for couplings built
from pieces and for the simplex's potentials.  The backward recursion of
``reconstruct``, swept in the weights' own arithmetic, is the reference for
the package's sweep over exact data scaled to ints.  Triplets merged cell by
cell and sorted are the reference for ``Coupling.from_entries``, which keeps
canonical input as it comes.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from fractions import Fraction
from operator import index, mul, ne, sub

import networkx as nx
import numpy as np

from limbsys import (
    Coupling,
    CostMatrix,
    CycleError,
    DiscreteMarginal,
    DualPotentials,
    InfeasibleError,
    ShapeMismatchError,
    SizeLimitError,
    validate_coupling,
    zero_set,
)
from limbsys.measures import float_range, thresholds
from limbsys.transport import _finite


# ---------------------------------------------------------------------------
# Cost shape
# ---------------------------------------------------------------------------


def subtwist_by_definition(rows, periodic: bool):
    """(violations, degenerate) column pairs of an exact cost matrix.

    For each pair j1 < j2: d_i = c[i][j1] - c[i][j2], its consecutive
    differences d_{i+1} - d_i (also d_0 - d_{m-1} around a circle), the
    zeros dropped, and the sign changes between neighbours of what is left
    (also last to first around a circle).  Nothing left is degenerate;
    otherwise the pair violates with other than exactly two changes around
    a circle, or more than two on a line.
    """
    m, n = len(rows), len(rows[0])
    violations, degenerate = [], []
    for j1 in range(n):
        for j2 in range(j1 + 1, n):
            d = [rows[i][j1] - rows[i][j2] for i in range(m)]
            if periodic:
                diffs = [d[(i + 1) % m] - d[i] for i in range(m)]
            else:
                diffs = [d[i + 1] - d[i] for i in range(m - 1)]
            kept = [x for x in diffs if x != 0]
            if not kept:
                degenerate.append((j1, j2))
                continue
            neighbours = [(kept[k], kept[k + 1]) for k in range(len(kept) - 1)]
            if periodic:
                neighbours.append((kept[-1], kept[0]))
            changes = sum(1 for a, b in neighbours if (a > 0) != (b > 0))
            if (periodic and changes != 2) or (not periodic and changes > 2):
                violations.append((j1, j2))
    return tuple(violations), tuple(degenerate)


def subtwist_by_steps(c, periodic: bool):
    """(violations, degenerate) column pairs of a cost matrix, any data.

    The pair-by-pair column-step scan: each column's consecutive
    differences are taken once (wrapping round when periodic), every pair
    j1 < j2 subtracts them, drops the values within the cost threshold and
    counts the sign changes of what is left.  A reference for the package's
    bitset scan on float data, where the threshold matters.  Costs of
    2**1022 or more, whose step differences could overflow, are first
    halved or quartered, which is exact, and so is their threshold.
    """
    _, zero_tol = thresholds(costs=c.rows)
    rows = c.rows
    top = max(abs(v) for row in rows for v in row)
    if isinstance(zero_tol, float) and top >= 2.0**1022:
        k = 1 if top < 2.0**1023 else 2
        rows = [[math.ldexp(v, -k) for v in row] for row in rows]
        zero_tol = math.ldexp(zero_tol, -k)
    steps = [
        [b - a for a, b in zip(col, col[1:] + col[:1] if periodic else col[1:])]
        for col in zip(*rows)
    ]
    violations = []
    degenerate = []
    for j1, j2 in itertools.combinations(range(c.n), 2):
        signs = [d > zero_tol for d in map(sub, steps[j1], steps[j2]) if abs(d) > zero_tol]
        if not signs:
            degenerate.append((j1, j2))
            continue
        changes = sum(map(ne, signs, signs[1:] + signs[:1] if periodic else signs[1:]))
        if (periodic and changes != 2) or (not periodic and changes > 2):
            violations.append((j1, j2))
    return tuple(violations), tuple(degenerate)


# ---------------------------------------------------------------------------
# Exact linear algebra
# ---------------------------------------------------------------------------


def solve_exact_linear(matrix, rhs):
    """Gaussian elimination over Fractions.

    Returns the unique solution vector, None if the system is inconsistent,
    and raises if it is underdetermined (callers only pass full-column-rank
    systems).
    """
    rows = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
    ncols = len(matrix[0]) if matrix else 0
    pivots = []
    r = 0
    for col in range(ncols):
        pivot = next((k for k in range(r, len(rows)) if rows[k][col] != 0), None)
        if pivot is None:
            raise ValueError("underdetermined system")
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][col]
        rows[r] = [x / pv for x in rows[r]]
        for k in range(len(rows)):
            if k != r and rows[k][col] != 0:
                f = rows[k][col]
                rows[k] = [a - f * b for a, b in zip(rows[k], rows[r])]
        pivots.append(col)
        r += 1
    for k in range(r, len(rows)):
        if rows[k][-1] != 0:
            return None
    solution = [Fraction(0)] * ncols
    for row_idx, col in enumerate(pivots):
        solution[col] = rows[row_idx][-1]
    return solution


def coupling_on_cells(mu: DiscreteMarginal, nu: DiscreteMarginal, cells):
    """LP feasibility oracle: the coupling supported on the given cells with
    the given marginals, or None.

    Builds the marginal equations over one variable per cell and solves them
    exactly; valid for cell sets whose incidence columns are independent
    (forests in particular, where the coupling is unique when it exists).
    """
    cells = sorted(cells)
    m, n = mu.size, nu.size
    matrix = []
    rhs = []
    for i in range(m):
        matrix.append([1 if ci == i else 0 for ci, _ in cells])
        rhs.append(mu.weights[i])
    for j in range(n):
        matrix.append([1 if cj == j else 0 for _, cj in cells])
        rhs.append(nu.weights[j])
    if not cells:
        return Coupling(m, n, ()) if all(x == 0 for x in rhs) else None
    solution = solve_exact_linear(matrix, rhs)
    if solution is None or any(x < 0 for x in solution):
        return None
    return Coupling.from_entries(m, n, [(i, j, w) for (i, j), w in zip(cells, solution)])


# ---------------------------------------------------------------------------
# Brute-force polytope enumeration
# ---------------------------------------------------------------------------


def _bipartite_graph(cells):
    g = nx.Graph()
    for i, j in cells:
        g.add_edge(("r", i), ("c", j))
    return g


def is_forest_nx(cells) -> bool:
    if not cells:
        return True
    return nx.is_forest(_bipartite_graph(cells))


def spanning_tree_bases(m: int, n: int):
    """Every spanning tree of the complete bipartite grid, as a cell tuple."""
    all_cells = [(i, j) for i in range(m) for j in range(n)]
    for subset in itertools.combinations(all_cells, m + n - 1):
        g = _bipartite_graph(subset)
        if g.number_of_nodes() == m + n and nx.is_tree(g):
            yield subset


def all_vertices_bruteforce(mu: DiscreteMarginal, nu: DiscreteMarginal):
    """Every extreme point of the couplings of (mu, nu), by solving the
    marginal equations on every spanning-tree basis and keeping the
    nonnegative solutions.  Exponential; use only on tiny instances."""
    seen = {}
    for basis in spanning_tree_bases(mu.size, nu.size):
        gamma = coupling_on_cells(mu, nu, basis)
        if gamma is not None:
            seen[gamma.entries] = gamma
    return sorted(seen.values(), key=lambda g: g.entries)


def optimal_vertices_bruteforce(mu, nu, c: CostMatrix):
    vertices = all_vertices_bruteforce(mu, nu)
    values = [sum(c.at(i, j) * w for i, j, w in v.entries) for v in vertices]
    best = min(values)
    return [v for v, val in zip(vertices, values) if val == best], best


# ---------------------------------------------------------------------------
# Optimal faces: successive-shortest-path duals, ordered backtracking
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


def find(parents, v):
    """Union-find root of ``v``, halving the path on the way up."""
    while parents[v] != v:
        parents[v] = parents[parents[v]]
        v = parents[v]
    return v


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


def optimal_vertices_by_backtracking(mu: DiscreteMarginal, nu: DiscreteMarginal, c: CostMatrix):
    """Every optimal vertex of an exact instance, in the order of
    ``enumerate_optimal_vertices`` but from other duals: the zero set of the
    shortest-path duals, its components from networkx, and every spanning
    tree of each component by ordered backtracking, with no budget.  Reaches faces of 6x6 and
    beyond, which ``optimal_vertices_bruteforce`` cannot."""
    m, n = mu.size, nu.size
    stop, _ = thresholds(masses=(mu.weights, nu.weights))
    q, r = _ssp_duals(mu.weights, nu.weights, c.rows, stop)
    graph = nx.Graph()
    graph.add_nodes_from(range(m + n))
    graph.add_edges_from((i, m + j) for i, j in zero_set(c, DualPotentials(q, r)).edges)
    supplies = mu.weights + nu.weights
    per_component = []
    for nodes in nx.connected_components(graph):
        edges = [(min(e), max(e)) for e in graph.subgraph(nodes).edges]
        options = set()
        for tree in _spanning_trees(sorted(nodes), edges, [math.inf]):
            masses = _tree_flow(tree, {v: supplies[v] for v in nodes}, stop)
            if masses is not None:
                options.add(tuple(sorted((u, v - m, w) for (u, v), w in masses.items() if w > 0)))
        per_component.append(options)
    vertices = [
        Coupling(m, n, tuple(sorted(itertools.chain(*combo))))
        for combo in itertools.product(*per_component)
    ]
    return sorted(vertices, key=lambda g: g.entries)


def assert_on_optimal_face(mu, nu, c: CostMatrix, report, exact: bool):
    """A solve result lies on the optimal face, whichever vertex it is.

    The coupling is feasible, its support lies in the zero set of the
    returned potentials, primal equals dual, and the value equals the dual
    value of the shortest-path potentials: exactly for exact data, within
    1e-9 relative for floats.
    """
    def same(a, b):
        return a == b if exact else abs(a - b) <= 1e-9 * max(1.0, abs(a))

    assert validate_coupling(report.coupling, mu, nu)
    assert report.coupling.cells() <= zero_set(c, report.potentials).edges
    assert same(report.primal_value, report.dual_value)
    stop, _ = thresholds(masses=(mu.weights, nu.weights))
    q, r = _ssp_duals(mu.weights, nu.weights, c.rows, stop)
    assert same(report.primal_value, sum(map(mul, q, mu.weights)) + sum(map(mul, r, nu.weights)))


def is_vertex_oracle(gamma: Coupling) -> bool:
    """A feasible point is extreme iff no mass can slide along its support:
    the support cells' incidence columns must be linearly independent,
    decided here by numpy's rank."""
    cells = sorted(gamma.cells())
    if not cells:
        return True
    m, n = gamma.m, gamma.n
    a = np.zeros((m + n, len(cells)))
    for col, (i, j) in enumerate(cells):
        a[i, col] = 1.0
        a[m + j, col] = 1.0
    return np.linalg.matrix_rank(a) == len(cells)


def split_witness_by_entries(gamma: Coupling, cycle) -> tuple:
    """Reference for ``extremality.split_witness``: the same perturbation
    built entry by entry, every entry looked at once per part and every
    cycle mass read through ``Coupling.mass_at``."""
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


def coupling_by_merging(m, n, entries) -> Coupling:
    """Reference for ``Coupling.from_entries``: every triplet merged into
    its cell, the cells sorted and exact zeros dropped, canonical input
    included, before the constructor checks the result."""
    merged = {}
    for i, j, w in entries:
        cell = (index(i), index(j))
        if cell in merged:
            with float_range((merged[cell], w)):
                merged[cell] = merged[cell] + w
        else:
            merged[cell] = w
    # Zeros are falsy; a falsy non-number (None, "") is kept for the check to reject.
    return Coupling(m, n, tuple((i, j, w) for (i, j), w in sorted(merged.items()) if w or w != 0))


# ---------------------------------------------------------------------------
# Push-forwards, c-transforms and the reconstruction sweep
# ---------------------------------------------------------------------------


def pushforward_graph(f, eta: DiscreteMarginal, n: int) -> Coupling:
    """Push ``eta`` through a partial map of row indices to column indices.

    ``f[i]`` is the image column of row ``i`` or None where undefined.  The
    result puts mass ``eta_i`` on cell ``(i, f[i])`` for every i in the domain,
    so its support lies in the graph of ``f`` and its first marginal restricted
    to the domain is ``eta``.  ``eta`` must vanish (up to the mass threshold
    for float data) off the domain; genuinely positive mass there is
    infeasible by definition of a push-forward and raises.
    """
    if len(f) != eta.size:
        raise ShapeMismatchError(f"map has {len(f)} slots but marginal has {eta.size} points")
    eps, _ = thresholds(masses=(eta.weights,))
    entries = []
    for i, w in enumerate(eta.weights):
        j = f[i]
        if j is None:
            if w > eps:
                raise InfeasibleError(
                    f"marginal carries mass {w!r} at point {i} outside the domain of the map"
                )
            continue
        if not (0 <= j < n):
            raise ValueError(f"map sends {i} to {j}, outside the {n} image points")
        if w > 0:
            entries.append((i, j, w))
    return Coupling(eta.size, n, tuple(entries))


def pushforward_antigraph(g, eta: DiscreteMarginal, m: int) -> Coupling:
    """Transpose of :func:`pushforward_graph` for a partial map of column
    indices to row indices: mass ``eta_j`` lands on cell ``(g[j], j)``."""
    piece = pushforward_graph(g, eta, m)
    return Coupling.from_entries(m, eta.size, ((i, j, w) for j, i, w in piece.entries))


def c_transform(r, c: CostMatrix) -> tuple:
    """Tightest row potentials compatible with ``r``:
    q[i] = min_j (c[i][j] - r[j])."""
    if len(r) != c.n:
        raise ShapeMismatchError(f"potential has {len(r)} entries but cost has {c.n} columns")
    _finite("r", r)
    with float_range(r, *c.rows):
        return tuple(min(row[j] - r[j] for j in range(c.n)) for row in c.rows)


def reconstruct_unscaled(system, mu: DiscreteMarginal, nu: DiscreteMarginal) -> tuple:
    """(coupling, message) of the backward recursion over a valid limb
    system whose shape fits (mu, nu), swept in the arithmetic of the weights
    as given: the package's sweep as it ran before exact data were scaled
    to ints, kept as the reference for the scaled sweep.  The message is
    None when the marginals feed the system."""
    m, n = system.m, system.n
    eps, _ = thresholds(masses=(mu.weights, nu.weights))
    sent_to_row, sent_to_col = [0] * m, [0] * n
    entries = []
    failure = None

    with float_range(sent_to_row, sent_to_col):
        for limb in reversed(system.limbs):
            graph = limb.kind == "graph"
            if graph:
                base, sent_src, sent_dst = mu.weights, sent_to_row, sent_to_col
            else:
                base, sent_src, sent_dst = nu.weights, sent_to_col, sent_to_row
            for s, d in limb.pairs:
                w = base[s] - sent_src[s]
                sent_src[s] = base[s]
                if w > 0:
                    entries.append((s, d, w) if graph else (d, s, w))
                    sent_dst[d] = sent_dst[d] + w
                elif w < -eps and failure is None:
                    failure = (
                        f"limb {limb.k} needs mass {w!r} at point {s}; "
                        "the marginals cannot feed this system"
                    )
        sent, marginals = sent_to_row + sent_to_col, mu.weights + nu.weights
        if failure is None and any(abs(a - b) > eps for a, b in zip(sent, marginals)):
            failure = "reconstructed coupling does not reproduce the requested marginals"
    return Coupling(m, n, tuple(sorted(entries))), failure


# ---------------------------------------------------------------------------
# Seeded instance generators
# ---------------------------------------------------------------------------


def random_rational_weights(rng: random.Random, size: int, denom: int = 60):
    return tuple(Fraction(rng.randint(1, 4 * denom), denom) for _ in range(size))


def random_rational_instance(rng: random.Random, max_m: int, max_n: int):
    """Balanced marginals and a cost matrix, all exact rationals.  Small
    denominators on purpose, so degenerate ties do occur."""
    m = rng.randint(1, max_m)
    n = rng.randint(1, max_n)
    mu = list(random_rational_weights(rng, m))
    nu = list(random_rational_weights(rng, n))
    scale = sum(mu) / sum(nu)
    nu = [w * scale for w in nu]
    cost = tuple(
        tuple(Fraction(rng.randint(-50, 100), 10) for _ in range(n)) for _ in range(m)
    )
    return DiscreteMarginal(tuple(mu)), DiscreteMarginal(tuple(nu)), CostMatrix(cost)


def random_forest_cells(rng: random.Random, m: int, n: int):
    """A random spanning forest of the m-by-n grid: shuffled cells accepted
    greedily while they keep the bipartite graph acyclic."""
    cells = [(i, j) for i in range(m) for j in range(n)]
    rng.shuffle(cells)
    parent = {}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    chosen = []
    target = rng.randint(1, m + n - 1)
    for i, j in cells:
        u, v = ("r", i), ("c", j)
        parent.setdefault(u, u)
        parent.setdefault(v, v)
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            chosen.append((i, j))
            if len(chosen) >= target:
                break
    return sorted(chosen)


def random_forest_coupling(rng: random.Random, m: int, n: int, denom: int = 40) -> Coupling:
    """Strictly positive rational masses on a random forest support."""
    cells = random_forest_cells(rng, m, n)
    return Coupling.from_entries(
        m, n, [(i, j, Fraction(rng.randint(1, 3 * denom), denom)) for i, j in cells]
    )


def random_coupling(rng: random.Random, m: int, n: int, density: float = 0.4) -> Coupling:
    """Random sparse coupling, cyclic or not, with rational masses."""
    entries = []
    for i in range(m):
        for j in range(n):
            if rng.random() < density:
                entries.append((i, j, Fraction(rng.randint(1, 20), 7)))
    if not entries:
        entries.append((rng.randrange(m), rng.randrange(n), Fraction(1)))
    return Coupling.from_entries(m, n, entries)


def random_spanning_tree(rng: random.Random, m: int, n: int) -> set:
    """Cells of a random spanning tree of the m-by-n grid: after row 0 and
    column 0, points in random order each attach to a random earlier point
    of the other side."""
    rows, cols = [0], [0]
    tree = {(0, 0)}
    later = [(True, i) for i in range(1, m)] + [(False, j) for j in range(1, n)]
    rng.shuffle(later)
    for is_row, v in later:
        if is_row:
            tree.add((v, rng.choice(cols)))
            rows.append(v)
        else:
            tree.add((rng.choice(rows), v))
            cols.append(v)
    return tree


def planted_tie_instance(rng: random.Random, m: int, n: int, extra: int):
    """Exact m-by-n costs in {0, 1, 2} whose optimal face is planted: a
    random spanning tree with positive masses fixes the marginals, costs are
    q[i] in {0, 1} on the tree and on ``extra`` further cells and above q[i]
    elsewhere, so those cells are the zero set of the only optimal duals."""
    tree = random_spanning_tree(rng, m, n)
    others = sorted(set(itertools.product(range(m), range(n))) - tree)
    zero = tree | set(rng.sample(others, extra))
    mu, nu = [Fraction(0)] * m, [Fraction(0)] * n
    for i, j in sorted(tree):
        w = Fraction(rng.randint(1, 20), 60)
        mu[i] += w
        nu[j] += w
    q = [rng.randint(0, 1) for _ in range(m)]
    cost = tuple(
        tuple(q[i] if (i, j) in zero else (2 if q[i] else rng.randint(1, 2)) for j in range(n))
        for i in range(m)
    )
    return DiscreteMarginal(tuple(mu)), DiscreteMarginal(tuple(nu)), CostMatrix(cost)
