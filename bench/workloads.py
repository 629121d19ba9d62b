"""The three workloads: seeded inputs, one op per input, per-op checks.

Every workload builds a fixed list of ops from the seed.  A run repeats that
list in whole passes, so a faster program completes more passes but never
changes the mix.  ``Op.run`` is the timed part; ``Op.check`` runs outside
the timed region and returns the failures it found plus the op's
deterministic counters.  No check pins one optimal vertex: a solver that
returns another vertex of the same optimal face passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from collections import namedtuple
from fractions import Fraction
from itertools import product

from limbsys import (
    CostMatrix,
    DemoConfig,
    DiscreteMarginal,
    DualInfeasibleError,
    SizeLimitError,
    cli,
    decompose,
    demo_instance,
    dl_rank_test,
    enumerate_optimal_vertices,
    is_extremal,
    limb_count,
    rational_demo_instance,
    reconstruct,
    solve,
    subtwist_check,
    support_graph,
    system_support,
    tv_distance,
    two_limb_check,
    validate_coupling,
    validate_system,
    zero_set,
)
from limbsys.io import load_coupling, load_system

TWO_PI = 2.0 * math.pi
FLOAT_GAP = 1e-9  # relative primal-dual gap and reconstruction error allowed on floats


Op = namedtuple("Op", "label run check")


def _check_solve(report, mu, nu, cost, exact):
    """validate_coupling, zero_set acceptance, and primal = dual."""
    errors = []
    if not validate_coupling(report.coupling, mu, nu):
        errors.append("coupling marginals differ from the instance")
    try:
        zeros = zero_set(cost, report.potentials).edges
    except DualInfeasibleError as exc:
        errors.append(f"zero_set rejects the potentials: {exc}")
        zeros = frozenset()
    support = report.coupling.cells()
    if not support <= zeros:
        errors.append("support leaves the zero set of the potentials")
    gap = report.primal_value - report.dual_value
    if (gap != 0) if exact else abs(gap) > FLOAT_GAP * max(1.0, abs(report.primal_value)):
        errors.append(f"primal {report.primal_value!r} != dual {report.dual_value!r}")
    return errors, {
        "pivots": report.iterations,
        "zero_cells": len(zeros),
        "support_cells": len(support),
    }


# ---------------------------------------------------------------------------
# circle-demo: the float pipeline of run_demo, one function at a time.
# ---------------------------------------------------------------------------

# (grid size, instances per pass).  Solve time swings 8x with the peak
# centre (smoothly, with period pi), so centres are spread evenly around the
# circle from a seeded offset; odd counts put every centre at a distinct
# phase of that period.  Peaks sit on opposite sides, as in the demo, and
# kappas are spread evenly over [3.5, 4.5] in seeded order.  Many small grids
# and few large ones put the median and the 90th percentile where op times
# are dense, so they do not hinge on the seed; the few n = 40 and 48
# instances still take about half the time of a pass.
CIRCLE_SIZES = ((24, 31), (32, 41), (40, 5), (48, 5))


def _circle_op(cfg):
    _, mu, nu, cost = demo_instance(cfg)

    def run(tr):
        with tr.span("circle.subtwist_check"):
            shape = subtwist_check(cost, periodic=True)
        with tr.span("transport.solve"):
            report = solve(mu, nu, cost)
        with tr.span("extremality.is_extremal"):
            certificate = is_extremal(report.coupling)
        support = support_graph(report.coupling)
        with tr.span("limbs.two_limb_check"):
            maps = two_limb_check(support)
        with tr.span("limbs.decompose"):
            system = decompose(support)
        with tr.span("limbs.reconstruct"):
            rebuilt = reconstruct(system, mu, nu)
        return shape, report, certificate, maps, system, rebuilt

    def check(result):
        shape, report, certificate, maps, system, rebuilt = result
        errors, counts = _check_solve(report, mu, nu, cost, exact=False)
        if not shape.passed:
            errors.append("circle cost failed the subtwist scan")
        if not certificate.extremal:
            errors.append("optimal coupling is not extremal")
        if not rebuilt.feasible or tv_distance(rebuilt.coupling, report.coupling) > FLOAT_GAP:
            errors.append("reconstruct(decompose(support)) differs from the coupling")
        counts["limbs"] = limb_count(system)
        counts["two_limb"] = int(maps is not None)
        return errors, counts

    return Op(f"circle n={cfg.n} centre={cfg.mu_center:.3f}", run, check)


def circle_demo(rng, workdir):
    ops = []
    for n, count in CIRCLE_SIZES:
        offset = rng.random()
        mu_rank, nu_rank = list(range(count)), list(range(count))
        rng.shuffle(mu_rank)
        rng.shuffle(nu_rank)
        for k in range(count):
            mu_center = TWO_PI * (k + offset) / count
            cfg = DemoConfig(
                n=n,
                mu_center=mu_center,
                mu_kappa=3.5 + (mu_rank[k] + rng.random()) / count,
                nu_center=(mu_center + math.pi) % TWO_PI,
                nu_kappa=3.5 + (nu_rank[k] + rng.random()) / count,
            )
            ops.append(_circle_op(cfg))
    return ops, ops[:1]


# ---------------------------------------------------------------------------
# exact-oracle: Fraction instances through solve and the vertex oracle.
# ---------------------------------------------------------------------------

GENERIC_PER_PASS = 32
# Zero-cost cells planted beyond an 11-cell spanning tree on 6x6.
# Enumeration time doubles with every zero cell, so the zero-set size is
# fixed by construction rather than left to the draw: 48 instances with 4
# extra cells hold the median op, 32 with 6 extra cells the tail.  Work
# still varies about 20% between instances of one size, hence the counts.
TIED_EXTRA = (4,) * 48 + (6,) * 32


def _random_tree(rng, m, n):
    """Spanning tree of the complete m x n bipartite graph, as (row, column)
    cells: after row 0 and column 0, points in random order each attach to
    a random earlier point of the other side."""
    rows, cols = [0], [0]
    edges = [(0, 0)]
    later = [(True, i) for i in range(1, m)] + [(False, j) for j in range(1, n)]
    rng.shuffle(later)
    for is_row, v in later:
        if is_row:
            edges.append((v, rng.choice(cols)))
            rows.append(v)
        else:
            edges.append((rng.choice(rows), v))
            cols.append(v)
    return edges


def _weights(rng, k):
    raw = [rng.randint(1, 99) for _ in range(k)]
    total = sum(raw)
    return tuple(Fraction(w, total) for w in raw)


def _generic_instance(rng):
    m, n = rng.randint(3, 8), rng.randint(3, 8)
    cost = tuple(tuple(rng.randint(0, 1000) for _ in range(n)) for _ in range(m))
    return DiscreteMarginal(_weights(rng, m)), DiscreteMarginal(_weights(rng, n)), CostMatrix(cost)


def _tied_instance(rng, extra):
    """6x6 costs in {0, 1, 2} whose zero set of reduced costs has 11 + extra cells.

    A random spanning tree carries positive masses, which fix the
    marginals.  Row potentials q are 0 or 1 and column potentials 0; cost is
    q[i] on the tree and ``extra`` further cells, and above q[i] elsewhere.
    The tree flow is a nondegenerate optimum, so these potentials are the
    only optimal ones and their zero set is exactly the planted cells.
    """
    m = n = 6
    tree = set(_random_tree(rng, m, n))
    others = sorted(set(product(range(m), range(n))) - tree)
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


def _exact_op(label, mu, nu, cost):
    def run(tr):
        with tr.span("transport.solve"):
            report = solve(mu, nu, cost)
        with tr.span("transport.enumerate_optimal_vertices"):
            try:
                vertices = enumerate_optimal_vertices(mu, nu, cost)
            except SizeLimitError:
                vertices = None
        with tr.span("extremality.is_extremal"):
            certificate = is_extremal(report.coupling)
        with tr.span("extremality.dl_rank_test"):
            rank_ok = dl_rank_test(report.coupling)
        support = support_graph(report.coupling)
        with tr.span("limbs.decompose"):
            system = decompose(support)
        with tr.span("limbs.reconstruct"):
            rebuilt = reconstruct(system, mu, nu)
        return report, vertices, certificate, rank_ok, system, rebuilt

    def check(result):
        report, vertices, certificate, rank_ok, system, rebuilt = result
        errors, counts = _check_solve(report, mu, nu, cost, exact=True)
        if vertices is not None:
            best = min(sum(cost.rows[i][j] * w for i, j, w in v.entries) for v in vertices)
            if best != report.primal_value:
                errors.append(f"solve value {report.primal_value} != oracle minimum {best}")
        if not certificate.extremal or not rank_ok:
            errors.append("optimal coupling is not extremal")
        if not rebuilt.feasible or rebuilt.coupling != report.coupling:
            errors.append("reconstruct(decompose(support)) differs from the coupling")
        counts["vertices"] = 0 if vertices is None else len(vertices)
        counts["refused"] = int(vertices is None)
        counts["limbs"] = limb_count(system)
        return errors, counts

    return Op(label, run, check)


def exact_oracle(rng, workdir):
    ops = [_exact_op("generic", *_generic_instance(rng)) for _ in range(GENERIC_PER_PASS)]
    ops += [_exact_op(f"tied+{extra}", *_tied_instance(rng, extra)) for extra in TIED_EXTRA]
    ops.append(_exact_op("rational demo n=8", *rational_demo_instance(DemoConfig(n=8))))
    return ops, [ops[0], ops[GENERIC_PER_PASS]]


# ---------------------------------------------------------------------------
# forest-cli: in-process `limbsys` verbs over JSON files written in set-up.
# ---------------------------------------------------------------------------

# m = n, spaced geometrically so that op times spread evenly and the median
# and tail do not sit on a jump between two sizes.
FOREST_SIZES = (300, 410, 560, 770, 1060, 1450, 2000)
MASS_UNIT = 1024  # dyadic masses print exactly, so both modes round-trip exactly
# Cells per side of the witness cycle.  split_witness costs O(k * support),
# so k is fixed rather than left to where a random extra cell lands.
CYCLE_K = 8


def _random_forest(rng, m, n):
    """A random spanning tree split into trees by cutting about 2% of the
    edges whose ends both keep another edge, so no point is left bare."""
    edges = _random_tree(rng, m, n)
    row_deg, col_deg = [0] * m, [0] * n
    for i, j in edges:
        row_deg[i] += 1
        col_deg[j] += 1
    kept = []
    for i, j in edges:
        if row_deg[i] > 1 and col_deg[j] > 1 and rng.random() < 0.02:
            row_deg[i] -= 1
            col_deg[j] -= 1
        else:
            kept.append((i, j))
    return sorted(kept)


def _cycle_closing_cell(rng, m, cells):
    """A cell outside the forest whose addition closes a cycle through
    2 * CYCLE_K cells: a random row and a random column at tree distance
    2 * CYCLE_K - 1 from it."""
    adjacency = {}
    for i, j in cells:
        adjacency.setdefault(i, []).append(m + j)
        adjacency.setdefault(m + j, []).append(i)
    while True:
        start = rng.randrange(m)
        frontier, seen = [start], {start}
        for _ in range(2 * CYCLE_K - 1):
            frontier = [v for u in frontier for v in adjacency[u] if v not in seen]
            seen.update(frontier)
        if frontier:
            return start, rng.choice(sorted(frontier)) - m


def _bfs_levels(m, n, cells):
    """A limb system for the forest, built here so reconstruct's input does
    not depend on the program: each tree is rooted at its lowest column and a
    point at depth d joins I_d, contributing its parent edge to limb d."""
    adjacency = [[] for _ in range(m + n)]
    for i, j in cells:
        adjacency[i].append(m + j)
        adjacency[m + j].append(i)
    depth = [None] * (m + n)
    limbs = {}
    for root in range(m, m + n):
        if depth[root] is not None:
            continue
        depth[root] = 0
        frontier = [root]
        while frontier:
            nxt = []
            for u in frontier:
                for v in adjacency[u]:
                    if depth[v] is None:
                        depth[v] = depth[u] + 1
                        pair = [v, u - m] if v < m else [v - m, u]
                        limbs.setdefault(depth[v], []).append(pair)
                        nxt.append(v)
            frontier = nxt
    return {
        "m": m,
        "n": n,
        "limbs": [
            {"k": k, "kind": "graph" if k % 2 else "antigraph", "map": sorted(limbs[k])}
            for k in sorted(limbs)
        ],
        "I_odd": depth[:m],
        "I_even": depth[m:],
    }


def _write(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def _load_exact(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, parse_float=Fraction)


def _as_map(entries):
    return {(int(i), int(j)): Fraction(w) for i, j, w in entries}


def _marginals(cells, m, n):
    row, col = [Fraction(0)] * m, [Fraction(0)] * n
    for (i, j), w in cells.items():
        row[i] += w
        col[j] += w
    return row, col


def _cli_op(label, argv, expect_code, inputs, output, verify):
    def run(tr):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            with tr.span("cli.main"):
                code = cli.main(argv)
        return code, out.getvalue()

    def check(result):
        # The output is removed once checked, so a later run of this op can
        # never pass on a file an earlier one wrote.
        try:
            code, text = result
            counts = {
                f"exit_{code}": 1,
                "bytes_read": sum(os.path.getsize(p) for p in inputs),
                "bytes_written": os.path.getsize(output) if output else 0,
            }
            if code != expect_code:
                return [f"exit code {code}, expected {expect_code}: {text.strip()[:200]}"], counts
            errors, extra = verify(text)
            counts.update(extra)
            return errors, counts
        finally:
            if output and os.path.exists(output):
                os.remove(output)

    return Op(label, run, check)


def _forest_ops(rng, workdir, m):
    n = m
    cells = _random_forest(rng, m, n)
    gamma = {cell: Fraction(rng.randint(1, MASS_UNIT), MASS_UNIT) for cell in cells}
    cyclic = dict(gamma)
    cyclic[_cycle_closing_cell(rng, m, cells)] = Fraction(rng.randint(1, MASS_UNIT), MASS_UNIT)
    mu, nu = _marginals(gamma, m, n)

    def entries(cellmap):
        return [[i, j, float(w)] for (i, j), w in sorted(cellmap.items())]

    path = {
        name: os.path.join(workdir, f"{name}-{m}.json")
        for name in ("forest", "cyclic", "problem", "system")
    }
    _write(path["forest"], {"m": m, "n": n, "entries": entries(gamma)})
    _write(path["cyclic"], {"m": m, "n": n, "entries": entries(cyclic)})
    _write(path["problem"], {"mu": [float(w) for w in mu], "nu": [float(w) for w in nu]})
    _write(path["system"], _bfs_levels(m, n, sorted(gamma)))

    def decomposed(out, rational):
        def verify(_text):
            system = load_system(out, rational)
            errors = []
            if not validate_system(system) or system_support(system).edges != set(gamma):
                errors.append("written limb system does not cover the forest")
            return errors, {"limbs": limb_count(system)}

        return verify

    def rebuilt(out, rational):
        def verify(_text):
            if _as_map(load_coupling(out, rational).entries) != gamma:
                return ["written coupling differs from the forest"], {}
            return [], {}

        return verify

    def verdict(expected):
        def verify(text):
            if text.split("\n", 1)[0] != expected:
                return [f"verdict {text.strip()[:60]!r}, expected {expected!r}"], {}
            return [], {}

        return verify

    def witnessed(out):
        def verify(text):
            errors, _ = verdict("non-extremal")(text)
            data = _load_exact(out)
            g0 = _as_map(data["gamma0"]["entries"])
            g1 = _as_map(data["gamma1"]["entries"])
            cycle = [tuple(e) for e in data["cycle"]]
            if not set(cycle) <= set(cyclic):
                errors.append("witness cycle leaves the support")
            cells_all = set(g0) | set(g1) | set(cyclic)
            if any(g0.get(c, 0) + g1.get(c, 0) != 2 * cyclic.get(c, 0) for c in cells_all):
                errors.append("witness split does not average back to the coupling")
            if g0 == g1 or _marginals(g0, m, n) != _marginals(cyclic, m, n):
                errors.append("witness split is trivial or changes the marginals")
            return errors, {"cycle_k": len(cycle) // 2, "witnesses": 1}

        return verify

    ops = []
    for rational in (False, True):
        mode = "rational" if rational else "float"
        flag = ["--rational"] if rational else []
        out = {v: os.path.join(workdir, f"out-{v}-{m}-{mode}.json") for v in ("system", "coupling", "witness")}
        ops += [
            _cli_op(f"decompose {m} {mode}", ["decompose", path["forest"], "--out", out["system"]] + flag,
                    0, [path["forest"]], out["system"], decomposed(out["system"], rational)),
            _cli_op(f"reconstruct {m} {mode}",
                    ["reconstruct", path["system"], path["problem"], "--out", out["coupling"]] + flag,
                    0, [path["system"], path["problem"]], out["coupling"], rebuilt(out["coupling"], rational)),
            _cli_op(f"check-extremal {m} {mode}", ["check-extremal", path["forest"]] + flag,
                    0, [path["forest"]], None, verdict("extremal")),
            _cli_op(f"check-extremal --witness {m} {mode}",
                    ["check-extremal", path["cyclic"], "--witness", out["witness"]] + flag,
                    3, [path["cyclic"]], out["witness"], witnessed(out["witness"])),
        ]
    return ops


def forest_cli(rng, workdir):
    os.makedirs(workdir, exist_ok=True)
    ops = []
    for m in FOREST_SIZES:
        ops += _forest_ops(rng, workdir, m)
    return ops, ops[:8]


WORKLOADS = {
    "circle-demo": circle_demo,
    "exact-oracle": exact_oracle,
    "forest-cli": forest_cli,
}
