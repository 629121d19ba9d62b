"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.  Tolerances are fixed here, not configurable: exact
equality wherever the data is rational, 1e-9 or 1e-10 where stated for
floating point, and wall-clock budgets checked with a monotonic clock.
"""

import itertools
import math
import random
import time
from fractions import Fraction as F

from limbsys import (
    CircleGrid,
    Coupling,
    CostMatrix,
    DemoConfig,
    DiscreteMarginal,
    build_circle_cost,
    decompose,
    demo_instance,
    dl_rank_test,
    enumerate_optimal_vertices,
    is_acyclic,
    is_extremal,
    limb_count,
    marginals_of,
    pushforward_graph,
    rational_demo_instance,
    reconstruct,
    run_demo,
    solve,
    split_witness,
    subtwist_check,
    support_graph,
    tv_distance,
    two_limb_check,
    zero_set,
)

import oracles


def report(tag, detail):
    print(f"[{tag}] PASS {detail}")


def test_a1_birkhoff_3x3_vertices():
    """The feasibility face of the 3x3 doubly stochastic couplings is a
    4-dimensional polytope with exactly 6 vertices, the permutation
    matrices over 3."""
    uniform = DiscreteMarginal((F(1, 3),) * 3)
    flat = CostMatrix(((F(0),) * 3,) * 3)
    started = time.monotonic()
    vertices = enumerate_optimal_vertices(uniform, uniform, flat)
    elapsed = time.monotonic() - started
    expected = sorted(
        Coupling.from_entries(3, 3, [(i, p[i], F(1, 3)) for i in range(3)]).entries
        for p in itertools.permutations(range(3))
    )
    assert sorted(v.entries for v in vertices) == expected
    assert len(vertices) == 6
    assert elapsed < 1.0

    import numpy as np

    dense = [[float(v.mass_at(i, j)) for i in range(3) for j in range(3)] for v in vertices]
    spans = np.array(dense[1:]) - np.array(dense[0])
    assert np.linalg.matrix_rank(spans) == 4
    report("A1", f"6 permutation vertices spanning 4 dimensions, exact, {elapsed:.3f}s")


def test_a2_solver_matches_vertex_enumeration_oracle():
    """200 seeded rational instances up to 6x6: simplex objective equals the
    minimum over enumerated optimal vertices, exactly in rational arithmetic
    and within 1e-9 after float conversion."""
    rng = random.Random(90210)
    started = time.monotonic()
    for _ in range(200):
        mu, nu, c = oracles.random_rational_instance(rng, 6, 6)
        exact_value = solve(mu, nu, c).primal_value
        vertices = enumerate_optimal_vertices(mu, nu, c)
        oracle_min = min(
            sum(c.at(i, j) * w for i, j, w in v.entries) for v in vertices
        )
        assert exact_value == oracle_min

        mu_f = DiscreteMarginal(tuple(float(w) for w in mu.weights))
        nu_f = DiscreteMarginal(tuple(float(w) for w in nu.weights))
        c_f = CostMatrix(tuple(tuple(float(v) for v in row) for row in c.rows))
        float_value = solve(mu_f, nu_f, c_f).primal_value
        assert abs(float_value - float(oracle_min)) <= 1e-9
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    report("A2", f"200 instances, exact + 1e-9 float agreement, {elapsed:.1f}s")


def test_a3_extremality_criteria_agree():
    """Acyclicity, the rank test, and the independent vertex oracle agree
    with zero disagreements on all 512 supports of the 3x3 grid and on 500
    random couplings up to 8x8."""
    cells3 = [(i, j) for i in range(3) for j in range(3)]
    spot_checks = 0
    for mask in range(512):
        cells = [c for k, c in enumerate(cells3) if (mask >> k) & 1]
        if cells:
            gamma = Coupling.from_entries(3, 3, [(i, j, F(1)) for i, j in cells])
        else:
            gamma = Coupling(3, 3, ())
        acyclic, _ = is_acyclic(support_graph(gamma))
        assert acyclic == dl_rank_test(gamma)
        assert acyclic == oracles.is_vertex_oracle(gamma)
        if mask % 13 == 0 and cells:
            mu, nu = marginals_of(gamma)
            members = {v.entries for v in oracles.all_vertices_bruteforce(mu, nu)}
            assert (gamma.entries in members) == acyclic
            spot_checks += 1

    rng = random.Random(4242)
    small_checked = 0
    for _ in range(500):
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        gamma = oracles.random_coupling(rng, m, n)
        acyclic, _ = is_acyclic(support_graph(gamma))
        assert acyclic == dl_rank_test(gamma)
        if m <= 4 and n <= 4:
            assert acyclic == oracles.is_vertex_oracle(gamma)
            small_checked += 1
    report(
        "A3",
        f"512 supports + 500 couplings, {spot_checks} polytope spot checks, "
        f"{small_checked} small-vertex checks, zero disagreements",
    )


def test_a4_reconstruction_uniqueness_on_random_forests():
    """100 seeded forests up to 8x8 with feasible marginals: reconstruction
    reproduces the marginals (1e-10 per entry), vanishes outside the
    support, and equals everything the feasibility oracle can find."""
    rng = random.Random(777)
    for trial in range(100):
        m, n = rng.randint(2, 8), rng.randint(2, 8)
        exact = trial % 2 == 0
        seeded = oracles.random_forest_coupling(rng, m, n)
        if not exact:
            seeded = Coupling(
                m, n, tuple((i, j, float(w)) for i, j, w in seeded.entries)
            )
        mu, nu = marginals_of(seeded)
        cells = sorted(seeded.cells())
        system = decompose(support_graph(seeded))
        result = reconstruct(system, mu, nu)
        assert result.feasible

        row, col = marginals_of(result.coupling)
        assert all(abs(a - b) <= 1e-10 for a, b in zip(row.weights, mu.weights))
        assert all(abs(a - b) <= 1e-10 for a, b in zip(col.weights, nu.weights))
        assert result.coupling.cells() <= set(cells)

        # The oracle works in exact arithmetic over the exact values of the
        # seeded masses, so its linear system is consistent by construction.
        exact_seed = Coupling(m, n, tuple((i, j, F(w)) for i, j, w in seeded.entries))
        mu_x, nu_x = marginals_of(exact_seed)
        unique = oracles.coupling_on_cells(mu_x, nu_x, cells)
        assert unique is not None
        if exact:
            assert result.coupling == unique
        else:
            for i, j in cells:
                assert abs(result.coupling.mass_at(i, j) - unique.mass_at(i, j)) <= 1e-10
    report("A4", "100 forests: marginals, support, and oracle agreement")


def test_a5_round_trip_solve_decompose_reconstruct():
    """Solve, decompose the optimal support, reconstruct from the original
    marginals: total variation distance at most 1e-9 on 100 seeded
    instances up to 32x32, within 60 seconds."""
    rng = random.Random(1234)
    started = time.monotonic()
    worst = 0.0
    for _ in range(100):
        m, n = rng.randint(2, 32), rng.randint(2, 32)
        mu_w = [rng.random() + 0.01 for _ in range(m)]
        nu_w = [rng.random() + 0.01 for _ in range(n)]
        scale = sum(mu_w) / sum(nu_w)
        nu_w = [w * scale for w in nu_w]
        nu_w[0] += sum(mu_w) - sum(nu_w)
        mu, nu = DiscreteMarginal(tuple(mu_w)), DiscreteMarginal(tuple(nu_w))
        c = CostMatrix(tuple(tuple(rng.uniform(0, 3) for _ in range(n)) for _ in range(m)))
        solved = solve(mu, nu, c)
        system = decompose(support_graph(solved.coupling))
        rebuilt = reconstruct(system, mu, nu)
        assert rebuilt.feasible
        worst = max(worst, tv_distance(rebuilt.coupling, solved.coupling))
        assert worst <= 1e-9
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    report("A5", f"100 round trips, worst tv {worst:.2e}, {elapsed:.1f}s")


def test_a6_uniform_2x2_witness():
    """The uniform 2x2 coupling splits exactly into the two halved
    permutation matrices, which average back to it."""
    gamma = Coupling(2, 2, tuple((i, j, F(1, 4)) for i in range(2) for j in range(2)))
    certificate = is_extremal(gamma)
    assert certificate.verdict == "non-extremal"
    a, b = split_witness(gamma, certificate.cycle)
    assert {a, b} == {
        Coupling(2, 2, ((0, 0, F(1, 2)), (1, 1, F(1, 2)))),
        Coupling(2, 2, ((0, 1, F(1, 2)), (1, 0, F(1, 2)))),
    }
    average = Coupling.from_entries(
        2, 2, [(i, j, w / 2) for g in (a, b) for i, j, w in g.entries]
    )
    assert average == gamma
    report("A6", "split is the two scaled permutations, exact average")


def test_a7_subtwist_verdicts():
    """The angular cost passes the subtwist scan at N in {8, 16, 64, 256,
    512}; its double-frequency variant fails with a reported pair at every
    tested N from 5 up."""
    for n in (8, 16, 64, 256, 512):
        result = subtwist_check(build_circle_cost(CircleGrid(n)))
        assert result.passed, (n, result.violations[:3])

    for n in list(range(5, 33)) + [64, 128, 256, 512]:
        angles = CircleGrid(n).angles
        doubled = CostMatrix(
            tuple(
                tuple(1.0 - math.cos(2.0 * (angles[i] - angles[j])) for j in range(n))
                for i in range(n)
            )
        )
        result = subtwist_check(doubled)
        assert not result.passed, n
        assert len(result.violations) >= 1, n
    report("A7", "single frequency passes up to N=512, doubled fails from N=5")


def test_a8_circle_demo_structure():
    """Opposed peaks at N=64: extremal optimizer, a two-limb split, and
    mass that crosses town.  At N=8 with snapped rational data the solver
    output is the oracle's unique optimal vertex, exactly."""
    demo = run_demo(DemoConfig(n=64))
    assert is_extremal(demo.solve_report.coupling).extremal
    assert limb_count(demo.system) <= 2
    assert [limb.k for limb in demo.system.limbs] == [1, 2]
    cross_mass = demo.limb_mass[1]
    assert cross_mass > 0

    mu, nu, cost = rational_demo_instance(DemoConfig(n=8))
    solved = solve(mu, nu, cost)
    vertices = enumerate_optimal_vertices(mu, nu, cost)
    assert len(vertices) == 1
    assert solved.coupling == vertices[0]
    assert solved.primal_value == solved.dual_value
    report(
        "A8",
        f"N=64 limb 2 mass {float(cross_mass):.4f} > 0; N=8 equals the unique oracle vertex",
    )


def test_a9_pushforward_determinism():
    """1000 seeded cases: a coupling on a graph is pinned by its first
    marginal, however its mass is assembled."""
    rng = random.Random(31415)
    for _ in range(1000):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        f = tuple(rng.randrange(n) if rng.random() < 0.8 else None for _ in range(m))
        eta = DiscreteMarginal(
            tuple(F(rng.randint(0, 12), 6) if f[i] is not None else F(0) for i in range(m))
        )
        direct = pushforward_graph(f, eta, n)
        fragments = []
        for i, w in enumerate(eta.weights):
            if f[i] is None or w == 0:
                continue
            pieces = rng.randint(1, 4)
            cuts = sorted(F(rng.randint(0, 24), 24) for _ in range(pieces - 1))
            prev = F(0)
            for cut in cuts + [F(1)]:
                if cut != prev:
                    fragments.append((i, f[i], w * (cut - prev)))
                    prev = cut
        rng.shuffle(fragments)
        assembled = Coupling.from_entries(m, n, fragments)
        assert assembled == direct
        assert tv_distance(assembled, direct) == 0
    report("A9", "1000 cases, zero failures")


def test_a10_solver_scale():
    """The float circle demo at N=256 solves in under 2 s and the exact one
    at N=64 in under 10 s; each optimum has primal = dual (exactly, for the
    exact one) and support inside the zero set of its potentials."""
    details = []
    for label, (mu, nu, cost), budget, gap in (
        ("float N=256", demo_instance(DemoConfig(n=256))[1:], 2.0, 1e-9),
        ("exact N=64", rational_demo_instance(DemoConfig(n=64)), 10.0, 0),
    ):
        started = time.monotonic()
        solved = solve(mu, nu, cost)
        elapsed = time.monotonic() - started
        assert elapsed < budget, (label, elapsed)
        assert abs(solved.primal_value - solved.dual_value) <= gap
        assert solved.coupling.cells() <= zero_set(cost, solved.potentials).edges
        details.append(f"{label} {elapsed:.2f}s ({solved.iterations} pivots)")
    report("A10", ", ".join(details))
