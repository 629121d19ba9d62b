"""Network simplex solver, dual potentials, and the optimal-vertex oracle."""

import itertools
import random
from fractions import Fraction as F
from operator import mul
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limbsys import (
    Coupling,
    CostMatrix,
    DemoConfig,
    DiscreteMarginal,
    DualInfeasibleError,
    DualPotentials,
    InfeasibleError,
    ShapeMismatchError,
    SizeLimitError,
    c_transform,
    enumerate_optimal_vertices,
    is_acyclic,
    is_unique_optimum,
    marginals_of,
    rational_demo_instance,
    solve,
    support_graph,
    validate_coupling,
    zero_set,
)
from limbsys import measures, transport

import oracles


def uniform(n):
    return DiscreteMarginal((F(1, n),) * n)


def check_solver_contract(mu, nu, c, report, exact):
    eps = 0 if exact else 1e-9
    assert validate_coupling(report.coupling, mu, nu)
    ok, _ = is_acyclic(support_graph(report.coupling))
    assert ok
    assert len(report.coupling.entries) <= mu.size + nu.size - 1
    q, r = report.potentials.q, report.potentials.r
    assert r[0] == 0
    for i in range(mu.size):
        for j in range(nu.size):
            assert c.at(i, j) - q[i] - r[j] >= -eps
    for i, j, _ in report.coupling.entries:
        assert abs(c.at(i, j) - q[i] - r[j]) <= eps
    assert abs(report.primal_value - report.dual_value) <= eps * (mu.size + nu.size)


class TestSolve:
    def test_single_cell(self):
        report = solve(DiscreteMarginal((F(1),)), DiscreteMarginal((F(1),)), CostMatrix(((5,),)))
        assert report.coupling == Coupling(1, 1, ((0, 0, F(1)),))
        assert report.primal_value == 5

    def test_exact_mass_below_eps_mass_is_kept(self):
        t = F(1, 10**13)
        mu, nu = DiscreteMarginal((1, t)), DiscreteMarginal((t, 1))
        report = solve(mu, nu, CostMatrix(((1, 0), (0, 1))))
        assert report.coupling == Coupling(2, 2, ((0, 1, 1), (1, 0, t)))
        assert validate_coupling(report.coupling, mu, nu)
        assert report.primal_value == report.dual_value == 0

    def test_zero_cost_matching(self):
        c = CostMatrix(tuple(tuple(0 if i == j else 1 for j in range(3)) for i in range(3)))
        report = solve(uniform(3), uniform(3), c)
        assert report.primal_value == 0
        assert report.coupling == Coupling(3, 3, tuple((i, i, F(1, 3)) for i in range(3)))

    def test_rational_instances_match_bruteforce_minimum(self):
        rng = random.Random(2024)
        shapes = [(3, 3), (2, 4), (3, 4), (2, 5), (2, 6)]
        for trial in range(12):
            m, n = shapes[trial % len(shapes)]
            mu = DiscreteMarginal(oracles.random_rational_weights(rng, m))
            nu_raw = oracles.random_rational_weights(rng, n)
            scale = mu.total() / sum(nu_raw)
            nu = DiscreteMarginal(tuple(w * scale for w in nu_raw))
            c = CostMatrix(
                tuple(tuple(F(rng.randint(-30, 60), 7) for _ in range(n)) for _ in range(m))
            )
            report = solve(mu, nu, c)
            check_solver_contract(mu, nu, c, report, exact=True)
            _, best = oracles.optimal_vertices_bruteforce(mu, nu, c)
            assert report.primal_value == best

    def test_float_contract(self):
        rng = random.Random(8)
        for _ in range(15):
            m, n = rng.randint(1, 9), rng.randint(1, 9)
            mu_w = [rng.random() + 0.05 for _ in range(m)]
            nu_w = [rng.random() + 0.05 for _ in range(n)]
            s = sum(mu_w)
            nu_w = [w * s / sum(nu_w) for w in nu_w]
            nu_w[0] += s - sum(nu_w)
            mu, nu = DiscreteMarginal(tuple(mu_w)), DiscreteMarginal(tuple(nu_w))
            c = CostMatrix(tuple(tuple(rng.uniform(-1, 2) for _ in range(n)) for _ in range(m)))
            check_solver_contract(mu, nu, c, solve(mu, nu, c), exact=False)

    def test_degenerate_ties_terminate(self):
        mu = DiscreteMarginal((F(1, 4),) * 4)
        c = CostMatrix(tuple(tuple((i + j) % 3 for j in range(4)) for i in range(4)))
        report = solve(mu, mu, c)
        _, best = oracles.optimal_vertices_bruteforce(mu, mu, c)
        assert report.primal_value == best

    def test_heavily_degenerate_instances_against_oracle(self):
        # Equal masses and tiny cost alphabets produce the tied pivots that
        # make naive rules cycle; strongly feasible bases must still
        # terminate, on optima.
        rng = random.Random(5150)
        for _ in range(25):
            m, n = rng.randint(2, 4), rng.randint(2, 4)
            mu = DiscreteMarginal((F(1, m),) * m)
            nu = DiscreteMarginal((F(1, n),) * n)
            c = CostMatrix(tuple(tuple(F(rng.randint(0, 2)) for _ in range(n)) for _ in range(m)))
            report = solve(mu, nu, c)
            check_solver_contract(mu, nu, c, report, exact=True)
            _, best = oracles.optimal_vertices_bruteforce(mu, nu, c)
            assert report.primal_value == best

    def test_unbalanced_reports_both_totals(self):
        with pytest.raises(InfeasibleError, match=r"Fraction\(1, 1\).*Fraction\(3, 4\)"):
            solve(DiscreteMarginal((F(1),)), DiscreteMarginal((F(3, 4),)), CostMatrix(((0,),)))

    def test_zero_against_positive_marginal(self):
        with pytest.raises(InfeasibleError):
            solve(DiscreteMarginal((0, 0)), DiscreteMarginal((F(1), F(1))), CostMatrix(((0, 0), (0, 0))))

    def test_zero_total_mass_solves_to_empty_coupling(self):
        zero = DiscreteMarginal((0, 0))
        c = CostMatrix(((3, -1), (2, 5)))
        report = solve(zero, zero, c)
        assert report.coupling.entries == ()
        assert report.primal_value == 0
        check_solver_contract(zero, zero, c, report, exact=True)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            solve(uniform(2), uniform(3), CostMatrix(((0, 0), (0, 0))))

    @pytest.mark.parametrize("short", ["first", "second"])
    def test_total_gap_within_the_allowed_slack_is_dropped(self, short):
        # 1.5e-12 is above the mass threshold 5e-13 and below the slack
        # (m + n) * 5e-13 the instance check allows between the totals.
        half, over = DiscreteMarginal((0.5, 0.5)), DiscreteMarginal((0.5, 0.5 + 1.5e-12))
        mu, nu = (half, over) if short == "first" else (over, half)
        report = solve(mu, nu, CostMatrix(((0.0, 1.0), (1.0, 0.0))))
        assert report.coupling.entries == ((0, 0, 0.5), (1, 1, 0.5))
        assert report.primal_value == 0
        assert abs(report.dual_value) <= 1e-11

    def test_random_total_gaps_within_the_allowed_slack(self):
        rng = random.Random(1507)
        for trial in range(200):
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            mu = [rng.uniform(0.1, 1.0) for _ in range(m)]
            nu = [rng.uniform(0.1, 1.0) for _ in range(n)]
            nu = [w * sum(mu) / sum(nu) for w in nu]
            # A gap between the mass threshold and the slack, on either side.
            eps = 1e-12 * max(mu + nu)
            side = nu if trial % 2 else mu
            side[rng.randrange(len(side))] += rng.uniform(1.01, m + n - 0.01) * eps
            mu, nu = DiscreteMarginal(mu), DiscreteMarginal(nu)
            c = CostMatrix(tuple(tuple(rng.uniform(-1, 1) for _ in range(n)) for _ in range(m)))
            report = solve(mu, nu, c)
            row, col = marginals_of(report.coupling)
            slack = (m + n) * eps
            assert all(abs(a - b) <= slack for a, b in zip(row.weights + col.weights, mu.weights + nu.weights))
            assert report.coupling.cells() <= zero_set(c, report.potentials).edges

    def test_total_gap_riding_on_a_real_arc_is_dropped(self):
        # The gap of 6.93e-12 between the totals reaches the root through
        # cell (2, 3), above the mass threshold 1e-12; no optimal vertex of
        # the exact instance has that cell.
        mu = DiscreteMarginal((1.0, 0.99999999999307, 1.0))
        nu = DiscreteMarginal((1, 0, 1, 1))
        c = CostMatrix(((1, 2, 0, 2), (2, 0, 2, 0), (1, 0, 0, 0)))
        cells = solve(mu, nu, c).coupling.cells()
        assert cells == {(0, 2), (1, 3), (2, 0)}
        assert cells in [g.cells() for g in enumerate_optimal_vertices(mu, nu, c)]

    def test_costs_near_the_float_maximum_solve(self):
        # The artificial cost 2 (m + n + 1) max|c| would overflow; pricing
        # runs on costs scaled down by a power of two.
        one = DiscreteMarginal((1.0, 1.0))
        report = solve(one, one, CostMatrix(((1e308, 0.0), (0.0, 1e308))))
        assert report.coupling.entries == ((0, 1, 1.0), (1, 0, 1.0))
        assert report.primal_value == report.dual_value == 0
        mu, nu = DiscreteMarginal((1.0, 1.0, 0.25)), DiscreteMarginal((1.125, 1.125))
        c = CostMatrix(((1.7e308, 2.0), (3e307, 1.7e308), (3e307, 1.7e308)))
        report = solve(mu, nu, c)
        assert validate_coupling(report.coupling, mu, nu)
        assert report.coupling.cells() <= zero_set(c, report.potentials).edges
        assert report.primal_value == 5.5e307
        assert abs(report.dual_value - report.primal_value) <= 1e-9 * report.primal_value

    def test_potentials_beyond_the_float_range_raise(self):
        # With r[0] = 0, r[1] = 1.7e308 + 1e308 has no float.
        mu, nu = DiscreteMarginal((0.5,)), DiscreteMarginal((0.125,) * 4)
        with pytest.raises(ValueError, match="potentials"):
            solve(mu, nu, CostMatrix(((-1e308, 1.7e308, 1.0, 0.5),)))


def degenerate_instance(case, as_type):
    """Equal masses with tied costs, on which pivots can move no mass."""
    kind, m, n, seed = case
    rng = random.Random(seed)
    if kind == "zero-one":
        rows = [[rng.randint(0, 1) for _ in range(n)] for _ in range(m)]
    elif kind == "zero":
        rows = [[0] * n for _ in range(m)]
    else:
        rows = [[(i + j) % 3 for j in range(n)] for i in range(m)]
    mu = DiscreteMarginal((as_type(1) / m,) * m)
    nu = DiscreteMarginal((as_type(1) / n,) * n)
    return mu, nu, CostMatrix(tuple(tuple(as_type(v) for v in row) for row in rows))


DEGENERATE_CASES = [
    ("zero-one", m, n, seed)
    for m, n in ((3, 3), (4, 6), (8, 8), (12, 9), (16, 16))
    for seed in (1, 2)
] + [("zero", 20, 20, 0)] + [("mod3", m, n, 0) for m, n in ((4, 4), (6, 9), (12, 12), (16, 16))]


@pytest.mark.parametrize("as_type", [F, float], ids=["exact", "float"])
@pytest.mark.parametrize("case", DEGENERATE_CASES, ids=lambda case: "{}-{}x{}-{}".format(*case))
def test_degenerate_instances_land_on_the_optimal_face(case, as_type):
    mu, nu, c = degenerate_instance(case, as_type)
    report = solve(mu, nu, c)
    oracles.assert_on_optimal_face(mu, nu, c, report, exact=as_type is F)
    assert 0 <= report.degenerate_pivots <= report.iterations


def test_zero_masses_and_tied_costs():
    # Points with nothing to send or receive start on arcs that carry
    # nothing; the start must still be strongly feasible.
    rng = random.Random(61)
    for trial in range(60):
        m, n = rng.randint(2, 7), rng.randint(2, 7)
        grid = [[rng.choice((0, 0, 1, 2)) for _ in range(n)] for _ in range(m)]
        as_type = F if trial % 2 else float
        mu = DiscreteMarginal(tuple(as_type(sum(row)) for row in grid))
        nu = DiscreteMarginal(tuple(as_type(sum(col)) for col in zip(*grid)))
        c = CostMatrix(tuple(tuple(as_type(rng.randint(-1, 1)) for _ in range(n)) for _ in range(m)))
        oracles.assert_on_optimal_face(mu, nu, c, solve(mu, nu, c), exact=as_type is F)


def test_degenerate_pivots_are_counted():
    # On (i + j) % 3 costs over 8 x 8 some pivots move no mass; rescaling the
    # masses changes none of them.
    mu, nu, c = degenerate_instance(("mod3", 8, 8, 0), F)
    report = solve(mu, nu, c)
    assert 0 < report.degenerate_pivots < report.iterations
    scaled = solve(*rescaled(mu, nu, c, F(3), F(1)))
    assert (scaled.iterations, scaled.degenerate_pivots) == (report.iterations, report.degenerate_pivots)


def integer_instance(rng, m, n, as_type):
    """Balanced instance with integer-valued masses and costs: the marginals
    of a random integer matrix with some empty cells."""
    grid = [[rng.choice((0, rng.randint(1, 40))) for _ in range(n)] for _ in range(m)]
    grid[0][0] += 1
    mu = DiscreteMarginal(tuple(as_type(sum(row)) for row in grid))
    nu = DiscreteMarginal(tuple(as_type(sum(col)) for col in zip(*grid)))
    c = CostMatrix(tuple(tuple(as_type(rng.randint(-50, 50)) for _ in range(n)) for _ in range(m)))
    return mu, nu, c


def rescaled(mu, nu, c, s, t):
    return (
        DiscreteMarginal(tuple(s * w for w in mu.weights)),
        DiscreteMarginal(tuple(s * w for w in nu.weights)),
        CostMatrix(tuple(tuple(t * v for v in row) for row in c.rows)),
    )


def assert_scales(report, scaled, s, t):
    assert scaled.coupling.entries == tuple((i, j, s * w) for i, j, w in report.coupling.entries)
    assert scaled.primal_value == s * t * report.primal_value
    assert scaled.iterations == report.iterations


# Many distinct denominators, so the common denominator of an instance
# runs to dozens of digits.
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 7919)


def mixed_exact_instance(rng, m, n):
    """Balanced instance mixing ints and Fractions: the marginals of a grid of
    zeros, ints and Fractions over distinct prime denominators, and costs of
    both kinds."""

    def value(low, high):
        return rng.choice((rng.randint(low, high), F(rng.randint(30 * low, 30 * high), rng.choice(PRIMES))))

    grid = [[rng.choice((0, value(1, 3))) for _ in range(n)] for _ in range(m)]
    rows = [[value(-4, 4) for _ in range(n)] for _ in range(m)]
    grid[0][0], rows[0][0] = F(1, rng.choice(PRIMES)), F(1, rng.choice(PRIMES)) + rows[0][0]
    mu = DiscreteMarginal(tuple(sum(row) for row in grid))
    nu = DiscreteMarginal(tuple(sum(col) for col in zip(*grid)))
    return mu, nu, CostMatrix(rows)


class TestScaleInvariance:
    """Rescaling the masses by s and the costs by t changes no decision of
    the solver: the optimum scales by s, its value by s * t."""

    def test_float_power_of_two_scalings(self):
        # Power-of-two factors multiply floats exactly, so the scaled solve
        # must reproduce the original bit for bit.  Exponents stay within
        # the normal float range for every product the solver forms.
        rng = random.Random(4147)
        for _ in range(40):
            mu, nu, c = integer_instance(rng, rng.randint(2, 6), rng.randint(2, 6), float)
            report = solve(mu, nu, c)
            for _ in range(4):
                a = rng.randint(-1000, 60)
                b = rng.randint(max(-1000, -1000 - a), 60)
                s, t = 2.0**a, 2.0**b
                assert_scales(report, solve(*rescaled(mu, nu, c, s, t)), s, t)

    def test_exact_rational_scalings(self):
        rng = random.Random(1004)
        for _ in range(25):
            mu, nu, c = integer_instance(rng, rng.randint(2, 6), rng.randint(2, 6), F)
            report = solve(mu, nu, c)
            for _ in range(3):
                s = F(rng.randint(1, 10**6), rng.randint(1, 10**30))
                t = F(rng.randint(1, 10**30), rng.randint(1, 10**6))
                assert_scales(report, solve(*rescaled(mu, nu, c, s, t)), s, t)

    def test_common_denominators_are_divided_back(self):
        # Exact data pivot as ints, masses scaled by the lcm L of their
        # denominators and costs by that of theirs, K.  Solving the scaled
        # instance directly must take the same pivots, with masses L times
        # and potentials K times those returned for the original.
        rng = random.Random(1407)
        for _ in range(20):
            mu, nu, c = mixed_exact_instance(rng, rng.randint(2, 6), rng.randint(2, 6))
            big_l = measures.common_denominator(mu.weights, nu.weights)
            big_k = measures.common_denominator(*c.rows)
            assert big_l > 1 and big_k > 1
            report = solve(mu, nu, c)
            scaled = solve(*rescaled(mu, nu, c, big_l, big_k))
            assert_scales(report, scaled, big_l, big_k)
            assert scaled.degenerate_pivots == report.degenerate_pivots
            assert scaled.potentials.q == tuple(big_k * x for x in report.potentials.q)
            assert scaled.potentials.r == tuple(big_k * x for x in report.potentials.r)

    def test_tiny_masses_are_not_dust(self):
        mu = DiscreteMarginal((1e-13, 1e-13))
        c = CostMatrix(((1.0, 2.0), (2.0, 1.0)))
        report = solve(mu, mu, c)
        assert report.coupling.entries == ((0, 0, 1e-13), (1, 1, 1e-13))
        assert report.primal_value == 2e-13
        assert not validate_coupling(Coupling(2, 2, ()), mu, mu)

    def test_tiny_costs_still_pivot(self):
        half = DiscreteMarginal((0.5, 0.5))
        report = solve(half, half, CostMatrix(((1e-11, 0.0), (0.0, 1e-11))))
        assert report.coupling.entries == ((0, 1, 0.5), (1, 0, 0.5))
        assert report.primal_value == 0
        assert report.iterations > 0


class TestCTransform:
    def test_zero_everything(self):
        assert c_transform((0, 0), CostMatrix(((0, 0), (0, 0)))) == (0, 0)

    def test_row_minima(self):
        assert c_transform((0, 0), CostMatrix(((1, 3), (2, 0)))) == (1, 0)

    def test_fixed_point_at_optimum(self):
        rng = random.Random(77)
        for _ in range(10):
            mu, nu, c = oracles.random_rational_instance(rng, 5, 5)
            report = solve(mu, nu, c)
            q, r = report.potentials.q, report.potentials.r
            assert c_transform(r, c) == q
            transposed = CostMatrix(tuple(zip(*c.rows)))
            assert c_transform(q, transposed) == r

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            c_transform((0, 0, 0), CostMatrix(((1, 2), (3, 4))))


class TestZeroSet:
    def test_zero_cost_gives_complete_graph(self):
        c = CostMatrix(((0, 0), (0, 0)))
        z = zero_set(c, DualPotentials((0, 0), (0, 0)))
        assert z.edges == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_diagonal_cost_gives_diagonal_set(self):
        c = CostMatrix(tuple(tuple(0 if i == j else 1 for j in range(3)) for i in range(3)))
        z = zero_set(c, DualPotentials((0, 0, 0), (0, 0, 0)))
        assert z.edges == {(0, 0), (1, 1), (2, 2)}

    def test_shape_mismatch_names_both_shapes(self):
        c = CostMatrix(((0, 0), (0, 0)))
        with pytest.raises(ShapeMismatchError, match="sizes 1 and 2 but cost is 2x2"):
            zero_set(c, DualPotentials((0,), (0, 0)))

    def test_infeasible_potentials_raise(self):
        c = CostMatrix(((0, 0), (0, 0)))
        with pytest.raises(DualInfeasibleError):
            zero_set(c, DualPotentials((1, 0), (0, 0)))

    def test_contains_support_of_every_optimal_vertex(self):
        rng = random.Random(13)
        for _ in range(8):
            mu, nu, c = oracles.random_rational_instance(rng, 4, 4)
            report = solve(mu, nu, c)
            z = zero_set(c, report.potentials)
            optima, _ = oracles.optimal_vertices_bruteforce(mu, nu, c)
            for vertex in optima:
                assert vertex.cells() <= z.edges

    def test_simplex_zero_set_covers_enumerated_optima_5x5(self):
        # The simplex and shortest-path solvers normalize their duals
        # differently, but any optimal dual's zero set must contain the
        # support of every optimal vertex, here enumerated on the zero set
        # of the shortest-path duals.
        rng = random.Random(29)
        for _ in range(10):
            mu, nu, c = oracles.random_rational_instance(rng, 5, 5)
            z = zero_set(c, solve(mu, nu, c).potentials)
            for vertex in oracles.optimal_vertices_by_backtracking(mu, nu, c):
                assert vertex.cells() <= z.edges


class TestEnumerateOptimalVertices:
    def test_matches_bruteforce_exactly(self):
        rng = random.Random(31)
        shapes = [(3, 3), (2, 4), (3, 4), (2, 5)]
        for trial in range(10):
            m, n = shapes[trial % len(shapes)]
            mu = DiscreteMarginal(oracles.random_rational_weights(rng, m, denom=6))
            nu_raw = oracles.random_rational_weights(rng, n, denom=6)
            scale = mu.total() / sum(nu_raw)
            nu = DiscreteMarginal(tuple(w * scale for w in nu_raw))
            c = CostMatrix(tuple(tuple(F(rng.randint(0, 4)) for _ in range(n)) for _ in range(m)))
            found = enumerate_optimal_vertices(mu, nu, c)
            expected, _ = oracles.optimal_vertices_bruteforce(mu, nu, c)
            assert sorted(g.entries for g in found) == sorted(g.entries for g in expected)

    def test_separated_costs_give_one_vertex(self):
        mu = DiscreteMarginal((F(1, 6), F(1, 3), F(1, 2)))
        nu = DiscreteMarginal((F(1, 2), F(1, 3), F(1, 6)))
        c = CostMatrix(tuple(tuple(F(3) ** (3 * i + j) for j in range(3)) for i in range(3)))
        expected, _ = oracles.optimal_vertices_bruteforce(mu, nu, c)
        assert len(expected) == 1
        found = enumerate_optimal_vertices(mu, nu, c)
        assert [g.entries for g in found] == [g.entries for g in expected]
        assert is_unique_optimum(mu, nu, c)

    def test_flat_cost_on_uniform_2x2(self):
        c = CostMatrix(((0, 0), (0, 0)))
        found = enumerate_optimal_vertices(uniform(2), uniform(2), c)
        half = F(1, 2)
        assert sorted(g.entries for g in found) == [
            ((0, 0, half), (1, 1, half)),
            ((0, 1, half), (1, 0, half)),
        ]
        assert not is_unique_optimum(uniform(2), uniform(2), c)

    def test_single_cell(self):
        found = enumerate_optimal_vertices(
            DiscreteMarginal((F(1),)), DiscreteMarginal((F(1),)), CostMatrix(((2,),))
        )
        assert [g.entries for g in found] == [((0, 0, F(1)),)]

    def test_desk_scale_guard(self):
        with pytest.raises(SizeLimitError):
            enumerate_optimal_vertices(
                uniform(9), uniform(8), CostMatrix(((0,) * 8,) * 9)
            )

    def test_degenerate_faces_match_bruteforce(self):
        # Equal masses and costs in {0, 1, 2} give degenerate vertices, which
        # many spanning trees share.  Float copies must list each vertex
        # once, on the same support, with nothing below the mass threshold.
        rng = random.Random(4477)
        for _ in range(40):
            m, n = rng.randint(1, 3), rng.randint(1, 4)
            costs = [[rng.randint(0, 2) for _ in range(n)] for _ in range(m)]
            mu, nu = DiscreteMarginal((F(1, m),) * m), DiscreteMarginal((F(1, n),) * n)
            c = CostMatrix(tuple(tuple(F(v) for v in row) for row in costs))
            expected, _ = oracles.optimal_vertices_bruteforce(mu, nu, c)
            found = enumerate_optimal_vertices(mu, nu, c)
            assert [g.entries for g in found] == [g.entries for g in expected]

            floats = enumerate_optimal_vertices(
                DiscreteMarginal((1 / m,) * m),
                DiscreteMarginal((1 / n,) * n),
                CostMatrix(tuple(tuple(float(v) for v in row) for row in costs)),
            )
            by_support = {tuple(sorted(g.cells())): g for g in floats}
            assert len(by_support) == len(floats)
            assert sorted(by_support) == sorted(tuple(sorted(g.cells())) for g in expected)
            for g in expected:
                near = by_support[tuple(sorted(g.cells()))]
                for (_, _, w), (_, _, x) in zip(g.entries, near.entries):
                    assert abs(x - w) <= 1e-9 * w

    def test_large_planted_faces_match_the_backtracking_reference(self):
        # 6x6 faces with up to a few thousand spanning trees, beyond the
        # brute force: the same vertices, entries and order, as the
        # reference that peels every spanning tree from scratch.
        rng = random.Random(606)
        instances = [oracles.planted_tie_instance(rng, 6, 6, extra) for extra in (4, 6) * 12]
        instances.append(rational_demo_instance(DemoConfig(n=8)))
        counts = []
        for mu, nu, c in instances:
            found = enumerate_optimal_vertices(mu, nu, c)
            expected = oracles.optimal_vertices_by_backtracking(mu, nu, c)
            assert [g.entries for g in found] == [g.entries for g in expected]
            counts.append(len(found))
        assert max(counts) > 1 and counts[-1] == 1

    def test_matches_the_shortest_path_reference_where_the_zero_sets_differ(self):
        # Every optimal dual cuts out the same face, so the zero sets of the
        # simplex's and of the shortest-path duals, which may differ, must
        # give the same vertices, entries and order.
        rng = random.Random(5)
        instances = [rational_demo_instance(DemoConfig(n=6))]
        for _ in range(100):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            mu, nu = DiscreteMarginal((F(1, m),) * m), DiscreteMarginal((F(1, n),) * n)
            c = CostMatrix(tuple(tuple(F(rng.randint(0, 2)) for _ in range(n)) for _ in range(m)))
            instances.append((mu, nu, c))
        sizes = []
        for mu, nu, c in instances:
            found = enumerate_optimal_vertices(mu, nu, c)
            expected = oracles.optimal_vertices_by_backtracking(mu, nu, c)
            assert [g.entries for g in found] == [g.entries for g in expected]
            shortest = DualPotentials(*oracles._ssp_duals(mu.weights, nu.weights, c.rows, 0))
            simplex = solve(mu, nu, c).potentials
            sizes.append((len(zero_set(c, shortest).edges), len(zero_set(c, simplex).edges)))
        assert sizes[0] == (10, 13)
        assert any(a != b for a, b in sizes[1:])

    def test_potentials_are_certified(self, monkeypatch):
        # The oracle proves the potentials it is given: a coupling on the
        # zero set of feasible potentials makes them optimal, so feasible
        # potentials that are not optimal leave a point unserved and raise.
        ones, c = DiscreteMarginal((1, 1)), CostMatrix(((1, 2), (2, 1)))

        def enumerate_with(q, r):
            fake = SimpleNamespace(potentials=DualPotentials(q, r))
            monkeypatch.setattr(transport, "_solve", lambda *_: fake)
            return enumerate_optimal_vertices(ones, ones, c)

        for q, r in [((0, 0), (0, 0)), ((0, 0), (0, 1))]:
            with pytest.raises(AssertionError):
                enumerate_with(q, r)
        with pytest.raises(DualInfeasibleError):
            enumerate_with((2, 0), (0, 0))
        assert [g.entries for g in enumerate_with((1, 0), (0, 1))] == [((0, 0, 1), (1, 1, 1))]

    def test_components_are_walked_one_by_one(self):
        # Two flat 4x4 blocks: each component is a Birkhoff face of 24
        # vertices and the face is their product.  One walk over both blocks
        # would exceed the bases guard.
        unit = DiscreteMarginal((1,) * 8)
        c = CostMatrix(tuple(tuple(0 if i // 4 == j // 4 else 1 for j in range(8)) for i in range(8)))
        assert len(enumerate_optimal_vertices(unit, unit, c)) == 576

    def test_float_copy_of_a_unique_optimum_is_unique(self):
        # The demo's unique vertex is degenerate: several spanning trees
        # carry it, and in floats they peel to masses that differ in the
        # last digits and to dust on its zero-mass cells.
        mu, nu, c = rational_demo_instance(DemoConfig(n=8))
        [exact] = enumerate_optimal_vertices(mu, nu, c)
        floats = (
            DiscreteMarginal(tuple(map(float, mu.weights))),
            DiscreteMarginal(tuple(map(float, nu.weights))),
            CostMatrix(tuple(tuple(map(float, row)) for row in c.rows)),
        )
        [vertex] = enumerate_optimal_vertices(*floats)
        assert vertex.cells() == exact.cells()
        assert is_unique_optimum(*floats)

    @pytest.mark.parametrize("short", ["first", "second"])
    def test_total_gap_within_the_allowed_slack_is_absorbed(self, short):
        # 3e-12 is above the balance allowance 2 * 1e-12 of the 2-point
        # component {row 1, column 1} and below the slack (m + n) * 1e-12
        # the instance check allows between the totals.
        even, over = DiscreteMarginal((1.0, 1.0)), DiscreteMarginal((1.0, 1.0 + 3e-12))
        mu, nu = (even, over) if short == "first" else (over, even)
        c = CostMatrix(((0.0, 1.0), (1.0, 0.0)))
        [vertex] = enumerate_optimal_vertices(mu, nu, c)
        assert vertex.cells() == {(0, 0), (1, 1)}
        assert is_unique_optimum(mu, nu, c)

    def test_balanced_float_totals_keep_cells_above_the_mass_threshold(self):
        # Equal totals leave no gap to absorb: the 3e-12 cells lie above the
        # mass threshold 1e-12 and below the slack (m + n) * 1e-12, and both
        # the diagonal and the anti-diagonal vertex of the flat face stay.
        mu = nu = DiscreteMarginal((1.0, 3e-12))
        c = CostMatrix(((0.0, 0.0), (0.0, 0.0)))
        vertices = enumerate_optimal_vertices(mu, nu, c)
        assert sorted(sorted(g.cells()) for g in vertices) == [
            [(0, 0), (0, 1), (1, 0)],
            [(0, 0), (1, 1)],
        ]
        assert not is_unique_optimum(mu, nu, c)
        assert solve(mu, nu, c).coupling.entries in [g.entries for g in vertices]

    def test_random_total_gaps_keep_the_exact_supports(self):
        # Integer masses make degenerate faces, whose zero-mass edges carry
        # whatever part of the gap lies beyond them: some trees peel a leaf
        # mass below -eps, others keep a gap-sized cell.
        rng = random.Random(5)
        for trial in range(300):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            mu = [rng.randint(1, 3) for _ in range(m)]
            cuts = sorted(rng.randint(0, sum(mu)) for _ in range(n - 1))
            nu = [b - a for a, b in zip([0] + cuts, cuts + [sum(mu)])]
            c = [[rng.randint(0, 2) for _ in range(n)] for _ in range(m)]
            exact = enumerate_optimal_vertices(
                DiscreteMarginal(tuple(mu)), DiscreteMarginal(tuple(nu)), CostMatrix(tuple(map(tuple, c)))
            )
            fmu, fnu = [float(w) for w in mu], [float(w) for w in nu]
            side = fnu if trial % 2 else fmu
            k = rng.choice([i for i, w in enumerate(side) if w > 0])
            slack = (m + n) * 1e-12 * max(fmu + fnu)
            side[k] += rng.choice((-1, 1)) * rng.uniform(0.1, 0.99) * slack
            floats = (
                DiscreteMarginal(tuple(fmu)),
                DiscreteMarginal(tuple(fnu)),
                CostMatrix(tuple(tuple(map(float, row)) for row in c)),
            )
            supports = sorted(sorted(g.cells()) for g in enumerate_optimal_vertices(*floats))
            assert supports == sorted(sorted(g.cells()) for g in exact), (c, fmu, fnu)
            assert sorted(solve(*floats).coupling.cells()) in supports, (c, fmu, fnu)
            assert is_unique_optimum(*floats) == (len(exact) == 1)

    def test_bases_guard(self, monkeypatch):
        # The flat 4x4 face is the Birkhoff polytope: its 24 vertices are the
        # permutations, and its walk takes more than 100 states.
        flat = CostMatrix(((0,) * 4,) * 4)
        found = enumerate_optimal_vertices(uniform(4), uniform(4), flat)
        assert [g.entries for g in found] == sorted(
            tuple((i, p[i], F(1, 4)) for i in range(4)) for p in itertools.permutations(range(4))
        )
        monkeypatch.setattr(transport, "ORACLE_MAX_BASES", 100)
        with pytest.raises(SizeLimitError):
            enumerate_optimal_vertices(uniform(4), uniform(4), flat)

    def test_unbalanced_instance_rejected(self):
        with pytest.raises(InfeasibleError):
            enumerate_optimal_vertices(
                DiscreteMarginal((F(1),)), DiscreteMarginal((F(2),)), CostMatrix(((0,),))
            )


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.data(),
)
def test_triple_transform_collapses(m, n, data):
    # One transform already lands on a tight potential, so transforming
    # twice more changes nothing: T(T(T(r))) == T(r) for any start.
    rows = tuple(
        tuple(data.draw(st.integers(min_value=-9, max_value=9)) for _ in range(n))
        for _ in range(m)
    )
    r0 = tuple(data.draw(st.integers(min_value=-9, max_value=9)) for _ in range(n))
    c = CostMatrix(rows)
    transposed = CostMatrix(tuple(zip(*rows)))
    q1 = c_transform(r0, c)
    r1 = c_transform(q1, transposed)
    q2 = c_transform(r1, c)
    assert q2 == q1


def exact_values(low, high):
    """Ints, and Fractions over many distinct denominators, in [low, high]."""
    return st.one_of(
        st.integers(low, high),
        st.builds(F, st.integers(30 * low, 30 * high), st.sampled_from(PRIMES)),
    )


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4), st.data())
def test_mixed_exact_data_match_the_reference_oracles(m, n, data):
    # Solve and the vertex oracle run exact data as ints after one
    # common-denominator scaling; on ints mixed with Fractions over many
    # denominators they must agree with the references, which run on the
    # data as given: the value of the shortest-path duals, the support
    # inside their zero set, and the backtracking enumerator's vertices.
    grid = [[data.draw(exact_values(0, 3)) for _ in range(n)] for _ in range(m)]
    mu = DiscreteMarginal(tuple(sum(row) for row in grid))
    nu = DiscreteMarginal(tuple(sum(col) for col in zip(*grid)))
    c = CostMatrix(tuple(tuple(data.draw(exact_values(-4, 4)) for _ in range(n)) for _ in range(m)))
    report = solve(mu, nu, c)
    q, r = oracles._ssp_duals(mu.weights, nu.weights, c.rows, 0)
    value = sum(map(mul, q, mu.weights)) + sum(map(mul, r, nu.weights))
    assert report.primal_value == report.dual_value == value
    assert report.coupling.cells() <= zero_set(c, DualPotentials(q, r)).edges
    found = enumerate_optimal_vertices(mu, nu, c)
    expected = oracles.optimal_vertices_by_backtracking(mu, nu, c)
    assert [g.entries for g in found] == [g.entries for g in expected]
