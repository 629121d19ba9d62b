"""Network simplex solver, dual potentials, and the optimal-vertex oracle."""

import hashlib
import itertools
import math
import random
import sys
from enum import IntEnum
from fractions import Fraction as F
from functools import reduce
from operator import add, mul

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
    LimbsysError,
    ShapeMismatchError,
    SizeLimitError,
    SuboptimalPotentialsError,
    decompose,
    enumerate_optimal_vertices,
    is_acyclic,
    is_unique_optimum,
    marginals_of,
    rational_demo_instance,
    reconstruct,
    run_demo,
    solve,
    support_graph,
    validate_coupling,
    zero_set,
)
from limbsys import measures, transport

import oracles


class WholeFraction(F):
    """A Fraction subclass: exact data typed as a Fraction."""


class Level(IntEnum):
    """An int subclass: exact data typed as an int."""

    LOW = 1
    HIGH = 2


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

    @pytest.mark.parametrize(
        "mu, nu, said",
        [
            ((1, 2), (2,), r"carries 3, second 2;"),
            ((F(2), F(1)), (F(2),), r"carries Fraction\(3, 1\), second Fraction\(2, 1\);"),
            ((F(1, 3), F(1, 3)), (F(2, 3) + F(1, 10**20),), r"carries Fraction\(2, 3\), second Fraction\(2"),
        ],
        ids=["int", "whole-fraction", "fraction-gap-1e-20"],
    )
    def test_unbalanced_exact_totals_are_named_as_summed(self, mu, nu, said):
        # Exact totals are compared as ints after scaling; the message
        # names them as the caller's values sum.
        with pytest.raises(InfeasibleError, match=said):
            solve(DiscreteMarginal(mu), DiscreteMarginal(nu), CostMatrix(((0,),) * len(mu)))

    @pytest.mark.parametrize(
        "mu, nu, rows, value",
        [
            ((1, 2), (2, 1), ((1, 2), (3, 4)), 8),
            ((F(1, 2), 2), (2, F(1, 2)), ((1, 2), (3, 4)), F(7)),
            ((F(2), 1), (1, F(2)), ((1, 2), (3, 4)), F(7)),
            ((1, 2), (2, 1), ((F(1, 2), 2), (3, 4)), F(15, 2)),
            ((1, 0), (1, 0), ((1, F(1, 3)), (3, 4)), F(1)),
            ((F(0), F(0)), (F(0), F(0)), ((1, 2), (3, 4)), F(0)),
            ((0, 0), (0, 0), ((1, 2), (3, 4)), 0),
            ((1, 2), (2, 1), ((WholeFraction(1), 2), (3, 4)), F(8)),
            ((1, 2), (2, 1), ((Level.LOW, Level.HIGH), (3, 4)), 8),
        ],
        ids=[
            "int",
            "fraction-masses",
            "whole-fraction-masses",
            "fraction-costs",
            "fraction-costs-off-the-support",
            "empty-support-fraction",
            "empty-support-int",
            "fraction-subclass-cost",
            "int-enum-costs",
        ],
    )
    def test_exact_values_are_typed_by_the_data(self, mu, nu, rows, value):
        # Both values are Fractions when a mass or a cost is, whole ones,
        # subclasses and an empty support included, and ints on int data,
        # int subclasses included.
        report = solve(DiscreteMarginal(mu), DiscreteMarginal(nu), CostMatrix(rows))
        assert type(report.primal_value) is type(report.dual_value) is type(value)
        assert report.primal_value == report.dual_value == value

    @pytest.mark.parametrize("rows", [((1, 2), (3, 4)), ((1.0, 2.0), (3.0, 4.0))], ids=["int-costs", "float-costs"])
    def test_float_empty_support_values_are_floats(self, rows):
        zero = DiscreteMarginal((0.0, 0.0))
        report = solve(zero, zero, CostMatrix(rows))
        assert report.coupling.entries == ()
        assert type(report.primal_value) is type(report.dual_value) is float
        assert report.primal_value == report.dual_value == 0.0

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

    def test_stray_flow_on_the_artificial_arcs_names_its_points(self, monkeypatch):
        # An instance whose totals differ past the check leaves mass on the
        # root arcs: a LimbsysError, which the command line reports, names
        # the points that still carry it.
        check = transport._check_instance
        ones, c = DiscreteMarginal((1, 1)), CostMatrix(((0, 1), (1, 0)))
        monkeypatch.setattr(transport, "_check_instance", lambda *data: check(*data)._replace(nu=[1, 3]))
        with pytest.raises(LimbsysError, match=r"still carry 2, at column 1$"):
            solve(ones, ones, c)
        # On float data, a root arc carrying only dust is not named.
        ones, c = DiscreteMarginal((1.0, 1.0)), CostMatrix(((0.0, 1.0), (1.0, 0.0)))
        monkeypatch.setattr(
            transport, "_check_instance", lambda *data: check(*data)._replace(nu=[1.0 + 1e-14, 3.0])
        )
        with pytest.raises(LimbsysError, match=r"still carry 2.0000000000000098, at column 1$"):
            solve(ones, ones, c)

    def test_optimum_value_beyond_the_float_range_raises(self):
        # Each product 1e300 * 1e10 overflows to inf.
        big = DiscreteMarginal((1e300, 1e300))
        with pytest.raises(ValueError, match="optimum value .* float range: primal inf, dual inf"):
            solve(big, big, CostMatrix(((1e10, 1e10), (1e10, 1e10))))

    def test_finite_optimum_with_overflowing_partial_sums(self):
        # q[0] * mu[1] = -2e308 overflows, so the dual value is summed over
        # masses scaled down; it is finite and equals the primal value.
        mu, nu = DiscreteMarginal((5e307, 1e308)), DiscreteMarginal((1.875e307, 5.625e307, 7.5e307))
        c = CostMatrix(((0.5, 2.0, 4.0), (0.0, 4.0, 0.5)))
        report = solve(mu, nu, c)
        assert report.coupling.entries == ((0, 1, 5e307), (1, 0, 1.875e307), (1, 1, 6.25e306), (1, 2, 7.5e307))
        assert report.potentials == DualPotentials((-2.0, 0.0), (0.0, 4.0, 0.5))
        assert report.primal_value == report.dual_value == 1.625e308
        # The oracle walks the masses scaled down too, and reads them back.
        assert enumerate_optimal_vertices(mu, nu, c) == [report.coupling]

    @pytest.mark.parametrize(
        "seed, count, top, cost",
        [
            # Family A: masses within a factor 4 of the float maximum.
            (1, 1000, 1.7e308, lambda rng: rng.random()),
            # Family B: products of up to 3e308 that cancel.
            (2, 500, 1e300, lambda rng: rng.choice((-1, 1)) * rng.uniform(1e7, 3e8)),
        ],
    )
    def test_optimum_values_raise_only_beyond_the_float_range(self, seed, count, top, cost):
        # Against the Fraction solve of the same floats, with the float gap
        # between the totals folded into the largest column weight.
        rng, biggest, raised = random.Random(seed), F(sys.float_info.max), 0
        for _ in range(count):
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            mu = [rng.uniform(0.3, 1.0) for _ in range(m)]
            nu = [rng.uniform(0.3, 1.0) for _ in range(n)]
            nu = [w * sum(mu) / sum(nu) for w in nu]
            peak = max(mu + nu)
            mu, nu = ([w / peak * top for w in ws] for ws in (mu, nu))
            c = CostMatrix([[cost(rng) for _ in range(n)] for _ in range(m)])
            mu_f, nu_f = [F(w) for w in mu], [F(w) for w in nu]
            nu_f[nu.index(max(nu))] += sum(mu_f) - sum(nu_f)
            exact = solve(DiscreteMarginal(mu_f), DiscreteMarginal(nu_f), CostMatrix([map(F, row) for row in c.rows]))
            try:
                report = solve(DiscreteMarginal(mu), DiscreteMarginal(nu), c)
            except ValueError:
                raised += 1
                assert abs(exact.primal_value) > biggest
                continue
            assert abs(exact.primal_value) <= biggest
            assert abs(F(report.primal_value) - exact.primal_value) <= 1e-9 * top * max(map(abs, itertools.chain(*c.rows)))
        assert 0 < raised < count


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


def test_readme_pivot_counts():
    # The pivot counts README "Scale" states for the float and exact demos.
    for n, pivots in ((64, 711), (96, 1266), (128, 2426)):
        assert run_demo(DemoConfig(n=n)).solve_report.iterations == pivots
    for n, pivots in ((32, 209), (64, 703)):
        assert solve(*rational_demo_instance(DemoConfig(n=n))).iterations == pivots


# Tall shapes price blocks of 2 and 3 rows, wide ones blocks of one row.
PINNED_SHAPES = ((12, 3), (20, 4), (27, 3), (40, 4), (60, 5), (3, 10), (5, 17), (6, 30), (9, 9))
PINNED_KINDS = ("float", "exact", "float-ties", "exact-ties", "float-flat", "exact-flat")


def pinned_instances():
    """(name, mu, nu, c) for each shape and kind: masses the marginals of a
    random grid with empty cells, or of a flat one (``flat``, whose flows
    tie often), and costs random (float, or Fractions for ``exact``) or
    drawn from {0, 1, 2} (``ties`` and ``flat``)."""
    rng = random.Random(2828)
    for m, n in PINNED_SHAPES:
        for kind in PINNED_KINDS:
            exact = kind.startswith("exact")
            if kind.endswith("flat"):
                grid = [[(1 if exact else 1.0)] * n for _ in range(m)]
            elif exact:
                grid = [
                    [rng.choice((0, F(rng.randint(1, 9), rng.choice((1, 4, 6))))) for _ in range(n)] for _ in range(m)
                ]
            else:
                grid = [[rng.choice((0.0, rng.random())) for _ in range(n)] for _ in range(m)]
            grid[0][0] += 1 - kind.endswith("flat")
            # Summed left to right: sum() of floats is compensated from 3.12.
            mu = DiscreteMarginal(tuple(reduce(add, row) for row in grid))
            nu = DiscreteMarginal(tuple(reduce(add, col) for col in zip(*grid)))

            def cost():
                if kind.endswith(("float", "exact")):
                    return F(rng.randint(-40, 40), rng.randint(1, 7)) if exact else rng.uniform(-1.0, 1.0)
                return rng.randrange(3) if exact else float(rng.randrange(3))

            c = CostMatrix(tuple(tuple(cost() for _ in range(n)) for _ in range(m)))
            yield f"{m}x{n}-{kind}", mu, nu, c


# (pivots, degenerate pivots, digest of the entries and potentials) of each
# pinned instance, as the simplex gave them when they were recorded: a change
# to pricing or to the ratio test must keep every pivot.  The values are left
# out, as sum() of floats rounds differently from Python 3.12.
PINNED_PATHS = dict([
    ("12x3-float", (21, 6, "7449d6bc2d986a6f")),
    ("12x3-exact", (22, 3, "b630ab56ac831de3")),
    ("12x3-float-ties", (19, 1, "34c932af9c878349")),
    ("12x3-exact-ties", (20, 0, "49740b3b3ef8889a")),
    ("12x3-float-flat", (14, 2, "9dd65fd13694419a")),
    ("12x3-exact-flat", (16, 4, "0971f770e3c30ba0")),
    ("20x4-float", (40, 3, "374c2dacb3e56048")),
    ("20x4-exact", (34, 3, "ef6531915b48b500")),
    ("20x4-float-ties", (27, 2, "742177b15d725f96")),
    ("20x4-exact-ties", (33, 4, "35d9ff125e90abf6")),
    ("20x4-float-flat", (33, 12, "6a362cc8cc5bc7d4")),
    ("20x4-exact-flat", (29, 9, "a8ef83f7e342ddd8")),
    ("27x3-float", (41, 1, "0d91e4a348ea3f35")),
    ("27x3-exact", (35, 6, "93b994b35359d22b")),
    ("27x3-float-ties", (38, 3, "b1cc146b9a59065d")),
    ("27x3-exact-ties", (43, 4, "7f26022e12e7df88")),
    ("27x3-float-flat", (34, 7, "9d06e52b6a3432be")),
    ("27x3-exact-flat", (37, 10, "f9897849dd95e535")),
    ("40x4-float", (65, 6, "65608c2d317f5650")),
    ("40x4-exact", (58, 0, "253848bc8ff336f1")),
    ("40x4-float-ties", (54, 5, "53de7b061c8e0f3d")),
    ("40x4-exact-ties", (63, 2, "5dc1912d20700834")),
    ("40x4-float-flat", (56, 15, "ac6a88daeda4f0ca")),
    ("40x4-exact-flat", (51, 10, "0926de59884f5b55")),
    ("60x5-float", (83, 9, "0e18bddb5cd868cf")),
    ("60x5-exact", (96, 6, "dfbd76136b8a03bd")),
    ("60x5-float-ties", (86, 2, "bddd157160ee7e17")),
    ("60x5-exact-ties", (104, 7, "9d766d4aa4ac6d99")),
    ("60x5-float-flat", (94, 31, "d3fb6dd36340af87")),
    ("60x5-exact-flat", (85, 23, "ba48e681fd2a2c74")),
    ("3x10-float", (14, 0, "d8e1ef051527b996")),
    ("3x10-exact", (14, 3, "b43c5b1ed2ff7016")),
    ("3x10-float-ties", (12, 0, "3825e973dfbe189c")),
    ("3x10-exact-ties", (10, 0, "86154a9bfb93b08e")),
    ("3x10-float-flat", (13, 0, "08593d68fb624b29")),
    ("3x10-exact-flat", (15, 0, "72c4e873d5c1ea5c")),
    ("5x17-float", (32, 0, "04454d621a6c6df5")),
    ("5x17-exact", (33, 0, "3218c27ffa0d88e0")),
    ("5x17-float-ties", (28, 0, "4012244d84f5baea")),
    ("5x17-exact-ties", (26, 0, "26b5420946aecf3a")),
    ("5x17-float-flat", (22, 0, "d24d02cddd256112")),
    ("5x17-exact-flat", (21, 0, "59614c51e9af958e")),
    ("6x30-float", (46, 0, "83924af86e1de401")),
    ("6x30-exact", (51, 1, "0e626f2829800350")),
    ("6x30-float-ties", (43, 0, "1845cd7467762173")),
    ("6x30-exact-ties", (44, 0, "5ab11fa89847b7ad")),
    ("6x30-float-flat", (40, 8, "d0bdf9810eefdc4d")),
    ("6x30-exact-flat", (36, 5, "f42ec33f3d231c5d")),
    ("9x9-float", (26, 0, "7347794d37d8458c")),
    ("9x9-exact", (25, 0, "6004f17b1b35a056")),
    ("9x9-float-ties", (21, 0, "b1a0d7196bddbdff")),
    ("9x9-exact-ties", (31, 0, "bceab7d3306bbe3f")),
    ("9x9-float-flat", (19, 8, "c7eb9beec6e6e5e0")),
    ("9x9-exact-flat", (9, 0, "24401bc56c6d4d95")),
])


def test_pinned_simplex_paths():
    for name, mu, nu, c in pinned_instances():
        report = solve(mu, nu, c)
        text = repr((report.coupling.entries, report.potentials))
        digest = hashlib.sha256(text.encode()).hexdigest()[:16]
        assert (report.iterations, report.degenerate_pivots, digest) == PINNED_PATHS[name], name
    assert len(PINNED_PATHS) == len(PINNED_SHAPES) * len(PINNED_KINDS)


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

    def test_float_power_of_two_scalings_up_to_the_float_edge(self):
        # Exponents run up to the largest that keeps every mass and cost a
        # float, so the scaled solves run at the edge of the float range.
        # Entries and potentials scale bit for bit after the same pivots, and
        # so do the values when s * t * value is a float; else solve raises.
        rng, raised = random.Random(2201), 0
        for _ in range(40):
            mu, nu, c = integer_instance(rng, rng.randint(2, 6), rng.randint(2, 6), float)
            report = solve(mu, nu, c)
            a_max = 1024 - math.frexp(max(mu.weights + nu.weights))[1]
            b_max = 1024 - math.frexp(max(map(abs, itertools.chain(*c.rows))))[1]
            for _ in range(6):
                a = rng.choice((a_max, a_max - rng.randint(1, 12), rng.randint(-1000, a_max)))
                b = rng.choice((b_max, b_max - rng.randint(1, 12), rng.randint(max(-1000, -1000 - a), b_max)))
                scaled = rescaled(mu, nu, c, 2.0**a, 2.0**b)
                try:
                    values = [math.ldexp(v, a + b) for v in (report.primal_value, report.dual_value)]
                    q, r = (tuple(math.ldexp(x, b) for x in xs) for xs in (report.potentials.q, report.potentials.r))
                except OverflowError:
                    raised += 1
                    with pytest.raises(ValueError, match="float range"):
                        solve(*scaled)
                    continue
                got = solve(*scaled)
                assert got.coupling.entries == tuple((i, j, math.ldexp(w, a)) for i, j, w in report.coupling.entries)
                assert (got.potentials.q, got.potentials.r) == (q, r)
                assert [got.primal_value, got.dual_value] == values
                assert (got.iterations, got.degenerate_pivots) == (report.iterations, report.degenerate_pivots)
        assert 0 < raised < 240

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
            _, big_l = measures.exact_ints(mu.weights, nu.weights)
            _, big_k = measures.exact_ints(*c.rows)
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
        assert oracles.c_transform((0, 0), CostMatrix(((0, 0), (0, 0)))) == (0, 0)

    def test_row_minima(self):
        assert oracles.c_transform((0, 0), CostMatrix(((1, 3), (2, 0)))) == (1, 0)

    def test_fixed_point_at_optimum(self):
        rng = random.Random(77)
        for _ in range(10):
            mu, nu, c = oracles.random_rational_instance(rng, 5, 5)
            report = solve(mu, nu, c)
            q, r = report.potentials.q, report.potentials.r
            assert oracles.c_transform(r, c) == q
            transposed = CostMatrix(tuple(zip(*c.rows)))
            assert oracles.c_transform(q, transposed) == r

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            oracles.c_transform((0, 0, 0), CostMatrix(((1, 2), (3, 4))))


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

    @pytest.mark.parametrize("bad", [math.inf, math.nan, "x"])
    def test_non_finite_potentials_rejected(self, bad):
        # Rejected when built, so zero_set never sees them, and as the
        # argument of c_transform.
        c = CostMatrix(((1.0, 2.0), (2.0, 1.0)))
        with pytest.raises(ValueError, match="potential q at index 0 is not a finite number"):
            DualPotentials((bad, 0.0), (0.0, 0.0))
        with pytest.raises(ValueError, match="potential r at index 1 is not a finite number"):
            DualPotentials((0.0, 0.0), (0.0, bad))
        with pytest.raises(ValueError, match="potential r at index 0 is not a finite number"):
            oracles.c_transform((bad, 0.0), c)

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
        # The flat 9x8 face runs out of walk states.
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

    @pytest.mark.parametrize("extra", [4, 5, 6, 7, 8])
    def test_planted_ties_match_the_reference_that_prunes_nothing(self, extra):
        # The walk prunes a branch as soon as a point has sent more than
        # its mass; the reference peels every spanning tree to the end.
        rng = random.Random(3030 + extra)
        for _ in range(2):
            mu, nu, c = oracles.planted_tie_instance(rng, 6, 6, extra)
            found = enumerate_optimal_vertices(mu, nu, c)
            expected = oracles.optimal_vertices_by_backtracking(mu, nu, c)
            assert [g.entries for g in found] == [g.entries for g in expected]

    def test_float_planted_ties_with_total_gaps_keep_the_reference_supports(self):
        # Float copies of planted faces whose totals differ by up to the
        # slack the instance check allows.  The gap may leave any point
        # that much short, so a prune at a spent supply below -eps, not
        # below -tol, would lose vertices.
        rng = random.Random(4040)
        for trial in range(24):
            mu, nu, c = oracles.planted_tie_instance(rng, 6, 6, 4 + trial % 3)
            expected = oracles.optimal_vertices_by_backtracking(mu, nu, c)
            fmu, fnu = [float(w) for w in mu.weights], [float(w) for w in nu.weights]
            side = fnu if trial % 2 else fmu
            slack = (6 + 6) * 1e-12 * max(fmu + fnu)
            side[rng.randrange(6)] += rng.choice((-1, 1)) * rng.uniform(0.5, 0.99) * slack
            floats = (
                DiscreteMarginal(tuple(fmu)),
                DiscreteMarginal(tuple(fnu)),
                CostMatrix(tuple(tuple(map(float, row)) for row in c.rows)),
            )
            by_support = {tuple(sorted(g.cells())): g for g in enumerate_optimal_vertices(*floats)}
            assert sorted(by_support) == sorted(tuple(sorted(g.cells())) for g in expected), trial
            for g in expected:
                near = by_support[tuple(sorted(g.cells()))]
                for (_, _, w), (_, _, x) in zip(g.entries, near.entries):
                    assert abs(x - w) <= 1e-9 * w

    @pytest.mark.parametrize("spent, count", [(3, 1), (4, 1), (5, 0)])
    def test_spent_supply_prunes_only_past_the_balance_allowance(self, spent, count):
        # A path of three points, walked with eps = gap = 1: the middle
        # point sends ``spent`` on to the end point left unpeeled, which
        # has no mass of its own.  A leaf may send down to -2 (eps + gap),
        # but the last point may end anywhere down to -4 (3 eps + gap), so
        # a point spent below -2 is pruned only below -4.
        bases = transport._feasible_bases([0, 1, 2], [(0, 1), (1, 2)], [0, spent, 0], 1, 1, [10])
        assert len(bases) == count

    def test_a_negative_leaf_mass_prunes_past_the_floor_only(self):
        # The path 0-1-2-3 walked with eps = 1, gap = 0: the leaf 3 sends
        # its supply to 2, which is left with 1 - 2.5 = -1.5, above the
        # spent-supply bound -4 (4 eps) but below the leaf floor -1 (eps),
        # so peeling 2 prunes the one tree.  At 1 - 1.5 = -0.5 the leaf
        # mass is clamped to 0 and the tree is found.
        path = [(0, 1), (1, 2), (2, 3)]
        assert transport._feasible_bases([0, 1, 2, 3], path, [1, 1, 1, 2.5], 1.0, 0.0, [10]) == []
        found = transport._feasible_bases([0, 1, 2, 3], path, [1, 1, 1, 1.5], 1.0, 0.0, [10])
        assert found == [[((2, 3), 1.5), ((1, 2), 0), ((0, 1), 1)]]

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
            monkeypatch.setattr(transport, "_simplex", lambda *_: ((), q, r, 0, 0))
            return enumerate_optimal_vertices(ones, ones, c)

        # Row 0 has no zero-set cell in either: its component is row 0 alone.
        for q, r in [((0, 0), (0, 0)), ((0, 0), (0, 1))]:
            with pytest.raises(SuboptimalPotentialsError, match=r"the masses of row 0$"):
                enumerate_with(q, r)
        # Here the zero set is column 0's two cells: two units of supply
        # and one of demand.
        with pytest.raises(SuboptimalPotentialsError, match=r"the masses of row 0, row 1, column 0$"):
            enumerate_with((1, 2), (0, -2))
        with pytest.raises(DualInfeasibleError):
            enumerate_with((2, 0), (0, 0))
        assert [g.entries for g in enumerate_with((1, 0), (0, 1))] == [((0, 0, 1), (1, 1, 1))]

    def test_face_whose_optimum_value_overflows(self):
        # Each product 1e300 * 1e10 overflows, so solve refuses the value,
        # but every vertex of the flat face is finite and is listed.
        big = DiscreteMarginal((1e300, 1e300))
        c = CostMatrix(((1e10, 1e10), (1e10, 1e10)))
        assert [g.entries for g in enumerate_optimal_vertices(big, big, c)] == [
            ((0, 0, 1e300), (1, 1, 1e300)),
            ((0, 1, 1e300), (1, 0, 1e300)),
        ]
        assert not is_unique_optimum(big, big, c)

    def test_components_are_walked_one_by_one(self):
        # Two flat 4x4 blocks: each component is a Birkhoff face of 24
        # vertices and the face is their product.  One walk over both blocks
        # would exceed the bases guard.
        unit = DiscreteMarginal((1,) * 8)
        c = CostMatrix(tuple(tuple(0 if i // 4 == j // 4 else 1 for j in range(8)) for i in range(8)))
        assert len(enumerate_optimal_vertices(unit, unit, c)) == 576

    @pytest.mark.parametrize("k, count", [(2, 4), (3, 36)])
    @pytest.mark.parametrize("row", ["last", "first"])
    def test_bridged_blocks_match_the_backtracking_reference(self, k, count, row):
        # Two flat kxk blocks joined by one zero-cost bridge cell, the last
        # or the first in row-major order, whose two ends carry one unit
        # more, which must cross it.  Deleting the bridge leaves a
        # cycle on both sides, so that branch dies only once one side peels
        # down to a point stranded while the other still stands.
        bridge = (k - 1 if row == "last" else 0, k)
        mu = DiscreteMarginal(tuple(2 if i == bridge[0] else 1 for i in range(2 * k)))
        nu = DiscreteMarginal(tuple(2 if j == bridge[1] else 1 for j in range(2 * k)))
        c = CostMatrix(
            tuple(
                tuple(0 if i // k == j // k or (i, j) == bridge else 1 for j in range(2 * k))
                for i in range(2 * k)
            )
        )
        found = enumerate_optimal_vertices(mu, nu, c)
        expected = oracles.optimal_vertices_by_backtracking(mu, nu, c)
        assert [g.entries for g in found] == [g.entries for g in expected]
        assert len(found) == count
        assert all((*bridge, 1) in g.entries for g in found)

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
        # The README's 11,666 walk states: that budget suffices, one less does not.
        monkeypatch.setattr(transport, "ORACLE_MAX_BASES", 11666)
        assert enumerate_optimal_vertices(uniform(4), uniform(4), flat) == found
        for budget in (11665, 100):
            monkeypatch.setattr(transport, "ORACLE_MAX_BASES", budget)
            with pytest.raises(SizeLimitError):
                enumerate_optimal_vertices(uniform(4), uniform(4), flat)

    def test_tied_face_walk_states(self, monkeypatch):
        # README Scale's tied 6x6 face with 6 zero cells beyond a spanning
        # tree: 753 walk states suffice, one less does not.  Any change
        # to the walk's branch order or pruning moves this count.
        rng = random.Random(606)
        oracles.planted_tie_instance(rng, 6, 6, 4)
        mu, nu, c = oracles.planted_tie_instance(rng, 6, 6, 6)
        found = enumerate_optimal_vertices(mu, nu, c)
        monkeypatch.setattr(transport, "ORACLE_MAX_BASES", 753)
        assert enumerate_optimal_vertices(mu, nu, c) == found
        monkeypatch.setattr(transport, "ORACLE_MAX_BASES", 752)
        with pytest.raises(SizeLimitError):
            enumerate_optimal_vertices(mu, nu, c)

    def test_vertex_listing_guard(self, monkeypatch):
        # Six tied 2x2 blocks: each block is a component with two vertices,
        # so the face has 2**6 = 64 vertices of up to 23 cells, and the walk
        # takes far fewer states than that.  64 * 23 = 1,472 cells suffice,
        # one less is refused before any vertex is listed.
        unit = DiscreteMarginal((1,) * 12)
        c = CostMatrix(tuple(tuple(0 if i // 2 == j // 2 else 1 for j in range(12)) for i in range(12)))
        monkeypatch.setattr(transport, "ORACLE_MAX_BASES", 1472)
        assert len(enumerate_optimal_vertices(unit, unit, c)) == 64

        def refuse(*args):
            raise AssertionError("vertices listed")

        monkeypatch.setattr(transport, "ORACLE_MAX_BASES", 1471)
        monkeypatch.setattr(transport, "product", refuse)
        with pytest.raises(SizeLimitError, match="^64 optimal vertices of up to 23 cells are too many to list$"):
            enumerate_optimal_vertices(unit, unit, c)

    def test_uniqueness_reads_the_counts_past_the_listing_guard(self, monkeypatch):
        # The n = 16 exact demo with both peaks turned 0.3 rad: the walk
        # takes 6,238 states and finds 256 vertices of up to 31 cells,
        # 7,936 cells to list.  A budget of 7,000 lets the walk finish and
        # refuses the listing, but the verdict needs no list.
        config = DemoConfig(n=16, mu_center=math.pi / 2 + 0.3, nu_center=3 * math.pi / 2 + 0.3)
        data = rational_demo_instance(config)
        monkeypatch.setattr(transport, "ORACLE_MAX_BASES", 7000)
        with pytest.raises(SizeLimitError, match="^256 optimal vertices of up to 31 cells are too many to list$"):
            enumerate_optimal_vertices(*data)
        assert not is_unique_optimum(*data)
        # The walk's own guard still refuses both.
        monkeypatch.setattr(transport, "ORACLE_MAX_BASES", 6237)
        for verb in (enumerate_optimal_vertices, is_unique_optimum):
            with pytest.raises(SizeLimitError, match="^optimal face has too many spanning-forest bases"):
                verb(*data)

    def test_depth_guard(self, monkeypatch):
        # The walk recurses once per edge it decides on a path.  The flat
        # 40x40 face has 1,600 zero cells and no leaf, so its first descent
        # would pass the interpreter's 1,000 frames long before the walk
        # budget ran out; the depth guard refuses it first, and ends no
        # deeper under a caller already 300 frames down.
        flat = CostMatrix(((0,) * 40,) * 40)
        for verb in (enumerate_optimal_vertices, is_unique_optimum):
            with pytest.raises(SizeLimitError, match="^optimal face needs more than 500 nested edge decisions$"):
                verb(uniform(40), uniform(40), flat)

        def nested(frames):
            return nested(frames - 1) if frames else is_unique_optimum(uniform(40), uniform(40), flat)

        with pytest.raises(SizeLimitError):
            nested(300)
        # The flat 4x4 walk decides at most 16 edges on a path.
        flat = CostMatrix(((0,) * 4,) * 4)
        monkeypatch.setattr(transport, "ORACLE_MAX_DEPTH", 16)
        assert len(enumerate_optimal_vertices(uniform(4), uniform(4), flat)) == 24
        monkeypatch.setattr(transport, "ORACLE_MAX_DEPTH", 15)
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
    q1 = oracles.c_transform(r0, c)
    r1 = oracles.c_transform(q1, transposed)
    q2 = oracles.c_transform(r1, c)
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


# The value kinds of one family: all ints, all Fractions, both, and
# Fractions that are whole numbers, as `--rational` reads `2.0`.
EXACT_KINDS = {
    "int": lambda low, high: st.integers(low, high),
    "fraction": lambda low, high: st.builds(F, st.integers(30 * low, 30 * high), st.sampled_from(PRIMES)),
    "mixed": exact_values,
    "integral": lambda low, high: st.builds(F, st.integers(low, high)),
}


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.sampled_from(sorted(EXACT_KINDS)),
    st.sampled_from(sorted(EXACT_KINDS)),
    st.data(),
)
def test_exact_results_are_fractions_when_their_family_holds_one(m, n, masses, costs, data):
    # One rule types every exact result: the masses of solve, of each
    # vertex of the oracle and of reconstruct are Fractions when a mass is
    # a Fraction, whole ones included, and ints otherwise; the potentials
    # follow the costs the same way.  The values are those of the
    # references, which run on the data as given.
    grid = [[data.draw(EXACT_KINDS[masses](0, 3)) for _ in range(n)] for _ in range(m)]
    mu = DiscreteMarginal(tuple(sum(row) for row in grid))
    nu = DiscreteMarginal(tuple(sum(col) for col in zip(*grid)))
    c = CostMatrix(tuple(tuple(data.draw(EXACT_KINDS[costs](-4, 4)) for _ in range(n)) for _ in range(m)))
    mass_type = F if any(isinstance(w, F) for w in mu.weights + nu.weights) else int
    cost_type = F if any(isinstance(v, F) for row in c.rows for v in row) else int

    report = solve(mu, nu, c)
    vertices = enumerate_optimal_vertices(mu, nu, c)
    rebuilt = reconstruct(decompose(support_graph(report.coupling)), mu, nu)
    for coupling in (report.coupling, *vertices, rebuilt.coupling):
        assert {type(w) for _, _, w in coupling.entries} <= {mass_type}
    assert {type(x) for x in report.potentials.q + report.potentials.r} == {cost_type}

    q, r = oracles._ssp_duals(mu.weights, nu.weights, c.rows, 0)
    assert report.primal_value == sum(map(mul, q, mu.weights)) + sum(map(mul, r, nu.weights))
    assert [g.entries for g in vertices] == [
        g.entries for g in oracles.optimal_vertices_by_backtracking(mu, nu, c)
    ]
    assert rebuilt.feasible and rebuilt.coupling == report.coupling


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.sampled_from(sorted(EXACT_KINDS)),
    st.sampled_from(sorted(EXACT_KINDS)),
    st.data(),
)
def test_exact_values_are_the_fraction_cost_of_the_coupling(m, n, masses, costs, data):
    # The solver sums both values on the scaled ints; the reference prices
    # the returned coupling in plain Fraction arithmetic on the data as given.
    grid = [[data.draw(EXACT_KINDS[masses](0, 3)) for _ in range(n)] for _ in range(m)]
    mu = DiscreteMarginal(tuple(sum(row) for row in grid))
    nu = DiscreteMarginal(tuple(sum(col) for col in zip(*grid)))
    c = CostMatrix(tuple(tuple(data.draw(EXACT_KINDS[costs](-4, 4)) for _ in range(n)) for _ in range(m)))
    report = solve(mu, nu, c)
    reference = sum((F(c.rows[i][j]) * F(w) for i, j, w in report.coupling.entries), F(0))
    assert report.primal_value == reference
    assert report.dual_value == reference
    values = (*mu.weights, *nu.weights, *itertools.chain.from_iterable(c.rows))
    value_type = F if any(isinstance(v, F) for v in values) else int
    assert type(report.primal_value) is type(report.dual_value) is value_type
