"""Circle cost construction, subtwist scanning, and the demo pipeline."""

import math
import random
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limbsys import (
    CircleGrid,
    CostMatrix,
    Coupling,
    DemoConfig,
    LimbsysError,
    build_circle_cost,
    build_peaked_density,
    decompose,
    enumerate_optimal_vertices,
    is_extremal,
    limb_count,
    rational_demo_instance,
    run_demo,
    subtwist_check,
    support_graph,
    support_rows,
)
from limbsys.measures import thresholds

import oracles


def double_frequency_cost(n):
    angles = CircleGrid(n).angles
    return CostMatrix(
        tuple(
            tuple(1.0 - math.cos(2.0 * (angles[i] - angles[j])) for j in range(n))
            for i in range(n)
        )
    )


# Multiples of the cost threshold planted between the steps of two columns.
NEAR_TIES = (0.0, 0.5, 0.999, 1.0, 1.001, 1.5, 2.0)


@st.composite
def float_costs(draw):
    """Float matrices of 1e-300 up to the float maximum, where steps
    overflow to +-inf, some columns a copy of an earlier one with each row
    moved by a multiple of the cost threshold."""
    m, n = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    top = draw(st.sampled_from((1e-300, 1e-20, 1.0, 1e20, 1e300, sys.float_info.max)))
    rows = [[draw(st.floats(-1, 1)) * top for _ in range(n)] for _ in range(m)]
    _, tol = thresholds(costs=rows)
    for j in range(1, n):
        if draw(st.booleans()):
            source = draw(st.integers(0, j - 1))
            for row in rows:
                moved = row[source] + draw(st.sampled_from(NEAR_TIES)) * draw(st.sampled_from((-tol, tol)))
                row[j] = moved if math.isfinite(moved) else row[source]
    return CostMatrix(tuple(map(tuple, rows)))


class TestCircleCost:
    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            CircleGrid(2)

    def test_zero_diagonal(self):
        c = build_circle_cost(CircleGrid(5))
        assert all(c.at(i, i) == 0 for i in range(5))

    def test_antipodal_pairs_cost_two(self):
        c = build_circle_cost(CircleGrid(8))
        for i in range(8):
            assert c.at(i, (i + 4) % 8) == pytest.approx(2.0, abs=1e-12)

    def test_quarter_turn_on_four_points(self):
        assert build_circle_cost(CircleGrid(4)).at(0, 1) == pytest.approx(1.0, abs=1e-12)

    def test_range_and_symmetry(self):
        c = build_circle_cost(CircleGrid(12))
        for i in range(12):
            for j in range(12):
                assert -1e-12 <= c.at(i, j) <= 2 + 1e-12
                assert abs(c.at(i, j) - c.at(j, i)) <= 1e-12

    def test_translation_invariance(self):
        n = 12
        c = build_circle_cost(CircleGrid(n))
        for k in (1, 5):
            for i in range(n):
                for j in range(n):
                    assert abs(c.at(i, j) - c.at((i + k) % n, (j + k) % n)) <= 1e-12


class TestPeakedDensity:
    def test_zero_concentration_is_uniform(self):
        mu = build_peaked_density(CircleGrid(5), 1.0, 0.0)
        assert mu.weights == (0.2,) * 5

    def test_peak_sits_nearest_the_center(self):
        grid = CircleGrid(16)
        center = 2.3
        mu = build_peaked_density(grid, center, 4.0)
        best = max(range(16), key=lambda i: mu.weights[i])
        nearest = min(range(16), key=lambda i: abs(grid.angles[i] - center))
        assert best == nearest

    def test_explicit_four_point_values(self):
        mu = build_peaked_density(CircleGrid(4), 0.0, 1.0)
        raw = (math.e, 1.0, 1.0 / math.e, 1.0)
        total = sum(raw)
        for got, want in zip(mu.weights, raw):
            assert got == pytest.approx(want / total, rel=1e-12)
        assert sum(mu.weights) == pytest.approx(1.0, abs=1e-12)

    def test_strictly_positive(self):
        mu = build_peaked_density(CircleGrid(64), 0.0, 8.0)
        assert all(w > 0 for w in mu.weights)

    @pytest.mark.parametrize("kappa", [-1.0, math.nan])
    def test_negative_or_nan_concentration_rejected(self, kappa):
        with pytest.raises(ValueError, match=f"concentration must be a nonnegative number, got {kappa}"):
            build_peaked_density(CircleGrid(5), 0.0, kappa)

    @pytest.mark.parametrize("n, kappa", [(8, 1000.0), (200, 709.0)])
    def test_overflowing_concentration_rejected(self, n, kappa):
        # exp overflows at n = 8; at n = 200 each weight fits but their sum does not.
        with pytest.raises(ValueError, match=f"concentration {kappa}"):
            build_peaked_density(CircleGrid(n), 1.5, kappa)


class TestSubtwist:
    def test_circle_cost_passes(self):
        for n in (3, 8, 16, 64):
            report = subtwist_check(build_circle_cost(CircleGrid(n)))
            assert report.passed, (n, report.violations[:3])

    def test_double_frequency_fails_from_five_points(self):
        for n in (5, 6, 7, 9, 12, 16, 33):
            report = subtwist_check(double_frequency_cost(n))
            assert not report.passed
            assert len(report.violations) >= 1

    def test_constant_difference_columns_flagged_degenerate(self):
        c = CostMatrix(tuple((0.0, 1.0, 3.0) for _ in range(4)))
        report = subtwist_check(c)
        assert report.passed
        assert set(report.degenerate) == {(0, 1), (0, 2), (1, 2)}

    def test_gauge_invariance_per_column(self):
        c = double_frequency_cost(9)
        shifted = CostMatrix(tuple(tuple(v + 0.7 * j for j, v in enumerate(row)) for row in c.rows))
        assert subtwist_check(c).violations == subtwist_check(shifted).violations

    def test_cyclic_row_relabeling_invariance(self):
        for build in (build_circle_cost(CircleGrid(10)), double_frequency_cost(10)):
            rolled = CostMatrix(tuple(build.rows[(i + 3) % 10] for i in range(10)))
            assert subtwist_check(build).passed == subtwist_check(rolled).passed

    def test_line_mode_accepts_monotone_and_rejects_waves(self):
        ramp = CostMatrix(tuple((float(i), 0.0) for i in range(6)))
        assert subtwist_check(ramp, periodic=False).passed
        wave = CostMatrix(tuple((float(i % 2), 0.0) for i in range(6)))
        assert not subtwist_check(wave, periodic=False).passed

    def test_exact_rational_path(self):
        c = CostMatrix(
            tuple(tuple(F((i * j) % 5, 3) for j in range(4)) for i in range(4))
        )
        report = subtwist_check(c)
        assert isinstance(report.passed, bool)

    def test_matches_the_definition_on_exact_matrices(self):
        rng = random.Random(2027)
        for t in range(2400):
            m, n = rng.randint(1, 8), rng.randint(1, 8)
            top = rng.choice((1, 2, 3, 9))
            rows = [[rng.randint(-top, top) for _ in range(n)] for _ in range(m)]
            if t % 2:
                rows = [[F(v, rng.randint(1, 3)) for v in row] for row in rows]
            for periodic in (True, False):
                report = subtwist_check(CostMatrix(tuple(map(tuple, rows))), periodic=periodic)
                violations, degenerate = oracles.subtwist_by_definition(rows, periodic)
                assert (report.violations, report.degenerate) == (violations, degenerate), rows
                assert report.passed == (not violations)

    def test_demo_costs_match_the_column_step_reference(self):
        for n in range(3, 65):
            for c in (build_circle_cost(CircleGrid(n)), double_frequency_cost(n)):
                for periodic in (True, False):
                    report = subtwist_check(c, periodic=periodic)
                    violations, degenerate = oracles.subtwist_by_steps(c, periodic)
                    assert (report.violations, report.degenerate) == (violations, degenerate), n

    @settings(max_examples=600, deadline=None)
    @given(float_costs(), st.booleans())
    def test_matches_the_column_step_reference_on_floats(self, c, periodic):
        report = subtwist_check(c, periodic=periodic)
        violations, degenerate = oracles.subtwist_by_steps(c, periodic)
        assert (report.violations, report.degenerate) == (violations, degenerate)
        assert report.passed == (not violations)

    def test_mixed_fraction_and_float_steps_depart_from_the_column_step_reference(self):
        # A Fraction minus a float is taken in floats, a Fraction minus a
        # Fraction exactly, so on mixed data subtraction is not monotone and
        # the sorted sweep may miss a sign.  s1 lies just below 1 + tol but
        # rounds to the float above it, and y = s1 - tol lies below 1:
        # s1 - 1.0 rounds above tol while s1 - y is tol itself.  The bitset
        # scan reports pair (0, 1) degenerate; pair by pair it has a sign.
        s1 = F(9671406576259847368511395, 2**83)
        _, tol = thresholds(costs=((2.0000001,),))
        y = s1 - F(tol)
        assert s1 - 1.0 > tol and s1 - y == tol and y < 1
        c = CostMatrix(((0, 0, 0, 0), (s1, 1.0, y, 2.0000001)))
        report = subtwist_check(c, periodic=False)
        assert (report.violations, report.degenerate) == ((), ((0, 1), (0, 2), (1, 2)))
        assert oracles.subtwist_by_steps(c, False) == ((), ((0, 2), (1, 2)))


def mass_on_limb(report, k):
    """Mass the demo report puts on limb k; 0 when the system has no limb k."""
    return dict(zip((limb.k for limb in report.system.limbs), report.limb_mass)).get(k, 0)


class TestDemo:
    @pytest.mark.parametrize(
        "field, value, named",
        [
            ("mu_kappa", -1.0, "concentrations"),
            ("nu_kappa", -0.5, "concentrations"),
            ("mu_kappa", math.nan, "concentrations"),
            ("mu_center", -0.1, "centers"),
            ("nu_center", 2 * math.pi, "centers"),
        ],
    )
    def test_config_rejects(self, field, value, named):
        with pytest.raises(ValueError, match=named):
            DemoConfig(**{field: value})

    def test_identical_marginals_stay_home(self):
        cfg = DemoConfig(n=16, mu_center=1.0, mu_kappa=3.0, nu_center=1.0, nu_kappa=3.0)
        report = run_demo(cfg)
        coupling = report.solve_report.coupling
        assert coupling.cells() == {(i, i) for i in range(16)}
        assert report.solve_report.primal_value == 0
        assert limb_count(report.system) <= 2
        assert mass_on_limb(report, 2) == 0
        assert limb_count(decompose(support_graph(coupling))) == 1

    def test_uniform_marginals_cost_zero(self):
        report = run_demo(DemoConfig(n=12, mu_kappa=0.0, nu_kappa=0.0))
        assert report.solve_report.primal_value == 0
        assert report.solve_report.coupling.cells() == {(i, i) for i in range(12)}

    def test_opposed_peaks_cross_town(self):
        report = run_demo(DemoConfig(n=24))
        assert is_extremal(report.solve_report.coupling).extremal
        assert limb_count(report.system) <= 2
        assert mass_on_limb(report, 2) > 0

    def test_demo_two_limb_maps_form_a_valid_system(self):
        from limbsys import system_support, validate_system

        report = run_demo(DemoConfig(n=16))
        assert limb_count(report.system) <= 2
        cells = report.solve_report.coupling.cells()
        system = decompose(support_graph(report.solve_report.coupling))
        assert report.system == system
        assert validate_system(system)
        assert limb_count(system) <= 2
        assert system_support(system).edges == cells
        covered = set()
        for limb in report.system.limbs:
            covered |= limb.cells()
        assert covered == cells

    def test_support_rows_cover_and_label(self):
        report = run_demo(DemoConfig(n=16))
        rows = support_rows(report)
        entries = report.solve_report.coupling.entries
        assert len(rows) == len(entries)
        angles = CircleGrid(16).angles
        assert all(theta in angles and phi in angles for theta, phi, _, _ in rows)
        for (theta, phi, w, k), (i, j, mass) in zip(rows, entries):
            assert (theta, phi, w) == (angles[i], angles[j], mass)
            assert any(limb.k == k and (i, j) in limb.cells() for limb in report.system.limbs)

    def test_five_limbs_at_eighty_points(self):
        # The grid optimum outgrows the continuum's two limbs at n = 80.
        report = run_demo(DemoConfig(n=80))
        coupling = report.solve_report.coupling
        assert limb_count(report.system) == 5
        assert len(report.limb_mass) == len(report.system.limbs)
        assert sum(report.limb_mass) == pytest.approx(coupling.total_mass(), rel=1e-12, abs=0)
        for limb, mass in zip(report.system.limbs, report.limb_mass):
            assert mass == sum(coupling.mass_at(i, j) for i, j in sorted(limb.cells()))
        assert mass_on_limb(report, 2) > 0
        assert sum(report.limb_mass[2:]) > 0.05
        assert {k for _, _, _, k in support_rows(report)} == {1, 2, 3, 4, 5}

    def test_optimum_off_the_default_centres_need_not_be_unique(self):
        # With both peaks 0.3 rad off the default centres the even grids have
        # whole optimal faces; at the default centres each n has one vertex.
        for n, count in ((6, 4), (7, 1), (8, 16)):
            shifted = DemoConfig(n=n, mu_center=math.pi / 2 + 0.3, nu_center=3 * math.pi / 2 + 0.3)
            assert len(enumerate_optimal_vertices(*rational_demo_instance(shifted))) == count
            assert len(enumerate_optimal_vertices(*rational_demo_instance(DemoConfig(n=n)))) == 1

    def test_rational_snapping_balances_exactly(self):
        mu, nu, cost = rational_demo_instance(DemoConfig(n=8))
        assert mu.total() == nu.total()
        assert all(isinstance(w, F) and w > 0 for w in mu.weights + nu.weights)
        assert all(isinstance(v, F) for row in cost.rows for v in row)

    def test_rational_snapping_too_coarse_raises(self):
        # The sharp second peak snaps its point 0 to mass 0, and the snapped
        # totals differ by -1e-6, which rebalancing takes from that point.
        with pytest.raises(LimbsysError, match="too coarse"):
            rational_demo_instance(DemoConfig(n=8, mu_kappa=10, nu_kappa=20))
