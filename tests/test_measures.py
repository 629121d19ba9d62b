"""Marginal, coupling, and push-forward behavior of the measure layer."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limbsys import (
    Coupling,
    CostMatrix,
    CycleWitness,
    DiscreteMarginal,
    InfeasibleError,
    Limb,
    NumberedLimbSystem,
    ShapeMismatchError,
    SupportGraph,
    c_transform,
    is_extremal,
    marginals_of,
    pushforward_antigraph,
    pushforward_graph,
    reconstruct,
    solve,
    support_graph,
    tv_distance,
    validate_coupling,
)
from limbsys.measures import thresholds

# An integer beyond the float range.
HUGE = 10**309
DIAG_COST = CostMatrix(((0.0, 1.0), (1.0, 0.0)))


def diag(n, mass):
    return Coupling(n, n, tuple((i, i, mass) for i in range(n)))


class TestValidation:
    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="negative weight"):
            DiscreteMarginal((1, -0.5))

    def test_nan_weight_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            DiscreteMarginal((1.0, float("nan")))

    def test_infinite_cost_rejected(self):
        from limbsys import CostMatrix

        with pytest.raises(ValueError, match="finite"):
            CostMatrix(((0.0, float("inf")),))

    @pytest.mark.parametrize(
        "build, named",
        [
            (lambda: DiscreteMarginal(()), "at least one point"),
            (lambda: CostMatrix(()), "positive dimensions"),
            (lambda: CostMatrix(((),)), "positive dimensions"),
            (lambda: CostMatrix(((0, 1), (0,))), "row 1 has 1 entries, row 0 has 2"),
            (lambda: Coupling(0, 2), "coupling dimensions"),
            (lambda: Coupling(2, -1), "coupling dimensions"),
        ],
    )
    def test_rejects_empty_and_ragged(self, build, named):
        with pytest.raises(ValueError, match=named):
            build()

    def test_coupling_bounds(self):
        with pytest.raises(ValueError, match="outside"):
            Coupling(2, 2, ((0, 5, 1),))

    def test_coupling_needs_sorted_unique_entries(self):
        with pytest.raises(ValueError, match="row-major"):
            Coupling(2, 2, ((1, 1, F(1)), (0, 0, F(1))))

    def test_from_entries_merges_and_sorts(self):
        shuffled = [(1, 1, F(1, 4)), (0, 0, F(1, 8)), (1, 1, F(1, 4)), (0, 0, F(1, 8))]
        gamma = Coupling.from_entries(2, 2, shuffled)
        assert gamma.entries == ((0, 0, F(1, 4)), (1, 1, F(1, 2)))

    def test_from_entries_drops_exact_zero(self):
        gamma = Coupling.from_entries(2, 2, [(0, 0, F(0)), (1, 0, F(1))])
        assert gamma.entries == ((1, 0, F(1)),)

    @pytest.mark.parametrize("bad", [F(-1, 2), -0.5, float("nan")])
    def test_from_entries_rejects_negative_and_nan(self, bad):
        with pytest.raises(ValueError, match=r"\(1, 0\)"):
            Coupling.from_entries(2, 2, [(0, 0, F(1)), (1, 0, bad)])

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Coupling(2, 2, ((0.0, 0, 1),)),
            lambda: Coupling.from_entries(2, 2, [(0, "1", 1)]),
            lambda: SupportGraph(2, 2, frozenset({(1.5, 0)})),
            lambda: CycleWitness(((0, 0), (0, 1), (1, 1), (1, 0.0))),
            lambda: Limb(1, ((0, F(1)),)),
            lambda: NumberedLimbSystem(1, 1, (), (1.0,), (0,)),
            lambda: NumberedLimbSystem(1, 1, (), (1,), ("0",)),
        ],
        ids=["coupling", "from-entries", "support-graph", "cycle", "limb", "x-levels", "y-levels"],
    )
    def test_indices_are_checked_not_coerced(self, build):
        # A fractional or string index is an error, not silently truncated.
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            build()


class TestMarginals:
    def test_identity_third(self):
        row, col = marginals_of(diag(3, F(1, 3)))
        assert row.weights == (F(1, 3),) * 3
        assert col.weights == (F(1, 3),) * 3

    def test_empty_coupling(self):
        row, col = marginals_of(Coupling(2, 3, ()))
        assert row.weights == (0, 0)
        assert col.weights == (0, 0, 0)

    def test_hand_summed_2x2(self):
        gamma = Coupling(2, 2, ((0, 0, F(1, 10)), (0, 1, F(3, 10)), (1, 1, F(6, 10))))
        row, col = marginals_of(gamma)
        assert row.weights == (F(4, 10), F(6, 10))
        assert col.weights == (F(1, 10), F(9, 10))


class TestValidateCoupling:
    def test_identity_vs_uniform(self):
        uniform = DiscreteMarginal((F(1, 3),) * 3)
        assert validate_coupling(diag(3, F(1, 3)), uniform, uniform)

    def test_identity_vs_point_mass(self):
        uniform = DiscreteMarginal((F(1, 3),) * 3)
        point = DiscreteMarginal((F(1), F(0), F(0)))
        assert not validate_coupling(diag(3, F(1, 3)), uniform, point)

    def test_product_coupling_always_valid(self):
        mu = DiscreteMarginal((F(1, 3), F(2, 3)))
        nu = DiscreteMarginal((F(1, 4), F(1, 4), F(1, 2)))
        product = Coupling.from_entries(
            2, 3, [(i, j, a * b) for i, a in enumerate(mu.weights) for j, b in enumerate(nu.weights)]
        )
        assert validate_coupling(product, mu, nu)

    def test_shape_report(self):
        with pytest.raises(ShapeMismatchError, match="2x2.*3"):
            validate_coupling(diag(2, F(1, 2)), DiscreteMarginal((1,) * 3), DiscreteMarginal((1,) * 2))

    def test_exact_data_compare_exactly(self):
        # The excess is far below eps_mass, but exact data get no tolerance.
        t = F(1, 10**13)
        half = DiscreteMarginal((F(1, 2), F(1, 2)))
        gamma = Coupling(2, 2, ((0, 0, F(1, 2) + t), (1, 1, F(1, 2))))
        assert not validate_coupling(gamma, half, half)


class TestThresholds:
    def test_exact_data_get_zero(self):
        assert thresholds(masses=((1, F(1, 2)), ()), costs=((3, -7),)) == (0, 0)

    def test_float_data_scale_with_the_largest_magnitude(self):
        assert thresholds(masses=((0.5, F(-4)), (2,)), costs=((-8.0, 1),)) == (4e-12, 8e-9)
        assert thresholds(masses=((0.0, 0), ()), costs=()) == (0, 0)

    @pytest.mark.parametrize(
        "run",
        [
            lambda: solve(DiscreteMarginal((HUGE, 0.5)), DiscreteMarginal((HUGE, 0.5)), DIAG_COST),
            lambda: solve(DiscreteMarginal((0.5, 0.5)), DiscreteMarginal((HUGE, 0.5)), DIAG_COST),
            lambda: is_extremal(
                Coupling(2, 2, ((0, 0, HUGE), (0, 1, 0.5), (1, 0, 0.5), (1, 1, 0.5)))
            ),
            lambda: support_graph(Coupling(1, 2, ((0, 0, HUGE), (0, 1, 0.5)))),
            lambda: reconstruct(
                NumberedLimbSystem(1, 2, (Limb(2, ((0, 0), (1, 0))),), (1,), (2, 2)),
                DiscreteMarginal((0.5,)),
                DiscreteMarginal((HUGE, 0.5)),
            ),
            lambda: validate_coupling(
                diag(2, 0.5), DiscreteMarginal((HUGE, 0.5)), DiscreteMarginal((0.5, 0.5))
            ),
        ],
        ids=["solve-mu", "solve-nu", "is_extremal", "support_graph", "reconstruct", "validate_coupling"],
    )
    def test_beyond_float_range_next_to_floats_is_a_value_error(self, run):
        with pytest.raises(ValueError, match="beyond the float range"):
            run()

    @pytest.mark.parametrize(
        "run",
        [
            lambda: DiscreteMarginal((HUGE, 0.5)).total(),
            lambda: Coupling(1, 2, ((0, 0, HUGE), (0, 1, 0.5))).total_mass(),
            lambda: marginals_of(Coupling(2, 1, ((0, 0, HUGE), (1, 0, 0.5)))),
            lambda: validate_coupling(
                Coupling(1, 2, ((0, 0, HUGE), (0, 1, 0.5))),
                DiscreteMarginal((1,)),
                DiscreteMarginal((1, 1)),
            ),
            lambda: Coupling.from_entries(1, 1, [(0, 0, 0.5), (0, 0, HUGE)]),
            lambda: tv_distance(Coupling(1, 1, ((0, 0, HUGE),)), Coupling(1, 1, ((0, 0, 0.5),))),
            lambda: c_transform((0.5,), CostMatrix(((HUGE,),))),
            # Ten masses of HUGE / 10 reach the row point of limb 1 through
            # limb 2 (the sweep), or the column point of limb 1 (the final
            # marginal check).
            lambda: reconstruct(
                NumberedLimbSystem(
                    1,
                    11,
                    (Limb(1, ((0, 0),)), Limb(2, tuple((j, 0) for j in range(1, 11)))),
                    (1,),
                    (0,) + (2,) * 10,
                ),
                DiscreteMarginal((1.0,)),
                DiscreteMarginal((1.0,) + (HUGE // 10,) * 10),
            ),
            lambda: reconstruct(
                NumberedLimbSystem(10, 1, (Limb(1, tuple((i, 0) for i in range(10))),), (1,) * 10, (0,)),
                DiscreteMarginal((HUGE // 10,) * 10),
                DiscreteMarginal((1.0,)),
            ),
        ],
        ids=[
            "total",
            "total_mass",
            "marginals_of",
            "validate_coupling",
            "from_entries",
            "tv_distance",
            "c_transform",
            "reconstruct-sweep",
            "reconstruct-check",
        ],
    )
    def test_sums_beyond_float_range_name_the_value(self, run):
        with pytest.raises(ValueError, match=f"value {HUGE} is beyond the float range"):
            run()


class TestPushforward:
    def test_identity_map(self):
        eta = DiscreteMarginal((F(1, 3),) * 3)
        assert pushforward_graph((0, 1, 2), eta, 3) == diag(3, F(1, 3))

    def test_nowhere_defined_map_zero_mass(self):
        eta = DiscreteMarginal((0, 0))
        assert pushforward_graph((None, None), eta, 2).entries == ()

    def test_two_to_one(self):
        eta = DiscreteMarginal((F(1, 4), F(3, 4)))
        gamma = pushforward_graph((1, 1), eta, 2)
        assert gamma.entries == ((0, 1, F(1, 4)), (1, 1, F(3, 4)))
        assert marginals_of(gamma)[1].weights == (0, F(1))

    def test_mass_outside_domain_names_index(self):
        eta = DiscreteMarginal((F(1, 4), F(3, 4)))
        with pytest.raises(InfeasibleError, match="point 1"):
            pushforward_graph((0, None), eta, 2)

    def test_exact_mass_outside_domain_below_eps_mass(self):
        eta = DiscreteMarginal((F(1, 10**13), 1))
        with pytest.raises(InfeasibleError, match="point 0"):
            pushforward_graph([None, 0], eta, 1)

    def test_image_outside_grid_rejected(self):
        eta = DiscreteMarginal((F(1),))
        with pytest.raises(ValueError, match="outside"):
            pushforward_graph((5,), eta, 2)

    def test_map_length_must_match_marginal(self):
        with pytest.raises(ShapeMismatchError):
            pushforward_graph((0,), DiscreteMarginal((F(1), F(1))), 2)

    def test_antigraph_identity(self):
        eta = DiscreteMarginal((F(1, 2), F(1, 2)))
        assert pushforward_antigraph((0, 1), eta, 2) == diag(2, F(1, 2))

    def test_antigraph_single_pair(self):
        gamma = pushforward_antigraph((None, 0), DiscreteMarginal((0, F(1, 2))), 2)
        assert gamma.entries == ((0, 1, F(1, 2)),)

    def test_antigraph_empty(self):
        assert pushforward_antigraph((None, None), DiscreteMarginal((0, 0)), 3).entries == ()

    def test_first_marginal_equals_eta_on_domain(self):
        rng = random.Random(11)
        for _ in range(50):
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            f = tuple(rng.randrange(n) if rng.random() < 0.7 else None for _ in range(m))
            eta = DiscreteMarginal(
                tuple(F(rng.randint(0, 9), 5) if f[i] is not None else F(0) for i in range(m))
            )
            gamma = pushforward_graph(f, eta, n)
            row, _ = marginals_of(gamma)
            assert row.weights == eta.weights

    def test_graph_determinism(self):
        # Two couplings on the same graph with the same first marginal are
        # the same measure: mass in row i can only sit at (i, f(i)).
        rng = random.Random(23)
        for _ in range(50):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            f = tuple(rng.randrange(n) for _ in range(m))
            eta = DiscreteMarginal(tuple(F(rng.randint(0, 8), 3) for _ in range(m)))
            direct = pushforward_graph(f, eta, n)
            fragments = []
            for i, w in enumerate(eta.weights):
                parts = rng.randint(1, 3)
                cuts = sorted(F(rng.randint(0, 12), 12) for _ in range(parts - 1))
                prev = F(0)
                for cut in cuts + [F(1)]:
                    fragments.append((i, f[i], w * (cut - prev)))
                    prev = cut
            rng.shuffle(fragments)
            rebuilt = Coupling.from_entries(m, n, fragments)
            assert tv_distance(direct, rebuilt) == 0
            assert direct == rebuilt


class TestTvDistance:
    def test_self_distance_zero(self):
        gamma = diag(3, F(1, 3))
        assert tv_distance(gamma, gamma) == 0

    def test_disjoint_permutations(self):
        shift = Coupling.from_entries(3, 3, [(i, (i + 1) % 3, F(1, 3)) for i in range(3)])
        assert tv_distance(diag(3, F(1, 3)), shift) == 2

    def test_antidiagonal_shares_center(self):
        # (1, 1) lies on both the diagonal and the antidiagonal of a 3x3
        # grid, so only four cells differ.
        anti = Coupling.from_entries(3, 3, [(i, 2 - i, F(1, 3)) for i in range(3)])
        assert tv_distance(diag(3, F(1, 3)), anti) == F(4, 3)

    def test_distance_to_empty_is_total_mass(self):
        gamma = Coupling(2, 2, ((0, 1, F(2, 7)), (1, 0, F(3, 7))))
        assert tv_distance(gamma, Coupling(2, 2, ())) == gamma.total_mass()

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            tv_distance(diag(2, 1), diag(3, 1))


couplings_3x3 = st.builds(
    lambda masses: Coupling.from_entries(
        3, 3, [(k // 3, k % 3, w) for k, w in enumerate(masses) if w > 0]
    ),
    st.lists(st.integers(min_value=0, max_value=5), min_size=9, max_size=9),
)


@settings(max_examples=200, deadline=None)
@given(couplings_3x3, couplings_3x3, couplings_3x3)
def test_tv_is_a_metric(a, b, c):
    assert tv_distance(a, b) >= 0
    assert tv_distance(a, b) == tv_distance(b, a)
    assert (tv_distance(a, b) == 0) == (a == b)
    assert tv_distance(a, c) <= tv_distance(a, b) + tv_distance(b, c)
