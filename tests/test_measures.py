"""Marginal, coupling, and push-forward behavior of the measure layer."""

import copy
import math
import pickle
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import limbsys
from limbsys import (
    CircleGrid,
    Coupling,
    CostMatrix,
    CycleWitness,
    DemoConfig,
    DiscreteMarginal,
    ExtremalityCertificate,
    InfeasibleError,
    Limb,
    NumberedLimbSystem,
    ReconstructionReport,
    ShapeMismatchError,
    SupportGraph,
    build_circle_cost,
    decompose,
    is_extremal,
    marginals_of,
    reconstruct,
    run_demo,
    solve,
    subtwist_check,
    support_graph,
    tv_distance,
    validate_coupling,
)
from limbsys.measures import thresholds

import oracles

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

    @pytest.mark.parametrize("bad", [F(0), F(-1, 2), 0, -1, 0.0, -0.5])
    def test_rejects_zero_and_negative_masses(self, bad):
        with pytest.raises(ValueError, match=r"mass at \(0, 0\) must be finite and > 0"):
            Coupling(2, 2, ((0, 0, bad),))

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
            lambda: CycleWitness((0, 1), (1, 0.0)),
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


class TestCouplingChecks:
    """The exact message for each kind of bad entry, and which entry it names."""

    @pytest.mark.parametrize(
        "entry, message",
        [
            ((2, 0, 1), "entry (2, 0) outside the 2x3 grid"),
            ((0, 3, 1), "entry (0, 3) outside the 2x3 grid"),
            ((-1, 0, 1), "entry (-1, 0) outside the 2x3 grid"),
            ((0, -1, 0.5), "entry (0, -1) outside the 2x3 grid"),
            ((5, 0, math.nan), "entry (5, 0) outside the 2x3 grid"),
            ((1, 2, math.nan), "mass at (1, 2) must be finite and > 0, got nan"),
            ((1, 2, math.inf), "mass at (1, 2) must be finite and > 0, got inf"),
            ((1, 2, -math.inf), "mass at (1, 2) must be finite and > 0, got -inf"),
            ((1, 2, 0), "mass at (1, 2) must be finite and > 0, got 0"),
            ((1, 2, -1), "mass at (1, 2) must be finite and > 0, got -1"),
            ((1, 2, 0.0), "mass at (1, 2) must be finite and > 0, got 0.0"),
            ((1, 2, -0.0), "mass at (1, 2) must be finite and > 0, got -0.0"),
            ((1, 2, F(-1, 2)), "mass at (1, 2) must be finite and > 0, got Fraction(-1, 2)"),
            ((1, 2, F(0)), "mass at (1, 2) must be finite and > 0, got Fraction(0, 1)"),
            ((1, 2, True), "mass at (1, 2) must be finite and > 0, got True"),
            ((1, 2, False), "mass at (1, 2) must be finite and > 0, got False"),
            ((1, 2, "1"), "mass at (1, 2) must be finite and > 0, got '1'"),
            ((1, 2, None), "mass at (1, 2) must be finite and > 0, got None"),
        ],
    )
    def test_each_bad_entry_has_its_message(self, entry, message):
        with pytest.raises(ValueError) as info:
            Coupling(2, 3, ((0, 0, 1), entry))
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "entries",
        [
            ((1, 1, 1), (0, 0, 1)),
            ((0, 1, 1), (0, 0, 1)),
            ((1, 0, 1), (0, 2, 1)),
            ((0, 0, F(1)), (0, 0, F(2))),
            ((0, 0, 0.5), (0, 1, 0.5), (0, 1, 0.5)),
        ],
        ids=["rows", "columns", "row-before-column", "duplicate-first", "duplicate-later"],
    )
    def test_unsorted_or_duplicate_cells(self, entries):
        with pytest.raises(ValueError) as info:
            Coupling(2, 3, entries)
        assert str(info.value) == "entries must be strictly row-major sorted without duplicates"

    @pytest.mark.parametrize(
        "entries, message",
        [
            (((0, 0, 1), (0, 1, -1), (7, 0, 1), (1, 1, 0.0)), "mass at (0, 1) must be finite and > 0, got -1"),
            (((0, 0, 1), (3, 0, 1), (1, 1, math.nan)), "entry (3, 0) outside the 2x3 grid"),
            (((0, 1, 1), (0, 0, math.nan)), "mass at (0, 0) must be finite and > 0, got nan"),
            (((1, 0, F(1)), (0, 9, F(1))), "entry (0, 9) outside the 2x3 grid"),
            (((1, 0, F(1)), (0, 1, F(-1))), "mass at (0, 1) must be finite and > 0, got Fraction(-1, 1)"),
        ],
    )
    def test_the_first_bad_entry_is_named(self, entries, message):
        # Within an entry the grid is checked first, then the mass, then the order.
        with pytest.raises(ValueError) as info:
            Coupling(2, 3, entries)
        assert str(info.value) == message

    def test_a_bad_index_anywhere_is_a_type_error_before_any_value_check(self):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            Coupling(2, 3, ((0, 0, -1), (5, 0, 1), (1, 0.0, 1)))

    def test_numpy_scalars_are_accepted(self):
        gamma = Coupling(
            np.int64(2), 3, ((np.int64(0), np.int64(2), np.float64(0.25)), (1, np.int32(0), np.float64(2)))
        )
        assert gamma.entries == ((0, 2, 0.25), (1, 0, 2.0))
        assert all(type(i) is int and type(j) is int for i, j, _ in gamma.entries)
        assert type(gamma.m) is int
        with pytest.raises(ValueError, match=r"mass at \(0, 0\) must be finite and > 0"):
            Coupling(1, 1, ((0, 0, np.float64("nan")),))
        with pytest.raises(ValueError, match=r"mass at \(0, 0\) must be finite and > 0"):
            Coupling(1, 1, ((0, 0, np.float64(-1.0)),))

    @pytest.mark.parametrize("zero", [0, 0.0, -0.0, F(0), False])
    def test_from_entries_drops_every_kind_of_zero(self, zero):
        assert Coupling.from_entries(2, 2, [(1, 1, zero), (0, 1, 0.5)]).entries == ((0, 1, 0.5),)

    @pytest.mark.parametrize("blank", [None, "", [], math.nan])
    def test_from_entries_keeps_falsy_non_numbers_for_the_check(self, blank):
        with pytest.raises(ValueError) as info:
            Coupling.from_entries(2, 2, [(1, 1, blank), (0, 1, 0.5)])
        assert str(info.value) == f"mass at (1, 1) must be finite and > 0, got {blank!r}"


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
            lambda: oracles.c_transform((0.5,), CostMatrix(((HUGE,),))),
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

    def test_column_sum_beyond_float_range_names_the_sum(self):
        with pytest.raises(ValueError, match=f"value {2 * 10**308} is beyond the float range"):
            validate_coupling(
                Coupling(2, 1, ((0, 0, 10**308), (1, 0, 10**308))),
                DiscreteMarginal((10**308, 10**308)),
                DiscreteMarginal((1.0,)),
            )


class TestPushforward:
    def test_identity_map(self):
        eta = DiscreteMarginal((F(1, 3),) * 3)
        assert oracles.pushforward_graph((0, 1, 2), eta, 3) == diag(3, F(1, 3))

    def test_nowhere_defined_map_zero_mass(self):
        eta = DiscreteMarginal((0, 0))
        assert oracles.pushforward_graph((None, None), eta, 2).entries == ()

    def test_two_to_one(self):
        eta = DiscreteMarginal((F(1, 4), F(3, 4)))
        gamma = oracles.pushforward_graph((1, 1), eta, 2)
        assert gamma.entries == ((0, 1, F(1, 4)), (1, 1, F(3, 4)))
        assert marginals_of(gamma)[1].weights == (0, F(1))

    def test_mass_outside_domain_names_index(self):
        eta = DiscreteMarginal((F(1, 4), F(3, 4)))
        with pytest.raises(InfeasibleError, match="point 1"):
            oracles.pushforward_graph((0, None), eta, 2)

    def test_exact_mass_outside_domain_below_eps_mass(self):
        eta = DiscreteMarginal((F(1, 10**13), 1))
        with pytest.raises(InfeasibleError, match="point 0"):
            oracles.pushforward_graph([None, 0], eta, 1)

    def test_image_outside_grid_rejected(self):
        eta = DiscreteMarginal((F(1),))
        with pytest.raises(ValueError, match="outside"):
            oracles.pushforward_graph((5,), eta, 2)

    def test_map_length_must_match_marginal(self):
        with pytest.raises(ShapeMismatchError):
            oracles.pushforward_graph((0,), DiscreteMarginal((F(1), F(1))), 2)

    def test_antigraph_identity(self):
        eta = DiscreteMarginal((F(1, 2), F(1, 2)))
        assert oracles.pushforward_antigraph((0, 1), eta, 2) == diag(2, F(1, 2))

    def test_antigraph_single_pair(self):
        gamma = oracles.pushforward_antigraph((None, 0), DiscreteMarginal((0, F(1, 2))), 2)
        assert gamma.entries == ((0, 1, F(1, 2)),)

    def test_antigraph_empty(self):
        assert oracles.pushforward_antigraph((None, None), DiscreteMarginal((0, 0)), 3).entries == ()

    def test_first_marginal_equals_eta_on_domain(self):
        rng = random.Random(11)
        for _ in range(50):
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            f = tuple(rng.randrange(n) if rng.random() < 0.7 else None for _ in range(m))
            eta = DiscreteMarginal(
                tuple(F(rng.randint(0, 9), 5) if f[i] is not None else F(0) for i in range(m))
            )
            gamma = oracles.pushforward_graph(f, eta, n)
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
            direct = oracles.pushforward_graph(f, eta, n)
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


# Every kind of zero, and positive ints, floats and Fractions, in one coupling.
mixed_masses = st.one_of(
    st.sampled_from([0, 0.0, -0.0, F(0)]),
    st.integers(1, 5),
    st.floats(0.25, 4.0),
    st.fractions(F(1, 4), 4, max_denominator=6),
)
# Indices as Python ints or numpy ints.
grid_indices = st.builds(lambda k, wrap: np.int64(k) if wrap else k, st.integers(0, 2), st.booleans())


@st.composite
def triplet_lists(draw):
    """(m, n, entries): entries on a grid of at most 3x3, sorted, shuffled,
    or shuffled with some triplets repeated."""
    cell = st.tuples(grid_indices, grid_indices)
    cells = sorted(draw(st.lists(cell, max_size=9, unique_by=lambda c: (int(c[0]), int(c[1])))))
    entries = [(i, j, draw(mixed_masses)) for i, j in cells]
    order = draw(st.sampled_from(["sorted", "shuffled", "duplicated"]))
    if order == "duplicated" and entries:
        entries += draw(st.lists(st.sampled_from(entries), min_size=1, max_size=4))
    if order != "sorted":
        entries = draw(st.permutations(entries))
    return 3, 3, list(entries)


def built(build, *args):
    """The entries ``build`` returns, with their types, or the type and
    message of what it raises."""
    try:
        return "built", repr(build(*args).entries)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(triplet_lists())
def test_from_entries_equals_merging_every_triplet(case):
    # Canonical input takes the one-pass check, the rest the merge: both
    # must give the reference's entries, each mass keeping its type.
    m, n, entries = case
    expected = built(oracles.coupling_by_merging, m, n, entries)
    assert expected[0] == "built"
    assert built(Coupling.from_entries, m, n, entries) == expected
    assert built(Coupling.from_entries, m, n, iter(entries)) == expected


# Faults for from_entries to meet, each at some place among the triplets.
FAULTS = {
    "long": (0, 0, 1, 7),
    "short": (0, 0),
    "float-index": (0.0, 1, 1),
    "str-index": (0, "1", 1),
    "negative": (1, 1, -100.0),  # below any sum of the other masses
    "nan": (2, 0, math.nan),
}


@settings(max_examples=300, deadline=None)
@given(
    triplet_lists(),
    st.lists(
        st.tuples(st.sampled_from([*FAULTS, "m=0", "m=1.5", "m=2"]), st.integers(0, 8)), min_size=1, max_size=3
    ),
)
def test_from_entries_fails_as_merging_does(case, faults):
    # One fault or several: whichever the merge meets first is raised.
    m, n, entries = case
    for fault, at in faults:
        if fault in FAULTS:
            entries.insert(at % (len(entries) + 1), FAULTS[fault])
        else:
            m = {"m=0": 0, "m=1.5": 1.5, "m=2": 2}[fault]
            if m == 2:
                entries.insert(at % (len(entries) + 1), (2, 2, 1))  # outside the 2x3 grid
    expected = built(oracles.coupling_by_merging, m, n, entries)
    assert expected[0] in (TypeError, ValueError)
    assert built(Coupling.from_entries, m, n, entries) == expected


def one_value_of_each_type():
    """One value of each of the package's 15 value types, built afresh."""
    mu = DiscreteMarginal((F(1, 2), F(1, 2)))
    cost = CostMatrix(((0, 1), (1, 0)))
    report = solve(mu, mu, cost)
    support = support_graph(report.coupling)
    system = decompose(support)
    square = Coupling(2, 2, ((0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)))
    demo = run_demo(DemoConfig(n=8))
    return [
        mu, cost, report.coupling, support, is_extremal(square).cycle, is_extremal(square),
        report.potentials, report, system.limbs[0], system, reconstruct(system, mu, mu),
        CircleGrid(8), demo.config, subtwist_check(build_circle_cost(CircleGrid(8))), demo,
    ]


class TestRecord:
    def test_there_is_one_value_of_each_type(self):
        assert len({type(v) for v in one_value_of_each_type()}) == 15

    def test_equal_fields_give_equal_values_and_hashes(self):
        for a, b in zip(one_value_of_each_type(), one_value_of_each_type()):
            assert a is not b and a == b and not a != b
            assert hash(a) == hash(b) == hash(tuple(vars(a).values()))

    def test_values_of_two_types_are_never_equal(self):
        values = one_value_of_each_type()
        for a in values:
            assert a != tuple(vars(a).values())
            for b in values:
                assert (a == b) == (a is b)
        assert Coupling(2, 2) != SupportGraph(2, 2, ())

    def test_fields_cannot_be_assigned_or_deleted(self):
        for value in one_value_of_each_type():
            before = repr(value)
            for name in vars(value):
                with pytest.raises(AttributeError):
                    setattr(value, name, None)
                with pytest.raises(AttributeError):
                    delattr(value, name)
            with pytest.raises(AttributeError):
                value.extra = 1
            assert repr(value) == before

    @pytest.mark.parametrize("round_trip", [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))])
    def test_copies_and_pickles_are_equal(self, round_trip):
        for value in one_value_of_each_type():
            twin = round_trip(value)
            assert twin == value and type(twin) is type(value) and repr(twin) == repr(value)

    def test_keywords_and_defaults(self):
        assert Coupling(m=2, n=2) == Coupling(2, 2, ())
        assert ExtremalityCertificate().cycle is None and ExtremalityCertificate().extremal
        report = ReconstructionReport(Coupling(2, 2))
        assert report.message is None and report.feasible
        assert DemoConfig() == DemoConfig(64) and vars(DemoConfig(n=12))["n"] == 12

    def test_repr_lists_the_fields_in_order(self):
        assert repr(DemoConfig(n=8)) == (
            "DemoConfig(n=8, mu_center=1.5707963267948966, mu_kappa=4.0, "
            "nu_center=4.71238898038469, nu_kappa=4.0)"
        )
        assert repr(ReconstructionReport(Coupling(m=2, n=2))) == (
            "ReconstructionReport(coupling=Coupling(m=2, n=2, entries=()), message=None)"
        )


def test_import_loads_no_dataclasses_inspect_or_typing():
    # -S -E: no site packages and no PYTHONPATH, so only limbsys can load them.
    src = str(Path(limbsys.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import limbsys, limbsys.cli, limbsys.io; "
        "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    )
    run = subprocess.run([sys.executable, "-S", "-E", "-c", code], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"
