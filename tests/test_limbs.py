"""Limb systems: validation, decomposition, reconstruction, two-limb splits."""

import itertools
import random
import re
from fractions import Fraction as F

import pytest

from limbsys import (
    Coupling,
    CyclicSupportError,
    DiscreteMarginal,
    InvalidSystemError,
    Limb,
    NumberedLimbSystem,
    SupportGraph,
    decompose,
    limb_count,
    marginals_of,
    reconstruct,
    support_graph,
    system_support,
    system_violations,
    two_limb_check,
    validate_coupling,
    validate_system,
)

import oracles


def path_system():
    """The two-point path support as three limbs, one map entry each."""
    return NumberedLimbSystem(
        2,
        2,
        (
            Limb(1, ((0, 0),)),
            Limb(2, ((1, 0),)),
            Limb(3, ((1, 1),)),
        ),
        (1, 3),
        (0, 2),
    )


class TestLimbType:
    def test_kind_alternates_with_parity(self):
        assert [Limb(k, ()).kind for k in (1, 2, 3, 4)] == ["graph", "antigraph"] * 2

    def test_indices_start_at_one(self):
        with pytest.raises(ValueError, match="limb indices start at 1"):
            Limb(0, ())

    def test_single_valuedness(self):
        with pytest.raises(ValueError, match="single-valued"):
            Limb(1, ((0, 0), (0, 1)))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Coupling(2.5, 2, ((0, 0, 1),)),
            lambda: Coupling(2, "2"),
            lambda: SupportGraph(2.0, 2, frozenset()),
            lambda: NumberedLimbSystem(1, 1.0, (), (1,), (0,)),
            lambda: Limb(1.5, ()),
        ],
        ids=["coupling-m", "coupling-n", "support-graph-m", "system-n", "limb-k"],
    )
    def test_sizes_and_limb_numbers_must_be_integers(self, build):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            build()

    def test_level_parity_enforced(self):
        with pytest.raises(ValueError, match="odd"):
            NumberedLimbSystem(1, 1, (), (2,), (0,))

    @pytest.mark.parametrize(
        "m, n, limbs, x_levels, y_levels, named",
        [
            (0, 1, (), (), (0,), "dimensions"),
            (1, 1, (), (1, 1), (0,), "level arrays"),
            (1, 1, (), (1,), (1,), "column point 0"),
            (1, 1, (Limb(1, ()), Limb(1, ())), (1,), (0,), "strictly increasing"),
        ],
    )
    def test_system_rejects(self, m, n, limbs, x_levels, y_levels, named):
        with pytest.raises(ValueError, match=named):
            NumberedLimbSystem(m, n, limbs, x_levels, y_levels)


class TestValidateSystem:
    def test_single_total_limb(self):
        system = NumberedLimbSystem(2, 2, (Limb(1, ((0, 1), (1, 0))),), (1, 1), (0, 0))
        assert validate_system(system)

    def test_range_outside_previous_index_set(self):
        bad = NumberedLimbSystem(1, 1, (Limb(1, ((0, 0),)),), (1,), (2,))
        assert not validate_system(bad)
        assert any("I_2" in v for v in system_violations(bad))

    def test_overlapping_limb_supports(self):
        bad = NumberedLimbSystem(
            2,
            2,
            (Limb(1, ((0, 0),)), Limb(2, ((0, 0),))),
            (1, 1),
            (2, 0),
        )
        assert not validate_system(bad)
        assert system_violations(bad) == ["limb 1: image point 0 sits in I_2, not I_0"]

    @pytest.mark.parametrize(
        "limb, y_level, named",
        [
            (Limb(1, ((0, 3),)), 0, r"limb 1: pair \(0, 3\) out of bounds"),
            (Limb(3, ((0, 0),)), 2, "limb 3: domain point 0 sits in I_1, not I_3"),
        ],
    )
    def test_violations_name_the_pair(self, limb, y_level, named):
        violations = system_violations(NumberedLimbSystem(1, 1, (limb,), (1,), (y_level,)))
        assert len(violations) == 1 and re.fullmatch(named, violations[0])

    def test_overlapping_cells_break_bounds_or_levels(self):
        # A cell in two limbs is reported as a bounds or level violation, so
        # disjointness needs no check of its own.
        rng = random.Random(16)
        overlapping = 0
        for _ in range(3000):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            limbs = []
            for k in sorted(rng.sample(range(1, 7), rng.randint(0, 4))):
                src, dst = (m, n) if k % 2 else (n, m)
                sources = rng.sample(range(src + 1), rng.randint(0, src + 1))
                limbs.append(Limb(k, tuple((s, rng.randrange(dst + 1)) for s in sources)))
            system = NumberedLimbSystem(
                m,
                n,
                tuple(limbs),
                tuple(rng.choice((1, 3, 5)) for _ in range(m)),
                tuple(rng.choice((0, 2, 4)) for _ in range(n)),
            )
            cells = [cell for limb in limbs for cell in limb.cells()]
            if len(set(cells)) < len(cells):
                overlapping += 1
                assert not validate_system(system)
                assert any(re.search(r"out of bounds|sits in I_", v) for v in system_violations(system))
        assert overlapping > 300

    def test_path_system_is_valid(self):
        assert validate_system(path_system())

    def test_demo_style_two_limb_system(self):
        # Graph (0, 0, 2) plus antigraph (None, 0, None), as the demo reports them.
        support = SupportGraph(3, 3, frozenset({(0, 0), (1, 0), (2, 2), (0, 1)}))
        system = decompose(support)
        assert validate_system(system)
        assert limb_count(system) == 2
        assert system.limbs[0].pairs == ((0, 0), (1, 0), (2, 2))
        assert system.limbs[1].pairs == ((1, 0),)


class TestDecompose:
    def test_diagonal_single_limb(self):
        system = decompose(SupportGraph(3, 3, frozenset((i, i) for i in range(3))))
        assert len(system.limbs) == 1
        assert system.limbs[0] == Limb(1, ((0, 0), (1, 1), (2, 2)))
        assert system.x_levels == (1, 1, 1)
        assert system.y_levels == (0, 0, 0)

    def test_empty_support(self):
        system = decompose(SupportGraph(2, 3, frozenset()))
        assert system.limbs == ()
        assert system.x_levels == (1, 1)
        assert system.y_levels == (0, 0, 0)
        assert limb_count(system) == 0

    def test_path_rooted_at_heaviest_column(self):
        # Row 0 and column 1 are the two centres of the path, so column 1
        # becomes the root and the path needs only two limbs (the
        # hand-rooted three-limb version of the same support is a different,
        # equally valid system).
        support = SupportGraph(2, 2, frozenset({(0, 0), (0, 1), (1, 1)}))
        system = decompose(support)
        assert [limb.k for limb in system.limbs] == [1, 2]
        assert system.limbs[0].pairs == ((0, 1), (1, 1))
        assert system.limbs[1].pairs == ((0, 0),)
        assert validate_system(system)
        assert system_support(system).edges == support.edges

    def test_cyclic_support_raises_with_witness(self):
        cyclic = SupportGraph(2, 2, frozenset({(0, 0), (0, 1), (1, 0), (1, 1)}))
        with pytest.raises(CyclicSupportError) as err:
            decompose(cyclic)
        assert set(err.value.witness.edges) <= cyclic.edges

    def test_union_of_limbs_is_support_and_disjoint(self):
        rng = random.Random(4)
        for _ in range(60):
            m, n = rng.randint(1, 8), rng.randint(1, 8)
            cells = oracles.random_forest_cells(rng, m, n)
            system = decompose(SupportGraph(m, n, frozenset(cells)))
            assert validate_system(system)
            sizes = sum(len(limb.pairs) for limb in system.limbs)
            union = system_support(system).edges
            assert union == frozenset(cells)
            assert sizes == len(cells)

    def test_fewest_limbs_over_all_roots(self):
        # Levels of a limb system are depths from one root per tree, and a
        # row root sits one level deeper than a column root; the best root
        # of each tree is found here by trying every node.
        rng = random.Random(11)
        for _ in range(300):
            m, n = rng.randint(1, 9), rng.randint(1, 9)
            cells = oracles.random_forest_cells(rng, m, n)
            adjacency = {v: [] for v in range(m + n)}
            for i, j in cells:
                adjacency[i].append(m + j)
                adjacency[m + j].append(i)

            def levels(root):
                level = {root: 0 if root >= m else 1}
                stack = [root]
                while stack:
                    u = stack.pop()
                    for v in adjacency[u]:
                        if v not in level:
                            level[v] = level[u] + 1
                            stack.append(v)
                return level

            best, done = 0, set()
            for v in range(m + n):
                if v in done or not adjacency[v]:
                    continue
                tree = levels(v)
                done |= set(tree)
                best = max(best, min(max(levels(root).values()) for root in tree))
            system = decompose(SupportGraph(m, n, frozenset(cells)))
            assert validate_system(system)
            assert limb_count(system) == best, sorted(cells)


class TestReconstruct:
    def test_identity_system(self):
        system = NumberedLimbSystem(2, 2, (Limb(1, ((0, 0), (1, 1))),), (1, 1), (0, 0))
        half = DiscreteMarginal((F(1, 2), F(1, 2)))
        report = reconstruct(system, half, half)
        assert report.feasible
        assert report.coupling == Coupling(2, 2, ((0, 0, F(1, 2)), (1, 1, F(1, 2))))

    def test_three_limb_path_by_hand(self):
        mu = DiscreteMarginal((F(1, 2), F(1, 2)))
        nu = DiscreteMarginal((F(1, 5), F(4, 5)))
        report = reconstruct(path_system(), mu, nu)
        assert report.feasible
        assert report.coupling == Coupling(
            2, 2, ((0, 0, F(1, 5)), (0, 1, F(3, 10)), (1, 1, F(1, 2)))
        )

    def test_three_limb_path_infeasible_marginals(self):
        mu = DiscreteMarginal((F(1, 2), F(1, 2)))
        nu = DiscreteMarginal((F(9, 10), F(1, 10)))
        report = reconstruct(path_system(), mu, nu)
        assert not report.feasible
        assert "limb 2" in report.message

    def test_failure_names_the_lowest_failing_point(self):
        # Limb 2 sends 1/2 into rows 1 and 8, which carry 1/4 each, so limb 1
        # fails at both; the report names point 1.
        system = NumberedLimbSystem(
            9,
            3,
            (Limb(1, ((1, 0), (8, 0))), Limb(2, ((1, 8), (2, 1)))),
            (1,) * 9,
            (0, 2, 2),
        )
        assert validate_system(system)
        mu = DiscreteMarginal(tuple(F(1, 4) if i in (1, 8) else 0 for i in range(9)))
        nu = DiscreteMarginal((0, F(1, 2), F(1, 2)))
        report = reconstruct(system, mu, nu)
        assert not report.feasible
        assert report.message.startswith("limb 1 needs mass Fraction(-1, 4) at point 1;")

    def test_invalid_system_raises(self):
        bad = NumberedLimbSystem(1, 1, (Limb(1, ((0, 0),)),), (1,), (2,))
        with pytest.raises(InvalidSystemError):
            reconstruct(bad, DiscreteMarginal((F(1),)), DiscreteMarginal((F(1),)))

    def test_marginal_sizes_must_match_system(self):
        from limbsys import ShapeMismatchError

        system = NumberedLimbSystem(2, 2, (Limb(1, ((0, 0), (1, 1))),), (1, 1), (0, 0))
        with pytest.raises(ShapeMismatchError):
            reconstruct(system, DiscreteMarginal((F(1),)), DiscreteMarginal((F(1, 2), F(1, 2))))

    def test_empty_system_feasible_only_for_zero_mass(self):
        system = NumberedLimbSystem(2, 2, (), (1, 1), (0, 0))
        zero = DiscreteMarginal((0, 0))
        assert reconstruct(system, zero, zero).feasible
        assert not reconstruct(system, DiscreteMarginal((F(1), 0)), zero).feasible

    def test_round_trip_exact(self):
        rng = random.Random(6)
        for _ in range(50):
            m, n = rng.randint(1, 8), rng.randint(1, 8)
            gamma = oracles.random_forest_coupling(rng, m, n)
            mu, nu = marginals_of(gamma)
            report = reconstruct(decompose(support_graph(gamma)), mu, nu)
            assert report.feasible
            assert report.coupling == gamma

    def test_matches_feasibility_oracle_on_random_forests(self):
        # At most one coupling vanishes outside a forest; the exact linear
        # solver must find exactly the reconstruction output.
        rng = random.Random(60)
        for _ in range(40):
            m, n = rng.randint(2, 7), rng.randint(2, 7)
            gamma = oracles.random_forest_coupling(rng, m, n)
            mu, nu = marginals_of(gamma)
            cells = sorted(gamma.cells())
            report = reconstruct(decompose(SupportGraph(m, n, frozenset(cells))), mu, nu)
            from_oracle = oracles.coupling_on_cells(mu, nu, cells)
            assert report.feasible
            assert from_oracle is not None
            assert report.coupling == from_oracle == gamma

    def test_feasible_exactly_when_the_sweep_holds_and_the_marginals_match(self):
        # The verdict equals no negative eta entry in the sweep together with
        # validate_coupling on the returned coupling, for exact and float
        # data, on marginals that fit, nearly fit and do not fit.
        rng = random.Random(1616)
        seen = set()
        for t in range(400):
            m, n = rng.randint(1, 7), rng.randint(1, 7)
            gamma = oracles.random_forest_coupling(rng, m, n)
            system = decompose(support_graph(gamma))
            kind = ("exact", "perturbed", "float", "float-1e-14", "float-1e-3", "random")[t % 6]
            if kind.startswith("float"):
                gamma = Coupling(m, n, tuple((i, j, float(w)) for i, j, w in gamma.entries))
            mu, nu = marginals_of(gamma)
            weights = list(mu.weights + nu.weights)
            p = rng.randrange(m + n)
            if kind == "perturbed":
                weights[p] = abs(weights[p] + F(rng.choice((-1, 1)), 80))
            elif kind.startswith("float-"):
                weights[p] *= 1 + rng.choice((-1, 1)) * float(kind[6:])
            elif kind == "random":
                weights = [F(rng.randint(0, 4), 3) for _ in weights]
            mu, nu = DiscreteMarginal(weights[:m]), DiscreteMarginal(weights[m:])
            report = reconstruct(system, mu, nu)
            swept = report.message is None or not report.message.startswith("limb ")
            assert report.feasible == (swept and validate_coupling(report.coupling, mu, nu))
            seen.add((kind, report.feasible, swept))
        assert {(kind, False, True) for kind in ("perturbed", "float-1e-3", "random")} < seen
        assert {(kind, True, True) for kind in ("exact", "float", "float-1e-14")} < seen
        assert ("random", False, False) in seen

    def test_monotone_truncation(self):
        # Dropping the highest limb and the mass it consumed reproduces the
        # reconstruction of the truncated system: the recursion is local.
        rng = random.Random(321)
        for _ in range(30):
            m, n = rng.randint(2, 7), rng.randint(2, 7)
            gamma = oracles.random_forest_coupling(rng, m, n)
            mu, nu = marginals_of(gamma)
            system = decompose(support_graph(gamma))
            if len(system.limbs) < 2:
                continue
            top = system.limbs[-1]
            truncated = NumberedLimbSystem(
                m, n, system.limbs[:-1], system.x_levels, system.y_levels
            )
            top_cells = top.cells()
            piece = Coupling.from_entries(
                m, n, [(i, j, w) for i, j, w in gamma.entries if (i, j) in top_cells]
            )
            rest = Coupling.from_entries(
                m, n, [(i, j, w) for i, j, w in gamma.entries if (i, j) not in top_cells]
            )
            prow, pcol = marginals_of(piece)
            mu2 = DiscreteMarginal(tuple(a - b for a, b in zip(mu.weights, prow.weights)))
            nu2 = DiscreteMarginal(tuple(a - b for a, b in zip(nu.weights, pcol.weights)))
            report = reconstruct(truncated, mu2, nu2)
            assert report.feasible
            assert report.coupling == rest


class TestGapInLimbIndices:
    """Limbs 1 and 3 with no limb 2.  decompose never builds such a system,
    but it is valid: rows sit in I_1 and I_3, columns in I_0, I_2, I_2, and
    limb 3 sends into I_2, which no limb reads."""

    @staticmethod
    def system():
        limbs = (Limb(1, ((0, 0),)), Limb(3, ((1, 1),)))
        return NumberedLimbSystem(2, 3, limbs, (1, 3), (0, 2, 2))

    def test_feasible_marginals(self):
        system = self.system()
        assert validate_system(system)
        assert limb_count(system) == 3
        mu = DiscreteMarginal((F(1, 4), F(3, 4)))
        nu = DiscreteMarginal((F(1, 4), F(3, 4), 0))
        report = reconstruct(system, mu, nu)
        assert report.feasible
        assert report.message is None
        assert report.coupling == Coupling(2, 3, ((0, 0, F(1, 4)), (1, 1, F(3, 4))))

    def test_mass_on_the_bare_column_is_infeasible(self):
        mu = DiscreteMarginal((F(1, 4), F(3, 4)))
        nu = DiscreteMarginal((F(1, 4), F(1, 2), F(1, 4)))
        report = reconstruct(self.system(), mu, nu)
        assert not report.feasible
        assert report.message == "reconstructed coupling does not reproduce the requested marginals"


class TestLimbCount:
    def test_examples(self):
        identity = NumberedLimbSystem(2, 2, (Limb(1, ((0, 0), (1, 1))),), (1, 1), (0, 0))
        assert limb_count(identity) == 1
        assert limb_count(path_system()) == 3


def bruteforce_two_limb(m, n, cells):
    """A support splits into graph plus antigraph iff some set A of columns
    takes at most one cell per row while every column outside A keeps at
    most one cell."""
    col_deg = [sum(1 for i, j in cells if j == jj) for jj in range(n)]
    for mask in range(1 << n):
        in_a = [(mask >> j) & 1 for j in range(n)]
        if any(col_deg[j] > 1 and not in_a[j] for j in range(n)):
            continue
        if all(sum(1 for i2, j2 in cells if i2 == i and in_a[j2]) <= 1 for i in range(m)):
            return True
    return False


class TestTwoLimbCheck:
    def test_diagonal_is_a_pure_graph(self):
        f1, f2 = two_limb_check(SupportGraph(3, 3, frozenset((i, i) for i in range(3))))
        assert f1 == (0, 1, 2)
        assert f2 == (None, None, None)

    def test_row_with_two_heavy_columns_fails(self):
        support = SupportGraph(3, 2, frozenset({(0, 0), (0, 1), (1, 0), (2, 1)}))
        assert two_limb_check(support) is None
        assert not bruteforce_two_limb(3, 2, support.edges)

    def test_exhaustive_agreement_on_all_4x4_supports(self):
        cells4 = [(i, j) for i in range(4) for j in range(4)]
        for mask in range(1 << 16):
            cells = frozenset(c for k, c in enumerate(cells4) if (mask >> k) & 1)
            got = two_limb_check(SupportGraph(4, 4, cells))
            assert (got is not None) == bruteforce_two_limb(4, 4, cells), cells

    def test_soundness_of_returned_maps(self):
        rng = random.Random(14)
        for _ in range(80):
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            cells = frozenset(
                (rng.randrange(m), rng.randrange(n)) for _ in range(rng.randint(0, m * n))
            )
            support = SupportGraph(m, n, cells)
            result = two_limb_check(support)
            if result is None:
                continue
            f1, f2 = result
            system = decompose(support)
            assert validate_system(system)
            assert limb_count(system) <= 2
            assert system_support(system).edges == cells
            covered = {(i, j) for i, j in enumerate(f1) if j is not None}
            covered |= {(i, j) for j, i in enumerate(f2) if i is not None}
            assert covered == cells
            ran_f1 = {j for j in f1 if j is not None}
            dom_f2 = {j for j, i in enumerate(f2) if i is not None}
            assert not (ran_f1 & dom_f2)
