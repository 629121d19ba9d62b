"""Support acyclicity, the rank criterion, and non-extremality witnesses."""

import itertools
import random
from fractions import Fraction as F

import networkx as nx
import pytest

from limbsys import (
    Coupling,
    CycleError,
    CycleWitness,
    SupportGraph,
    dl_rank_test,
    is_acyclic,
    is_extremal,
    marginals_of,
    split_witness,
    support_graph,
    tv_distance,
    validate_coupling,
)

import oracles


def uniform_2x2():
    return Coupling(2, 2, tuple((i, j, F(1, 4)) for i in range(2) for j in range(2)))


def grid_supports_3x3():
    cells = [(i, j) for i in range(3) for j in range(3)]
    for mask in range(512):
        yield frozenset(c for k, c in enumerate(cells) if mask >> k & 1)


def definitional_acyclic(cells, m, n):
    """Straight transcription of the alternating k-tuple condition."""
    for k in range(2, min(m, n) + 1):
        for xs in itertools.permutations(range(m), k):
            for ys in itertools.permutations(range(n), k):
                needed = []
                for t in range(k):
                    needed.append((xs[t], ys[t]))
                    needed.append((xs[t], ys[(t + 1) % k]))
                if all(c in cells for c in needed):
                    return False
    return True


class TestSupportGraph:
    def test_diagonal(self):
        gamma = Coupling(3, 3, tuple((i, i, F(1, 3)) for i in range(3)))
        assert support_graph(gamma).edges == frozenset({(0, 0), (1, 1), (2, 2)})

    def test_empty(self):
        assert support_graph(Coupling(2, 2, ())).edges == frozenset()

    def test_dust_excluded(self):
        gamma = Coupling(2, 2, ((0, 0, 0.5), (1, 1, 1e-15)))
        assert support_graph(gamma).edges == frozenset({(0, 0)})


class TestIsAcyclic:
    def test_permutation_support(self):
        ok, witness = is_acyclic(SupportGraph(4, 4, frozenset((i, 3 - i) for i in range(4))))
        assert ok and witness is None

    def test_full_2x2_gives_the_four_cycle(self):
        ok, witness = is_acyclic(SupportGraph(2, 2, frozenset({(0, 0), (0, 1), (1, 0), (1, 1)})))
        assert not ok
        assert witness.k() == 2
        assert set(witness.edges) == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_random_forests_are_acyclic(self):
        rng = random.Random(7)
        for _ in range(40):
            cells = oracles.random_forest_cells(rng, 6, 6)
            assert oracles.is_forest_nx(cells)
            ok, _ = is_acyclic(SupportGraph(6, 6, frozenset(cells)))
            assert ok

    def test_witness_edges_lie_in_the_graph(self):
        rng = random.Random(19)
        for _ in range(60):
            gamma = oracles.random_coupling(rng, 5, 5, density=0.5)
            graph = support_graph(gamma)
            ok, witness = is_acyclic(graph)
            assert ok == oracles.is_forest_nx(graph.edges)
            if not ok:
                assert set(witness.edges) <= graph.edges

    def test_matches_definitional_tuple_search_on_all_3x3_supports(self):
        for cells in grid_supports_3x3():
            ok, _ = is_acyclic(SupportGraph(3, 3, cells))
            assert ok == definitional_acyclic(cells, 3, 3)

    def test_forest_edge_bound(self):
        rng = random.Random(3)
        for _ in range(30):
            cells = oracles.random_forest_cells(rng, 5, 7)
            touched = {("r", i) for i, _ in cells} | {("c", j) for _, j in cells}
            isolated = 5 + 7 - len(touched)
            components = isolated + nx.number_connected_components(oracles._bipartite_graph(cells))
            assert len(cells) <= 5 + 7 - components


class TestCycleWitness:
    def test_rejects_odd_length(self):
        with pytest.raises(ValueError):
            CycleWitness(((0, 0), (0, 1), (1, 1)))

    def test_rejects_broken_alternation(self):
        with pytest.raises(ValueError):
            CycleWitness(((0, 0), (1, 1), (1, 0), (0, 1)))


class TestDlRankTest:
    def test_diagonal_rank_equals_support(self):
        gamma = Coupling(3, 3, tuple((i, i, F(1, 3)) for i in range(3)))
        assert dl_rank_test(gamma)

    def test_full_2x2_rank_deficient(self):
        # a_i + b_j has three degrees of freedom on four cells.
        assert not dl_rank_test(uniform_2x2())

    def test_empty_support(self):
        assert dl_rank_test(Coupling(2, 2, ()))

    def test_support_cap(self):
        from limbsys import SizeLimitError

        gamma = Coupling(4097, 4097, tuple((i, i, 1) for i in range(4097)))
        with pytest.raises(SizeLimitError):
            dl_rank_test(gamma)

    def test_agrees_with_acyclicity_everywhere(self):
        rng = random.Random(41)
        for _ in range(120):
            m, n = rng.randint(1, 8), rng.randint(1, 8)
            gamma = oracles.random_coupling(rng, m, n)
            ok, _ = is_acyclic(support_graph(gamma))
            assert ok == dl_rank_test(gamma)


class TestSplitWitness:
    def test_uniform_2x2_splits_into_permutations(self):
        gamma = uniform_2x2()
        _, witness = is_acyclic(support_graph(gamma))
        a, b = split_witness(gamma, witness)
        half_diag = Coupling(2, 2, ((0, 0, F(1, 2)), (1, 1, F(1, 2))))
        half_anti = Coupling(2, 2, ((0, 1, F(1, 2)), (1, 0, F(1, 2))))
        assert {a, b} == {half_diag, half_anti}

    def test_tv_between_parts_is_two_eps_times_length(self):
        rng = random.Random(57)
        for _ in range(40):
            gamma = oracles.random_coupling(rng, 5, 6, density=0.5)
            ok, witness = is_acyclic(support_graph(gamma))
            if ok:
                continue
            a, b = split_witness(gamma, witness)
            eps = min(gamma.mass_at(i, j) for i, j in witness.edges)
            assert tv_distance(a, b) == 2 * eps * len(witness.edges)

    def test_invalid_cycle_names_edge(self):
        gamma = Coupling(2, 2, ((0, 0, F(1, 2)), (1, 1, F(1, 2))))
        cycle = CycleWitness(((0, 0), (0, 1), (1, 1), (1, 0)))
        with pytest.raises(CycleError, match=r"\(0, 1\)"):
            split_witness(gamma, cycle)


class TestIsExtremal:
    def test_permutation_matrices_are_extreme(self):
        # The extreme points of the doubly stochastic n x n matrices are
        # exactly the n! permutation matrices; each must come back extremal.
        for perm in itertools.permutations(range(3)):
            gamma = Coupling.from_entries(3, 3, [(i, perm[i], F(1, 3)) for i in range(3)])
            assert is_extremal(gamma).extremal

    def test_uniform_2x2_certificate(self):
        cert = is_extremal(uniform_2x2())
        assert cert.verdict == "non-extremal"
        a, b = cert.split
        mu, nu = marginals_of(uniform_2x2())
        assert validate_coupling(a, mu, nu) and validate_coupling(b, mu, nu)
        avg = Coupling.from_entries(2, 2, [(i, j, w / 2) for g in (a, b) for i, j, w in g.entries])
        assert avg == uniform_2x2()
        assert tv_distance(a, b) > 0

    def test_exact_masses_below_eps_mass_count_as_support(self):
        t = F(1, 10**13)
        gamma = Coupling(2, 2, ((0, 0, F(1, 2) - t), (0, 1, t), (1, 0, t), (1, 1, F(1, 2) - t)))
        cert = is_extremal(gamma)
        assert cert.verdict == "non-extremal"
        assert set(cert.cycle.edges) == gamma.cells()
        assert not dl_rank_test(gamma)

    def test_witness_soundness_on_random_couplings(self):
        rng = random.Random(99)
        for _ in range(80):
            gamma = oracles.random_coupling(rng, rng.randint(2, 6), rng.randint(2, 6))
            cert = is_extremal(gamma)
            if cert.extremal:
                continue
            mu, nu = marginals_of(gamma)
            a, b = cert.split
            assert validate_coupling(a, mu, nu) and validate_coupling(b, mu, nu)
            avg = Coupling.from_entries(
                gamma.m, gamma.n, [(i, j, w / 2) for g in (a, b) for i, j, w in g.entries]
            )
            assert avg == gamma
            assert tv_distance(a, b) > 0

    def test_agreement_with_numpy_vertex_rank(self):
        rng = random.Random(5)
        for _ in range(100):
            gamma = oracles.random_coupling(rng, rng.randint(1, 7), rng.randint(1, 7))
            assert is_extremal(gamma).extremal == oracles.is_vertex_oracle(gamma)
