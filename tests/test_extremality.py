"""Support acyclicity, the rank criterion, and non-extremality witnesses."""

import itertools
import random
from fractions import Fraction as F

import networkx as nx
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from limbsys import (
    Coupling,
    CycleError,
    CycleWitness,
    CyclicSupportError,
    SupportGraph,
    decompose,
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


def random_coupling(rng, m, n, exact, density=0.4):
    """``oracles.random_coupling``, with its masses turned to floats unless exact."""
    gamma = oracles.random_coupling(rng, m, n, density)
    return gamma if exact else Coupling(m, n, tuple((i, j, float(w)) for i, j, w in gamma.entries))


def close(a, b, exact):
    """Equal on exact data, equal up to rounding on floats."""
    return a == b if exact else abs(a - b) <= 1e-12 * max(abs(a), abs(b), 1)


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

    @pytest.mark.parametrize(
        "m, n, edges, named",
        [(0, 2, (), "dimensions"), (2, -1, (), "dimensions"), (2, 2, ((0, 2),), r"edge \(0, 2\)")],
    )
    def test_rejects(self, m, n, edges, named):
        with pytest.raises(ValueError, match=named):
            SupportGraph(m, n, frozenset(edges))

    @pytest.mark.parametrize(
        "edges, lowest",
        [
            ({(0, 0), (1, 1), (9, 0), (3, 1), (0, 7), (2, 0), (5, 5)}, (0, 7)),
            ({(2, 0), (-1, 9), (1, 2), (0, -3), (4, 4)}, (-1, 9)),
            ({(1, 0), (1, 5), (1, 2), (1, 3), (1, 4), (6, 1)}, (1, 2)),
        ],
    )
    def test_out_of_grid_names_the_lowest_bad_edge(self, edges, lowest):
        with pytest.raises(ValueError) as info:
            SupportGraph(2, 2, frozenset(edges))
        assert str(info.value) == f"edge {lowest} outside the 2x2 grid"

    def test_dust_free_and_dusty_float_supports_agree_with_the_mass_filter(self):
        rng = random.Random(314)
        for _ in range(50):
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            gamma = random_coupling(rng, m, n, exact=False)
            dusty = Coupling.from_entries(m, n, [*gamma.entries, (m - 1, n - 1, 1e-16)])
            for g in (gamma, dusty):
                assert support_graph(g).edges == {(i, j) for i, j, w in g.entries if w > 1e-13}


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


@st.composite
def bipartite_graphs(draw):
    """Support graphs up to 9x9 with at most m + n + 3 edges, so that forests
    and cyclic graphs both come up."""
    m, n = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    cell = st.tuples(st.integers(0, m - 1), st.integers(0, n - 1))
    return SupportGraph(m, n, draw(st.frozensets(cell, max_size=m + n + 3)))


def path_cells(path):
    """Cells of the edges between consecutive ("r", i) / ("c", j) nodes."""
    return {(a[1], b[1]) if a[0] == "r" else (b[1], a[1]) for a, b in zip(path, path[1:])}


def lowest_walk_cells(graph):
    """Cells of the loop closed by a walk through the 2-core of ``graph``
    that starts at its lowest point and steps to the lowest neighbour other
    than the one it just left; rows come before columns."""
    core = nx.k_core(oracles._bipartite_graph(graph.edges), 2)
    rank = lambda v: v[1] if v[0] == "r" else graph.m + v[1]
    u, before, trail = min(core, key=rank), None, []
    while u not in trail:
        trail.append(u)
        u, before = min((v for v in core[u] if v != before), key=rank), u
    return path_cells(trail[trail.index(u) :] + [u])


class TestPeelWitness:
    @settings(max_examples=300, deadline=None)
    @given(bipartite_graphs(), st.randoms(use_true_random=False))
    def test_one_witness_per_edge_set(self, graph, rnd):
        ok, witness = is_acyclic(graph)
        assert ok == oracles.is_forest_nx(graph.edges)
        cells = sorted(graph.edges)
        rnd.shuffle(cells)
        assert is_acyclic(SupportGraph(graph.m, graph.n, cells)) == (ok, witness)
        if ok:
            assert witness is None
            return
        assert set(witness.edges) <= graph.edges
        assert set(witness.edges) == lowest_walk_cells(graph)
        with pytest.raises(CyclicSupportError) as err:
            decompose(graph)
        assert err.value.witness == witness

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 9), st.integers(2, 9), st.randoms(use_true_random=False))
    def test_forest_plus_one_cell_gives_its_fundamental_cycle(self, m, n, rnd):
        forest = oracles.random_forest_cells(rnd, m, n)
        tree = oracles._bipartite_graph(forest)
        closing = [
            (i, j)
            for i in range(m)
            for j in range(n)
            if (i, j) not in forest
            and ("r", i) in tree
            and ("c", j) in tree
            and nx.has_path(tree, ("r", i), ("c", j))
        ]
        assume(closing)
        i, j = rnd.choice(closing)
        cycle = path_cells(nx.shortest_path(tree, ("r", i), ("c", j)))
        ok, witness = is_acyclic(SupportGraph(m, n, frozenset(forest) | {(i, j)}))
        assert not ok
        assert set(witness.edges) == cycle | {(i, j)}


class TestCycleWitness:
    def test_rejects_fewer_than_two_rows(self):
        with pytest.raises(ValueError, match="k >= 2"):
            CycleWitness((0,), (1,))

    def test_rejects_unequal_lengths(self):
        with pytest.raises(ValueError, match="not 2 and 3"):
            CycleWitness((0, 1), (0, 1, 2))

    def test_names_a_repeated_row(self):
        with pytest.raises(ValueError, match="row 4 twice"):
            CycleWitness((4, 1, 4), (0, 1, 2))

    def test_names_a_repeated_column(self):
        with pytest.raises(ValueError, match="column 2 twice"):
            CycleWitness((0, 1, 3), (2, 1, 2))

    def test_edges_walk_each_row_from_the_previous_column(self):
        # i1 -> j1 -> i2 -> j2 -> i3 -> j3 -> i1, each row entered from the
        # column before it and left to its own column.
        witness = CycleWitness((5, 0, 2), (1, 3, 4))
        assert witness.k() == 3
        assert witness.edges == ((5, 4), (5, 1), (0, 1), (0, 3), (2, 3), (2, 4))


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

    def test_large_spanning_tree_and_one_more_cell(self):
        # 1,999 cells on 1000 + 1000 points: rank |S| for the tree, and one
        # cell more closes a cycle.  Elimination over the integers takes
        # minutes here.
        rng = random.Random(1999)
        m = n = 1000
        cells = oracles.random_spanning_tree(rng, m, n)
        extra = (0, 0)
        while extra in cells:
            extra = (rng.randrange(m), rng.randrange(n))
        for support in (cells, cells | {extra}):
            gamma = Coupling.from_entries(m, n, [(i, j, 1) for i, j in support])
            assert dl_rank_test(gamma) == is_acyclic(support_graph(gamma))[0] == (support is cells)

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
        for exact in [True, False] * 40:
            gamma = random_coupling(rng, 5, 6, exact, density=0.5)
            ok, witness = is_acyclic(support_graph(gamma))
            if ok:
                continue
            a, b = split_witness(gamma, witness)
            eps = min(gamma.mass_at(i, j) for i, j in witness.edges)
            assert close(tv_distance(a, b), 2 * eps * len(witness.edges), exact)

    def test_invalid_cycle_names_edge(self):
        gamma = Coupling(2, 2, ((0, 0, F(1, 2)), (1, 1, F(1, 2))))
        cycle = CycleWitness((0, 1), (1, 0))
        with pytest.raises(CycleError, match=r"\(0, 1\)"):
            split_witness(gamma, cycle)

    @staticmethod
    def assert_matches_reference(gamma, cycle):
        parts = split_witness(gamma, cycle)
        reference = oracles.split_witness_by_entries(gamma, cycle)
        for part, ref in zip(parts, reference):
            assert part == ref
            assert [type(w) for _, _, w in part.entries] == [type(w) for _, _, w in ref.entries]
        return parts

    @pytest.mark.parametrize("exact", [True, False], ids=["fraction", "float"])
    def test_matches_the_per_entry_split_on_seeded_cycles(self, exact):
        # Random cycles through dense couplings of three masses, which tie,
        # so one or several cycle cells reach zero in either part.
        rng = random.Random(2718)
        values = (F(1, 10), F(2, 10), F(3, 10)) if exact else (0.1, 0.2, 0.3)
        tested = several = 0
        for _ in range(200):
            m, n = rng.randint(2, 9), rng.randint(2, 9)
            entries = [(i, j, rng.choice(values)) for i in range(m) for j in range(n) if rng.random() < 0.9]
            gamma = Coupling(m, n, tuple(entries))
            k = rng.randint(2, min(m, n))
            cycle = CycleWitness(rng.sample(range(m), k), rng.sample(range(n), k))
            if not set(cycle.edges) <= gamma.cells():
                continue
            a, b = self.assert_matches_reference(gamma, cycle)
            tested += 1
            several += min(len(a.entries), len(b.entries)) < len(entries) - 1
        assert tested > 60 and several > 20

    @pytest.mark.parametrize("exact", [True, False], ids=["fraction", "float"])
    def test_cycle_through_the_first_and_last_entries(self, exact):
        m, n = 4, 5
        w = (lambda i, j: F(i + j + 1, 8)) if exact else (lambda i, j: (i + j + 1) / 8)
        gamma = Coupling(m, n, tuple((i, j, w(i, j)) for i in range(m) for j in range(n)))
        # Rows 0 and m - 1 meet columns 0 and n - 1: cells (0, 0) and
        # (m - 1, n - 1) are the first and last entries, and (0, 0) has
        # the least mass, so it leaves one part.
        cycle = CycleWitness((0, m - 1), (n - 1, 0))
        assert {gamma.entries[0][:2], gamma.entries[-1][:2]} <= set(cycle.edges)
        a, b = self.assert_matches_reference(gamma, cycle)
        assert a.mass_at(0, 0) == 2 * w(0, 0) and b.mass_at(0, 0) == 0
        assert len(a.entries) == m * n and len(b.entries) == m * n - 1

    def test_a_cycle_cell_reaching_zero_in_both_parts_is_split_apart(self):
        # Equal masses on all four cells: each part loses two of them.
        a, b = self.assert_matches_reference(uniform_2x2(), CycleWitness((0, 1), (1, 0)))
        assert len(a.entries) == len(b.entries) == 2

    @pytest.mark.parametrize(
        "entries, cycle",
        [
            (((0, 0, 0.5), (0, 1, 0.5), (1, 0, 0.5)), CycleWitness((0, 1), (1, 0))),
            (((0, 0, 0.5), (0, 1, 1e-15), (1, 0, 0.5), (1, 1, 0.5)), CycleWitness((0, 1), (1, 0))),
            (((0, 0, 1), (0, 1, 1), (1, 1, 1)), CycleWitness((1, 0), (0, 1))),
        ],
        ids=["missing-cell", "dust-cell", "missing-first-cell"],
    )
    def test_refuses_the_first_edge_the_reference_refuses(self, entries, cycle):
        gamma = Coupling(2, 2, entries)
        with pytest.raises(CycleError) as expected:
            oracles.split_witness_by_entries(gamma, cycle)
        with pytest.raises(CycleError) as got:
            split_witness(gamma, cycle)
        assert str(got.value) == str(expected.value)


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
        a, b = split_witness(uniform_2x2(), cert.cycle)
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
        for exact in [True, False] * 80:
            gamma = random_coupling(rng, rng.randint(2, 6), rng.randint(2, 6), exact)
            cert = is_extremal(gamma)
            if cert.extremal:
                continue
            mu, nu = marginals_of(gamma)
            a, b = split_witness(gamma, cert.cycle)
            assert validate_coupling(a, mu, nu) and validate_coupling(b, mu, nu)
            avg = Coupling.from_entries(
                gamma.m, gamma.n, [(i, j, w / 2) for g in (a, b) for i, j, w in g.entries]
            )
            assert close(tv_distance(avg, gamma), 0, exact)
            assert tv_distance(a, b) > 0

    def test_agreement_with_numpy_vertex_rank(self):
        rng = random.Random(5)
        for _ in range(100):
            gamma = oracles.random_coupling(rng, rng.randint(1, 7), rng.randint(1, 7))
            assert is_extremal(gamma).extremal == oracles.is_vertex_oracle(gamma)
