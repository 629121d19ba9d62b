"""Numbered limb systems: alternating graphs and antigraphs over a partition.

A system carries partial maps f_1, f_2, ... where odd-indexed maps send row
points to column points (their graphs are support cells) and even-indexed
maps send column points to row points (antigraphs).  Row points are
partitioned among the odd index sets I_1, I_3, ..., column points among the
even ones I_0, I_2, ..., with Dom(f_k) inside I_k and Ran(f_k) inside
I_{k-1}.  On finite spaces every acyclic support decomposes into such a
system, and a system together with marginals pins down at most one coupling,
recovered here by the backward recursion over limbs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import CyclicSupportError, InvalidSystemError, ShapeMismatchError
from .extremality import SupportGraph, is_acyclic
from .measures import Coupling, DiscreteMarginal, thresholds, validate_coupling

__all__ = [
    "Limb",
    "NumberedLimbSystem",
    "ReconstructionReport",
    "validate_system",
    "system_violations",
    "system_support",
    "decompose",
    "reconstruct",
    "limb_count",
    "two_limb_check",
]


@dataclass(frozen=True)
class Limb:
    """One limb: index k, its kind, and the map as (source, image) pairs.

    Odd k is a graph limb (map on row points), even k an antigraph limb
    (map on column points).  The map must be single-valued on its domain.
    """

    k: int
    kind: str
    pairs: tuple

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("limb indices start at 1")
        if self.kind not in ("graph", "antigraph"):
            raise ValueError(f"unknown limb kind {self.kind!r}")
        if (self.k % 2 == 1) != (self.kind == "graph"):
            raise ValueError(f"limb {self.k} parity does not match kind {self.kind!r}")
        pairs = tuple(sorted((int(s), int(d)) for s, d in self.pairs))
        object.__setattr__(self, "pairs", pairs)
        sources = [s for s, _ in pairs]
        if len(set(sources)) != len(sources):
            raise ValueError(f"limb {self.k} map is not single-valued")

    def cells(self) -> frozenset:
        """Support cells on the product grid, as (row, column) pairs."""
        if self.kind == "graph":
            return frozenset((s, d) for s, d in self.pairs)
        return frozenset((d, s) for s, d in self.pairs)


@dataclass(frozen=True)
class NumberedLimbSystem:
    """Limbs with strictly increasing indices plus the index-set partition.

    ``x_levels[i]`` is the odd index of the I-set holding row point i,
    ``y_levels[j]`` the even index holding column point j.  Construction
    checks only structural sanity; the containment and disjointness clauses
    are checked by :func:`validate_system`, which reports rather than raises
    so that invalid systems can be described.
    """

    m: int
    n: int
    limbs: tuple
    x_levels: tuple
    y_levels: tuple

    def __post_init__(self):
        object.__setattr__(self, "limbs", tuple(self.limbs))
        object.__setattr__(self, "x_levels", tuple(int(v) for v in self.x_levels))
        object.__setattr__(self, "y_levels", tuple(int(v) for v in self.y_levels))
        if self.m <= 0 or self.n <= 0:
            raise ValueError("system dimensions must be positive")
        if len(self.x_levels) != self.m or len(self.y_levels) != self.n:
            raise ValueError("level arrays must assign every row and column point")
        for i, lv in enumerate(self.x_levels):
            if lv < 1 or lv % 2 == 0:
                raise ValueError(f"row point {i} must sit in an odd index set, got {lv}")
        for j, lv in enumerate(self.y_levels):
            if lv < 0 or lv % 2 == 1:
                raise ValueError(f"column point {j} must sit in an even index set, got {lv}")
        ks = [limb.k for limb in self.limbs]
        if any(b <= a for a, b in zip(ks, ks[1:])):
            raise ValueError("limb indices must be strictly increasing")


@dataclass(frozen=True)
class ReconstructionReport:
    """Outcome of the backward recursion: the candidate coupling, the limb
    marginals eta_k in ascending k order, and whether it is feasible."""

    coupling: Coupling
    eta: tuple
    feasible: bool
    message: Optional[str] = None


def system_violations(system: NumberedLimbSystem) -> list:
    """Every violated clause of the limb-system definition, as messages."""
    out = []
    seen_cells: dict = {}
    for limb in system.limbs:
        src_size = system.m if limb.kind == "graph" else system.n
        dst_size = system.n if limb.kind == "graph" else system.m
        for s, d in limb.pairs:
            if not (0 <= s < src_size) or not (0 <= d < dst_size):
                out.append(f"limb {limb.k}: pair ({s}, {d}) out of bounds")
                continue
            src_level = system.x_levels[s] if limb.kind == "graph" else system.y_levels[s]
            dst_level = system.y_levels[d] if limb.kind == "graph" else system.x_levels[d]
            if src_level != limb.k:
                out.append(
                    f"limb {limb.k}: domain point {s} sits in I_{src_level}, not I_{limb.k}"
                )
            if dst_level != limb.k - 1:
                out.append(
                    f"limb {limb.k}: image point {d} sits in I_{dst_level}, not I_{limb.k - 1}"
                )
        for cell in limb.cells():
            if cell in seen_cells:
                out.append(
                    f"cell {cell} belongs to limbs {seen_cells[cell]} and {limb.k}; "
                    "limb supports must be disjoint"
                )
            else:
                seen_cells[cell] = limb.k
    return out


def validate_system(system: NumberedLimbSystem) -> bool:
    return not system_violations(system)


def system_support(system: NumberedLimbSystem) -> SupportGraph:
    """Union of all limb supports as a bipartite graph."""
    cells = set()
    for limb in system.limbs:
        cells |= limb.cells()
    return SupportGraph(system.m, system.n, frozenset(cells))


def limb_count(system: NumberedLimbSystem) -> int:
    """Largest k whose map has nonempty domain; 0 for an empty system."""
    ks = [limb.k for limb in system.limbs if limb.pairs]
    return max(ks) if ks else 0


def decompose(support: SupportGraph) -> NumberedLimbSystem:
    """Level an acyclic support into the fewest limbs, by a search from the
    centre of each tree.

    In a limb system every point has at most one neighbour on a lower level,
    so each tree has a single root and its levels are depths from that root:
    a column root sits in I_0, a row root in I_1, one level more.  The fewest
    limbs therefore come from rooting each tree at its centre, taking the
    column when the two centres of an odd-diameter tree are a row and a
    column.  A node on level d contributes its parent edge to limb d.  Points
    without support edges go to I_1 (rows) and I_0 (columns).  Cyclic input
    raises, carrying the cycle witness.
    """
    m, n = support.m, support.n
    adjacency = [[] for _ in range(m + n)]  # rows 0..m-1, columns m..m+n-1
    for i, j in support.edges:
        adjacency[i].append(m + j)
        adjacency[m + j].append(i)

    # Peel leaves in rounds.  A point falls once at most one neighbour is
    # left standing; a tree's centre is what falls last, with no neighbour
    # standing.  Points on a cycle never fall.
    degree = [len(nbrs) for nbrs in adjacency]
    standing = [d > 0 for d in degree]
    falling = [v for v in range(m + n) if degree[v] == 1]
    roots = []
    while falling:
        for v in falling:
            standing[v] = False
        peeled = set(falling)
        upcoming = []
        for v in falling:
            alive = False
            for u in adjacency[v]:
                if standing[u]:
                    alive = True
                    degree[u] -= 1
                    if degree[u] == 1:
                        upcoming.append(u)
            # A lone centre, or the column of two centres falling together.
            if not alive and (v >= m or not any(u in peeled for u in adjacency[v])):
                roots.append(v)
        falling = upcoming
    if any(standing):
        raise CyclicSupportError("support contains an alternating cycle", is_acyclic(support)[1])

    level = [1] * m + [0] * n
    limb_pairs: dict = {}
    for root in roots:
        stack = [(root, None)]
        while stack:
            u, above = stack.pop()
            for v in adjacency[u]:
                if v != above:
                    d = level[v] = level[u] + 1
                    limb_pairs.setdefault(d, []).append((v, u - m) if v < m else (v - m, u))
                    stack.append((v, u))

    limbs = tuple(
        Limb(k, "graph" if k % 2 == 1 else "antigraph", tuple(limb_pairs[k]))
        for k in sorted(limb_pairs)
    )
    return NumberedLimbSystem(m, n, limbs, tuple(level[:m]), tuple(level[m:]))


def reconstruct(
    system: NumberedLimbSystem, mu: DiscreteMarginal, nu: DiscreteMarginal
) -> ReconstructionReport:
    """Recover the unique coupling a limb system admits, if any.

    Working from the highest limb down, each limb takes whatever marginal
    mass the limbs above it left behind on its domain:

        eta_k = (mu - row marginal of gamma_{k+1}) restricted to Dom f_k   (k odd)
        eta_k = (nu - column marginal of gamma_{k+1}) restricted to Dom f_k (k even)

    and pushes it through its map.  In a valid system only limb k+1 sends
    mass into I_k, so one sweep over the pairs suffices: ``sent_to_row`` and
    ``sent_to_col`` hold the mass each point has been sent by the limb
    directly above it, added in pair order, which is the canonical entry
    order of gamma_{k+1}.  A negative eta entry below minus the mass
    threshold of (mu, nu), or a final marginal mismatch, makes the report
    infeasible, naming the lowest failing point of the highest failing limb;
    small negative round-off is clamped to zero.  When feasible, the sum of the limb pieces is the one
    coupling of (mu, nu) vanishing outside the system support.
    """
    violations = system_violations(system)
    if violations:
        raise InvalidSystemError("limb system is invalid", violations)
    if (system.m, system.n) != (mu.size, nu.size):
        raise ShapeMismatchError(
            f"system is {system.m}x{system.n} but marginals have sizes {mu.size} and {nu.size}"
        )

    m, n = system.m, system.n
    eps, _ = thresholds(masses=(mu.weights, nu.weights))
    sent_to_row, sent_to_col = [0] * m, [0] * n
    entries = []
    etas = []
    failure: Optional[str] = None

    for limb in reversed(system.limbs):  # highest k first; indices strictly increase
        graph = limb.kind == "graph"
        if graph:
            base, sent_src, sent_dst = mu.weights, sent_to_row, sent_to_col
        else:
            base, sent_src, sent_dst = nu.weights, sent_to_col, sent_to_row
        weights = [0] * len(base)
        for s, d in limb.pairs:
            w = base[s] - sent_src[s]
            if w < 0:
                if w < -eps and failure is None:
                    failure = (
                        f"limb {limb.k} needs mass {w!r} at point {s}; "
                        "the marginals cannot feed this system"
                    )
                w = 0
            weights[s] = w
            if w > 0:
                entries.append((s, d, w) if graph else (d, s, w))
                sent_dst[d] = sent_dst[d] + w
        etas.append(DiscreteMarginal(tuple(weights)))

    coupling = Coupling.from_entries(m, n, entries)
    feasible = failure is None and validate_coupling(coupling, mu, nu)
    if failure is None and not feasible:
        failure = "reconstructed coupling does not reproduce the requested marginals"
    return ReconstructionReport(coupling, tuple(reversed(etas)), feasible, failure)


def two_limb_check(support: SupportGraph):
    """Maps (f1, f2) realizing the support as graph plus antigraph, or None.

    A support splits that way exactly when its fewest-limb system, from
    :func:`decompose`, has at most two limbs; the maps are that system's
    limbs 1 and 2.  Cyclic supports never split.  Returned as index arrays
    with None off the domains.
    """
    try:
        system = decompose(support)
    except CyclicSupportError:
        return None
    if limb_count(system) > 2:
        return None
    f1, f2 = [None] * system.m, [None] * system.n
    for limb in system.limbs:
        for s, d in limb.pairs:
            (f1 if limb.k == 1 else f2)[s] = d
    return tuple(f1), tuple(f2)
