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

from fractions import Fraction
from operator import index

from .errors import CyclicSupportError, InvalidSystemError, ShapeMismatchError
from .extremality import SupportGraph, _peel
from .measures import Coupling, DiscreteMarginal, Record, _dimensions, exact_ints, float_range, thresholds

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


class Limb(Record):
    """One limb: index k and the map as (source, image) pairs.

    Odd k is a graph limb (map on row points), even k an antigraph limb
    (map on column points); ``kind`` is derived from that parity.  The map
    must be single-valued on its domain.
    """

    def __init__(self, k: int, pairs: tuple):
        k = index(k)
        pairs = tuple(sorted((index(s), index(d)) for s, d in pairs))
        if k < 1:
            raise ValueError("limb indices start at 1")
        sources = [s for s, _ in pairs]
        if len(set(sources)) != len(sources):
            raise ValueError(f"limb {k} map is not single-valued")
        self._store(k=k, pairs=pairs)

    @property
    def kind(self) -> str:
        return "graph" if self.k % 2 == 1 else "antigraph"

    def cells(self) -> frozenset:
        """Support cells on the product grid, as (row, column) pairs."""
        if self.kind == "graph":
            return frozenset((s, d) for s, d in self.pairs)
        return frozenset((d, s) for s, d in self.pairs)


class NumberedLimbSystem(Record):
    """Limbs with strictly increasing indices plus the index-set partition.

    ``x_levels[i]`` is the odd index of the I-set holding row point i,
    ``y_levels[j]`` the even index holding column point j.  Construction
    checks only structural sanity; the containment clauses, which also make
    limb supports disjoint, are checked by :func:`validate_system`, which
    reports rather than raises so that invalid systems can be described.
    """

    def __init__(self, m: int, n: int, limbs: tuple, x_levels: tuple, y_levels: tuple):
        m, n = _dimensions(m, n, "system")
        limbs = tuple(limbs)
        x_levels, y_levels = tuple(map(index, x_levels)), tuple(map(index, y_levels))
        if len(x_levels) != m or len(y_levels) != n:
            raise ValueError("level arrays must assign every row and column point")
        for i, lv in enumerate(x_levels):
            if lv < 1 or lv % 2 == 0:
                raise ValueError(f"row point {i} must sit in an odd index set, got {lv}")
        for j, lv in enumerate(y_levels):
            if lv < 0 or lv % 2 == 1:
                raise ValueError(f"column point {j} must sit in an even index set, got {lv}")
        ks = [limb.k for limb in limbs]
        if any(b <= a for a, b in zip(ks, ks[1:])):
            raise ValueError("limb indices must be strictly increasing")
        self._store(m=m, n=n, limbs=limbs, x_levels=x_levels, y_levels=y_levels)

    def limb_of(self, i: int, j: int) -> int:
        """The limb holding support cell (i, j): a pair of limb k has its
        source on level k and its image on level k - 1."""
        return max(self.x_levels[i], self.y_levels[j])


class ReconstructionReport(Record):
    """Outcome of the backward recursion: the candidate coupling and, when
    it fails, a message naming the failure.

    ``feasible`` is derived: a report is feasible exactly when it carries
    no message.  The limb marginal eta_k is the coupling's mass on limb k's
    cells, read on Dom f_k, so it is not stored.
    """

    def __init__(self, coupling: Coupling, message: str | None = None):
        self._store(coupling=coupling, message=message)

    @property
    def feasible(self) -> bool:
        return self.message is None


def system_violations(system: NumberedLimbSystem) -> list:
    """Every violated clause of the limb-system definition, as messages.
    Row levels are odd and column levels even, so a cell's two levels fix
    the one limb it can sit in: limb supports need no disjointness check."""
    out = []
    for limb in system.limbs:
        src, dst = system.x_levels, system.y_levels
        if limb.kind == "antigraph":
            src, dst = dst, src
        for s, d in limb.pairs:
            if not (0 <= s < len(src) and 0 <= d < len(dst)):
                out.append(f"limb {limb.k}: pair ({s}, {d}) out of bounds")
                continue
            if src[s] != limb.k:
                out.append(f"limb {limb.k}: domain point {s} sits in I_{src[s]}, not I_{limb.k}")
            if dst[d] != limb.k - 1:
                out.append(f"limb {limb.k}: image point {d} sits in I_{dst[d]}, not I_{limb.k - 1}")
    return out


def validate_system(system: NumberedLimbSystem) -> bool:
    return not system_violations(system)


def system_support(system: NumberedLimbSystem) -> SupportGraph:
    """Union of all limb supports as a bipartite graph."""
    cells = set()
    for limb in system.limbs:
        cells |= limb.cells()
    return SupportGraph(system.m, system.n, cells)


def limb_count(system: NumberedLimbSystem) -> int:
    """Largest k whose map has nonempty domain; 0 for an empty system."""
    ks = [limb.k for limb in system.limbs if limb.pairs]
    return max(ks) if ks else 0


def decompose(support: SupportGraph) -> NumberedLimbSystem:
    """Level an acyclic support into the fewest limbs, reading them off the
    leaf peel of ``extremality._peel``.

    In a limb system every point has at most one neighbour on a lower level,
    so each tree has a single root and its levels are depths from that root:
    a column root sits in I_0, a row root in I_1, one level more.  The fewest
    limbs therefore come from rooting each tree at its centre, taking the
    column when the two centres of an odd-diameter tree are a row and a
    column.  The peel hangs every point from its neighbour toward that root,
    so in reverse fall order each point sits one level above the point it
    hangs from, and their pair joins the limb of its level.  The same pass
    decides acyclicity, so cyclic input raises carrying the witness of
    :func:`~limbsys.extremality.is_acyclic`.  Roots and points without
    support edges stay in I_1 (rows) and I_0 (columns).
    """
    m, n = support.m, support.n
    above, order, witness = _peel(support)
    if witness is not None:
        cycle = f"rows {list(witness.rows)} and columns {list(witness.cols)}"
        raise CyclicSupportError(f"support contains an alternating cycle through {cycle}", witness)

    level = [1] * m + [0] * n
    limb_pairs: dict = {}
    for v in reversed(order):
        u = above[v]
        if u is not None:
            d = level[v] = level[u] + 1
            limb_pairs.setdefault(d, []).append((v, u - m) if v < m else (v - m, u))

    limbs = [Limb(k, limb_pairs[k]) for k in sorted(limb_pairs)]
    return NumberedLimbSystem(m, n, limbs, level[:m], level[m:])


def reconstruct(
    system: NumberedLimbSystem, mu: DiscreteMarginal, nu: DiscreteMarginal
) -> ReconstructionReport:
    """Recover the unique coupling a limb system admits, if any.

    Working from the highest limb down, each limb takes whatever marginal
    mass the limbs above it left behind on its domain:

        eta_k = (mu - row marginal of gamma_{k+1}) restricted to Dom f_k   (k odd)
        eta_k = (nu - column marginal of gamma_{k+1}) restricted to Dom f_k (k even)

    and pushes it through its map, so eta_k is the coupling's mass on limb
    k's cells, read on Dom f_k.  In a valid system only limb k+1 sends
    mass into I_k, so one sweep over the pairs suffices: ``sent`` holds the
    mass each point, rows 0..m-1 then columns m..m+n-1, got from the limb above,
    added in the entry order of gamma_{k+1}, and a point of Dom f_k then
    takes its marginal, (marginal - sent) + sent, so the sweep ends with
    the coupling's marginals.  A negative eta entry below minus the mass
    threshold of (mu, nu), or a final marginal off by more, makes the
    report infeasible, naming the lowest failing point of the highest
    failing limb; small negative round-off is clamped to zero.  When
    feasible, the sum of the limb pieces is the one coupling of (mu, nu)
    vanishing outside the system support.

    Exact marginals are swept as ints and each kept mass (and the failing
    eta entry) typed as ``measures.exact_ints`` says, as in ``solve``: a
    Fraction when any weight is one, else an int; floats are swept as is.
    """
    violations = system_violations(system)
    if violations:
        raise InvalidSystemError("limb system is invalid: " + "; ".join(violations), violations)
    if (system.m, system.n) != (mu.size, nu.size):
        raise ShapeMismatchError(
            f"system is {system.m}x{system.n} but marginals have sizes {mu.size} and {nu.size}"
        )

    m, n = system.m, system.n
    marginals = mu.weights + nu.weights
    eps, _ = thresholds(masses=(marginals,))
    L = None
    if not isinstance(eps, float):
        (marginals,), L = exact_ints(marginals)
    sent = [0] * (m + n)
    entries = []
    failure: str | None = None

    # Sums of exact masses may leave the float range where they meet floats.
    with float_range(sent):
        for limb in reversed(system.limbs):  # highest k first; indices strictly increase
            graph = limb.kind == "graph"
            src, dst = (0, m) if graph else (m, 0)
            for s, d in limb.pairs:
                p = src + s
                w = marginals[p] - sent[p]
                sent[p] = marginals[p]
                if w > 0:
                    entries.append((s, d, w) if graph else (d, s, w))
                    sent[dst + d] += w
                elif w < -eps and failure is None:
                    w = Fraction(w, L) if L else w
                    failure = (
                        f"limb {limb.k} needs mass {w!r} at point {s}; "
                        "the marginals cannot feed this system"
                    )
        if failure is None and any(abs(a - b) > eps for a, b in zip(sent, marginals)):
            failure = "reconstructed coupling does not reproduce the requested marginals"
    # The system is valid, so its cells are distinct and every mass kept is
    # positive: sorting alone makes the entries canonical.
    entries.sort()
    if L:
        entries = [(i, j, Fraction(w, L)) for i, j, w in entries]
    return ReconstructionReport(Coupling(m, n, tuple(entries)), failure)


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
