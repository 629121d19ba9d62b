"""Discrete marginals, cost matrices, and sparse couplings.

Everything in this module is a plain value: frozen dataclasses validated on
construction, and pure functions over them.  Masses and costs may be ``int``,
``float``, or ``fractions.Fraction``; arithmetic never mixes in divisions, so
exact inputs produce exact outputs.  This is what the rest of the package
relies on for its exact-arithmetic mode.

A coupling is stored as a canonically ordered sparse triplet list, so two
couplings are equal exactly when they are equal as measures on the product
grid (given exact masses).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from operator import index
from typing import Optional, Sequence

from .errors import InfeasibleError, ShapeMismatchError

__all__ = [
    "DiscreteMarginal",
    "CostMatrix",
    "Coupling",
    "marginals_of",
    "validate_coupling",
    "pushforward_graph",
    "pushforward_antigraph",
    "tv_distance",
]


def _is_finite_number(x) -> bool:
    if isinstance(x, float):
        return math.isfinite(x)
    return isinstance(x, (int, Fraction))


# Float data get thresholds relative to the largest magnitude they compare,
# so rescaling an instance rescales its thresholds with it.
MASS_SCALE = 1e-12
COST_SCALE = 1e-9


def thresholds(masses=(), costs=()) -> tuple:
    """(mass, cost) thresholds for comparisons over the given value groups.

    The one exactness rule of the package: data count as exact when no
    value in any group is a float, and exact data get the int thresholds
    (0, 0).  Float data get the float thresholds ``MASS_SCALE`` times the
    largest |mass| and ``COST_SCALE`` times the largest |cost|; no values or
    only zeros give 0.0.
    Float masses at or below the mass threshold are dust left behind by
    floating-point solves; costs within the cost threshold count as equal.
    A magnitude beyond the float range next to float data raises ValueError.

    Each group must be a sequence, not an iterator.  A first pass decides
    exactness, so exact data are read once and never pay for the magnitudes
    of their Fractions; float data are read again for the largest magnitude.
    """
    if not any(isinstance(v, float) for group in (*masses, *costs) for v in group):
        return 0, 0
    top_mass, top_cost = (
        max((max(map(abs, group), default=0) for group in groups), default=0)
        for groups in (masses, costs)
    )
    with float_range((top_mass, top_cost)):
        return MASS_SCALE * top_mass, COST_SCALE * top_cost


def common_denominator(*groups) -> int:
    """The least common multiple of the denominators of exact values: the
    least positive integer whose product with each of them is an int.  It is
    1 for int data, whose ``denominator`` is 1."""
    return math.lcm(*{v.denominator for group in groups for v in group})


@contextmanager
def float_range(*groups):
    """Run arithmetic over the given value groups, turning the
    ``OverflowError`` of an integer or fraction beyond the float range that
    meets a float into a ``ValueError`` naming the largest magnitude.

    The groups are read only when the error occurs, so they may be
    iterators."""
    try:
        yield
    except OverflowError:
        top = max((max(map(abs, group), default=0) for group in groups), default=0)
        raise ValueError(f"value {top!r} is beyond the float range of the data it meets") from None


@dataclass(frozen=True)
class DiscreteMarginal:
    """Nonnegative weights on an indexed finite point set.

    ``weights[i]`` is the mass sitting at point ``i``.  Weights need not sum
    to one: only equality of totals matters for feasibility, and nothing here
    renormalizes silently.
    """

    weights: tuple

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(self.weights))
        if len(self.weights) == 0:
            raise ValueError("a marginal needs at least one point")
        for i, w in enumerate(self.weights):
            if not _is_finite_number(w):
                raise ValueError(f"weight at index {i} is not a finite number: {w!r}")
            if w < 0:
                raise ValueError(f"negative weight at index {i}: {w!r}")

    @property
    def size(self) -> int:
        return len(self.weights)

    def total(self):
        with float_range(self.weights):
            return sum(self.weights)


@dataclass(frozen=True)
class CostMatrix:
    """Dense m-by-n matrix of finite transport costs ``rows[i][j]``."""

    rows: tuple

    def __post_init__(self):
        rows = tuple(tuple(r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        if len(rows) == 0 or len(rows[0]) == 0:
            raise ValueError("cost matrix must have positive dimensions")
        width = len(rows[0])
        for i, r in enumerate(rows):
            if len(r) != width:
                raise ValueError(f"ragged cost matrix: row {i} has {len(r)} entries, row 0 has {width}")
            for j, c in enumerate(r):
                if not _is_finite_number(c):
                    raise ValueError(f"cost at ({i}, {j}) is not a finite number: {c!r}")

    @property
    def m(self) -> int:
        return len(self.rows)

    @property
    def n(self) -> int:
        return len(self.rows[0])

    def at(self, i: int, j: int):
        return self.rows[i][j]


@dataclass(frozen=True)
class Coupling:
    """Sparse nonnegative measure on the m-by-n product grid.

    ``entries`` is a tuple of ``(i, j, mass)`` triplets with strictly positive
    masses, one per occupied cell, sorted row-major.  Construct via
    :meth:`from_entries` unless the input is already canonical.
    """

    m: int
    n: int
    entries: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "m", index(self.m))
        object.__setattr__(self, "n", index(self.n))
        if self.m <= 0 or self.n <= 0:
            raise ValueError("coupling dimensions must be positive")
        entries = tuple((index(i), index(j), w) for (i, j, w) in self.entries)
        object.__setattr__(self, "entries", entries)
        prev = None
        for i, j, w in entries:
            if not (0 <= i < self.m and 0 <= j < self.n):
                raise ValueError(f"entry ({i}, {j}) outside the {self.m}x{self.n} grid")
            if not _is_finite_number(w) or w <= 0:
                raise ValueError(f"mass at ({i}, {j}) must be finite and > 0, got {w!r}")
            if prev is not None and (i, j) <= prev:
                raise ValueError("entries must be strictly row-major sorted without duplicates")
            prev = (i, j)

    @classmethod
    def from_entries(cls, m: int, n: int, entries) -> "Coupling":
        """Canonicalize arbitrary triplets: sort row-major, merge duplicate cells,
        drop exact zeros.  Construction rejects negative and non-finite masses."""
        acc: dict = {}
        for i, j, w in entries:
            key = (index(i), index(j))
            if key in acc:
                with float_range((acc[key], w)):
                    acc[key] = acc[key] + w
            else:
                acc[key] = w
        return cls(m, n, tuple((i, j, acc[i, j]) for i, j in sorted(acc) if acc[i, j] != 0))

    def mass_at(self, i: int, j: int):
        k = bisect_left(self.entries, (i, j))  # (i, j) sorts just before (i, j, w)
        if k < len(self.entries) and self.entries[k][:2] == (i, j):
            return self.entries[k][2]
        return 0

    def total_mass(self):
        with float_range(w for _, _, w in self.entries):
            return sum(w for _, _, w in self.entries)

    def cells(self) -> frozenset:
        return frozenset((i, j) for i, j, _ in self.entries)


def _require_same_shape(a: Coupling, b: Coupling, what: str):
    if (a.m, a.n) != (b.m, b.n):
        raise ShapeMismatchError(f"{what}: shapes {a.m}x{a.n} and {b.m}x{b.n} differ")


def marginals_of(gamma: Coupling) -> tuple[DiscreteMarginal, DiscreteMarginal]:
    """Project a coupling onto its row and column marginals.

    The first marginal has weight_i = sum_j mass(i, j), the second
    weight_j = sum_i mass(i, j).  Summation runs in canonical entry order,
    so the result is deterministic in floating point and exact for Fractions.
    """
    row = [0] * gamma.m
    col = [0] * gamma.n
    with float_range(w for _, _, w in gamma.entries):
        for i, j, w in gamma.entries:
            row[i] = row[i] + w
            col[j] = col[j] + w
    return DiscreteMarginal(tuple(row)), DiscreteMarginal(tuple(col))


def validate_coupling(gamma: Coupling, mu: DiscreteMarginal, nu: DiscreteMarginal) -> bool:
    """True iff both marginals of ``gamma`` match ``mu`` and ``nu`` within
    the mass threshold per entry (exactly, for exact data).  Shape
    disagreement is an error, not a False."""
    if (gamma.m, gamma.n) != (mu.size, nu.size):
        raise ShapeMismatchError(
            f"coupling is {gamma.m}x{gamma.n} but marginals have sizes {mu.size} and {nu.size}"
        )
    row, col = marginals_of(gamma)
    eps, _ = thresholds(masses=(row.weights, mu.weights, nu.weights))
    return all(abs(a - b) <= eps for a, b in zip(row.weights, mu.weights)) and all(
        abs(a - b) <= eps for a, b in zip(col.weights, nu.weights)
    )


def pushforward_graph(f: Sequence[Optional[int]], eta: DiscreteMarginal, n: int) -> Coupling:
    """Push ``eta`` through a partial map of row indices to column indices.

    ``f[i]`` is the image column of row ``i`` or None where undefined.  The
    result puts mass ``eta_i`` on cell ``(i, f[i])`` for every i in the domain,
    so its support lies in the graph of ``f`` and its first marginal restricted
    to the domain is ``eta``.  ``eta`` must vanish (up to the mass threshold
    for float data) off the domain; genuinely positive mass there is
    infeasible by definition of a push-forward and raises.
    """
    if len(f) != eta.size:
        raise ShapeMismatchError(f"map has {len(f)} slots but marginal has {eta.size} points")
    eps, _ = thresholds(masses=(eta.weights,))
    entries = []
    for i, w in enumerate(eta.weights):
        j = f[i]
        if j is None:
            if w > eps:
                raise InfeasibleError(
                    f"marginal carries mass {w!r} at point {i} outside the domain of the map"
                )
            continue
        if not (0 <= j < n):
            raise ValueError(f"map sends {i} to {j}, outside the {n} image points")
        if w > 0:
            entries.append((i, j, w))
    return Coupling(eta.size, n, tuple(entries))


def pushforward_antigraph(g: Sequence[Optional[int]], eta: DiscreteMarginal, m: int) -> Coupling:
    """Transpose of :func:`pushforward_graph` for a partial map of column
    indices to row indices: mass ``eta_j`` lands on cell ``(g[j], j)``."""
    piece = pushforward_graph(g, eta, m)
    return Coupling.from_entries(m, eta.size, ((i, j, w) for j, i, w in piece.entries))


def tv_distance(a: Coupling, b: Coupling):
    """Total variation distance: sum of |mass_a - mass_b| over all cells.

    A metric on couplings of a fixed shape; zero exactly when the two agree
    as sparse measures.
    """
    _require_same_shape(a, b, "tv_distance")
    it_a, it_b = iter(a.entries), iter(b.entries)
    ea, eb = next(it_a, None), next(it_b, None)
    total = 0
    with float_range(*((w for _, _, w in g.entries) for g in (a, b))):
        while ea is not None or eb is not None:
            if eb is None or (ea is not None and ea[:2] < eb[:2]):
                total = total + abs(ea[2])
                ea = next(it_a, None)
            elif ea is None or eb[:2] < ea[:2]:
                total = total + abs(eb[2])
                eb = next(it_b, None)
            else:
                total = total + abs(ea[2] - eb[2])
                ea, eb = next(it_a, None), next(it_b, None)
    return total
