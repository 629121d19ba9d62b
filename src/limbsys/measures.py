"""Discrete marginals, cost matrices, and sparse couplings.

Everything in this module is a plain value: immutable records validated on
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
from fractions import Fraction
from itertools import chain
from operator import index

from .errors import ShapeMismatchError

__all__ = [
    "DiscreteMarginal",
    "CostMatrix",
    "Coupling",
    "marginals_of",
    "validate_coupling",
    "tv_distance",
]


class Record:
    """Base of the package's value types.  A subclass's ``__init__`` checks
    its arguments and stores the normalised fields once, in order, through
    ``_store``; ``vars(x)`` lists them.  Fields cannot be assigned or
    deleted; equality (between instances of one class), hashing and
    ``repr`` read the fields in order."""

    def _store(self, **fields):
        self.__dict__.update(fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return tuple(vars(self).values()) == tuple(vars(other).values())

    def __hash__(self):
        return hash(tuple(vars(self).values()))

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{k}={v!r}' for k, v in vars(self).items())})"


def _dimensions(m, n, what: str) -> tuple:
    """``m`` and ``n`` as ints, by ``operator.index``; ValueError names
    ``what`` unless both are positive."""
    m, n = index(m), index(n)
    if m <= 0 or n <= 0:
        raise ValueError(f"{what} dimensions must be positive")
    return m, n


def _is_finite_number(x) -> bool:
    if isinstance(x, float):
        return math.isfinite(x)
    return isinstance(x, (int, Fraction)) and type(x) is not bool


# Float data get thresholds relative to the largest magnitude they compare,
# so rescaling an instance rescales its thresholds with it.
MASS_SCALE = 1e-12
COST_SCALE = 1e-9


def thresholds(masses=(), costs=()) -> tuple:
    """(mass, cost) thresholds for comparisons over the given value groups."""
    return thresholds_of(magnitudes(masses, costs))


def magnitudes(masses=(), costs=()):
    """(largest |mass|, largest |cost|) over the given value groups, 0 for
    none, or None for exact data.  The one exactness rule of the package:
    data count as exact when no value in any group is a float.

    Each group must be a sequence, not an iterator.  A first pass decides
    exactness, so exact data are read once and never pay for the magnitudes
    of their Fractions; float data are read again for the largest magnitude.
    """
    if not any(isinstance(v, float) for group in (*masses, *costs) for v in group):
        return None
    return tuple(
        max((max(map(abs, group), default=0) for group in groups), default=0) for groups in (masses, costs)
    )


def thresholds_of(tops) -> tuple:
    """(mass, cost) thresholds of ``magnitudes`` ``tops``: the ints (0, 0)
    for exact data, ``MASS_SCALE`` and ``COST_SCALE`` times the tops for
    float data.  Float masses at or below the mass threshold are dust left
    by floating-point solves; costs within the cost threshold count as
    equal.  A top beyond the float range, next to floats, raises ValueError."""
    if tops is None:
        return 0, 0
    with float_range(tops):
        return MASS_SCALE * tops[0], COST_SCALE * tops[1]


def exact_ints(*groups) -> tuple:
    """The one rule for exact results: the exact value groups of one family
    (the masses, or the costs) as lists of ints times L, the lcm of their
    denominators (1 for ints), and the divisor of results worked out on
    those ints: L when any value is a ``Fraction``, whole ones included,
    None when every value is an ``int``, whose results stay ints."""
    if {int}.issuperset(map(type, chain(*groups))):
        return [list(group) for group in groups], None
    L = math.lcm(*{v.denominator for group in groups for v in group})
    scaled = [[v.numerator * (L // v.denominator) for v in group] for group in groups]
    fraction = L > 1 or any(type(v) is not int and isinstance(v, Fraction) for group in groups for v in group)
    return scaled, L if fraction else None


def edge_scaled(factor: int, tops, *groups) -> tuple:
    """The one rule for float data at the edge of the float range: the
    value groups as lists times 2**-k, and 2.0**-k, for the least k >= 0
    that keeps ``factor`` times the product of the magnitudes ``tops``,
    times 2**-k, below 2**1024, read off their binary exponents; the groups
    as they are and None when k is 0, as it is unless that product comes
    within about a factor 2 of the float maximum.  Scaling floats by a power
    of two is exact, so scaled data compare as before and results scale
    back."""
    k = max(0, sum(math.frexp(t)[1] for t in tops) + (factor - 1).bit_length() - 1024)
    if not k:
        return groups, None
    return [[v * 2.0**-k for v in group] for group in groups], 2.0**-k


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


class DiscreteMarginal(Record):
    """Nonnegative weights on an indexed finite point set.

    ``weights[i]`` is the mass sitting at point ``i``.  Weights need not sum
    to one: only equality of totals matters for feasibility, and nothing here
    renormalizes silently.
    """

    def __init__(self, weights: tuple):
        weights = tuple(weights)
        if len(weights) == 0:
            raise ValueError("a marginal needs at least one point")
        for i, w in enumerate(weights):
            if not _is_finite_number(w):
                raise ValueError(f"weight at index {i} is not a finite number: {w!r}")
            if (w.numerator if type(w) is Fraction else w) < 0:  # as in Coupling
                raise ValueError(f"negative weight at index {i}: {w!r}")
        self._store(weights=weights)

    @property
    def size(self) -> int:
        return len(self.weights)

    def total(self):
        with float_range(self.weights):
            return sum(self.weights)


class CostMatrix(Record):
    """Dense m-by-n matrix of finite transport costs ``rows[i][j]``."""

    def __init__(self, rows: tuple):
        rows = tuple(tuple(r) for r in rows)
        if len(rows) == 0 or len(rows[0]) == 0:
            raise ValueError("cost matrix must have positive dimensions")
        width = len(rows[0])
        for i, r in enumerate(rows):
            if len(r) != width:
                raise ValueError(f"ragged cost matrix: row {i} has {len(r)} entries, row 0 has {width}")
            for j, c in enumerate(r):
                if not _is_finite_number(c):
                    raise ValueError(f"cost at ({i}, {j}) is not a finite number: {c!r}")
        self._store(rows=rows)

    @property
    def m(self) -> int:
        return len(self.rows)

    @property
    def n(self) -> int:
        return len(self.rows[0])

    def at(self, i: int, j: int):
        return self.rows[i][j]


class Coupling(Record):
    """Sparse nonnegative measure on the m-by-n product grid.

    ``entries`` is a tuple of ``(i, j, mass)`` triplets with strictly positive
    masses, one per occupied cell, sorted row-major.  Construct via
    :meth:`from_entries` unless the input is already canonical.
    """

    def __init__(self, m: int, n: int, entries: tuple = ()):
        m, n = _dimensions(m, n, "coupling")
        entries = tuple([(index(i), index(j), w) for i, j, w in entries])
        inf, pi, pj = math.inf, -1, -1
        for i, j, w in entries:
            if not (0 <= i < m and 0 <= j < n):
                raise ValueError(f"entry ({i}, {j}) outside the {m}x{n} grid")
            # Checked by exact type, bool and others by the general rule.  A Fraction's
            # denominator is positive, so its numerator bears the sign.
            t = type(w)
            if not (0.0 < w < inf if t is float else w.numerator > 0 if t is Fraction
                    else w > 0 if t is int else _is_finite_number(w) and w > 0):
                raise ValueError(f"mass at ({i}, {j}) must be finite and > 0, got {w!r}")
            if i < pi or i == pi and j <= pj:
                raise ValueError("entries must be strictly row-major sorted without duplicates")
            pi, pj = i, j
        self._store(m=m, n=n, entries=entries)

    @classmethod
    def from_entries(cls, m: int, n: int, entries) -> "Coupling":
        """Canonicalize arbitrary triplets: sort row-major, merge duplicate cells,
        drop exact zeros.  Construction rejects negative and non-finite masses.

        Canonical triplets, as every written file holds, are checked in one
        pass and kept as they come; any others, and every error, take the
        merge below, which returns the same coupling for canonical ones."""
        entries = list(entries)
        try:
            return cls(m, n, entries)
        except (TypeError, ValueError):
            pass
        acc: dict = {}
        for i, j, w in entries:
            key = (index(i), index(j))
            if key in acc:
                with float_range((acc[key], w)):
                    acc[key] = acc[key] + w
            else:
                acc[key] = w
        # Zeros are falsy; a falsy non-number (None, "") is kept for the check to reject.
        return cls(m, n, tuple([(i, j, w) for (i, j), w in sorted(acc.items()) if w or w != 0]))

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
    with float_range(row.weights, col.weights, mu.weights, nu.weights):
        return all(abs(a - b) <= eps for a, b in zip(row.weights + col.weights, mu.weights + nu.weights))


def tv_distance(a: Coupling, b: Coupling):
    """Total variation distance: sum of |mass_a - mass_b| over all cells.

    A metric on couplings of a fixed shape; zero exactly when the two agree
    as sparse measures.
    """
    if (a.m, a.n) != (b.m, b.n):
        raise ShapeMismatchError(f"tv_distance: shapes {a.m}x{a.n} and {b.m}x{b.n} differ")
    mass_a, mass_b = ({(i, j): w for i, j, w in g.entries} for g in (a, b))
    total = 0
    with float_range(mass_a.values(), mass_b.values()):
        for c in sorted(mass_a.keys() | mass_b.keys()):
            total = total + abs(mass_a.get(c, 0) - mass_b.get(c, 0))
    return total
