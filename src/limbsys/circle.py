"""Transport around a circular town: angular cost and peaked densities.

Grid points sit at equally spaced angles; the cost of moving between two of
them is one minus the cosine of the angle between.  Column differences of
this cost are pure sinusoids in the row angle, so each has a single maximum
and a single minimum around the circle.  That is the discrete shape of the
condition under which optimizers concentrate on at most two limbs, and the
demo verifies the whole chain on solved instances: subtwist shape of the
cost, extremality of the optimizer, and the fewest-limb system of its
support, with the mass each limb carries.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, chain, repeat
from operator import or_, sub

from .errors import LimbsysError
from .extremality import support_graph
from .limbs import NumberedLimbSystem, decompose, limb_count
from .measures import CostMatrix, DiscreteMarginal, Record, edge_scaled, magnitudes, thresholds_of
from .transport import SolveReport, solve

__all__ = [
    "CircleGrid",
    "DemoConfig",
    "DemoReport",
    "SubtwistReport",
    "build_circle_cost",
    "build_peaked_density",
    "subtwist_check",
    "demo_instance",
    "rational_demo_instance",
    "run_demo",
    "support_rows",
]

TWO_PI = 2.0 * math.pi


class CircleGrid(Record):
    """n equally spaced angles on the circle, starting at 0."""

    def __init__(self, n: int):
        if n < 3:
            raise ValueError("a circle grid needs at least 3 points")
        self._store(n=n)

    @property
    def angles(self) -> tuple:
        return tuple(TWO_PI * i / self.n for i in range(self.n))


class DemoConfig(Record):
    """Grid size and the two density peaks for the demo run.

    Defaults put the first peak at the top of the circle and the second at
    the bottom, sharp enough that some mass has to cross town.
    """

    def __init__(self, n: int = 64, mu_center: float = math.pi / 2, mu_kappa: float = 4.0,
                 nu_center: float = 3 * math.pi / 2, nu_kappa: float = 4.0):
        if not (mu_kappa >= 0 and nu_kappa >= 0):
            raise ValueError("concentrations must be nonnegative numbers")
        if not (0 <= mu_center < TWO_PI and 0 <= nu_center < TWO_PI):
            raise ValueError("peak centers must lie in [0, 2*pi)")
        self._store(n=n, mu_center=mu_center, mu_kappa=mu_kappa, nu_center=nu_center, nu_kappa=nu_kappa)


class SubtwistReport(Record):
    """Verdict of the column-pair sign-change scan.

    ``violations`` lists column pairs whose difference has the wrong number
    of sign changes; ``degenerate`` lists pairs with a constant difference,
    which are flagged but do not fail the check on their own.  ``passed``
    is derived: the scan passes exactly when no pair violates.
    """

    def __init__(self, violations: tuple, degenerate: tuple):
        self._store(violations=violations, degenerate=degenerate)

    @property
    def passed(self) -> bool:
        return not self.violations


class DemoReport(Record):
    """``system`` is the fewest-limb system of the optimal support.

    The optimum is extremal: its support decomposed into limbs, which only
    an acyclic support does, so the report holds no certificate.
    """

    def __init__(self, config: DemoConfig, solve_report: SolveReport, system: NumberedLimbSystem):
        self._store(config=config, solve_report=solve_report, system=system)

    @property
    def limb_mass(self) -> tuple:
        """The coupling mass on limb k at index k - 1, for k up to
        ``limb_count(system)``; 0 where the system has no limb k."""
        mass = [0] * limb_count(self.system)
        for i, j, w in self.solve_report.coupling.entries:
            mass[self.system.limb_of(i, j) - 1] += w
        return tuple(mass)


def build_circle_cost(grid: CircleGrid) -> CostMatrix:
    """c[i][j] = 1 - cos(angle_i - angle_j): zero on the diagonal, maximal
    (2) between antipodal points, and symmetric to the bit, as a - b is
    exactly -(b - a) and cos is even, so the upper triangle is mirrored.
    Equal costs share one float object (2,509 in the 1,048,576 cells at
    n = 1024); 1 - cos is never -0.0 or NaN, so sharing keeps every bit."""
    angles = grid.angles
    share = {}.setdefault
    rows = []
    for i, a in enumerate(angles):
        upper = [1.0 - math.cos(a - b) for b in angles[i:]]
        rows.append(tuple([row[i] for row in rows] + list(map(share, upper, upper))))
    return CostMatrix(rows)


def build_peaked_density(grid: CircleGrid, center: float, kappa: float) -> DiscreteMarginal:
    """Smooth, everywhere-positive density peaked at ``center``:
    weights proportional to exp(kappa * cos(angle - center)), total mass 1.
    kappa = 0 gives the uniform density."""
    if not math.isfinite(center):
        raise ValueError(f"center must be a finite number, got {center!r}")
    if not kappa >= 0:
        raise ValueError(f"concentration must be a nonnegative number, got {kappa!r}")
    try:
        raw = [math.exp(kappa * math.cos(a - center)) for a in grid.angles]
        total = sum(raw)
    except OverflowError:
        total = math.inf
    if not 0 < total < math.inf:
        raise ValueError(f"concentration {kappa!r} is too large: the weights overflow a float")
    return DiscreteMarginal([w / total for w in raw])


def subtwist_check(c: CostMatrix, periodic: bool = True) -> SubtwistReport:
    """Scan every column pair for the one-max-one-min difference shape.

    For columns j1 != j2 the sequence d_i = c[i][j1] - c[i][j2] is examined
    through the signs of its consecutive differences, zeros skipped so that
    plateaus merge.  Around the circle a pass means exactly two sign changes
    (one rising arc, one falling arc); on a line it means at most two.
    Differences within the cost threshold of ``c`` count as zero for float
    data; exact data is compared exactly.

    The consecutive differences of d are the row steps s of column j1 minus
    those of column j2 (wrapping round when periodic), and all pairs are
    scanned at once, one row step at a time, as bitsets in Python ints with
    pair (j1, j2) at bit ``j1 * stride + j2``.  Subtraction is monotone and
    s[j2] - s[j1] is -(s[j1] - s[j2]), so once a row's steps are sorted the
    columns j2 with s[j1] - s[j2] above the threshold are a prefix of that
    order, and those with s[j2] - s[j1] above it a suffix; one two-pointer
    sweep finds both for every j1, and one table of that order's prefixes,
    packed once a row step, gives both masks.  Each pair keeps its last
    nonzero sign (``pos``, ``neg``) and counts its sign changes L along the
    steps, saturating at 3 (``c1``, ``c2``, ``c3``: L at least 1, 2, 3).
    Signs alternate, so the wrap from the last sign to the first is a change
    exactly when L is odd: round the circle a pair has two changes exactly
    when L is 1 or 2.

    The interpreter takes O(m n) steps and the bitset operations O(m n^2)
    bits, against O(m n^2) steps pair by pair.  Monotone subtraction holds
    for exact data and for float data; steps mixing floats with Fractions
    or large integers are subtracted in two arithmetics, and a difference
    rounded onto the threshold may then get another verdict than it would
    pair by pair.
    """
    tops = magnitudes(costs=c.rows)
    _, tol = thresholds_of(tops)
    # Step differences stay below 4 times the largest cost; float costs that
    # would overflow it are scanned scaled by a power of two, which is exact.
    rows, K = edge_scaled(4, tops[1:], *c.rows) if tops else (c.rows, None)
    tol *= K or 1
    n = c.n
    width = -(-n // 8)
    stride = 8 * width
    bits = [1 << j for j in range(n)]

    def pack(masks):
        return int.from_bytes(b"".join(map(int.to_bytes, masks, repeat(width), repeat("little"))), "little")

    full = pack(repeat(bits[-1] * 2 - 1, n))
    pos = neg = c1 = c2 = c3 = 0
    for row, after in zip(rows, rows[1:] + rows[:1] if periodic else rows[1:]):
        s = list(map(sub, after, row))
        order = sorted(range(n), key=s.__getitem__)
        steps = list(map(s.__getitem__, order))
        # Column j steps more than tol above the columns order[:below[j]], a
        # prefix that grows along ``order`` and never reaches j; the columns
        # stepping more than tol above j are order[first[j]:].
        below, first, k = [0] * n, [n] * n, 0
        for t, j in enumerate(order):
            v = s[j]
            while v - steps[k] > tol:
                first[order[k]] = t
                k += 1
            below[j] = k
        # prefix[t] packs order[:t] as one slot; ``up`` takes prefix[below[j]]
        # and ``down`` its complement order[t:] at t = first[j], slot by slot.
        prefixes = accumulate(map(bits.__getitem__, order), or_, initial=0)
        prefix = list(map(int.to_bytes, prefixes, repeat(width), repeat("little")))
        up = int.from_bytes(b"".join(map(prefix.__getitem__, below)), "little")
        down = full ^ int.from_bytes(b"".join(map(prefix.__getitem__, first)), "little")
        was_pos, was_neg = pos & down, neg & up
        turned = was_pos | was_neg
        c3 |= c2 & turned
        c2 |= c1 & turned
        c1 |= turned
        pos, neg = up | (pos ^ was_pos), down | (neg ^ was_neg)

    upper = pack((bits[-1] << 1) - (2 << j) for j in range(n))
    signed = (pos | neg) & upper
    bad = signed & ~(c1 & ~c3) if periodic else c3 & upper
    return SubtwistReport(_pairs(bad, stride), _pairs(upper ^ signed, stride))


def _pairs(mask: int, stride: int) -> tuple:
    """(j1, j2) of every set bit j1 * stride + j2 of ``mask``, lowest first."""
    digits = format(mask, "b")[::-1]
    found, k = [], digits.find("1")
    while k >= 0:
        found.append(divmod(k, stride))
        k = digits.find("1", k + 1)
    return tuple(found)


def demo_instance(cfg: DemoConfig):
    """Grid, densities, and cost for a demo configuration."""
    grid = CircleGrid(cfg.n)
    cost = build_circle_cost(grid)
    mu = build_peaked_density(grid, cfg.mu_center, cfg.mu_kappa)
    nu = build_peaked_density(grid, cfg.nu_center, cfg.nu_kappa)
    return grid, mu, nu, cost


SNAP_DENOMINATOR = 10**6


def rational_demo_instance(cfg: DemoConfig):
    """Demo data snapped to exact rationals with denominator ``SNAP_DENOMINATOR``.

    Density totals are re-balanced exactly after snapping, so the instance
    is feasible in exact arithmetic and solver results can be compared
    against the enumeration oracle with no tolerance at all.
    """
    _, mu, nu, cost = demo_instance(cfg)

    def snap(x):
        return Fraction(round(x * SNAP_DENOMINATOR), SNAP_DENOMINATOR)

    mu_w = [snap(w) for w in mu.weights]
    nu_w = [snap(w) for w in nu.weights]
    gap = sum(mu_w) - sum(nu_w)
    nu_w[0] += gap
    if nu_w[0] <= 0:
        raise LimbsysError("snapping denominator too coarse to keep densities positive")
    # Each distinct float cost is snapped once, and its cells share the Fraction.
    snapped = {v: snap(v) for v in set(chain.from_iterable(cost.rows))}
    rows = [tuple(map(snapped.__getitem__, row)) for row in cost.rows]
    return DiscreteMarginal(mu_w), DiscreteMarginal(nu_w), CostMatrix(rows)


def run_demo(cfg: DemoConfig) -> DemoReport:
    """Full demo pipeline: check the cost shape, solve, certify, decompose.

    The cost must pass the subtwist scan and the optimizer must be extremal;
    both hold by construction and failures raise.  The optimal support is
    split into its fewest-limb system and the mass on each limb reported.
    The continuum problem guarantees two limbs; on a grid the optimum may
    need more, and the report says how many and how much mass they carry.
    """
    _, mu, nu, cost = demo_instance(cfg)
    shape = subtwist_check(cost, periodic=True)
    if not shape.passed:
        raise LimbsysError(
            f"circle cost failed the subtwist scan at pairs {shape.violations[:3]}"
        )
    report = solve(mu, nu, cost)
    # decompose raises on a cyclic support, so past it the optimizer is extremal.
    return DemoReport(cfg, report, decompose(support_graph(report.coupling)))


def support_rows(report: DemoReport) -> list:
    """Plot-ready support: (theta, phi, mass, limb index k) per occupied cell."""
    angles = CircleGrid(report.config.n).angles
    return [
        (angles[i], angles[j], w, report.system.limb_of(i, j))
        for i, j, w in report.solve_report.coupling.entries
    ]
