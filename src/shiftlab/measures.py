"""Measures as data: finitely atomic measures and exact moment oracles.

Continuous measures are represented purely by closed-form rational moments
(never by densities or sampling), so the whole pipeline stays exact. Anything
with a ``moment`` method and a support bound can serve as a 1-variable
oracle; the concrete kinds mirror the JSON descriptor tags.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import NegativeValue, UnsupportedBase, ZeroMass
from .exactcore import RationalPolynomial, as_rational, integer_scaled, poly_nonneg_on


def _int_poly_mul(a: list, b: list) -> list:
    """Product of two dense integer polynomials ([] is zero)."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for j, c in enumerate(b):
        if c:
            for i, x in enumerate(a, j):
                out[i] += x * c
    return out


def _factorial_ratio(num_factors, den_factors) -> Fraction:
    num = 1
    for f in num_factors:
        num *= math.factorial(f)
    den = 1
    for f in den_factors:
        den *= math.factorial(f)
    return Fraction(num, den)


# ---------------------------------------------------------------------------
# Atomic measures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AtomicMeasure1D:
    """Finitely atomic probability measure on [0, oo): ascending atoms,
    positive densities summing to exactly 1."""

    atoms: tuple
    densities: tuple

    kind = "atomic1d"

    def __post_init__(self):
        atoms = tuple(as_rational(a) for a in self.atoms)
        densities = tuple(as_rational(d) for d in self.densities)
        if len(atoms) != len(densities) or not atoms:
            raise ValueError("atoms and densities must be nonempty and equal length")
        if any(a < 0 for a in atoms):
            raise ValueError("atoms must be nonnegative")
        if any(a >= b for a, b in zip(atoms, atoms[1:])):
            raise ValueError("atoms must be strictly ascending")
        if any(d <= 0 for d in densities):
            raise ValueError("densities must be positive")
        if sum(densities) != 1:
            raise ValueError("densities must sum to exactly 1")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "densities", densities)

    @classmethod
    def from_pairs(cls, pairs) -> "AtomicMeasure1D":
        """Build from (atom, density) pairs, merging coinciding atoms."""
        merged = {}
        for atom, density in pairs:
            atom, density = as_rational(atom), as_rational(density)
            merged[atom] = merged.get(atom, Fraction(0)) + density
        atoms = sorted(merged)
        return cls(tuple(atoms), tuple(merged[a] for a in atoms))

    @property
    def support_bound(self) -> Fraction:
        return self.atoms[-1]

    def moment(self, k: int) -> Fraction:
        return sum(d * a**k for a, d in zip(self.atoms, self.densities))


@dataclass(frozen=True)
class AtomicMeasure2D:
    """Finitely atomic probability measure on the closed first quadrant."""

    atoms: tuple
    densities: tuple

    kind = "atomic2d"

    def __post_init__(self):
        atoms = tuple((as_rational(s), as_rational(t)) for s, t in self.atoms)
        densities = tuple(as_rational(d) for d in self.densities)
        if len(atoms) != len(densities) or not atoms:
            raise ValueError("atoms and densities must be nonempty and equal length")
        if any(s < 0 or t < 0 for s, t in atoms):
            raise ValueError("atoms must lie in the closed first quadrant")
        if len(set(atoms)) != len(atoms):
            raise ValueError("atom pairs must be distinct")
        if any(d <= 0 for d in densities):
            raise ValueError("densities must be positive")
        if sum(densities) != 1:
            raise ValueError("densities must sum to exactly 1")
        order = sorted(range(len(atoms)), key=lambda i: atoms[i])
        object.__setattr__(self, "atoms", tuple(atoms[i] for i in order))
        object.__setattr__(self, "densities", tuple(densities[i] for i in order))

    @classmethod
    def from_pairs(cls, pairs) -> "AtomicMeasure2D":
        merged = {}
        for atom, density in pairs:
            key = (as_rational(atom[0]), as_rational(atom[1]))
            merged[key] = merged.get(key, Fraction(0)) + as_rational(density)
        atoms = sorted(merged)
        return cls(tuple(atoms), tuple(merged[a] for a in atoms))

    @property
    def support_bounds(self) -> tuple:
        return (max(s for s, _ in self.atoms), max(t for _, t in self.atoms))

    def moment(self, k1: int, k2: int) -> Fraction:
        return sum(
            d * s**k1 * t**k2 for (s, t), d in zip(self.atoms, self.densities)
        )


# ---------------------------------------------------------------------------
# 1-variable moment oracles for named continuous measures
# ---------------------------------------------------------------------------


class Lebesgue01:
    """Lebesgue measure on [0, 1]: moment(k) = 1/(k+1)."""

    kind = "lebesgue01"
    support_bound = Fraction(1)

    def moment(self, k: int) -> Fraction:
        return Fraction(1, k + 1)


class BetaFamily:
    """The measure (j-1)(1-r)^(j-2) dr on [0, 1] for j >= 2.

    moment(k) = k! (j-1)! / (k+j-1)!. The case j = 2 is Lebesgue measure.
    """

    kind = "beta"
    support_bound = Fraction(1)

    def __init__(self, j: int):
        if j < 2:
            raise ValueError("the family is defined for j >= 2")
        self.j = j

    def moment(self, k: int) -> Fraction:
        return _factorial_ratio((k, self.j - 1), (k + self.j - 1,))


class PrefixTable:
    """Explicit finite moment table; queries beyond it raise IndexError."""

    kind = "prefix_table"

    def __init__(self, values: Sequence, support_bound=1):
        self.values = tuple(as_rational(v) for v in values)
        if not self.values or self.values[0] != 1:
            raise ValueError("moment(0) must be 1")
        self.support_bound = as_rational(support_bound)
        if self.support_bound < 0:
            raise ValueError("support_bound must be >= 0")

    def moment(self, k: int) -> Fraction:
        if k >= len(self.values):
            raise IndexError(f"moment table holds indices 0..{len(self.values) - 1}")
        return self.values[k]


_EXACT_1D_KINDS = ("atomic1d", "lebesgue01", "beta", "prefix_table")


# ---------------------------------------------------------------------------
# 2-variable oracles
# ---------------------------------------------------------------------------


class ArclengthSegment01:
    """Normalized arclength on the segment from (1,0) to (0,1):
    moment(k1, k2) = k1! k2! / (k1+k2+1)!."""

    kind = "arclength_segment01"
    support_bounds = (Fraction(1), Fraction(1))

    def moment(self, k1: int, k2: int) -> Fraction:
        return _factorial_ratio((k1, k2), (k1 + k2 + 1,))


class Pushforward2D:
    """Image of a 1-variable oracle under r -> (p(r), q(r)).

    moment(k1, k2) = integral of p^k1 q^k2, exact for every base with exact
    monomial moments, and computed in integers. With p = P/d_p and
    q = Q/d_q for integer polynomials P, Q, and base moments W_i/L over one
    common denominator, the moment is (sum of c_i W_i) / (L d_p^k1 d_q^k2)
    where c_i are the coefficients of P^k1 Q^k2. Row k1 starts from P^k1 and
    walks right with one integer multiply by Q per cell; only the requested
    cell is dotted with the base moments, so a cell reads exactly the base
    moments its own expansion needs (none when P^k1 Q^k2 is zero). Computed
    moments are memoized.
    """

    kind = "pushforward"

    def __init__(self, base, p: RationalPolynomial, q: RationalPolynomial):
        if getattr(base, "kind", None) not in _EXACT_1D_KINDS:
            raise UnsupportedBase(
                f"base oracle {getattr(base, 'kind', type(base).__name__)!r} "
                "cannot produce exact monomial moments"
            )
        self.base = base
        self.p = p
        self.q = q
        b = base.support_bound
        self.support_bounds = (
            sum(abs(c) * b**i for i, c in enumerate(p.coefficients)) or Fraction(0),
            sum(abs(c) * b**i for i, c in enumerate(q.coefficients)) or Fraction(0),
        )
        self._p_int, self._p_den = integer_scaled(p.coefficients)
        self._q_int, self._q_den = integer_scaled(q.coefficients)
        self._row_starts = [[1]]  # P^k1
        self._rows = {}  # k1 -> (k2, P^k1 Q^k2) reached by the walk
        self._base_num = []  # W_i: base moment i times _base_den
        self._base_den = 1  # L
        self._cache = {}

    def _base_moments(self, count: int) -> list:
        """W_0..W_{count-1}, reading only the base moments not yet read."""
        have = len(self._base_num)
        if count > have:
            fresh = [self.base.moment(i) for i in range(have, count)]
            den = math.lcm(self._base_den, *(m.denominator for m in fresh))
            scale = den // self._base_den
            self._base_num = [w * scale for w in self._base_num]
            self._base_num += [m.numerator * (den // m.denominator) for m in fresh]
            self._base_den = den
        return self._base_num

    def _expansion(self, k1: int, k2: int) -> list:
        """Integer coefficients of P^k1 Q^k2 ([] when it is zero)."""
        starts = self._row_starts
        while len(starts) <= k1:
            starts.append(_int_poly_mul(starts[-1], self._p_int))
        at, poly = self._rows.get(k1, (0, starts[k1]))
        if at > k2:
            at, poly = 0, starts[k1]
        for _ in range(k2 - at):
            poly = _int_poly_mul(poly, self._q_int)
        self._rows[k1] = (k2, poly)
        return poly

    def moment(self, k1: int, k2: int) -> Fraction:
        key = (k1, k2)
        if key not in self._cache:
            if k1 < 0 or k2 < 0:
                raise ValueError(f"moment indices must be >= 0, got ({k1},{k2})")
            poly = self._expansion(k1, k2)
            weights = self._base_moments(len(poly))
            self._cache[key] = Fraction(
                sum(map(operator.mul, poly, weights)),
                self._base_den * self._p_den**k1 * self._q_den**k2,
            )
        return self._cache[key]


class RowMeasure:
    """Berger moments of a horizontal slice of a 2-variable oracle.

    moment(k) = mu.moment(k, j) / mu.moment(0, j): the j-th row of the shift
    attached to mu has these as its 1-variable moments.
    """

    kind = "row_measure"

    def __init__(self, mu, j: int):
        if j < 0:
            raise ValueError("row index must be nonnegative")
        mass = mu.moment(0, j)
        if mass == 0:
            raise ZeroMass(f"row {j} carries zero mass")
        self.mu = mu
        self.j = j
        self._mass = mass
        self.support_bound = mu.support_bounds[0]

    def moment(self, k: int) -> Fraction:
        return self.mu.moment(k, self.j) / self._mass


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def pushforward_atomic(
    sigma: AtomicMeasure1D, p: RationalPolynomial, q: RationalPolynomial
) -> AtomicMeasure2D:
    """Image measure of an atomic measure under r -> (p(r), q(r)).

    Atoms map to (p(r_i), q(r_i)) keeping their densities; coinciding image
    atoms are merged by summing densities.
    """
    pairs = []
    for atom, density in zip(sigma.atoms, sigma.densities):
        s, t = p(atom), q(atom)
        if s < 0 or t < 0:
            raise NegativeValue(f"polynomial negative at atom {atom}: ({s}, {t})")
        pairs.append(((s, t), density))
    return AtomicMeasure2D.from_pairs(pairs)


def _check_nonnegativity(sigma, p: RationalPolynomial, q: RationalPolynomial):
    kind = getattr(sigma, "kind", None)
    if kind == "atomic1d":
        for atom in sigma.atoms:
            if p(atom) < 0 or q(atom) < 0:
                raise NegativeValue(f"polynomial negative at atom {atom}")
    elif kind in _EXACT_1D_KINDS:
        # exact sign analysis on the support interval [0, support_bound]
        bound = sigma.support_bound
        for poly, name in ((p, "p"), (q, "q")):
            if not poly_nonneg_on(poly, 0, bound):
                raise NegativeValue(f"{name} takes negative values on [0, {bound}]")


def pushforward_moments(sigma, p: RationalPolynomial, q: RationalPolynomial) -> Pushforward2D:
    """Exact pushforward oracle for any base with exact monomial moments.

    p and q must be nonnegative on the support of the base: at every atom,
    or on [0, support_bound] for the continuous kinds; otherwise the image is
    no measure on the closed first quadrant and ``NegativeValue`` is raised.
    """
    _check_nonnegativity(sigma, p, q)
    return Pushforward2D(sigma, p, q)


def marginal(mu: AtomicMeasure2D, axis: str) -> AtomicMeasure1D:
    """Project a planar atomic measure to one coordinate, merging collisions."""
    axis = axis.lower()
    if axis not in ("x", "y"):
        raise ValueError("axis must be 'x' or 'y'")
    coord = 0 if axis == "x" else 1
    return AtomicMeasure1D.from_pairs(
        (atom[coord], density) for atom, density in zip(mu.atoms, mu.densities)
    )


def row_measure(mu, j: int) -> RowMeasure:
    """Berger moment oracle of the j-th row shift of ``mu``'s weighted shift."""
    return RowMeasure(mu, j)
