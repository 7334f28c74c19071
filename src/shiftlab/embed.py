"""Embeddings of 1-variable shifts into 2-variable shifts.

Three routes: the classical grid (same weight along every diagonal), the
polynomial-pair route, which builds the shift from its pushforward moment
table, and the row-by-row constant-sum construction, which can stall and
then reports exactly where and why.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from .errors import NonpositiveDensity, ZeroMoment
from .exactcore import RationalPolynomial, as_rational, vandermonde_solve
from .measures import AtomicMeasure2D, pushforward_moments
from .shift1d import Shift1D
from .shift2d import Moment2Table, Shift2D, moments, spherical_check

STALL_BETA_NONPOSITIVE = "beta_nonpositive"
STALL_ROW0_NOT_INCREASING = "row0_not_strictly_increasing"


@dataclass(frozen=True)
class StallReport:
    """Where and why the row-by-row construction failed.

    ``location`` is the grid point (k1, k2) at which the failure occurred and
    ``value`` the offending quantity (when one exists).
    """

    stalled: bool
    location: tuple
    cause: str
    value: Optional[Fraction] = None


@dataclass(frozen=True)
class EmbeddingSpec:
    """A deferred embedding: one of the route functions below and the
    arguments it takes before the window, e.g. ``(poly_embed, (sigma, p, q))``.
    ``embedding_from_descriptor`` picks the route."""

    route: Callable
    args: tuple

    def build(self, window: int):
        """``route(*args, window)``: the shift on a window x window grid, or
        the ``StallReport`` of a stalled row-0 constant-sum construction."""
        return self.route(*self.args, window)


def classical_embed(shift: Shift1D, window: int) -> Shift2D:
    """Grid with alpha_sq = beta_sq = w_sq(k1+k2): the diagonal embedding.

    Both weight families repeat the 1-variable sequence along antidiagonals,
    so the grid is built from its 2*window - 1 diagonal weights alone
    (``Shift2D.diagonal``), commutativity holds by construction, and the
    planar moments collapse to the 1-variable moments:
    gamma(k1,k2) = gamma(k1+k2).
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    return Shift2D.diagonal(shift.weights_sq(2 * window - 1))


def classical_moments(shift: Shift1D, window: int) -> Moment2Table:
    """Moments of ``classical_embed(shift, window)`` through window - 1.

    The table ``moments`` fills from that grid, gamma(k1,k2) = gamma(k1+k2),
    taken as prefix products of the same 2*window - 1 weights, with no grid
    built; a bad window or weight raises what ``classical_embed`` raises.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    return Moment2Table.diagonal(shift.weights_sq(2 * window - 1))


def poly_embed(sigma, p: RationalPolynomial, q: RationalPolynomial, window: int) -> Shift2D:
    """2-variable shift whose moments are the (p, q)-pushforward moments.

    The pushforward table through ``window`` is scaled to integers once and
    the shift is built from it (``Shift2D.from_moments``): its squared weights
    are the moment ratios alpha_sq = gamma(k+e1)/gamma(k) and
    beta_sq = gamma(k+e2)/gamma(k), so commutativity holds by construction.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    rows, den = pushforward_moments(sigma, p, q).scaled_table(window)
    for i in range(window):
        for j in range(window):
            if rows[i][j] == 0:
                raise ZeroMoment(f"pushforward moment ({i},{j}) vanishes")
    return Shift2D.from_moments(Moment2Table.from_integers(window, rows, den))


def spherical_embed_iterative(
    row0_sq: Union[Shift1D, Sequence], c, window: int
) -> Union[Shift2D, StallReport]:
    """Fill the grid row by row from row 0 under alpha_sq + beta_sq = c.

    Each vertical weight is c minus the horizontal one, and the next row's
    horizontal weights follow from commutativity:
    alpha_sq(k, j+1) = alpha_sq(k, j) * beta_sq(k+1, j) / beta_sq(k, j).
    Returns the grid, or a ``StallReport`` at the first failure. Row 0 must
    be strictly increasing; that is checked upfront.
    """
    c = as_rational(c)
    if c <= 0:
        raise ValueError("c must be positive")
    if window < 1:
        raise ValueError("window must be >= 1")
    length = 2 * window - 1
    if isinstance(row0_sq, Shift1D):
        row0 = row0_sq.weights_sq(length)
    else:
        row0 = [as_rational(w) for w in row0_sq]
        if len(row0) < length:
            raise ValueError(f"need {length} row-0 weights for window {window}")
        row0 = row0[:length]
    if any(w <= 0 for w in row0):
        raise ValueError("row-0 squared weights must be positive")
    for k in range(length - 1):
        if row0[k + 1] <= row0[k]:
            return StallReport(
                True, (k + 1, 0), STALL_ROW0_NOT_INCREASING, row0[k + 1]
            )
    alpha_rows = [row0]
    beta_rows = []
    for j in range(window):
        current = alpha_rows[j]
        beta_row = []
        for k in range(length - j):
            b = c - current[k]
            if b <= 0:
                return StallReport(True, (k, j), STALL_BETA_NONPOSITIVE, b)
            beta_row.append(b)
        beta_rows.append(beta_row)
        if j < window - 1:
            alpha_rows.append([a * b1 / b0 for a, b0, b1 in zip(current, beta_row, beta_row[1:])])
    alpha = [[alpha_rows[j][i] for j in range(window)] for i in range(window)]
    beta = [[beta_rows[j][i] for j in range(window)] for i in range(window)]
    return Shift2D(alpha, beta)


def spherical_embed_measure(sigma, c, window: int) -> Shift2D:
    """Constant-sum embedding through the pair (r, c - r).

    The result always satisfies ``spherical_check`` with the given c.
    """
    c = as_rational(c)
    if c <= 0:
        raise ValueError("c must be positive")
    p = RationalPolynomial.of(0, 1)
    q = RationalPolynomial.of(c, -1)
    return poly_embed(sigma, p, q, window)


def recover_densities(shift: Shift2D, atoms: Sequence) -> AtomicMeasure2D:
    """Solve for the densities of a constant-sum grid with known atoms.

    The row-0 moments against the power basis at the atoms form a square
    Vandermonde system; its solution gives the densities, and the planar
    atoms are (s_i, c - s_i) for the constant c of the grid.
    """
    atoms = [as_rational(a) for a in atoms]
    if not atoms:
        raise ValueError("need at least one atom")
    c = spherical_check(shift)
    if c is None:
        raise ValueError("grid does not have a constant weight sum on its window")
    table = moments(shift, len(atoms) - 1)
    rhs = [table.at(k, 0) for k in range(len(atoms))]
    densities = vandermonde_solve(atoms, rhs)
    for atom, density in zip(atoms, densities):
        if density <= 0:
            raise NonpositiveDensity(
                f"solved density {density} at atom {atom}; the atom list is wrong"
            )
    return AtomicMeasure2D.from_pairs(
        ((a, c - a), d) for a, d in zip(atoms, densities)
    )
