"""2-variable weighted shifts over truncation windows.

A shift is a pair of squared-weight grids (horizontal ``alpha_sq``, vertical
``beta_sq``) that satisfy the commuting-pair identity exactly. A shift with
no generator rule is only defined on its window: any operation that needs
more data fails loudly instead of extrapolating.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .errors import CommutativityViolation, WindowTooSmall
from .exactcore import (
    PsdVerdict,
    RationalPolynomial,
    SymMatrix,
    as_rational,
    homogeneous_horner,
    integer_scaled,
    numerator_denominator,
    psd_test,
)
from .shift1d import RationalWeightRule, Shift1D

DEFAULT_WINDOW_2D = 15  # base-point sweep bound u1 + u2 <= 15


# ---------------------------------------------------------------------------
# Closed-form generators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BivariatePoly:
    """Polynomial in (k1, k2): coefficient c[i][j] multiplies k1^i k2^j.

    The rows are also stored once as integers over one common denominator,
    padded to a common width, so evaluation is homogeneous integer Horner on
    the numerators and denominators of k1 and k2, with one Fraction built.
    """

    coefficients: tuple

    def __post_init__(self):
        rows = tuple(tuple(as_rational(c) for c in row) for row in self.coefficients)
        object.__setattr__(self, "coefficients", rows)
        flat, den = integer_scaled([c for row in rows for c in row])
        width = max(map(len, rows), default=0)
        int_rows, at = [], 0
        for row in rows:
            int_rows.append(tuple(flat[at:at + len(row)]) + (0,) * (width - len(row)))
            at += len(row)
        object.__setattr__(self, "_int_rows", tuple(int_rows))
        object.__setattr__(self, "_den", den)

    def __call__(self, k1, k2) -> Fraction:
        a, b = numerator_denominator(k1)
        c, e = numerator_denominator(k2)
        rows = self._int_rows
        total = homogeneous_horner([homogeneous_horner(r, c, e) for r in rows], a, b)
        width = len(rows[0]) if rows else 0
        return Fraction(total, self._den * b ** len(rows) * e**width)

    def specialize_k2(self, value) -> RationalPolynomial:
        """Fix k2; the result is a univariate polynomial in k1."""
        value = as_rational(value)
        coeffs = []
        for row in self.coefficients:
            acc = Fraction(0)
            p2 = Fraction(1)
            for c in row:
                acc += c * p2
                p2 *= value
            coeffs.append(acc)
        return RationalPolynomial(tuple(coeffs))

    def specialize_k1(self, value) -> RationalPolynomial:
        value = as_rational(value)
        width = max((len(row) for row in self.coefficients), default=0)
        coeffs = [Fraction(0)] * width
        p1 = Fraction(1)
        for row in self.coefficients:
            for j, c in enumerate(row):
                coeffs[j] += c * p1
            p1 *= value
        return RationalPolynomial(tuple(coeffs))


@dataclass(frozen=True)
class BivariateRational:
    num: BivariatePoly
    den: BivariatePoly

    def __call__(self, k1: int, k2: int) -> Fraction:
        d = self.den(k1, k2)
        if d == 0:
            raise ZeroDivisionError(f"generator denominator vanishes at ({k1},{k2})")
        return self.num(k1, k2) / d


@dataclass(frozen=True)
class GeneratorRule:
    """Closed-form squared-weight rule used to extend a grid on demand."""

    alpha: BivariateRational
    beta: BivariateRational

    def alpha_sq(self, k1: int, k2: int) -> Fraction:
        return self.alpha(k1, k2)

    def beta_sq(self, k1: int, k2: int) -> Fraction:
        return self.beta(k1, k2)


# ---------------------------------------------------------------------------
# The shift itself
# ---------------------------------------------------------------------------


def _diagonal_weights(weights_sq) -> tuple:
    """The 2N - 1 positive weights of a diagonal grid, as rationals."""
    weights = tuple(map(as_rational, weights_sq))
    if len(weights) % 2 == 0:
        raise ValueError("need 2N - 1 diagonal weights for some N >= 1")
    for i, w in enumerate(weights):
        if w <= 0:
            raise ValueError(f"diagonal weight {i} = {w} is not positive")
    return weights


class Shift2D:
    """Commuting 2-variable weighted shift on an N-by-N truncation window."""

    def __init__(self, alpha_grid, beta_grid, rule: Optional[GeneratorRule] = None):
        alpha = tuple(tuple(as_rational(w) for w in row) for row in alpha_grid)
        beta = tuple(tuple(as_rational(w) for w in row) for row in beta_grid)
        n = len(alpha)
        if n == 0 or len(beta) != n:
            raise ValueError("grids must be nonempty with equal shape")
        if any(len(row) != n for row in alpha) or any(len(row) != n for row in beta):
            raise ValueError("grids must be square")
        for grid, name in ((alpha, "alpha"), (beta, "beta")):
            for i, row in enumerate(grid):
                for j, w in enumerate(row):
                    if w <= 0:
                        raise ValueError(f"{name}_sq[{i}][{j}] = {w} is not positive")
        # exact commuting-pair identity on every interior point
        for i in range(n - 1):
            for j in range(n - 1):
                if beta[i + 1][j] * alpha[i][j] != alpha[i][j + 1] * beta[i][j]:
                    raise CommutativityViolation((i, j))
        self.alpha_grid = alpha
        self.beta_grid = beta
        self.rule = rule

    @property
    def window(self) -> int:
        return len(self.alpha_grid)

    @classmethod
    def from_rule(cls, rule: GeneratorRule, window: int) -> "Shift2D":
        alpha = [[rule.alpha_sq(i, j) for j in range(window)] for i in range(window)]
        beta = [[rule.beta_sq(i, j) for j in range(window)] for i in range(window)]
        return cls(alpha, beta, rule=rule)

    @classmethod
    def diagonal(cls, weights_sq) -> "Shift2D":
        """The grid alpha_sq = beta_sq = w_sq(k1 + k2) from its 2N - 1 weights.

        Both families read one Hankel grid, so the commuting-pair identity
        holds by construction (both products at (i, j) are
        w_sq(i+j) w_sq(i+j+1)), and every cell is one of the weights: checking
        the weights checks the grid. The window is N, with no rule beyond it.
        """
        weights = _diagonal_weights(weights_sq)
        n = (len(weights) + 1) // 2
        shift = cls.__new__(cls)
        shift.alpha_grid = shift.beta_grid = tuple(weights[i:i + n] for i in range(n))
        shift.rule = None
        return shift

    def alpha_sq(self, k1: int, k2: int) -> Fraction:
        if k1 < self.window and k2 < self.window:
            return self.alpha_grid[k1][k2]
        if self.rule is not None:
            return self.rule.alpha_sq(k1, k2)
        raise WindowTooSmall(
            f"alpha index ({k1},{k2}) outside the {self.window}x{self.window} window"
        )

    def beta_sq(self, k1: int, k2: int) -> Fraction:
        if k1 < self.window and k2 < self.window:
            return self.beta_grid[k1][k2]
        if self.rule is not None:
            return self.rule.beta_sq(k1, k2)
        raise WindowTooSmall(
            f"beta index ({k1},{k2}) outside the {self.window}x{self.window} window"
        )


def helton_howe(window: int) -> Shift2D:
    """All weights equal to 1."""
    one = BivariatePoly(((1,),))
    rule = GeneratorRule(BivariateRational(one, one), BivariateRational(one, one))
    return Shift2D.from_rule(rule, window)


def sie_bergman(window: int) -> Shift2D:
    """The spherically isometric grid with alpha_sq = (k1+1)/(k1+k2+2) and
    beta_sq = (k2+1)/(k1+k2+2); its rows are the higher Agler shifts."""
    den = BivariatePoly(((2, 1), (1,)))
    alpha = BivariateRational(BivariatePoly(((1,), (1,))), den)
    beta = BivariateRational(BivariatePoly(((1, 1),)), den)
    return Shift2D.from_rule(GeneratorRule(alpha, beta), window)


# ---------------------------------------------------------------------------
# Moments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Moment2Table:
    """Exact moments gamma_(k1,k2) for 0 <= k1, k2 <= window."""

    window: int
    values: tuple

    def at(self, k1: int, k2: int) -> Fraction:
        return self.values[k1][k2]

    @classmethod
    def diagonal(cls, weights_sq) -> "Moment2Table":
        """The moments of ``Shift2D.diagonal(weights_sq)`` on its N x N grid.

        Every path to (a, b) multiplies the first a + b weights, so
        gamma(a, b) = gamma1(a + b) is a prefix product; the window is N - 1,
        the one ``moments`` fills from that grid. The weights are checked as
        ``Shift2D.diagonal`` checks them, with the same errors.
        """
        weights = _diagonal_weights(weights_sq)
        gamma = [Fraction(1)]
        for w in weights[:-1]:
            gamma.append(gamma[-1] * w)
        n = (len(weights) + 1) // 2
        return cls(n - 1, tuple(tuple(gamma[i:i + n]) for i in range(n)))

    def sublattice(self, m: int, n: int, p: int, q: int) -> "Moment2Table":
        """Moments of the (m,n,p,q) sublattice restriction of the shift.

        One restricted step multiplies m (or n) consecutive weights, so the
        restriction's moments are gamma'(i, j) = gamma(m*i + p, n*j + q) /
        gamma(p, q): the same numbers ``moments(restrict(...))`` computes
        from the restricted grid, read off this table with strides.
        """
        if m < 1 or n < 1 or p < 0 or q < 0:
            raise ValueError("need m,n >= 1 and p,q >= 0")
        size = min((self.window - p) // m, (self.window - q) // n)
        if size < 0:
            raise WindowTooSmall(
                f"moment window {self.window} cannot host a ({m},{n}) sublattice at ({p},{q})"
            )
        rows = tuple(row[q::n][:size + 1] for row in self.values[p::m][:size + 1])
        scale = self.values[p][q]
        if scale != 1:
            rows = tuple(tuple(v / scale for v in row) for row in rows)
        return Moment2Table(size, rows)


def moments(shift: Shift2D, window: int) -> Moment2Table:
    """Moment table, asserting path-independence cell by cell.

    Any monotone staircase from the origin gives the same product; the fill
    checks the alpha route against the beta route and raises
    ``CommutativityViolation`` on the first mismatch.
    """
    if window < 0:
        raise ValueError("window must be >= 0")
    size = window + 1
    table = [[None] * size for _ in range(size)]
    table[0][0] = Fraction(1)
    for i in range(1, size):
        table[i][0] = table[i - 1][0] * shift.alpha_sq(i - 1, 0)
    for j in range(1, size):
        table[0][j] = table[0][j - 1] * shift.beta_sq(0, j - 1)
    for i in range(1, size):
        for j in range(1, size):
            via_alpha = table[i - 1][j] * shift.alpha_sq(i - 1, j)
            via_beta = table[i][j - 1] * shift.beta_sq(i, j - 1)
            if via_alpha != via_beta:
                raise CommutativityViolation((i - 1, j - 1))
            table[i][j] = via_alpha
    return Moment2Table(window, tuple(tuple(row) for row in table))


# ---------------------------------------------------------------------------
# Positivity tests
# ---------------------------------------------------------------------------


def _khypo_index_set(k: int) -> list:
    return [(n, m) for total in range(k + 1) for n in range(total, -1, -1)
            for m in (total - n,)]


def moment_matrix(table: Moment2Table, u, k: int) -> SymMatrix:
    """Moment matrix at base point u: entry gamma_(u + a + b) over all index
    pairs a, b with |a|, |b| <= k. Order (k+1)(k+2)/2."""
    u1, u2 = u
    if u1 < 0 or u2 < 0:
        raise ValueError(f"base point coordinates must be >= 0, got ({u1},{u2})")
    idx = _khypo_index_set(k)
    rows = tuple(
        tuple(table.at(u1 + n + p, u2 + m + q) for (p, q) in idx) for (n, m) in idx
    )
    return SymMatrix(rows)


@dataclass(frozen=True)
class Hyponormality2VVerdict:
    holds: bool
    k: int
    window: int
    first_failure: Optional[tuple]
    certificate: Optional[PsdVerdict]


def grid_reach(k: int, window: int, power=None, restriction=None) -> int:
    """Grid size a k-hyponormality sweep over u1 + u2 <= window needs.

    The sweep reads moments up to window + 2k, so the grid extends one step
    further. A restriction (m, n, p, q) reaches that far in its own steps,
    each m (or n) grid steps long; a power (m, n) reaches as far as its
    farthest component, (m - 1, n - 1), and is checked here, before a build.
    """
    need = window + 2 * k + 1
    if restriction is None and power is not None:
        m, n = power
        _check_power(m, n)
        restriction = (m, n, m - 1, n - 1)
    if restriction is None:
        return need
    m, n, p, q = restriction
    return max(m * need + p, n * need + q) + 1


def _base_points(window: int):
    for total in range(window + 1):
        for u1 in range(total + 1):
            yield (u1, total - u1)


def _sweep_table(target: Union[Shift2D, Moment2Table], reach: int, sweep: str) -> Moment2Table:
    """The moments through ``reach`` a ``sweep`` reads: a shift's, or a table's."""
    table = target if isinstance(target, Moment2Table) else moments(target, reach)
    if table.window < reach:
        raise WindowTooSmall(f"moment window {table.window} is below the {reach} {sweep} reads")
    return table


def k_hyponormal_2v(
    target: Union[Shift2D, Moment2Table], k: int, window: int = DEFAULT_WINDOW_2D
) -> Hyponormality2VVerdict:
    """Exact k-hyponormality over base points with u1 + u2 <= window.

    ``target`` is a shift, whose moments through window + 2k are computed,
    or a ``Moment2Table`` of its moments, which must reach that far. Builds
    the order-(k+1)(k+2)/2 moment matrix at each base point and certifies
    positivity exactly. The verdict is window-scoped.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if window < 0:
        raise ValueError("window must be >= 0")
    table = _sweep_table(target, window + 2 * k, f"a k={k} sweep over window {window}")
    for u in _base_points(window):
        verdict = psd_test(moment_matrix(table, u, k))
        if not verdict.is_psd:
            return Hyponormality2VVerdict(False, k, window, u, verdict)
    return Hyponormality2VVerdict(True, k, window, None, None)


@dataclass(frozen=True)
class SixPointVerdict:
    holds: bool
    window: int
    first_failure: Optional[tuple]


def six_point(
    target: Union[Shift2D, Moment2Table], window: int = DEFAULT_WINDOW_2D
) -> SixPointVerdict:
    """Hyponormality via the 2x2 self-commutator matrix at each point.

    ``target`` is a shift or its moment table, read through window + 2 as
    ``k_hyponormal_2v`` reads it. The matrix at u is D S D, with S the Schur
    complement of g = gamma(u) in the k = 1 moment matrix at u and
    D = diag(gamma(u+e1), gamma(u+e2))^(-1/2), so it is PSD iff g S is:
    with g1 = gamma(u+e1), g2 = gamma(u+e2), s = gamma(u+2e1) g - g1^2,
    t = gamma(u+2e2) g - g2^2 and c = gamma(u+e1+e2) g - g1 g2, iff s, t >= 0
    and c^2 <= s t. It agrees with ``k_hyponormal_2v`` at k = 1 on the verdict
    and the first failing base point, and runs in integers: one common
    denominator of the moments keeps every sign.
    """
    if window < 0:
        raise ValueError("window must be >= 0")
    size = window + 3
    table = _sweep_table(target, size - 1, f"a six-point sweep over window {window}")
    flat, _ = integer_scaled([v for row in table.values[:size] for v in row[:size]])
    at = [flat[i:i + size] for i in range(0, len(flat), size)]
    for u1, u2 in _base_points(window):
        g, g1, g2 = at[u1][u2], at[u1 + 1][u2], at[u1][u2 + 1]
        s = at[u1 + 2][u2] * g - g1 * g1
        t = at[u1][u2 + 2] * g - g2 * g2
        c = at[u1 + 1][u2 + 1] * g - g1 * g2
        if s < 0 or t < 0 or c * c > s * t:
            return SixPointVerdict(False, window, (u1, u2))
    return SixPointVerdict(True, window, None)


# ---------------------------------------------------------------------------
# Restrictions, powers, rows and columns
# ---------------------------------------------------------------------------


def _sublattice(shift: Shift2D, m: int, n: int, p: int, q: int, too_small: str) -> Shift2D:
    """The (m,n,p,q) sublattice of ``restrict`` and ``corner_restrict``;
    ``too_small`` is the error raised when no cell fits."""
    size = min((shift.window - p) // m, (shift.window - q) // n)
    if size < 1:
        raise WindowTooSmall(too_small)
    alpha = [[None] * size for _ in range(size)]
    beta = [[None] * size for _ in range(size)]
    for i in range(size):
        for j in range(size):
            a = shift.alpha_sq(m * i + p, n * j + q)
            for offset in range(1, m):
                a *= shift.alpha_sq(m * i + p + offset, n * j + q)
            b = shift.beta_sq(m * i + p, n * j + q)
            for offset in range(1, n):
                b *= shift.beta_sq(m * i + p, n * j + q + offset)
            alpha[i][j] = a
            beta[i][j] = b
    return Shift2D(alpha, beta)


def restrict(shift: Shift2D, m: int, n: int, p: int, q: int) -> Shift2D:
    """Restriction to the sublattice of points (m*i + p, n*j + q).

    This is the (p,q)-component of the (m,n)-power: stepping once in the
    restriction multiplies m consecutive horizontal (or n vertical) weights.
    """
    _check_restriction(m, n, p, q)
    return _sublattice(shift, m, n, p, q, _restriction_too_small(shift.window, m, n, p, q))


def corner_restrict(shift: Shift2D, p: int, q: int) -> Shift2D:
    """Restriction to the invariant corner of points with k1 >= p, k2 >= q."""
    if p < 0 or q < 0:
        raise ValueError("corner offsets must be nonnegative")
    too_small = f"window {shift.window} too small for corner ({p},{q})"
    return _sublattice(shift, 1, 1, p, q, too_small)


def power_components(shift: Shift2D, m: int, n: int) -> list:
    """All m*n sublattice components of the (m,n)-power, ordered row-major in
    (p, q). A property holds for the power iff it holds for every component.
    """
    _check_power(m, n)
    return [restrict(shift, m, n, p, q) for p in range(m) for q in range(n)]


def _check_restriction(m: int, n: int, p: int, q: int):
    if m < 1 or n < 1 or not (0 <= p < m) or not (0 <= q < n):
        raise ValueError("need m,n >= 1 and 0 <= p < m, 0 <= q < n")


def _restriction_too_small(window: int, m: int, n: int, p: int, q: int) -> str:
    return f"window {window} cannot host a ({m},{n}) restriction at ({p},{q})"


def _restrict_table(table: Moment2Table, m: int, n: int, p: int, q: int) -> Moment2Table:
    """``restrict`` read off the moments of a (window + 1)-square grid, with
    the errors ``restrict`` raises on that grid."""
    _check_restriction(m, n, p, q)
    grid = table.window + 1
    if min((grid - p) // m, (grid - q) // n) < 1:
        raise WindowTooSmall(_restriction_too_small(grid, m, n, p, q))
    return table.sublattice(m, n, p, q)


def _check_power(m: int, n: int):
    if m < 1 or n < 1:
        raise ValueError(f"power exponents must be >= 1, got ({m},{n})")


def sweep_targets(build, k: int, window: int, power=None, restriction=None) -> list:
    """The moment tables a k-hyponormality sweep over u1 + u2 <= window tests.

    ``build(n)`` returns the shift on an n x n grid, or its moment table
    through window n - 1; it is called once, at the sweep's ``grid_reach``,
    and a shift's moments are taken once, over its whole grid. The targets
    are ``sublattice`` views of the table: the restriction (m, n, p, q),
    every component of the power (m, n) in row-major (p, q) order, or all of it.
    """
    table = build(grid_reach(k, window, power, restriction))
    if power is not None and restriction is not None:
        raise ValueError("choose either a power or a restriction, not both")
    if isinstance(table, Shift2D):
        table = moments(table, table.window - 1)
    if restriction is not None:
        return [_restrict_table(table, *restriction)]
    if power is not None:
        m, n = power
        return [_restrict_table(table, m, n, p, q) for p in range(m) for q in range(n)]
    return [table]


def row(shift: Shift2D, j: int) -> Shift1D:
    """The j-th horizontal 1-variable shift (squared weights alpha_sq(k, j)).

    Generator-backed shifts yield a closed-form tail, so the row is not
    window-limited; otherwise the row carries the grid prefix only.
    """
    if j < 0:
        raise ValueError("row index must be nonnegative")
    if shift.rule is not None:
        rule = RationalWeightRule(
            shift.rule.alpha.num.specialize_k2(j),
            shift.rule.alpha.den.specialize_k2(j),
        )
        return Shift1D((), rule)
    if j >= shift.window:
        raise WindowTooSmall(f"row {j} outside window {shift.window}")
    return Shift1D(tuple(shift.alpha_sq(k, j) for k in range(shift.window)))


def col(shift: Shift2D, i: int) -> Shift1D:
    """The i-th vertical 1-variable shift (squared weights beta_sq(i, k))."""
    if i < 0:
        raise ValueError("column index must be nonnegative")
    if shift.rule is not None:
        rule = RationalWeightRule(
            shift.rule.beta.num.specialize_k1(i),
            shift.rule.beta.den.specialize_k1(i),
        )
        return Shift1D((), rule)
    if i >= shift.window:
        raise WindowTooSmall(f"column {i} outside window {shift.window}")
    return Shift1D(tuple(shift.beta_sq(i, k) for k in range(shift.window)))


# ---------------------------------------------------------------------------
# Spherical quasinormality
# ---------------------------------------------------------------------------


def spherical_check(shift: Shift2D, window: Optional[int] = None) -> Optional[Fraction]:
    """Return c when alpha_sq + beta_sq equals the constant c at every grid
    point of the window, cross-checked by the moment identity
    gamma(k+e1) + gamma(k+e2) = c * gamma(k); otherwise None.
    """
    size = shift.window if window is None else window + 1
    c = shift.alpha_sq(0, 0) + shift.beta_sq(0, 0)
    for i in range(size):
        for j in range(size):
            if shift.alpha_sq(i, j) + shift.beta_sq(i, j) != c:
                return None
    table = moments(shift, size - 1)
    for i in range(size - 1):
        for j in range(size - 1):
            if table.at(i + 1, j) + table.at(i, j + 1) != c * table.at(i, j):
                return None
    return c
