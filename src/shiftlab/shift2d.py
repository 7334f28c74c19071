"""2-variable weighted shifts over truncation windows.

A shift is a pair of squared-weight grids (horizontal ``alpha_sq``, vertical
``beta_sq``) that satisfy the commuting-pair identity exactly. A shift built
from its moment table keeps that table and builds the grids on first read.
A shift with no generator rule is only defined on its window: any operation
that needs more data fails loudly instead of extrapolating.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from typing import Optional, Union

from .errors import CommutativityViolation, WindowTooSmall
from .exactcore import (
    DeferredField,
    RationalPolynomial,
    SymMatrix,
    as_rational,
    fraction_rows,
    homogeneous_horner,
    integer_scaled,
    numerator_denominator,
    psd_test,
    scale_rows,
)
from .shift1d import HyponormalityVerdict, RationalWeightRule, Shift1D, check_sweep, sweep_verdict

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
        if w.numerator <= 0:
            raise ValueError(f"diagonal weight {i} = {w} is not positive")
    return weights


def _ratio_grid(rows, di: int, dj: int) -> tuple:
    """The n x n grid rows[i + di][j + dj] / rows[i][j], for n + 1 integer rows."""
    n = len(rows) - 1
    return tuple(
        tuple(Fraction(rows[i + di][j + dj], rows[i][j]) for j in range(n)) for i in range(n)
    )


class Shift2D:
    """Commuting 2-variable weighted shift on an N-by-N truncation window.

    ``moment_rows`` is None for a shift given by its weights. A shift built by
    ``from_moments`` holds there the integer moment table through N, scaled
    so that rows[0][0] > 0, and builds ``alpha_grid`` and ``beta_grid`` from
    it on first read.
    """

    alpha_grid = DeferredField()
    beta_grid = DeferredField()

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
        self.window = n
        self.rule = rule
        self.moment_rows = None

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
        shift.window = n
        shift.rule = None
        shift.moment_rows = None
        return shift

    @classmethod
    def from_moments(cls, table: Moment2Table, rule: Optional[GeneratorRule] = None) -> "Shift2D":
        """The N x N shift whose moments are ``table`` (through N) over gamma(0,0).

        Its weights are alpha_sq(i, j) = gamma(i+1, j) / gamma(i, j) and
        beta_sq(i, j) = gamma(i, j+1) / gamma(i, j). Both products at (i, j)
        are gamma(i+1, j+1) / gamma(i, j), so the commuting-pair identity holds
        by construction. A zero moment below the window raises
        ``ZeroDivisionError``; signs are checked on the table's integers, with
        the error the grid check raises, and the grids are built on first read.
        ``rule``, if given, answers reads beyond the window.
        """
        rows, _ = table.scaled
        n = table.window
        if n < 1:
            raise ValueError("grids must be nonempty with equal shape")
        if rows[0][0] < 0:
            rows = tuple(tuple(-v for v in row) for row in rows)
        for i, j in itertools.product(range(n), repeat=2):
            if rows[i][j] == 0:
                raise ZeroDivisionError(f"moment ({i},{j}) is zero")
        # a ratio is positive iff its two integers are nonzero with one sign
        for name, di, dj in (("alpha", 1, 0), ("beta", 0, 1)):
            for i, j in itertools.product(range(n), repeat=2):
                a, b = rows[i + di][j + dj], rows[i][j]
                if a == 0 or (a < 0) != (b < 0):
                    raise ValueError(f"{name}_sq[{i}][{j}] = {Fraction(a, b)} is not positive")
        shift = cls.__new__(cls)
        shift.alpha_grid = partial(_ratio_grid, rows, 1, 0)
        shift.beta_grid = partial(_ratio_grid, rows, 0, 1)
        shift.window = n
        shift.rule = rule
        shift.moment_rows = rows
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
    beta_sq = (k2+1)/(k1+k2+2); its rows are the higher Agler shifts.

    Its moments k1! k2! / (k1+k2+1)! are those of arclength on the segment
    from (1,0) to (0,1). The shift is built from them, as the integers
    k1! k2! (2N+1)! / (k1+k2+1)! through N = window, and keeps the rule for
    rows, columns and reads beyond the window.
    """
    den = BivariatePoly(((2, 1), (1,)))
    alpha = BivariateRational(BivariatePoly(((1,), (1,))), den)
    beta = BivariateRational(BivariatePoly(((1, 1),)), den)
    # 0!, 1!, ..., (2N+1)!
    fact = list(itertools.accumulate(range(1, 2 * window + 2), operator.mul, initial=1))
    top = fact[-1]
    rows = tuple(
        tuple(fact[i] * fact[j] * (top // fact[i + j + 1]) for j in range(window + 1))
        for i in range(window + 1)
    )
    table = Moment2Table.from_integers(window, rows, top)
    return Shift2D.from_moments(table, rule=GeneratorRule(alpha, beta))


# ---------------------------------------------------------------------------
# Moments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Moment2Table:
    """Exact moments gamma_(k1,k2) for 0 <= k1, k2 <= window.

    ``scaled`` holds the same table as integer rows over one positive
    denominator. ``Moment2Table(window, values)`` derives it on first need;
    ``from_integers`` starts from it and builds ``values`` on first read.
    """

    window: int
    values: tuple = DeferredField()
    scaled = DeferredField()

    def __post_init__(self):
        object.__setattr__(self, "scaled", partial(scale_rows, self.values))

    @classmethod
    def from_integers(cls, window: int, rows, den: int) -> "Moment2Table":
        """The table rows[i][j] / den, for integer rows and den > 0."""
        if den <= 0:
            raise ValueError(f"denominator must be positive, got {den}")
        rows = tuple(map(tuple, rows))
        table = cls.__new__(cls)
        object.__setattr__(table, "window", window)
        object.__setattr__(table, "values", partial(fraction_rows, rows, den))
        object.__setattr__(table, "scaled", (rows, den))
        return table

    def at(self, k1: int, k2: int) -> Fraction:
        return self.values[k1][k2]

    @classmethod
    def diagonal(cls, weights_sq) -> "Moment2Table":
        """The moments of ``Shift2D.diagonal(weights_sq)`` on its N x N grid.

        Every path to (a, b) multiplies the first a + b weights, so
        gamma(a, b) = gamma1(a + b) is a prefix product; the window is N - 1,
        the one ``moments`` fills from that grid. The weights are checked as
        ``Shift2D.diagonal`` checks them, with the same errors. The 2N - 1
        prefix products are taken as reduced integer pairs and scaled once;
        the table's integers are slices of them, and its ``Fraction`` values
        are built on first read.
        """
        weights = _diagonal_weights(weights_sq)
        num, den, prefix = 1, 1, [(1, 1)]
        for w in weights[:-1]:
            a, b = w.as_integer_ratio()
            num, den = num * a, den * b
            g = math.gcd(num, den)
            num, den = num // g, den // g
            prefix.append((num, den))
        den = math.lcm(*(d for _, d in prefix))
        ints = [a * (den // b) for a, b in prefix]
        n = (len(weights) + 1) // 2
        return cls.from_integers(n - 1, tuple(tuple(ints[i:i + n]) for i in range(n)), den)

    def sublattice(self, m: int, n: int, p: int, q: int) -> "Moment2Table":
        """Moments of the (m,n,p,q) sublattice restriction of the shift.

        One restricted step multiplies m (or n) consecutive weights, so the
        restriction's moments are gamma'(i, j) = gamma(m*i + p, n*j + q) /
        gamma(p, q): the same numbers ``moments(restrict(...))`` computes
        from the restricted grid, read off this table with strides. Over
        the table's one denominator that is N(m*i + p, n*j + q) / N(p, q),
        so the view is the strided integers over N(p, q).
        """
        if m < 1 or n < 1 or p < 0 or q < 0:
            raise ValueError("need m,n >= 1 and p,q >= 0")
        size = min((self.window - p) // m, (self.window - q) // n)
        if size < 0:
            raise WindowTooSmall(
                f"moment window {self.window} cannot host a ({m},{n}) sublattice at ({p},{q})"
            )
        rows = tuple(row[q::n][:size + 1] for row in self.scaled[0][p::m][:size + 1])
        scale = rows[0][0]
        if scale == 0:
            raise ZeroDivisionError(f"moment ({p},{q}) is zero")
        if scale < 0:
            rows, scale = tuple(tuple(-v for v in row) for row in rows), -scale
        return Moment2Table.from_integers(size, rows, scale)


def moments(shift: Shift2D, window: int) -> Moment2Table:
    """Moment table, one product per cell.

    A shift built from its moments answers a window below its own with a
    slice of that table over gamma(0,0). Otherwise column 0 is filled along
    alpha and every other cell along beta. Inside the N x N grid the
    commuting-pair identity holds (``Shift2D.__init__`` checks it;
    ``diagonal`` and ``from_moments`` hold it by construction), so both
    routes to a cell agree there. At a cell with max(i, j) >= N a route reads past the grid,
    where only the rule answers and nothing has checked it: there the alpha
    route is multiplied too, its weight read first, and a mismatch raises
    ``CommutativityViolation`` at (i - 1, j - 1).
    """
    if window < 0:
        raise ValueError("window must be >= 0")
    size = window + 1
    rows = shift.moment_rows
    if rows is not None and window < shift.window:
        return Moment2Table.from_integers(
            window, tuple(row[:size] for row in rows[:size]), rows[0][0]
        )
    n = shift.window
    table = [[None] * size for _ in range(size)]
    table[0][0] = Fraction(1)
    for i in range(1, size):
        table[i][0] = table[i - 1][0] * shift.alpha_sq(i - 1, 0)
    for i, row in enumerate(table):
        for j in range(1, size):
            compare = i > 0 and max(i, j) >= n
            if compare:
                via_alpha = table[i - 1][j] * shift.alpha_sq(i - 1, j)
            row[j] = row[j - 1] * shift.beta_sq(i, j - 1)
            if compare and row[j] != via_alpha:
                raise CommutativityViolation((i - 1, j - 1))
    return Moment2Table(window, tuple(tuple(row) for row in table))


# ---------------------------------------------------------------------------
# Positivity tests
# ---------------------------------------------------------------------------


def _khypo_index_set(k: int) -> list:
    return [(n, m) for total in range(k + 1) for n in range(total, -1, -1)
            for m in (total - n,)]


@cache
def _row_getters(k: int) -> tuple:
    """One getter per row of an order-(k+1)(k+2)/2 moment matrix.

    A matrix at u reads only the cells gamma(u + d), |d| <= 2k, taken as the
    row slices d1 = 0..2k of length 2k + 1 - d1 laid end to end; row a's
    getter picks entry b = the cell d = a + b from them, as a tuple.
    """
    start = list(itertools.accumulate(range(2 * k + 1, 0, -1), initial=0))
    idx = _khypo_index_set(k)
    getters = []
    for n, m in idx:
        cells = [start[n + p] + m + q for p, q in idx]
        if len(cells) == 1:  # itemgetter of one index returns the bare entry
            getters.append(lambda flat, i=cells[0]: (flat[i],))
        else:
            getters.append(operator.itemgetter(*cells))
    return tuple(getters)


def moment_matrix(table: Moment2Table, u, k: int) -> SymMatrix:
    """Moment matrix at base point u: entry gamma_(u + a + b) over all index
    pairs a, b with |a|, |b| <= k. Order (k+1)(k+2)/2. The table must reach
    u + 2k in both coordinates; the matrix keeps the table's integers.

    Each of the (2k+1)(2k+2)/2 distinct cells gamma(u + d), |d| <= 2k, is
    read once, from row slices of ``table.scaled``, and the rows are picked
    from them by per-k cached getters."""
    u1, u2 = u
    if u1 < 0 or u2 < 0:
        raise ValueError(f"base point coordinates must be >= 0, got ({u1},{u2})")
    reach = max(u1, u2) + 2 * k
    if table.window < reach:
        raise WindowTooSmall(
            f"moment window {table.window} is below the {reach} a k={k} matrix at ({u1},{u2}) reads"
        )
    ints, den = table.scaled
    top = u2 + 2 * k + 1
    flat = list(itertools.chain.from_iterable(
        ints[u1 + d][u2:top - d] for d in range(2 * k + 1)
    ))
    return SymMatrix.from_integers(tuple(get(flat) for get in _row_getters(k)), den)


def sweep_views(power=None, restriction=None) -> list:
    """The (m, n, p, q) sublattice views a sweep tests, checked: the
    restriction, every component of the power (m, n) in row-major (p, q)
    order, or the whole shift, (1, 1, 0, 0). Every sweep, restriction and
    power takes its views from here, before anything is built."""
    if power is not None and restriction is not None:
        raise ValueError("choose either a power or a restriction, not both")
    if restriction is not None:
        m, n, p, q = restriction
        if m < 1 or n < 1 or not (0 <= p < m) or not (0 <= q < n):
            raise ValueError("need m,n >= 1 and 0 <= p < m, 0 <= q < n")
        return [(m, n, p, q)]
    m, n = power or (1, 1)
    if m < 1 or n < 1:
        raise ValueError(f"power exponents must be >= 1, got ({m},{n})")
    return [(m, n, p, q) for p in range(m) for q in range(n)]


def grid_reach(k: int, window: int, power=None, restriction=None) -> int:
    """Grid size a k-hyponormality sweep over u1 + u2 <= window needs.

    The sweep reads moments up to window + 2k, and a grid one cell larger
    holds them. A view (m, n, p, q) reads them in its own steps, each m (or
    n) grid steps long, so the table must reach
    max(m*(window + 2k) + p, n*(window + 2k) + q), for each ``sweep_views``
    view.
    """
    reads = window + 2 * k
    return max(max(m * reads + p, n * reads + q)
               for m, n, p, q in sweep_views(power, restriction)) + 1


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
) -> HyponormalityVerdict:
    """Exact k-hyponormality over base points with u1 + u2 <= window.

    ``target`` is a shift, whose moments through window + 2k are computed,
    or a ``Moment2Table`` of its moments, which must reach that far. Builds
    the order-(k+1)(k+2)/2 moment matrix at each base point and certifies
    positivity exactly. The verdict is window-scoped.
    """
    table = _khypo_table(target, k, window)
    matrices = ((u, moment_matrix(table, u, k)) for u in _base_points(window))
    return sweep_verdict(k, window, matrices)


def _khypo_table(target: Union[Shift2D, Moment2Table], k: int, window: int) -> Moment2Table:
    """The moments a k-sweep over ``window`` reads, after its argument checks."""
    check_sweep(k, window)
    return _sweep_table(target, window + 2 * k, f"a k={k} sweep over window {window}")


def k_hyponormal_diagonal(build, k: int, window: int, power=None, restriction=None) -> bool:
    """Whether ``k_hyponormal_2v`` holds on every ``sweep_targets`` view of a
    diagonal table, gamma(a, b) = gamma1(a + b), as ``classical_moments`` is.

    The matrix at u of the view (m, n, p, q) is a positive multiple of one that
    depends on u only through c = p + q + m*u1 + n*u2. Views and base points go
    in ``k_hyponormal_2v``'s order, with its errors, testing each c's first base point.
    """
    passed = set()
    views = sweep_targets(build, k, window, power, restriction)
    for (m, n, p, q), view in zip(sweep_views(power, restriction), views):
        table = _khypo_table(view, k, window)
        for u1, u2 in _base_points(window):
            c = p + q + m * u1 + n * u2
            if c not in passed:
                if not psd_test(moment_matrix(table, (u1, u2), k)).is_psd:
                    return False
                passed.add(c)
    return True


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
    and the first failing base point, and runs on the table's integers: its
    one positive denominator keeps every sign.
    """
    if window < 0:
        raise ValueError("window must be >= 0")
    table = _sweep_table(target, window + 2, f"a six-point sweep over window {window}")
    at, _ = table.scaled
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
    sweep_views(restriction=(m, n, p, q))
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
    return [restrict(shift, *view) for view in sweep_views(power=(m, n))]


def _restriction_too_small(window: int, m: int, n: int, p: int, q: int) -> str:
    return f"window {window} cannot host a ({m},{n}) restriction at ({p},{q})"


def _restrict_table(table: Moment2Table, m: int, n: int, p: int, q: int) -> Moment2Table:
    """``restrict`` of a ``sweep_views`` view, read off the moments of a
    (window + 1)-square grid, with the error ``restrict`` raises on that grid."""
    grid = table.window + 1
    if min((grid - p) // m, (grid - q) // n) < 1:
        raise WindowTooSmall(_restriction_too_small(grid, m, n, p, q))
    return table.sublattice(m, n, p, q)


def sweep_targets(build, k: int, window: int, power=None, restriction=None) -> list:
    """The moment tables a k-hyponormality sweep over u1 + u2 <= window tests.

    ``build(n)`` returns the shift on an n x n grid, or its moment table
    through window n - 1; it is called once, at the sweep's ``grid_reach``,
    after the views, k and the window are checked, and a shift's moments are
    taken once, over its whole grid. The targets are ``sublattice`` views of
    the table, one per ``sweep_views`` view, in its order.
    """
    views = sweep_views(power, restriction)
    check_sweep(k, window)
    table = build(grid_reach(k, window, power, restriction))
    if isinstance(table, Shift2D):
        table = moments(table, table.window - 1)
    return [_restrict_table(table, *view) for view in views]


def sweep_verdicts(build, k: int, window: int, power=None, restriction=None):
    """``k_hyponormal_2v``'s verdict on each ``sweep_targets`` target, lazily:
    the targets are built at once, and a caller that stops early tests no
    further target."""
    targets = sweep_targets(build, k, window, power, restriction)
    return (k_hyponormal_2v(t, k, window) for t in targets)


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
