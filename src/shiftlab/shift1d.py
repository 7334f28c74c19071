"""Unilateral weighted shifts: exact moments, positivity tests, recursions,
power decompositions, and the matching measure transforms.

A shift is stored through its squared weights (a finite prefix plus an
optional tail rule), since every quantity of interest -- moments, Hankel
matrices, embeddings -- is a polynomial in the squared weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import TailExhausted, ZeroMoment
from .exactcore import (
    PsdVerdict,
    RationalPolynomial,
    SymMatrix,
    as_rational,
    homogeneous_horner,
    integer_scaled,
    isolate_real_roots,
    numerator_denominator,
    psd_test,
    rational_roots,
    solve_linear,
    vandermonde_solve,
)
from .measures import AtomicMeasure1D

DEFAULT_WINDOW_1D = 25  # base-point sweep bound for Hankel positivity tests


@dataclass(frozen=True)
class RationalWeightRule:
    """Closed-form tail: squared weight at index k is num(k)/den(k).

    num and den are scaled once to integer polynomials N/d_N and D/d_D,
    padded to one length, so a weight is N(k) d_D / (D(k) d_N) with both
    values from integer Horner and a single Fraction built.
    """

    num: RationalPolynomial
    den: RationalPolynomial
    start: int = 0

    def __post_init__(self):
        num, num_den = integer_scaled(self.num.coefficients)
        den, den_den = integer_scaled(self.den.coefficients)
        width = max(len(num), len(den))
        object.__setattr__(self, "_num_int", tuple(num + [0] * (width - len(num))))
        object.__setattr__(self, "_den_int", tuple(den + [0] * (width - len(den))))
        object.__setattr__(self, "_num_scale", den_den)
        object.__setattr__(self, "_den_scale", num_den)

    def weight_sq(self, k: int) -> Fraction:
        if k < self.start:
            raise ValueError(f"rule starts at index {self.start}, got {k}")
        a, b = numerator_denominator(k)
        d = homogeneous_horner(self._den_int, a, b)
        if d == 0:
            raise ZeroDivisionError(f"tail denominator vanishes at index {k}")
        return Fraction(homogeneous_horner(self._num_int, a, b) * self._num_scale,
                        d * self._den_scale)


@dataclass(frozen=True)
class MeasureTail:
    """Tail defined by a moment oracle: squared weight = gamma(k+1)/gamma(k)."""

    oracle: object

    def weight_sq(self, k: int) -> Fraction:
        gk = self.oracle.moment(k)
        if gk == 0:
            raise ZeroMoment(f"moment {k} of the tail measure is zero")
        return self.oracle.moment(k + 1) / gk


class Shift1D:
    """Unilateral weighted shift given by squared weights.

    ``tail`` may be None (the shift is only defined on its prefix and any
    query beyond it raises ``TailExhausted``), a ``RationalWeightRule``, or a
    ``MeasureTail``.
    """

    def __init__(self, prefix_sq: Sequence = (), tail=None, norm_bound_sq=None):
        self.prefix_sq = tuple(as_rational(w) for w in prefix_sq)
        self.tail = tail
        self.norm_bound_sq = None if norm_bound_sq is None else as_rational(norm_bound_sq)
        self._moments = [Fraction(1)]

    def weight_sq(self, k: int) -> Fraction:
        if k < 0:
            raise ValueError("weight index must be nonnegative")
        if k < len(self.prefix_sq):
            w = self.prefix_sq[k]
        elif self.tail is None:
            raise TailExhausted(
                f"weight {k} requested but only {len(self.prefix_sq)} stored and no tail rule"
            )
        else:
            w = self.tail.weight_sq(k)
        # denominators are positive: the signs and the bound are integer tests
        if w.numerator <= 0:
            raise ValueError(f"squared weight at index {k} is not positive: {w}")
        bound = self.norm_bound_sq
        if bound is not None and w.numerator * bound.denominator > bound.numerator * w.denominator:
            raise ValueError(
                f"squared weight {w} at index {k} exceeds norm bound {self.norm_bound_sq}"
            )
        return w

    def weights_sq(self, count: int) -> list:
        return [self.weight_sq(k) for k in range(count)]

    def moment(self, k: int) -> Fraction:
        """gamma_k: the product of the first k squared weights (gamma_0 = 1)."""
        while len(self._moments) <= k:
            n = len(self._moments)
            self._moments.append(self._moments[-1] * self.weight_sq(n - 1))
        return self._moments[k]

    def moments(self, count: int) -> list:
        if count < 0:
            raise ValueError("count must be >= 0")
        return [self.moment(k) for k in range(count)]


# ---------------------------------------------------------------------------
# Named shifts
# ---------------------------------------------------------------------------


def bergman() -> Shift1D:
    """Squared weights (k+1)/(k+2); moments 1/(k+1)."""
    rule = RationalWeightRule(RationalPolynomial.of(1, 1), RationalPolynomial.of(2, 1))
    return Shift1D((), rule, norm_bound_sq=1)


def agler(j: int) -> Shift1D:
    """Squared weights (k+1)/(k+j); j = 2 recovers the Bergman shift."""
    if j < 1:
        raise ValueError("index must be >= 1")
    rule = RationalWeightRule(RationalPolynomial.of(1, 1), RationalPolynomial.of(j, 1))
    return Shift1D((), rule, norm_bound_sq=1)


def unweighted() -> Shift1D:
    """The isometric shift: every weight equals 1."""
    rule = RationalWeightRule(RationalPolynomial.of(1), RationalPolynomial.of(1))
    return Shift1D((), rule, norm_bound_sq=1)


def flat_shift(first_weight_sq) -> Shift1D:
    """First squared weight as given, every later weight equal to 1."""
    rule = RationalWeightRule(RationalPolynomial.of(1), RationalPolynomial.of(1), start=1)
    return Shift1D((as_rational(first_weight_sq),), rule, norm_bound_sq=1)


def from_measure(sigma) -> Shift1D:
    """Shift whose moments are those of the given probability measure.

    Squared weights are the moment ratios gamma(k+1)/gamma(k). Rejects the
    point mass at 0, whose ratios are undefined.
    """
    if sigma.moment(0) != 1:
        raise ValueError("oracle must describe a probability measure")
    if sigma.moment(1) == 0:
        raise ZeroMoment("measure is the point mass at 0; weights are undefined")
    return Shift1D((), MeasureTail(sigma), norm_bound_sq=sigma.support_bound)


# ---------------------------------------------------------------------------
# k-hyponormality (Hankel positivity at every base point in a window)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HyponormalityVerdict:
    """Window-scoped positivity verdict of a 1- or 2-variable sweep.

    ``holds`` means every tested moment matrix was PSD. The verdict is only
    about base points inside the window; no claim is made beyond it. A
    failure names its base point, u or (u1, u2), and the failing matrix's
    certificate.
    """

    holds: bool
    k: int
    window: int
    first_failure: Optional[object]
    certificate: Optional[PsdVerdict]


def check_sweep(k: int, window: int):
    """The argument checks of every k-hyponormality sweep, made before any work."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if window < 0:
        raise ValueError("window must be >= 0")


def sweep_verdict(k: int, window: int, matrices) -> HyponormalityVerdict:
    """Test the (base point, moment matrix) pairs in order, up to the first
    that is not PSD; ``matrices`` is lazy, so no later matrix is built."""
    for u, matrix in matrices:
        verdict = psd_test(matrix)
        if not verdict.is_psd:
            return HyponormalityVerdict(False, k, window, u, verdict)
    return HyponormalityVerdict(True, k, window, None, None)


def hankel_matrix(moments: Sequence, order: int, base: int = 0, *, den: int) -> SymMatrix:
    """The (order+1)-square Hankel matrix (gamma_{base+i+j}), from integer
    moment numerators over the positive denominator ``den``; the matrix
    keeps them (``SymMatrix.from_integers``)."""
    if base < 0:
        raise ValueError(f"base must be >= 0, got {base}")
    return SymMatrix.from_integers(
        tuple(
            tuple(moments[base + i + j] for j in range(order + 1))
            for i in range(order + 1)
        ),
        den,
    )


def k_hyponormal(
    shift: Shift1D, k: int, window: int = DEFAULT_WINDOW_1D
) -> HyponormalityVerdict:
    """Test k-hyponormality on base points u = 0..window.

    The criterion is exact PSD-ness of the Hankel moment matrix
    (gamma_{u+i+j}) of order k+1 at every base point u in the window. The
    moments are scaled to integers over one denominator once, and every
    matrix slices them.
    """
    check_sweep(k, window)
    moments, den = integer_scaled(shift.moments(window + 2 * k + 1))
    matrices = ((u, hankel_matrix(moments, k, u, den=den)) for u in range(window + 1))
    return sweep_verdict(k, window, matrices)


# ---------------------------------------------------------------------------
# Recursion detection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RecursionResult:
    """Outcome of the minimal linear-recursion search on a moment window.

    When ``found``, the recursion gamma_{n+k} = sum_i phi_i gamma_{n+i} holds
    exactly on the whole supplied window and ``generating_poly`` is
    x^k - sum_i phi_i x^i. ``atoms`` carries (root, density) pairs when every
    root is rational and distinct; otherwise ``root_intervals`` isolates the
    real roots into disjoint rational intervals.
    """

    found: bool
    order: Optional[int] = None
    coefficients: Optional[tuple] = None
    generating_poly: Optional[RationalPolynomial] = None
    atoms: Optional[tuple] = None
    root_intervals: Optional[tuple] = None


def detect_recursion(moments: Sequence, max_order: int) -> RecursionResult:
    """Find the least order k <= max_order whose linear recursion fits the
    entire moment window exactly; recover atoms when the generating
    polynomial splits over the rationals.
    """
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    values = [as_rational(m) for m in moments]
    if not values or values[0] != 1:
        raise ValueError("moment window must start with gamma_0 = 1")
    for k in range(1, max_order + 1):
        if len(values) < 2 * k:
            break
        rows = [[values[n + i] for i in range(k)] for n in range(k)]
        rhs = [values[n + k] for n in range(k)]
        phi = solve_linear(rows, rhs)
        if phi is None:
            continue
        if any(
            values[n + k] != sum(phi[i] * values[n + i] for i in range(k))
            for n in range(len(values) - k)
        ):
            continue
        poly = RationalPolynomial(tuple(-c for c in phi) + (Fraction(1),))
        atoms = intervals = None
        roots = rational_roots(poly)
        if len(roots) == k and len(set(roots)) == k:
            densities = vandermonde_solve(roots, values[:k])
            atoms = tuple(zip(roots, densities))
        else:
            intervals = tuple(isolate_real_roots(poly))
        return RecursionResult(
            found=True,
            order=k,
            coefficients=tuple(phi),
            generating_poly=poly,
            atoms=atoms,
            root_intervals=intervals,
        )
    return RecursionResult(found=False)


# ---------------------------------------------------------------------------
# Integer powers and their measures
# ---------------------------------------------------------------------------


def power_decompose(shift: Shift1D, m: int, window: int) -> list:
    """The m orthogonal summands of the m-th power.

    Component i's k-th squared weight is the product of the m consecutive
    squared weights starting at index i + k*m, so that its moments satisfy
    gamma_k(component i) = gamma_{k m + i}(shift) / gamma_i(shift).
    """
    if m < 1 or window < 1:
        raise ValueError("m and window must be >= 1")
    bound = None if shift.norm_bound_sq is None else shift.norm_bound_sq**m
    components = []
    for i in range(m):
        prefix = []
        for k in range(window):
            w = Fraction(1)
            for offset in range(m):
                w *= shift.weight_sq(i + k * m + offset)
            prefix.append(w)
        components.append(Shift1D(tuple(prefix), None, norm_bound_sq=bound))
    return components


def curto_park_measures(sigma: AtomicMeasure1D, m: int) -> list:
    """Berger measures of the power components of the shift of ``sigma``.

    Component i's measure puts density rho_j * s_j^i / gamma_i at the atom
    s_j^m; zero-density images (the atom 0 for i >= 1) are dropped.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    out = []
    for i in range(m):
        gamma_i = sigma.moment(i)
        pairs = [
            (a**m, d * a**i / gamma_i)
            for a, d in zip(sigma.atoms, sigma.densities)
            if d * a**i != 0
        ]
        out.append(AtomicMeasure1D.from_pairs(pairs))
    return out
