"""Exact rational substrate: polynomials, symmetric matrices, PSD certificates.

Every scalar is a ``fractions.Fraction``, or an integer over one positive
denominator shared by a whole matrix; nothing in this module ever rounds.
Rationals serialize as ``"p/q"`` (or ``"p"`` when the denominator is 1),
which is exactly what ``str(Fraction)`` produces.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import DuplicateNode, SingularSystem

_RATIONAL_TEXT = re.compile(r"\s*[-+]?[0-9]+(?:/[0-9]+)?\s*")


def as_rational(value) -> Fraction:
    """Coerce an int, ``"p/q"`` string, or Fraction to an exact Fraction.

    Floats are rejected: they would silently smuggle rounding error into a
    pipeline whose whole point is exactness. Booleans are rejected too: JSON
    ``true`` is not the number 1. A string is an optional sign, digits and an
    optional ``/digits``, so ``"0.5"`` and ``"1e-1"`` are too.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        if not _RATIONAL_TEXT.fullmatch(value):
            raise ValueError(f"Invalid literal for Fraction: {value!r}")
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r} (floats and booleans are not accepted)")


def format_rational(value: Fraction) -> str:
    """Serialize as base-10 ``p/q``, or ``p`` when the denominator is 1."""
    return str(value)


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RationalPolynomial:
    """Dense univariate polynomial with Fraction coefficients, ascending degree.

    The zero polynomial is the empty coefficient tuple; otherwise the trailing
    coefficient is nonzero.
    """

    coefficients: tuple

    def __post_init__(self):
        coeffs = tuple(as_rational(c) for c in self.coefficients)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coefficients", coeffs)

    @classmethod
    def of(cls, *coefficients) -> "RationalPolynomial":
        return cls(tuple(coefficients))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coefficients) - 1

    def is_zero(self) -> bool:
        return not self.coefficients

    def __call__(self, x) -> Fraction:
        """Exact Horner evaluation."""
        x = as_rational(x)
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def __add__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RationalPolynomial(tuple(out))

    def __neg__(self) -> "RationalPolynomial":
        return RationalPolynomial(tuple(-c for c in self.coefficients))

    def __sub__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        return self + (-other)

    def __mul__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        if self.is_zero() or other.is_zero():
            return RationalPolynomial(())
        out = [Fraction(0)] * (len(self.coefficients) + len(other.coefficients) - 1)
        for i, a in enumerate(self.coefficients):
            if a == 0:
                continue
            for j, b in enumerate(other.coefficients):
                out[i + j] += a * b
        return RationalPolynomial(tuple(out))

    def __pow__(self, n: int) -> "RationalPolynomial":
        if n < 0:
            raise ValueError("negative power")
        result = RationalPolynomial((Fraction(1),))
        for _ in range(n):
            result = result * self
        return result

    def scale(self, factor) -> "RationalPolynomial":
        factor = as_rational(factor)
        return RationalPolynomial(tuple(factor * c for c in self.coefficients))

    def derivative(self) -> "RationalPolynomial":
        return RationalPolynomial(
            tuple(i * c for i, c in enumerate(self.coefficients) if i >= 1)
        )

    def monic(self) -> "RationalPolynomial":
        if self.is_zero():
            return self
        return self.scale(1 / self.coefficients[-1])


def integer_scaled(coefficients) -> tuple:
    """(integers, d): coefficients[i] == integers[i] / d, with d > 0 the lcm
    of their denominators (1 for no coefficients)."""
    pairs = [c.as_integer_ratio() for c in coefficients]
    den = math.lcm(*(d for _, d in pairs))
    return [n * (den // d) for n, d in pairs], den


def homogeneous_horner(coefficients, num: int, den: int) -> int:
    """Sum of c_i num^i den^(n-i) for n = len(coefficients), by Horner in
    integers: den^n times the polynomial's value at num/den."""
    acc = 0
    den_pow = 1
    for c in reversed(coefficients):
        den_pow *= den
        acc = acc * num + c * den_pow
    return acc


def numerator_denominator(x) -> tuple:
    """(numerator, denominator) of an exact rational argument, coerced as by
    ``as_rational``; ints and Fractions pass through without a new object."""
    if not isinstance(x, (int, Fraction)):
        x = as_rational(x)
    return x.numerator, x.denominator


def poly_divmod(a: RationalPolynomial, b: RationalPolynomial):
    """Exact Euclidean division: a = q*b + r with deg r < deg b."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a.coefficients)
    div = b.coefficients
    dq = len(rem) - len(div)
    if dq < 0:
        return RationalPolynomial(()), a
    quot = [Fraction(0)] * (dq + 1)
    lead = div[-1]
    for k in range(dq, -1, -1):
        coeff = rem[k + len(div) - 1] / lead
        quot[k] = coeff
        if coeff != 0:
            for j, c in enumerate(div):
                rem[k + j] -= coeff * c
    return RationalPolynomial(tuple(quot)), RationalPolynomial(tuple(rem[: len(div) - 1]))


def poly_gcd(a: RationalPolynomial, b: RationalPolynomial) -> RationalPolynomial:
    """Monic gcd over the rationals (Euclid)."""
    while not b.is_zero():
        _, r = poly_divmod(a, b)
        a, b = b, r
    return a.monic()


def square_free_part(p: RationalPolynomial) -> RationalPolynomial:
    """p divided by gcd(p, p'): same roots, all simple."""
    if p.degree <= 0:
        return p
    g = poly_gcd(p, p.derivative())
    q, r = poly_divmod(p, g)
    assert r.is_zero()
    return q.monic()


def _deflate(p: RationalPolynomial, root: Fraction) -> RationalPolynomial:
    """Exact synthetic division by (x - root); requires p(root) == 0."""
    coeffs = p.coefficients
    out = [Fraction(0)] * (len(coeffs) - 1)
    carry = coeffs[-1]
    for i in range(len(coeffs) - 2, -1, -1):
        out[i] = carry
        carry = coeffs[i] + carry * root
    assert carry == 0, "deflation requires an exact root"
    return RationalPolynomial(tuple(out))


# ---------------------------------------------------------------------------
# Sturm chains and sign analysis
# ---------------------------------------------------------------------------


def sturm_chain(p: RationalPolynomial) -> list:
    chain = [p, p.derivative()]
    while chain[-1].degree >= 1:
        _, r = poly_divmod(chain[-2], chain[-1])
        if r.is_zero():
            break
        chain.append(-r)
    return chain


def _variations(chain, x) -> int:
    signs = []
    for q in chain:
        v = q(x)
        if v != 0:
            signs.append(v > 0)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _count_roots(chain, a: Fraction, b: Fraction) -> int:
    """Distinct real roots in (a, b]; endpoints must not be roots of chain[0]."""
    return _variations(chain, a) - _variations(chain, b)


def cauchy_root_bound(p: RationalPolynomial) -> Fraction:
    """Every real root of p lies in [-B, B]."""
    if p.degree < 1:
        return Fraction(1)
    lead = abs(p.coefficients[-1])
    return 1 + max(abs(c) for c in p.coefficients) / lead


def _nonroot_split(chain, a: Fraction, b: Fraction) -> Fraction:
    """A point strictly inside (a, b) that is not a root of chain[0]."""
    s = chain[0]
    for num, den in ((1, 2), (1, 3), (2, 3), (2, 5), (3, 5), (3, 7), (4, 7)):
        m = a + (b - a) * Fraction(num, den)
        if s(m) != 0:
            return m
    # a squarefree polynomial has finitely many roots: walk dyadic points
    k = 4
    while True:
        for j in range(1, 2**k, 2):
            m = a + (b - a) * Fraction(j, 2**k)
            if s(m) != 0:
                return m
        k += 1


def isolate_real_roots(p: RationalPolynomial, lo=None, hi=None) -> list:
    """Disjoint rational intervals (a, b], each holding exactly one distinct
    real root of ``p`` in [lo, hi]. A root known exactly is returned as a
    degenerate pair (r, r). Defaults to the Cauchy bound when no range given.
    """
    s = square_free_part(p)
    if s.degree < 1:
        return []
    bound = cauchy_root_bound(s)
    lo = as_rational(lo) if lo is not None else -bound
    hi = as_rational(hi) if hi is not None else bound
    if lo > hi:
        return []
    out = []
    # endpoint roots are rational and known exactly: deflate them away
    for endpoint in (lo, hi):
        while s.degree >= 1 and s(endpoint) == 0:
            out.append((endpoint, endpoint))
            s = _deflate(s, endpoint)
    if s.degree >= 1:
        chain = sturm_chain(s)
        stack = [(lo, hi, _count_roots(chain, lo, hi))]
        while stack:
            a, b, count = stack.pop()
            if count == 0:
                continue
            if count == 1:
                out.append((a, b))
                continue
            m = _nonroot_split(chain, a, b)
            left = _count_roots(chain, a, m)
            stack.append((a, m, left))
            stack.append((m, b, count - left))
    return sorted(out)


def rational_roots(p: RationalPolynomial) -> list:
    """All rational roots of ``p``, with multiplicity, ascending.

    Clear the (monic) square-free part s of p to a primitive integer
    polynomial with leading coefficient D. A rational root then has a reduced
    denominator dividing D, and two such rationals lie at least 1/D^2 apart.
    So once a Sturm isolating interval of s is narrower than 1/(2 D^2), the
    best approximation of its midpoint with denominator at most D is the only
    rational it can hold; it is tested exactly, then deflated out of p.
    """
    if p.degree < 1:
        return []
    s = square_free_part(p)
    scale = math.lcm(*(c.denominator for c in s.coefficients))
    lead = scale // math.gcd(*(int(c * scale) for c in s.coefficients))
    roots = []
    for a, b in isolate_real_roots(s):
        root = _rational_root_in(s, a, b, lead)
        while root is not None and p(root) == 0:
            roots.append(root)
            p = _deflate(p, root)
    return roots


def _rational_root_in(s: RationalPolynomial, a: Fraction, b: Fraction, lead: int):
    """The root of ``s`` in its isolating interval (a, b) if it is rational."""
    left_positive = s(a) > 0
    while 2 * lead * lead * (b - a) >= 1:
        m = (a + b) / 2
        value = s(m)
        if value == 0:
            return m
        if (value > 0) == left_positive:
            a = m
        else:
            b = m
    candidate = ((a + b) / 2).limit_denominator(lead)
    return candidate if a < candidate < b and s(candidate) == 0 else None


def poly_nonneg_on(p: RationalPolynomial, lo, hi) -> bool:
    """Exact decision of ``p(x) >= 0`` for every x in [lo, hi], in one sign pass.

    Every root at lo and at hi is divided out; inside the interval x - hi < 0,
    so each factor (x - hi) flips the sign to test. The quotient is nonzero at
    lo and hi, so each gap between its consecutive roots in (lo, hi) holds lo,
    hi or the right end of an isolating interval, where its sign decides.
    """
    lo, hi = as_rational(lo), as_rational(hi)
    if lo > hi:
        raise ValueError("empty interval: lo > hi")
    if p(lo) < 0 or p(hi) < 0:
        return False
    if p.is_zero() or lo == hi:
        return True
    sign = 1
    for endpoint, flip in ((lo, 1), (hi, -1)):
        while p(endpoint) == 0:
            p = _deflate(p, endpoint)
            sign *= flip
    points = {lo, hi}.union(b for _, b in isolate_real_roots(p, lo, hi))
    return all(sign * p(x) > 0 for x in points)


# ---------------------------------------------------------------------------
# Symmetric matrices and PSD certification
# ---------------------------------------------------------------------------


class DeferredField:
    """A field whose value may be built on its first read, as a data descriptor.

    The stored value is either the value or a zero-argument callable that
    builds it; the callable runs on the first read and its result replaces it.
    As a dataclass field with no default it is an ordinary field to
    ``dataclasses``, so ``fields``, ``repr``, ``==`` and ``hash`` read the
    value; on a class attribute outside the fields it is a cached value.
    """

    def __set_name__(self, owner, name):
        self.slot = "_" + name

    def __get__(self, obj, owner=None):
        if obj is None:
            raise AttributeError(self.slot[1:])
        value = obj.__dict__[self.slot]
        if callable(value):
            value = value()
            obj.__dict__[self.slot] = value
        return value

    def __set__(self, obj, value):
        obj.__dict__[self.slot] = value


def scale_rows(rows) -> tuple:
    """(integer rows, d): rows[i][j] == integers[i][j] / d, with d > 0 the lcm
    of every denominator."""
    flat, den = integer_scaled([v for row in rows for v in row])
    it = iter(flat)
    return tuple(tuple(next(it) for _ in row) for row in rows), den


def fraction_rows(rows, den: int) -> tuple:
    """The rationals rows[i][j] / den of integer rows over one denominator."""
    return tuple(tuple(Fraction(v, den) for v in row) for row in rows)


def _check_square_symmetric(rows):
    n = len(rows)
    if n == 0 or any(len(row) != n for row in rows):
        raise ValueError("matrix must be square and nonempty")
    # compare with the transpose in one pass; scan for the first
    # asymmetric (i, j) only to name it
    if rows != tuple(zip(*rows)):
        i, j = next((i, j) for i in range(n) for j in range(i) if rows[i][j] != rows[j][i])
        raise ValueError(f"matrix not symmetric at ({i},{j})")


@dataclass(frozen=True)
class SymMatrix:
    """Square symmetric matrix of exact rationals.

    ``scaled`` holds the same matrix as integer rows over one positive
    denominator. ``SymMatrix(entries)`` derives it on first need;
    ``from_integers`` starts from it and builds ``entries`` on first read.
    """

    entries: tuple = DeferredField()
    scaled = DeferredField()

    def __post_init__(self):
        rows = tuple(tuple(map(as_rational, row)) for row in self.entries)
        _check_square_symmetric(rows)
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "scaled", functools.partial(scale_rows, rows))

    @classmethod
    def from_integers(cls, rows, den: int) -> "SymMatrix":
        """The matrix rows[i][j] / den, for integer rows and den > 0."""
        if den <= 0:
            raise ValueError(f"denominator must be positive, got {den}")
        rows = tuple(map(tuple, rows))
        _check_square_symmetric(rows)
        matrix = cls.__new__(cls)
        object.__setattr__(matrix, "entries", functools.partial(fraction_rows, rows, den))
        object.__setattr__(matrix, "scaled", (rows, den))
        return matrix

    @property
    def order(self) -> int:
        return len(self.scaled[0])

    def entry(self, i: int, j: int) -> Fraction:
        return self.entries[i][j]


@dataclass(frozen=True)
class PsdVerdict:
    """Positive-semidefiniteness verdict with an exact certificate.

    ``certificate`` holds e_0..e_n, the sums of principal i-by-i minors
    (characteristic polynomial coefficients up to sign). A real symmetric
    matrix is PSD iff every e_i >= 0; ``first_failure`` is the least index
    with e_i < 0, if any. ``psd_test`` decides ``is_psd`` by fraction-free
    LDL^T; it builds the Faddeev-LeVerrier certificate at once for a failing
    matrix and on the first read of ``certificate`` otherwise.
    """

    is_psd: bool
    certificate: tuple = DeferredField()
    first_failure: Optional[int]


def _ldl_is_psd(a) -> bool:
    """Decide PSD-ness of the symmetric integer matrix ``a`` (overwritten).

    Symmetric fraction-free (Bareiss) elimination with diagonal pivoting.
    After pivots P, every remaining entry is det(A[P+i, P+j]), which is
    det(A[P, P]) > 0 times the Schur complement entry, so its sign is the
    Schur complement's. A is PSD iff that complement is: a negative
    diagonal fails, any positive diagonal is the next pivot, and a complement
    with an all-zero diagonal is PSD iff it is zero.
    """
    remaining = list(range(len(a)))
    prev = 1
    while remaining:
        pivot = None
        for i in remaining:
            d = a[i][i]
            if d < 0:
                return False
            if d > 0 and pivot is None:
                pivot = i
        if pivot is None:
            return not any(a[i][j] for i in remaining for j in remaining)
        remaining.remove(pivot)
        p, prow = a[pivot][pivot], a[pivot]
        for s, i in enumerate(remaining):
            row, f = a[i], prow[i]
            for j in remaining[s:]:
                row[j] = a[j][i] = (p * row[j] - f * prow[j]) // prev
        prev = p
    return True


def _char_coefficients(a) -> tuple:
    """c_0..c_n of the integer matrix ``a`` by Faddeev-LeVerrier: its
    characteristic polynomial is sum c_i x^(n-i).

    M_k = A M_{k-1} + c_{k-1} I and c_k = -trace(A M_k) / k over the
    integers; the trace is read off as sum a_ij (M_k)_ji without forming
    A M_k.
    """
    n = len(a)
    cols = [[0] * n for _ in range(n)]  # columns of M_{k-1}
    cs = [1]
    for k in range(1, n + 1):
        mk = [[sum(map(operator.mul, row, col)) for col in cols] for row in a]
        for i in range(n):
            mk[i][i] += cs[-1]
        cols = list(zip(*mk))
        trace = sum(map(operator.mul, itertools.chain.from_iterable(a),
                        itertools.chain.from_iterable(cols)))
        assert trace % k == 0, "Faddeev-LeVerrier trace must divide exactly"
        cs.append(-(trace // k))
    return tuple(cs)


def _certificate(a, num: int, den: int, is_psd, cs=None) -> tuple:
    """e_0..e_n of the integer matrix ``a`` times num/den, from its
    Faddeev-LeVerrier integers ``cs`` (computed here when not given).

    e_i = (-1)^i c_i for ``a``; scaling by s > 0 multiplies e_i by s^i, so
    the signs are those of A's, and they must agree with the LDL^T verdict
    ``is_psd``.
    """
    if cs is None:
        cs = _char_coefficients(a)
    certificate = tuple(Fraction((-1) ** i * c * num**i, den**i) for i, c in enumerate(cs))
    agrees = is_psd == all(e >= 0 for e in certificate)
    assert agrees, "LDL^T and Faddeev-LeVerrier disagree"
    return certificate


# The verdict memo of the outermost running ``psd_memo_scope``: primitive
# integer rows to True (PSD) or their Faddeev-LeVerrier c_i (not PSD); None
# outside a scope.
_PSD_MEMO = contextvars.ContextVar("psd_memo", default=None)


def psd_memo_scope(query):
    """Decorate a query so that ``psd_test`` decides each distinct primitive
    matrix once while it runs.

    The outermost scoped call opens a memo and drops it when it returns or
    raises; a scoped call inside it shares that memo. So the memo holds at
    most one entry per PSD test the query makes, and nothing outlives it.
    Only queries whose matrices repeat are scoped (``run_all``,
    ``bisect_threshold``); a bare sweep hashes no keys.
    """

    @functools.wraps(query)
    def scoped(*args, **kwargs):
        if _PSD_MEMO.get() is not None:
            return query(*args, **kwargs)
        token = _PSD_MEMO.set({})
        try:
            return query(*args, **kwargs)
        finally:
            _PSD_MEMO.reset(token)

    return scoped


def psd_test(matrix: SymMatrix) -> PsdVerdict:
    """Decide PSD-ness exactly by fraction-free LDL^T.

    The matrix's integer rows over its denominator (``SymMatrix.scaled``)
    are divided by the gcd g of their distinct entries, one division per
    distinct entry; those primitive rows decide the verdict. Positive
    multiples share primitive rows, so inside a ``psd_memo_scope`` each
    distinct primitive matrix is eliminated once and its verdict (with the
    Faddeev-LeVerrier integers of a failure) is reused. A failing verdict
    carries its certificate, scaled by (g/den)^i, at once, and
    ``first_failure`` is read off it; a PSD verdict builds the certificate
    on its first read.
    """
    rows, den = matrix.scaled
    distinct = set(itertools.chain.from_iterable(rows))
    g = math.gcd(*distinct)
    if g > 1:
        primitive = {v: v // g for v in distinct}
        rows = tuple(tuple(map(primitive.__getitem__, row)) for row in rows)
    memo = _PSD_MEMO.get()
    decided = None if memo is None else memo.get(rows)
    if decided is None:
        decided = _ldl_is_psd([list(row) for row in rows]) or _char_coefficients(rows)
        if memo is not None:
            memo[rows] = decided
    if decided is True:
        return PsdVerdict(True, functools.partial(_certificate, rows, g, den, True), None)
    certificate = _certificate(rows, g, den, False, decided)
    first_failure = next(i for i, e in enumerate(certificate) if e < 0)
    return PsdVerdict(False, certificate, first_failure)


def _det_rows(rows) -> Fraction:
    """Plain exact Gaussian elimination determinant (independent of psd_test)."""
    n = len(rows)
    m = [list(r) for r in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col] != 0:
                factor = m[r][col] * inv
                for c in range(col, n):
                    m[r][c] -= factor * m[col][c]
    return det


def psd_test_minors(matrix: SymMatrix) -> bool:
    """Brute-force PSD check: every principal minor (all 2^n - 1) >= 0.

    Exponential; intended as an independent cross-check of ``psd_test`` on
    small matrices.
    """
    n = matrix.order
    for mask in range(1, 1 << n):
        idx = [i for i in range(n) if mask & (1 << i)]
        sub = [[matrix.entries[i][j] for j in idx] for i in idx]
        if _det_rows(sub) < 0:
            return False
    return True


# ---------------------------------------------------------------------------
# Linear solving
# ---------------------------------------------------------------------------


def solve_linear(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]):
    """Solve A x = b exactly; returns None when A is singular."""
    n = len(rows)
    if any(len(r) != n for r in rows) or len(rhs) != n:
        raise ValueError("shape mismatch")
    m = [list(r) + [b] for r, b in zip(rows, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        inv = 1 / m[col][col]
        m[col] = [v * inv for v in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [v - factor * w for v, w in zip(m[r], m[col])]
    return [m[r][n] for r in range(n)]


def vandermonde_solve(nodes: Iterable, rhs: Iterable) -> list:
    """Solve V x = rhs where V has rows (1, 1, ...), (s_0, s_1, ...), ...,
    i.e. V[i][j] = nodes[j] ** i. Exact; nodes must be pairwise distinct.
    """
    nodes = [as_rational(s) for s in nodes]
    rhs = [as_rational(v) for v in rhs]
    if len(nodes) != len(rhs):
        raise ValueError("nodes and rhs must have equal length")
    if len(set(nodes)) != len(nodes):
        node = next(s for i, s in enumerate(nodes) if s in nodes[:i])
        raise DuplicateNode(f"duplicate interpolation node {format_rational(node)}")
    n = len(nodes)
    rows = [[s**i for s in nodes] for i in range(n)]
    solution = solve_linear(rows, rhs)
    if solution is None:
        raise SingularSystem("Vandermonde system unexpectedly singular")
    return solution
