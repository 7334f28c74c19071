import dataclasses
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftlab.cli import _jsonify
from shiftlab.errors import DuplicateNode
from shiftlab.exactcore import (
    RationalPolynomial,
    SymMatrix,
    _det_rows,
    as_rational,
    format_rational,
    isolate_real_roots,
    poly_eval,
    poly_gcd,
    poly_nonneg_on,
    psd_test,
    psd_test_minors,
    rational_roots,
    solve_linear,
    square_free_part,
    vandermonde_solve,
)

P = RationalPolynomial.of


def test_as_rational_forms():
    assert as_rational("3/4") == F(3, 4)
    assert as_rational(5) == F(5)
    assert as_rational(F(1, 3)) == F(1, 3)
    with pytest.raises(TypeError):
        as_rational(0.5)


def test_format_rational():
    assert format_rational(F(3, 4)) == "3/4"
    assert format_rational(F(7)) == "7"
    assert format_rational(F(-1, 2)) == "-1/2"


# -- PSD certification -------------------------------------------------------


def test_psd_identity_2x2():
    verdict = psd_test(SymMatrix(((1, 0), (0, 1))))
    assert verdict.is_psd
    assert verdict.certificate == (1, 2, 1)
    assert verdict.first_failure is None


def test_psd_negative_determinant():
    verdict = psd_test(SymMatrix(((1, 2), (2, 1))))
    assert not verdict.is_psd
    assert verdict.certificate[2] == -3
    assert verdict.first_failure == 2


def test_psd_hilbert_3x3():
    # hand cofactor expansion: det = 1/240 - 1/120 + 1/216 = 1/2160,
    # e_1 = 1 + 1/3 + 1/5, e_2 = 1/12 + 4/45 + 1/240
    m = SymMatrix(
        (
            (1, F(1, 2), F(1, 3)),
            (F(1, 2), F(1, 3), F(1, 4)),
            (F(1, 3), F(1, 4), F(1, 5)),
        )
    )
    verdict = psd_test(m)
    assert verdict.is_psd
    assert verdict.certificate == (1, F(23, 15), F(127, 720), F(1, 2160))


def test_psd_not_symmetric_rejected():
    with pytest.raises(ValueError):
        SymMatrix(((1, 2), (3, 1)))
    # the message names the first asymmetric entry in row-major order below
    # the diagonal
    with pytest.raises(ValueError, match=r"not symmetric at \(2,0\)"):
        SymMatrix(((1, 0, 5), (0, 1, 7), (4, 6, 1)))
    with pytest.raises(ValueError, match=r"not symmetric at \(2,1\)"):
        SymMatrix(((1, 0, 5), (0, 1, 7), (5, 6, 1)))
    with pytest.raises(ValueError, match="square"):
        SymMatrix(((1, 2), (2,)))
    with pytest.raises(TypeError):
        SymMatrix(((1, 0.5), (0.5, 1)))


def test_psd_semidefinite_rank_one():
    # vv^T for v = (1, 2, 3): PSD with zero determinant
    v = (1, 2, 3)
    m = SymMatrix(tuple(tuple(F(a * b) for b in v) for a in v))
    verdict = psd_test(m)
    assert verdict.is_psd
    assert verdict.certificate[-1] == 0


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.fractions(min_value=-3, max_value=3, max_denominator=8),
        min_size=9,
        max_size=9,
    )
)
def test_psd_matches_brute_force_minors(vals):
    rows = [[None] * 3 for _ in range(3)]
    k = 0
    for i in range(3):
        for j in range(i, 3):
            rows[i][j] = rows[j][i] = vals[k]
            k += 1
    m = SymMatrix(tuple(tuple(r) for r in rows))
    assert psd_test(m).is_psd == psd_test_minors(m)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.fractions(min_value=-2, max_value=2, max_denominator=6),
        min_size=6,
        max_size=6,
    ),
    st.lists(
        st.fractions(min_value=F(1, 4), max_value=3, max_denominator=6),
        min_size=3,
        max_size=3,
    ),
)
def test_psd_invariant_under_positive_diagonal_congruence(vals, diag):
    rows = [[None] * 3 for _ in range(3)]
    k = 0
    for i in range(3):
        for j in range(i, 3):
            rows[i][j] = rows[j][i] = vals[k]
            k += 1
    m = SymMatrix(tuple(tuple(r) for r in rows))
    scaled = SymMatrix(
        tuple(
            tuple(diag[i] * rows[i][j] * diag[j] for j in range(3)) for i in range(3)
        )
    )
    assert psd_test(m).is_psd == psd_test(scaled).is_psd


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.fractions(min_value=-3, max_value=3, max_denominator=10),
        min_size=4,
        max_size=4,
    )
)
def test_gram_matrices_are_psd(v):
    m = SymMatrix(tuple(tuple(a * b for b in v) for a in v))
    assert psd_test(m).is_psd


# -- Linear solving ----------------------------------------------------------


def test_vandermonde_three_atoms():
    # gamma_2 = (1/9 + 1/4 + 1)/3 = 49/108 from the defining density formula
    solution = vandermonde_solve(
        (F(1, 3), F(1, 2), 1), (1, F(11, 18), F(49, 108))
    )
    assert solution == [F(1, 3), F(1, 3), F(1, 3)]


def test_vandermonde_single_node():
    assert vandermonde_solve((1,), (1,)) == [1]


def test_vandermonde_two_nodes():
    assert vandermonde_solve((0, 1), (1, F(3, 4))) == [F(1, 4), F(3, 4)]


def test_vandermonde_duplicate_node():
    with pytest.raises(DuplicateNode):
        vandermonde_solve((F(1, 2), F(1, 2)), (1, 1))


def test_vandermonde_duplicate_node_is_named():
    with pytest.raises(DuplicateNode, match=r"^duplicate interpolation node -2/3$"):
        vandermonde_solve((F(1, 3), F(-2, 3), 1, F(-2, 3)), (1, 1, 1, 1))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.fractions(min_value=-4, max_value=4, max_denominator=8),
        min_size=3,
        max_size=3,
        unique=True,
    ),
    st.lists(
        st.fractions(min_value=-4, max_value=4, max_denominator=8),
        min_size=3,
        max_size=3,
    ),
)
def test_vandermonde_round_trip(nodes, rhs):
    x = vandermonde_solve(nodes, rhs)
    for i in range(3):
        assert sum(nodes[j] ** i * x[j] for j in range(3)) == rhs[i]


def test_solve_linear_singular_returns_none():
    assert solve_linear([[1, 2], [2, 4]], [1, 2]) is None


# -- Polynomials -------------------------------------------------------------


def test_poly_eval_examples():
    assert poly_eval(P(1, -1), 1) == 0
    assert poly_eval(P(0, 0, 1), F(1, 2)) == F(1, 4)
    assert poly_eval(P(0, 1, -1), F(1, 3)) == F(2, 9)


def test_poly_arithmetic():
    p = P(1, 1)
    assert (p * p).coefficients == (1, 2, 1)
    assert (p**3).coefficients == (1, 3, 3, 1)
    assert (p - p).is_zero()
    assert p.derivative().coefficients == (1,)


def test_poly_trailing_zeros_trimmed():
    assert P(1, 2, 0, 0).degree == 1


def test_poly_gcd_and_square_free():
    p = P(-1, 1) ** 2 * P(-2, 1)  # (x-1)^2 (x-2)
    g = poly_gcd(p, p.derivative())
    assert g.coefficients == (-1, 1)  # x - 1, monic
    assert square_free_part(p).coefficients == (P(-1, 1) * P(-2, 1)).coefficients


def test_rational_roots_with_multiplicity():
    p = P(F(-1, 6), 1, F(-11, 6), 1)  # (x-1/3)(x-1/2)(x-1)
    assert rational_roots(p) == [F(1, 3), F(1, 2), 1]
    q = P(-1, 1) ** 2
    assert rational_roots(q) == [1, 1]


def test_rational_roots_past_a_trillion():
    # cleared coefficients near 10^12, with an irrational factor x^2 - 2
    n = 963761198400
    p = P(F(-1, n), 1) * P(F(-7, 11), 1) ** 2 * P(-2, 0, 1)
    assert rational_roots(p) == [F(1, n), F(7, 11), F(7, 11)]
    # and near 10^30, with x^2 - 3
    big = 10**30
    q = P(F(-3, big), 1) * P(big + 1, 1) * P(F(-big - 1, big), 1) ** 2 * P(-3, 0, 1)
    assert rational_roots(q) == [-big - 1, F(3, big), F(big + 1, big), F(big + 1, big)]


def test_rational_roots_without_rational_roots():
    assert rational_roots(P(-2, 0, 1) * P(1, 0, 1)) == []
    assert rational_roots(P(F(5, 7))) == []


@pytest.mark.parametrize("seed", range(3))
def test_rational_roots_recovers_known_roots(seed):
    rng = random.Random(seed)
    for _ in range(25):
        expected = []
        p = P(F(rng.randint(1, 9), rng.randint(1, 9)))
        for _ in range(rng.randint(1, 4)):
            root = F(rng.randint(-1000, 1000), rng.randint(1, 1000))
            multiplicity = rng.randint(1, 3)
            expected += [root] * multiplicity
            p = p * P(-root, 1) ** multiplicity
        if rng.random() < 0.5:
            p = p * P(-rng.choice([2, 3, 5]), 0, 1)  # irrational pair
        assert rational_roots(p) == sorted(expected)


def test_isolate_real_roots_irrational():
    p = P(-2, 0, 1)  # x^2 - 2
    intervals = isolate_real_roots(p)
    assert len(intervals) == 2
    for a, b in intervals:
        assert p(a) * p(b) < 0


def test_isolate_real_roots_bounded_range():
    p = P(-2, 0, 1) * P(F(-1, 4), 1)
    intervals = isolate_real_roots(p, 0, 2)
    # roots in [0, 2]: 1/4 and sqrt(2)
    assert len(intervals) == 2


def test_poly_nonneg_on_interval():
    assert poly_nonneg_on(P(0, 1, -1), 0, 1)  # r(1-r)
    assert not poly_nonneg_on(P(F(-1, 2), 1), 0, 1)  # r - 1/2 changes sign
    assert poly_nonneg_on(P(F(1, 4), -1, 1), 0, 1)  # (r - 1/2)^2 touches zero
    assert not poly_nonneg_on(P(0, -1), 0, 1)  # -r
    assert poly_nonneg_on(P(0, 0, 1, -1), 0, 1)  # r^2(1-r)
    assert poly_nonneg_on(P(5), 0, 1)
    assert not poly_nonneg_on(P(-5), 0, 1)
    assert poly_nonneg_on(RationalPolynomial(()), 0, 1)
    # negative between an interior root and a root at hi, and the mirror image
    # x -> 1 - x with the root at lo: q(19/20) = -19/8000
    q = P(0, 1) * P(F(-9, 10), 1) * P(-1, 1)
    assert q(F(19, 20)) == F(-19, 8000)
    assert not poly_nonneg_on(q, 0, 1)
    mirror = P(1, -1) * P(F(-1, 10), 1) * P(0, 1)
    assert mirror(F(1, 20)) == F(-19, 8000)
    assert not poly_nonneg_on(mirror, 0, 1)
    # a one-point interval tests that point only
    assert poly_nonneg_on(P(F(-1, 2), 1), F(1, 2), F(1, 2))
    assert poly_nonneg_on(P(-1, 1), 2, 2)
    assert not poly_nonneg_on(P(-1, 1), 0, 0)
    with pytest.raises(ValueError):
        poly_nonneg_on(P(1), 1, 0)


def _product_with_known_roots(rng, lo, hi):
    """c * prod (x - r)^m * (x^2 + s) with rational roots, some at lo or hi."""
    roots = {}
    for _ in range(rng.randint(0, 4)):
        r = rng.choice([lo, hi, F(rng.randint(-6, 18), rng.randint(1, 9))])
        roots[r] = roots.get(r, 0) + rng.randint(1, 3)
    p = P(F(rng.choice([-3, -1, 1, 2]), rng.randint(1, 4)))
    for r, m in roots.items():
        p = p * P(-r, 1) ** m
    if rng.random() < 0.5:
        p = p * P(F(rng.randint(1, 9), rng.randint(1, 9)), 0, 1)
    return p, sorted(r for r in roots if lo < r < hi)


@pytest.mark.parametrize(
    "lo, hi",
    [(F(0), F(1)), (F(1, 2), F(2)), (F(-1, 4), F(3, 4))],
    ids=["0-1", "1/2-2", "-1/4-3/4"],
)
def test_poly_nonneg_on_matches_known_roots(lo, hi):
    # p keeps one sign between consecutive known roots, so its sign at lo, hi
    # and at the midpoints of the gaps is the exact answer
    rng = random.Random(f"{lo}:{hi}")
    for _ in range(300):
        p, inner = _product_with_known_roots(rng, lo, hi)
        gaps = zip([lo, *inner], [*inner, hi])
        truth = all(p(x) >= 0 for x in [lo, hi, *((a + b) / 2 for a, b in gaps)])
        assert poly_nonneg_on(p, lo, hi) == truth, (p.coefficients, lo, hi)


def test_poly_nonneg_root_at_endpoint():
    assert poly_nonneg_on(P(0, 1), 0, 1)  # r, root at left endpoint
    assert poly_nonneg_on(P(1, -1), 0, 1)  # 1 - r, root at right endpoint
    assert not poly_nonneg_on(P(0, -1) * P(F(-1, 2), 1), 0, 1)  # -r(r-1/2)<0 near 1


# -- LDL^T decider: zero pivots and the deferred certificate -----------------


def _gram(rng, n, rank):
    vectors = [
        [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
        for _ in range(rank)
    ]
    return SymMatrix(
        tuple(
            tuple(sum(v[i] * v[j] for v in vectors) for j in range(n))
            for i in range(n)
        )
    )


def _sparse_symmetric(rng, n):
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if rng.random() < 0.35:
                value = F(rng.randint(-4, 4), rng.randint(1, 3))
                rows[i][j] = rows[j][i] = value
    return SymMatrix(tuple(tuple(r) for r in rows))


# zero diagonal entries, with and without a nonzero row; the last two reach
# an all-zero complement diagonal only after a pivot
ZERO_DIAGONAL = [
    ((0,),),
    ((0, 1), (1, 0)),
    ((0, 0), (0, 1)),
    ((0, 0), (0, -1)),
    ((2, 0, 1), (0, 0, 0), (1, 0, 1)),
    ((0, 0, 0), (0, 0, 2), (0, 2, 3)),
    ((1, 1, 1), (1, 1, 0), (1, 0, 1)),
    ((1, 1, 2), (1, 1, 2), (2, 2, 4)),
]


def _edge_matrices(seed):
    rng = random.Random(seed)
    matrices = [SymMatrix(rows) for rows in ZERO_DIAGONAL]
    for n in range(1, 7):
        matrices.extend(_gram(rng, n, rank) for rank in range(n + 1))
        matrices.extend(_sparse_symmetric(rng, n) for _ in range(6))
    return matrices


@pytest.mark.parametrize("seed", range(3))
def test_psd_matches_minors_on_singular_and_sparse(seed):
    for m in _edge_matrices(seed):
        assert psd_test(m).is_psd == psd_test_minors(m), m.entries


def test_zero_diagonal_verdicts():
    expected = [True, False, True, False, True, False, False, True]
    assert [psd_test(SymMatrix(rows)).is_psd for rows in ZERO_DIAGONAL] == expected


def _minor_sums(m):
    sums = [F(0)] * (m.order + 1)
    for mask in range(1 << m.order):
        idx = [i for i in range(m.order) if mask >> i & 1]
        sums[len(idx)] += _det_rows([[m.entries[i][j] for j in idx] for i in idx])
    return tuple(sums)


@pytest.mark.parametrize("seed", range(2))
def test_certificate_is_the_principal_minor_sums(seed):
    for m in _edge_matrices(seed):
        verdict = psd_test(m)
        # built at once only for a failing matrix
        assert callable(vars(verdict)["_certificate"]) == verdict.is_psd
        assert verdict.certificate == _minor_sums(m), m.entries
        assert isinstance(vars(verdict)["_certificate"], tuple)
        failures = [i for i, e in enumerate(verdict.certificate) if e < 0]
        assert verdict.first_failure == (failures[0] if failures else None)


def test_psd_verdict_reads_the_same_before_and_after_certificate():
    m = SymMatrix(((2, 1, 0), (1, 2, 1), (0, 1, F(3, 4))))
    read = psd_test(m)
    assert read.is_psd and read.certificate == (1, F(19, 4), 5, F(1, 4))
    assert [f.name for f in dataclasses.fields(read)] == [
        "is_psd",
        "certificate",
        "first_failure",
    ]
    assert repr(psd_test(m)) == repr(read)
    assert psd_test(m) == read and read == psd_test(m)
    assert hash(psd_test(m)) == hash(read)
    assert _jsonify(psd_test(m), None) == _jsonify(read, None) == {
        "is_psd": True,
        "certificate": ["1", "19/4", "5", "1/4"],
        "first_failure": None,
    }
