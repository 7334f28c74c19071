"""Cross-route property checks: seeded random suites plus structural
invariants that tie independent computation paths together."""

from fractions import Fraction as F
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftlab.descriptors import shift2d_from_descriptor
from shiftlab.embed import classical_embed
from shiftlab.exactcore import SymMatrix, psd_test
from shiftlab.families import bergman_rank_one, flat_head_bergman
from shiftlab.fixtures import (
    hyponormality_agreement_suite,
    marginal_coherence_suite,
    psd_cross_check_suite,
    spherical_route_agreement_suite,
)
from shiftlab.measures import AtomicMeasure1D
from shiftlab.shift1d import detect_recursion, from_measure, power_decompose
from shiftlab.shift2d import (
    Shift2D,
    helton_howe,
    k_hyponormal_2v,
    moments,
    power_components,
    sie_bergman,
    six_point,
)

CORPUS = [
    AtomicMeasure1D((F(1, 3), F(1, 2), 1), (F(1, 3), F(1, 3), F(1, 3))),
    AtomicMeasure1D((F(1, 4), F(3, 4)), (F(2, 5), F(3, 5))),
    AtomicMeasure1D((0, F(1, 2), F(7, 8)), (F(1, 2), F(1, 4), F(1, 4))),
    AtomicMeasure1D(
        (F(1, 5), F(2, 5), F(3, 5), F(4, 5)), (F(1, 4), F(1, 4), F(1, 4), F(1, 4))
    ),
]


# -- seeded random suites ------------------------------------------------------


def test_hyponormality_agreement_suite():
    result = hyponormality_agreement_suite(seed=0, count=20)
    assert result.passed, result.detail


def test_spherical_route_agreement_suite():
    result = spherical_route_agreement_suite(seed=0, count=20)
    assert result.passed, result.detail


def test_psd_cross_check_suite():
    result = psd_cross_check_suite(seed=0, count=50)
    assert result.passed, result.detail


def test_marginal_coherence_suite():
    result = marginal_coherence_suite(seed=0, count=20)
    assert result.passed, result.detail


# -- recursion transfer across powers -------------------------------------------


@pytest.mark.parametrize("m", [2, 3])
def test_recursion_transfers_from_power_components(m):
    # if every power summand admits a finite recursion with recovered atoms,
    # so does the original moment sequence
    for sigma in CORPUS:
        order = len(sigma.atoms)
        shift = from_measure(sigma)
        components = power_decompose(shift, m, window=2 * order + 2)
        all_recursive = True
        for part in components:
            found = detect_recursion(part.moments(2 * order + 1), order)
            all_recursive = all_recursive and found.found and found.atoms is not None
        assert all_recursive
        original = detect_recursion(shift.moments(2 * order + 1), order)
        assert original.found and original.atoms is not None


# -- six-point test vs the k = 1 moment-matrix test ---------------------------------


def _generator(alpha_num, beta_num, shared):
    """alpha = f(k1)/(k1 + k2 + c), beta = g(k2)/(k1 + k2 + c): a commuting rule."""
    den = [[shared, "1"], ["1"]]
    return {"kind": "generator", "alpha_num": alpha_num, "alpha_den": den,
            "beta_num": beta_num, "beta_den": den}


FLAT_HEAD_X = [F(1, 2), F(11, 20), F(3, 5), F(2, 3), F(3, 4)]
SIX_POINT_SHIFTS = {
    **{f"flat_head {x}": partial(classical_embed, flat_head_bergman(x), 12)
       for x in FLAT_HEAD_X},
    "sie_bergman": partial(sie_bergman, 12),
    "helton_howe": partial(helton_howe, 12),
    # alpha_sq = 4^k1, beta_sq = 4^k2
    "steep": lambda: Shift2D(
        [[4**i for _ in range(12)] for i in range(12)],
        [[4**j for j in range(12)] for _ in range(12)],
    ),
    "generator (1+k1, 2+k2; 4)": partial(
        shift2d_from_descriptor, _generator([["1"], ["1"]], [["2", "1"]], "4"), window=12
    ),
    "generator (3+k1^2, 1+2k2; 1)": partial(
        shift2d_from_descriptor, _generator([["3"], ["0"], ["1"]], [["1", "2"]], "1"),
        window=12,
    ),
}
# every component of the (2,3) power of these embeddings
POWER_BASES = {
    **{f"flat_head {x}": flat_head_bergman(x) for x in FLAT_HEAD_X},
    **{f"rank_one {x}": bergman_rank_one(x) for x in (F(1, 2), F(2, 3), F(3, 4))},
}


def _six_point_by_weights(shift, window):
    """(holds, first_failure) of the six-point test read off the weights.

    At u the self-commutator matrix has diagonal a11, a22 (the weight
    increments) and off-diagonal sqrt(X) - sqrt(Y), with
    X = alpha_sq(u+e2) beta_sq(u+e1) and Y = alpha_sq(u) beta_sq(u). Its
    determinant a11 a22 - (sqrt(X) - sqrt(Y))^2 is nonnegative iff
    R = X + Y - a11 a22 satisfies R <= 0 or 4XY >= R^2.
    """
    a, b = shift.alpha_sq, shift.beta_sq
    for total in range(window + 1):
        for k1 in range(total + 1):
            k2 = total - k1
            a11 = a(k1 + 1, k2) - a(k1, k2)
            a22 = b(k1, k2 + 1) - b(k1, k2)
            if a11 < 0 or a22 < 0:
                return False, (k1, k2)
            x = a(k1, k2 + 1) * b(k1 + 1, k2)
            y = a(k1, k2) * b(k1, k2)
            r = x + y - a11 * a22
            if r > 0 and 4 * x * y < r * r:
                return False, (k1, k2)
    return True, None


def _same_six_point_and_k1_verdicts(shift, window, view=None):
    """The six-point test on the weights, on the shift, on its moment table
    (and on ``view``, a table of the same moments) and the k = 1 test by
    LDL^T agree on the verdict and on the first failing base point."""
    expected = _six_point_by_weights(shift, window)
    tables = [moments(shift, window + 2)] + ([] if view is None else [view])
    for target in [shift, *tables]:
        six = six_point(target, window)
        assert (six.holds, six.first_failure) == expected
    exact = k_hyponormal_2v(shift, 1, window)
    assert (exact.holds, exact.first_failure) == expected


@pytest.mark.parametrize(
    "x",
    [
        F(1, 2),
        F(3, 5),
        F(2, 3),
        F(2, 3) + F(1, 100),
        F(3, 4),
        # the rank-one boundary and its closest neighbours
        F(2, 3) - F(1, 10**9),
        F(2, 3) + F(1, 10**9),
    ],
)
def test_six_point_agrees_with_exact_k1(x):
    _same_six_point_and_k1_verdicts(classical_embed(bergman_rank_one(x), 12), 8)


@pytest.mark.parametrize("name", sorted(SIX_POINT_SHIFTS))
def test_six_point_agrees_with_exact_k1_on_more_shifts(name):
    _same_six_point_and_k1_verdicts(SIX_POINT_SHIFTS[name](), 8)


@pytest.mark.parametrize("name", sorted(POWER_BASES))
def test_six_point_agrees_with_exact_k1_on_power_components(name):
    # each component as a restricted grid and as a sublattice view of the
    # embedding's moment table
    embedding = classical_embed(POWER_BASES[name], 40)
    table = moments(embedding, 39)
    parts = power_components(embedding, 2, 3)
    assert len(parts) == 6
    for (p, q), part in zip([(p, q) for p in range(2) for q in range(3)], parts):
        _same_six_point_and_k1_verdicts(part, 8, view=table.sublattice(2, 3, p, q))


def test_six_point_cross_check_meets_failures_past_the_origin():
    # the cases above are not all passes, nor all failures at the origin
    shifts = [make() for make in SIX_POINT_SHIFTS.values()]
    shifts += power_components(classical_embed(flat_head_bergman(F(3, 4)), 40), 2, 3)
    failures = [six_point(s, 8).first_failure for s in shifts]
    assert None in failures and (0, 0) in failures
    assert {(0, 3), (0, 1), (1, 0)} <= set(failures)


def test_six_point_matrix_is_the_scaled_k1_schur_complement():
    # at each base point u, with g = gamma: D S D equals the six-point matrix,
    # S the Schur complement of g(u) in the k = 1 moment matrix and
    # D = diag(g(u+e1), g(u+e2))^(-1/2); the off-diagonal sqrt(X) - sqrt(Y)
    # is compared through its square and sign (sqrt(XY) is alpha_sq(u) beta_sq(u+e1))
    for shift in (sie_bergman(10), classical_embed(flat_head_bergman(F(3, 4)), 10),
                  SIX_POINT_SHIFTS["generator (3+k1^2, 1+2k2; 1)"]()):
        table = moments(shift, 8)
        a, b = shift.alpha_sq, shift.beta_sq
        for u1, u2 in [(u1, total - u1) for total in range(6) for u1 in range(total + 1)]:
            def g(i, j):
                return table.at(u1 + i, u2 + j)

            s11 = g(2, 0) - g(1, 0) ** 2 / g(0, 0)
            s22 = g(0, 2) - g(0, 1) ** 2 / g(0, 0)
            s12 = g(1, 1) - g(1, 0) * g(0, 1) / g(0, 0)
            x = a(u1, u2 + 1) * b(u1 + 1, u2)
            y = a(u1, u2) * b(u1, u2)
            assert s11 / g(1, 0) == a(u1 + 1, u2) - a(u1, u2)
            assert s22 / g(0, 1) == b(u1, u2 + 1) - b(u1, u2)
            assert s12 ** 2 / (g(1, 0) * g(0, 1)) == x + y - 2 * a(u1, u2) * b(u1 + 1, u2)
            assert (s12 > 0) == (x > y) and (s12 < 0) == (x < y)


# -- hypothesis: measure-backed shifts reproduce their moments ---------------------


@st.composite
def atomic_measures(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    atoms = draw(
        st.lists(
            st.fractions(min_value=F(1, 16), max_value=1, max_denominator=16),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    weights = draw(
        st.lists(st.integers(min_value=1, max_value=8), min_size=n, max_size=n)
    )
    total = sum(weights)
    return AtomicMeasure1D(
        tuple(sorted(atoms)), tuple(F(w, total) for w in weights)
    )


@settings(max_examples=40, deadline=None)
@given(atomic_measures())
def test_measure_backed_shift_reproduces_moments(sigma):
    shift = from_measure(sigma)
    for k in range(9):
        assert shift.moment(k) == sigma.moment(k)


@settings(max_examples=25, deadline=None)
@given(atomic_measures())
def test_measure_moments_have_psd_hankels(sigma):
    moments = [sigma.moment(k) for k in range(7)]
    for order in (1, 2):
        hankel = SymMatrix(
            tuple(
                tuple(moments[i + j] for j in range(order + 1))
                for i in range(order + 1)
            )
        )
        assert psd_test(hankel).is_psd
