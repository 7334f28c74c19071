"""Cross-route property checks: seeded random suites plus structural
invariants that tie independent computation paths together."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftlab.embed import classical_embed
from shiftlab.exactcore import SymMatrix, psd_test
from shiftlab.families import bergman_rank_one
from shiftlab.fixtures import (
    hyponormality_agreement_suite,
    marginal_coherence_suite,
    psd_cross_check_suite,
    spherical_route_agreement_suite,
)
from shiftlab.measures import AtomicMeasure1D
from shiftlab.shift1d import detect_recursion, from_measure, power_decompose
from shiftlab.shift2d import k_hyponormal_2v, six_point

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
    embedding = classical_embed(bergman_rank_one(x), 12)
    assert (
        six_point(embedding, 8).holds == k_hyponormal_2v(embedding, 1, 8).holds
    )


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
