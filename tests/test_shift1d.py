import random
from fractions import Fraction as F

import pytest

from shiftlab.errors import TailExhausted, ZeroMoment
from shiftlab.exactcore import RationalPolynomial, SymMatrix, psd_test
from shiftlab.families import bergman_rank_one, flat_head_bergman
from shiftlab.measures import AtomicMeasure1D, Lebesgue01
from shiftlab.shift1d import (
    RationalWeightRule,
    Shift1D,
    agler,
    bergman,
    curto_park_measures,
    detect_recursion,
    flat_shift,
    from_measure,
    hankel_matrix,
    k_hyponormal,
    power_decompose,
    unweighted,
)

THREE_ATOMS = AtomicMeasure1D((F(1, 3), F(1, 2), 1), (F(1, 3), F(1, 3), F(1, 3)))


# -- moments and construction -------------------------------------------------


def test_bergman_moments():
    b = bergman()
    assert b.moment(3) == F(1, 4)  # (1/2)(2/3)(3/4)
    assert [b.moment(k) for k in range(6)] == [F(1, k + 1) for k in range(6)]


def test_negative_moment_count_is_rejected():
    assert bergman().moments(0) == []
    with pytest.raises(ValueError, match="count"):
        bergman().moments(-3)


@pytest.mark.parametrize("seed", range(8))
def test_rule_weight_matches_fraction_quotient(seed):
    rng = random.Random(seed)

    def poly():
        return RationalPolynomial(tuple(F(rng.randint(-7, 7), rng.randint(1, 6))
                                        for _ in range(rng.randint(0, 4))))

    num, den = poly(), poly()
    rule = RationalWeightRule(num, den, start=rng.randint(0, 3))
    for k in [*range(-2, 30), F(5, 2), F(-7, 3)]:
        if k < rule.start:
            with pytest.raises(ValueError) as err:
                rule.weight_sq(k)
            assert str(err.value) == f"rule starts at index {rule.start}, got {k}"
        elif den(k) == 0:
            with pytest.raises(ZeroDivisionError) as err:
                rule.weight_sq(k)
            assert str(err.value) == f"tail denominator vanishes at index {k}"
        else:
            value = rule.weight_sq(k)
            assert type(value) is F and value == num(k) / den(k), k


def test_rule_zero_denominator_messages_are_unchanged():
    rule = RationalWeightRule(RationalPolynomial.of(1), RationalPolynomial.of(-3, 1), start=1)
    with pytest.raises(ValueError, match=r"^rule starts at index 1, got 0$"):
        rule.weight_sq(0)
    with pytest.raises(ZeroDivisionError, match=r"^tail denominator vanishes at index 3$"):
        rule.weight_sq(3)
    with pytest.raises(ZeroDivisionError, match=r"^tail denominator vanishes at index 2$"):
        RationalWeightRule(RationalPolynomial.of(1), RationalPolynomial(())).weight_sq(2)
    assert rule.weight_sq(4) == 1
    assert rule == RationalWeightRule(RationalPolynomial.of(1), RationalPolynomial.of(-3, 1), 1)


@pytest.mark.parametrize(
    "prefix, bound, text",
    [
        (["2/3"], "2/3", None),  # a weight at the bound is within it
        (["5", "3/2"], None, None),
        (["1/2", "-1/3"], None, "squared weight at index 1 is not positive: -1/3"),
        (["0"], "1", "squared weight at index 0 is not positive: 0"),
        (["1/2", "7/10"], "2/3", "squared weight 7/10 at index 1 exceeds norm bound 2/3"),
        (["666667/1000000"], "2/3",
         "squared weight 666667/1000000 at index 0 exceeds norm bound 2/3"),
        (["333333/500000"], "2/3", None),
    ],
)
def test_weight_checks_keep_their_texts(prefix, bound, text):
    shift = Shift1D(prefix, norm_bound_sq=bound)
    if text is None:
        assert shift.weights_sq(len(prefix)) == [F(w) for w in prefix]
    else:
        with pytest.raises(ValueError) as err:
            shift.weights_sq(len(prefix))
        assert str(err.value) == text


def test_unweighted_moments():
    u = unweighted()
    assert all(u.moment(k) == 1 for k in range(10))


def test_agler_weights():
    a4 = agler(4)
    assert a4.weights_sq(3) == [F(1, 4), F(2, 5), F(3, 6)]


def test_shift_from_three_atom_measure():
    shift = from_measure(THREE_ATOMS)
    assert shift.moment(2) == F(49, 108)
    for k in range(9):
        assert shift.moment(k) == THREE_ATOMS.moment(k)


def test_from_measure_lebesgue_gives_bergman_weights():
    shift = from_measure(Lebesgue01())
    for k in range(8):
        assert shift.weight_sq(k) == F(k + 1, k + 2)


def test_from_measure_point_mass_at_one_is_isometry():
    shift = from_measure(AtomicMeasure1D((1,), (1,)))
    assert shift.weights_sq(6) == [1] * 6


def test_from_measure_flat_shift():
    sigma = AtomicMeasure1D((0, 1), (F(3, 4), F(1, 4)))
    shift = from_measure(sigma)
    assert shift.weights_sq(4) == [F(1, 4), 1, 1, 1]


def test_from_measure_rejects_point_mass_at_zero():
    with pytest.raises(ZeroMoment):
        from_measure(AtomicMeasure1D((0,), (1,)))


def test_tail_exhausted():
    shift = Shift1D((F(1, 2), F(2, 3)))
    assert shift.moment(2) == F(1, 3)
    with pytest.raises(TailExhausted):
        shift.moment(3)


# -- k-hyponormality ----------------------------------------------------------


def test_unweighted_is_k_hyponormal():
    u = unweighted()
    for k in (1, 2, 3, 4):
        assert k_hyponormal(u, k, window=10).holds


def test_rank_one_family_hyponormality_boundaries():
    # exact parameter thresholds for k = 1, 2, 3
    for k, boundary in ((1, F(2, 3)), (2, F(9, 16)), (3, F(8, 15))):
        at = k_hyponormal(bergman_rank_one(boundary), k, window=20)
        above = k_hyponormal(bergman_rank_one(boundary + F(1, 100)), k, window=20)
        assert at.holds, (k, boundary)
        assert not above.holds, (k, boundary)
        assert above.certificate is not None


def test_k_hyponormality_monotone_in_k():
    # failure at k persists at k + 1
    shift = bergman_rank_one(F(3, 5))  # above the k = 2 threshold 9/16
    assert k_hyponormal(shift, 1, window=15).holds
    assert not k_hyponormal(shift, 2, window=15).holds
    assert not k_hyponormal(shift, 3, window=15).holds


def test_hankel_matrix_rejects_a_negative_base():
    # moments 1, 1/2, 1/3 over the denominator 6
    with pytest.raises(ValueError, match="base must be >= 0, got -1"):
        hankel_matrix([6, 3, 2], 1, -1, den=6)
    assert hankel_matrix([6, 3, 2], 1, 0, den=6).entries == ((1, F(1, 2)), (F(1, 2), F(1, 3)))


@pytest.mark.parametrize("x", [F(1, 2), F(9, 16), F(9, 16) + F(1, 100), F(3, 5), F(3, 4)])
def test_integer_hankel_route_matches_the_fraction_route(x):
    # k_hyponormal scales the moments once and slices integers; each verdict,
    # first failure and certificate equals the one of the Fraction matrices
    moments = bergman_rank_one(x).moments(20)
    for k in (1, 2, 3):
        verdict = k_hyponormal(bergman_rank_one(x), k, window=12)
        hankels = (SymMatrix(tuple(tuple(moments[u + i + j] for j in range(k + 1))
                                   for i in range(k + 1))) for u in range(13))
        expected = next(
            ((u, v) for u, v in enumerate(map(psd_test, hankels)) if not v.is_psd), (None, None)
        )
        assert (verdict.first_failure, verdict.certificate) == expected


# -- recursion detection ------------------------------------------------------


def test_detect_recursion_three_atoms():
    moments = [THREE_ATOMS.moment(k) for k in range(7)]
    result = detect_recursion(moments, 3)
    assert result.found and result.order == 3
    assert result.generating_poly.coefficients == (F(-1, 6), 1, F(-11, 6), 1)
    assert result.atoms == (
        (F(1, 3), F(1, 3)),
        (F(1, 2), F(1, 3)),
        (1, F(1, 3)),
    )


def test_detect_recursion_point_mass():
    result = detect_recursion([1] * 7, 3)
    assert result.found and result.order == 1
    assert result.generating_poly.coefficients == (-1, 1)
    assert result.atoms == ((1, 1),)


def test_detect_recursion_point_mass_at_zero():
    result = detect_recursion([1, 0, 0, 0, 0], 2)
    assert result.found and result.order == 1
    assert result.generating_poly.coefficients == (0, 1)
    assert result.atoms == ((0, 1),)


@pytest.mark.parametrize(
    "atoms",
    [
        (F(1, 10**13), F(1, 2)),
        (F(1, 73513440), F(2, 73513440), F(1, 2)),
    ],
)
def test_detect_recursion_atoms_with_large_denominators(atoms):
    densities = tuple(F(1, len(atoms)) for _ in atoms)
    sigma = AtomicMeasure1D(atoms, densities)
    moments = [sigma.moment(k) for k in range(2 * len(atoms) + 1)]
    result = detect_recursion(moments, 5)
    assert result.found and result.order == len(atoms)
    assert result.atoms == tuple(zip(atoms, densities))
    assert result.root_intervals is None


def test_detect_recursion_bergman_has_none():
    moments = [F(1, k + 1) for k in range(11)]
    assert not detect_recursion(moments, 5).found


def test_detect_recursion_requires_unit_mass():
    with pytest.raises(ValueError):
        detect_recursion([2, 1], 1)


@pytest.mark.parametrize("max_order", [0, -1])
def test_detect_recursion_requires_an_order_to_search(max_order):
    with pytest.raises(ValueError, match="max_order"):
        detect_recursion([1, F(1, 2), F(1, 3), F(1, 4)], max_order)


def test_detect_recursion_irrational_atoms_reported_as_intervals():
    # atoms 1/2 +- 1/sqrt(8): gamma_k = ((1/2+h)^k + (1/2-h)^k)/2, h^2 = 1/8
    # recursion: g(s) = s^2 - s + 1/8 has irrational roots
    h2 = F(1, 8)
    half = F(1, 2)
    moments = [F(1), half]
    for _ in range(6):
        moments.append(moments[-1] - (half * half - h2) * moments[-2])
    result = detect_recursion(moments, 3)
    assert result.found and result.order == 2
    assert result.atoms is None
    assert len(result.root_intervals) == 2


# -- powers and their measures -------------------------------------------------


def test_power_decompose_bergman():
    comp = power_decompose(bergman(), 2, window=3)
    assert comp[0].weights_sq(3) == [F(1, 3), F(3, 5), F(5, 7)]
    assert comp[1].weights_sq(3) == [F(1, 2), F(2, 3), F(3, 4)]


def test_power_decompose_unweighted():
    for part in power_decompose(unweighted(), 3, window=4):
        assert part.weights_sq(4) == [1] * 4


def test_power_decompose_flat():
    comp = power_decompose(flat_shift(F(1, 4)), 2, window=3)
    assert comp[0].weights_sq(3) == [F(1, 4), 1, 1]
    assert comp[1].weights_sq(3) == [1, 1, 1]


def test_power_decompose_moment_identity():
    shift = from_measure(THREE_ATOMS)
    m = 3
    comp = power_decompose(shift, m, window=7)
    for i in range(m):
        for k in range(7):
            assert comp[i].moment(k) == shift.moment(k * m + i) / shift.moment(i)


def test_curto_park_three_atoms():
    sigma0, sigma1 = curto_park_measures(THREE_ATOMS, 2)
    assert sigma0.atoms == (F(1, 9), F(1, 4), 1)
    assert sigma0.densities == (F(1, 3), F(1, 3), F(1, 3))
    assert sigma1.atoms == (F(1, 9), F(1, 4), 1)
    assert sigma1.densities == (F(2, 11), F(3, 11), F(6, 11))


def test_curto_park_point_mass():
    for i, nu in enumerate(curto_park_measures(AtomicMeasure1D((1,), (1,)), 3)):
        assert nu == AtomicMeasure1D((1,), (1,))


def test_curto_park_matches_power_components():
    # the component measures reproduce the component moments exactly
    shift = from_measure(THREE_ATOMS)
    for m in (2, 3):
        comps = power_decompose(shift, m, window=11)
        nus = curto_park_measures(THREE_ATOMS, m)
        for i in range(m):
            for k in range(11):
                assert comps[i].moment(k) == nus[i].moment(k)


def support_power_map_check(sigma: AtomicMeasure1D, m: int) -> bool:
    """Verify the supports of the component measures.

    Each nonzero atom r of sigma must appear as r^m in every component's
    support; the atom 0 survives only in component 0.
    """
    measures = curto_park_measures(sigma, m)
    powered = {a**m for a in sigma.atoms if a != 0}
    for i, nu in enumerate(measures):
        expected = set(powered)
        if i == 0 and F(0) in sigma.atoms:
            expected.add(F(0))
        if set(nu.atoms) != expected:
            return False
    return True


def test_support_power_map():
    assert support_power_map_check(THREE_ATOMS, 3)
    assert support_power_map_check(AtomicMeasure1D((0, 1), (F(3, 4), F(1, 4))), 2)
    assert support_power_map_check(AtomicMeasure1D((F(1, 2),), (1,)), 2)


# -- example families ----------------------------------------------------------


def test_rank_one_family_weights():
    shift = bergman_rank_one(F(9, 16))
    assert shift.weights_sq(4) == [F(9, 16), F(2, 3), F(3, 4), F(4, 5)]


def test_flat_head_family_weights():
    shift = flat_head_bergman(F(3, 5))
    assert shift.weights_sq(7) == [
        F(1, 2), F(1, 2), F(1, 2), F(3, 5), F(2, 3), F(3, 4), F(4, 5),
    ]
