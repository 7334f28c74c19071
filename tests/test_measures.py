import math
import random
from fractions import Fraction as F

import pytest

from shiftlab.descriptors import measure2d_from_descriptor
from shiftlab.errors import NegativeValue, UnsupportedBase, ZeroMass
from shiftlab.exactcore import RationalPolynomial, SymMatrix, psd_test
from shiftlab.measures import (
    ArclengthSegment01,
    AtomicMeasure1D,
    AtomicMeasure2D,
    BetaFamily,
    Lebesgue01,
    PrefixTable,
    Pushforward2D,
    marginal,
    pushforward_atomic,
    pushforward_moments,
    row_measure,
)

P = RationalPolynomial.of
R = P(0, 1)  # the polynomial r

THREE_ATOMS = AtomicMeasure1D((F(1, 3), F(1, 2), 1), (F(1, 3), F(1, 3), F(1, 3)))


def factorials(*nums):
    out = 1
    for n in nums:
        out *= math.factorial(n)
    return out


# -- atomic measures ---------------------------------------------------------


def test_atomic_1d_validation():
    with pytest.raises(ValueError):
        AtomicMeasure1D((1, F(1, 2)), (F(1, 2), F(1, 2)))  # not ascending
    with pytest.raises(ValueError):
        AtomicMeasure1D((F(1, 2),), (F(1, 2),))  # mass != 1
    with pytest.raises(ValueError):
        AtomicMeasure1D((-1, 1), (F(1, 2), F(1, 2)))  # negative atom
    with pytest.raises(ValueError):
        AtomicMeasure1D((0, 1), (0, 1))  # zero density


def test_atomic_from_pairs_merges():
    mu = AtomicMeasure1D.from_pairs([(1, F(1, 2)), (0, F(1, 4)), (1, F(1, 4))])
    assert mu.atoms == (0, 1)
    assert mu.densities == (F(1, 4), F(3, 4))


def test_three_atom_moments():
    # gamma_2 = (1/9 + 1/4 + 1)/3 computed directly
    assert THREE_ATOMS.moment(0) == 1
    assert THREE_ATOMS.moment(1) == F(11, 18)
    assert THREE_ATOMS.moment(2) == F(49, 108)


def test_atomic_2d_sorted_and_validated():
    mu = AtomicMeasure2D(((1, 0), (0, 1)), (F(1, 2), F(1, 2)))
    assert mu.atoms == ((0, 1), (1, 0))
    with pytest.raises(ValueError):
        AtomicMeasure2D(((0, 0), (0, 0)), (F(1, 2), F(1, 2)))


# -- named oracles -----------------------------------------------------------


def test_lebesgue_moments():
    leb = Lebesgue01()
    assert [leb.moment(k) for k in range(5)] == [1, F(1, 2), F(1, 3), F(1, 4), F(1, 5)]


@pytest.mark.parametrize("j", [2, 3, 4, 6])
def test_beta_family_moments(j):
    nu = BetaFamily(j)
    assert nu.moment(0) == 1
    for k in range(8):
        assert nu.moment(k) == F(factorials(k, j - 1), factorials(k + j - 1))
    if j == 2:
        assert nu.moment(5) == F(1, 6)  # j = 2 is Lebesgue measure


def test_arclength_moments():
    arc = ArclengthSegment01()
    assert arc.moment(0, 0) == 1
    assert arc.moment(2, 1) == F(1, 12)
    for k1 in range(5):
        for k2 in range(5):
            assert arc.moment(k1, k2) == F(
                factorials(k1, k2), factorials(k1 + k2 + 1)
            )


def test_prefix_table_bounds():
    table = PrefixTable((1, F(1, 2), F(1, 3)))
    assert table.moment(2) == F(1, 3)
    with pytest.raises(IndexError):
        table.moment(3)
    with pytest.raises(ValueError):
        PrefixTable((F(1, 2),))


# -- pushforwards ------------------------------------------------------------


def test_pushforward_atomic_three_atoms():
    mu = pushforward_atomic(THREE_ATOMS, R, P(1, -1))
    assert mu.atoms == ((F(1, 3), F(2, 3)), (F(1, 2), F(1, 2)), (1, 0))
    assert mu.densities == (F(1, 3), F(1, 3), F(1, 3))


def test_pushforward_atomic_point_masses():
    delta1 = AtomicMeasure1D((1,), (1,))
    assert pushforward_atomic(delta1, R, R).atoms == ((1, 1),)
    half = AtomicMeasure1D((F(1, 2),), (1,))
    mu = pushforward_atomic(half, P(0, 0, 1), P(0, 0, 0, 1))
    assert mu.atoms == ((F(1, 4), F(1, 8)),)


def test_pushforward_atomic_rejects_negative_values():
    with pytest.raises(NegativeValue):
        pushforward_atomic(THREE_ATOMS, P(F(-1, 2), 1), R)


def test_pushforward_moments_lebesgue_pair():
    mu = pushforward_moments(Lebesgue01(), R, P(1, -1))
    assert mu.moment(2, 1) == F(1, 12)  # integral of r^2 (1-r) = 1/3 - 1/4
    for k1 in range(6):
        for k2 in range(6):
            assert mu.moment(k1, k2) == ArclengthSegment01().moment(k1, k2)


def test_pushforward_moments_diagonal_pair():
    mu = pushforward_moments(Lebesgue01(), R, R)
    for k1 in range(5):
        for k2 in range(5):
            assert mu.moment(k1, k2) == F(1, k1 + k2 + 1)


def test_pushforward_moments_parabolic_pair():
    # p = r, q = r(1-r): moments equal both the alternating binomial sum and
    # the closed factorial form
    mu = pushforward_moments(Lebesgue01(), R, P(0, 1, -1))
    for k in range(6):
        for ell in range(6):
            binomial_sum = sum(
                F((-1) ** i * math.comb(ell, i), k + ell + 1 + i)
                for i in range(ell + 1)
            )
            assert mu.moment(k, ell) == binomial_sum
            assert mu.moment(k, ell) == F(
                factorials(k + ell, ell), factorials(k + 2 * ell + 1)
            )


def test_pushforward_agrees_with_atomic_route():
    p, q = P(0, 1, 1), P(1, 0, -1)  # r + r^2, 1 - r^2 (nonneg on the atoms)
    sigma = AtomicMeasure1D((0, F(1, 4), F(1, 2)), (F(1, 2), F(1, 4), F(1, 4)))
    atomic = pushforward_atomic(sigma, p, q)
    oracle = pushforward_moments(sigma, p, q)
    for k1 in range(7):
        for k2 in range(7):
            assert atomic.moment(k1, k2) == oracle.moment(k1, k2)


def reference_moment(base, p, q, k1, k2):
    """The Fraction expansion: multiply out p^k1 q^k2, then sum each nonzero
    coefficient against its base moment."""
    product = p**k1 * q**k2
    return sum(
        (c * base.moment(i) for i, c in enumerate(product.coefficients) if c), F(0)
    )


def outcome(fn, *args):
    """The value, or the type and message of the exception raised."""
    try:
        return fn(*args)
    except IndexError as exc:
        return (IndexError, str(exc))


def random_poly(rng):
    """Zero, a constant, or up to a cubic, with signed rational coefficients."""
    degree = rng.choice([-1, 0, 1, 2, 3])
    return P(*(F(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(degree + 1)))


def random_atomic(rng):
    atoms = sorted({F(rng.randint(0, 12), rng.randint(1, 6)) for _ in range(rng.randint(1, 4))})
    weights = [rng.randint(1, 5) for _ in atoms]
    return AtomicMeasure1D(tuple(atoms), tuple(F(w, sum(weights)) for w in weights))


def random_base(rng, kind):
    if kind == "lebesgue":
        return Lebesgue01()
    if kind.startswith("beta"):
        return BetaFamily(int(kind[4:]))
    if kind == "atomic":
        return random_atomic(rng)
    # prefix tables as short as one moment, so many cells run off the end
    return PrefixTable([1] + [F(rng.randint(1, 9), rng.randint(1, 9))
                              for _ in range(rng.randint(0, 10))])


BASE_KINDS = ["lebesgue", "beta2", "beta3", "beta5", "atomic", "prefix"]


@pytest.mark.parametrize("kind", BASE_KINDS)
@pytest.mark.parametrize("seed", range(6))
def test_pushforward_matches_fraction_expansion(kind, seed):
    rng = random.Random(f"{kind}-{seed}")
    base = random_base(rng, kind)
    p, q = random_poly(rng), random_poly(rng)
    cells = [(k1, k2) for k1 in range(8) for k2 in range(8)]
    rng.shuffle(cells)
    oracle = Pushforward2D(base, p, q)
    for k1, k2 in cells:
        assert outcome(oracle.moment, k1, k2) == outcome(
            reference_moment, base, p, q, k1, k2
        ), (k1, k2)
    # a second read of every cell returns the same value or raises again
    for k1, k2 in reversed(cells):
        assert outcome(oracle.moment, k1, k2) == outcome(
            reference_moment, base, p, q, k1, k2
        )


@pytest.mark.parametrize("p", [P(), P(F(-2, 3)), P(1, F(-1, 2), 3)])
def test_pushforward_short_prefix_table_raises_where_expansion_reads_past_it(p):
    table = PrefixTable((1, F(1, 2), F(1, 3)))
    zero = P()
    oracle = Pushforward2D(table, p, zero)
    # q = 0: every cell with k2 >= 1 is zero and never reads the table, even
    # after a cell of the same row ran off its end
    for k1 in (5, 0, 3, 1):
        for k2 in (4, 0, 1):
            expected = outcome(reference_moment, table, p, zero, k1, k2)
            assert outcome(oracle.moment, k1, k2) == expected
            if k2 >= 1:
                assert expected == 0
    message = (IndexError, "moment table holds indices 0..2")
    if p.degree >= 1:
        assert outcome(oracle.moment, 5, 0) == message
    swapped = Pushforward2D(table, zero, p)
    for k1, k2 in ((3, 0), (0, 3), (2, 1), (0, 1)):
        assert outcome(swapped.moment, k1, k2) == outcome(
            reference_moment, table, zero, p, k1, k2
        )


def test_pushforward_memo_survives_a_failed_cell():
    table = PrefixTable((1, F(1, 2), F(1, 3)))
    oracle = Pushforward2D(table, R, R)
    assert oracle.moment(1, 1) == F(1, 3)
    with pytest.raises(IndexError, match=r"^moment table holds indices 0\.\.2$"):
        oracle.moment(2, 1)
    assert oracle.moment(0, 2) == F(1, 3)
    assert oracle.moment(1, 0) == F(1, 2)


@pytest.mark.parametrize("seed", range(12))
def test_pushforward_oracle_equals_atomic_image_measure(seed):
    rng = random.Random(seed)
    sigma = random_atomic(rng)
    p, q = random_poly(rng), random_poly(rng)
    # lift each polynomial by a constant so it is nonnegative at every atom,
    # keeping any negative higher coefficients
    p, q = (f + P(max([F(0)] + [-f(a) for a in sigma.atoms])) for f in (p, q))
    image = pushforward_atomic(sigma, p, q)
    oracle = Pushforward2D(sigma, p, q)
    for k1 in range(7):
        for k2 in range(7):
            assert oracle.moment(k1, k2) == image.moment(k1, k2)


@pytest.mark.parametrize("cell", [(-1, 0), (0, -1), (-2, 3)])
def test_pushforward_rejects_negative_indices(cell):
    oracle = Pushforward2D(Lebesgue01(), R, P(1, -1))
    with pytest.raises(ValueError, match="moment indices must be >= 0"):
        oracle.moment(*cell)
    with pytest.raises(ValueError, match="row index must be nonnegative"):
        row_measure(oracle, -1)


def test_pushforward_moments_need_polynomials_nonnegative_on_the_support():
    for base, p, q, message in (
        (THREE_ATOMS, R, P(F(1, 2), -1), "polynomial negative at atom 1"),
        (Lebesgue01(), P(-1), P(1), "p takes negative values on [0, 1]"),
        (BetaFamily(3), R, P(0, 1, -1) * P(F(-1, 2), 1), "q takes negative values on [0, 1]"),
        (PrefixTable((1, F(1, 2)), support_bound=2), R, P(1, -1),
         "q takes negative values on [0, 2]"),
    ):
        with pytest.raises(NegativeValue) as err:
            pushforward_moments(base, p, q)
        assert str(err.value) == message
    # only the support counts: 3r - 1 is negative below 1/3, the smallest atom
    assert pushforward_moments(THREE_ATOMS, P(-1, 3), R).moment(1, 0) == F(5, 6)
    assert pushforward_moments(PrefixTable((1, F(1, 2))), R, P(1, -1)).moment(0, 1) == F(1, 2)
    with pytest.raises(NegativeValue, match=r"^p takes negative values on \[0, 1\]$"):
        measure2d_from_descriptor(
            {"kind": "pushforward", "base": {"kind": "lebesgue01"}, "p": [-1], "q": [1]}
        )


def test_pushforward_rejects_inexact_base():
    with pytest.raises(UnsupportedBase):
        pushforward_moments(ArclengthSegment01(), R, R)


# -- marginals and row measures ----------------------------------------------


def test_marginal_of_constant_sum_measure():
    a, b, c = F(1, 4), F(1, 2), 1
    x, y = F(1, 4), F(1, 4)
    mu = AtomicMeasure2D(
        ((a, 1 - a), (b, 1 - b), (1, 0)), (x, y, 1 - x - y)
    )
    assert marginal(mu, "x") == AtomicMeasure1D((a, b, 1), (x, y, 1 - x - y))


def test_marginal_point_mass_and_collision():
    point = AtomicMeasure2D(((1, 1),), (1,))
    assert marginal(point, "x") == AtomicMeasure1D((1,), (1,))
    assert marginal(point, "y") == AtomicMeasure1D((1,), (1,))
    colliding = AtomicMeasure2D(((0, 0), (0, 1)), (F(1, 2), F(1, 2)))
    assert marginal(colliding, "x") == AtomicMeasure1D((0,), (1,))


def test_row_measure_of_arclength_matches_beta_family():
    for j in range(0, 7):
        nu = row_measure(ArclengthSegment01(), j)
        reference = BetaFamily(j + 2)
        for k in range(13):
            assert nu.moment(k) == reference.moment(k)


def test_row_measure_bergman_row():
    nu = row_measure(ArclengthSegment01(), 0)
    for k in range(8):
        assert nu.moment(k) == F(1, k + 1)


def test_row_measure_atomic_single_atom():
    mu = AtomicMeasure2D(((F(1, 2), F(1, 2)),), (1,))
    nu = row_measure(mu, 3)
    for k in range(6):
        assert nu.moment(k) == F(1, 2) ** k


@pytest.mark.parametrize(
    "mu", [AtomicMeasure2D(((F(1, 2), F(3, 4)),), (1,)), ArclengthSegment01()]
)
def test_row_measure_rejects_negative_rows(mu):
    with pytest.raises(ValueError, match="row index must be nonnegative"):
        row_measure(mu, -1)


def test_row_measure_zero_mass():
    mu = AtomicMeasure2D(((1, 0),), (1,))
    with pytest.raises(ZeroMass):
        row_measure(mu, 1)


# -- probability sanity: Hankel positivity on windows -------------------------


@pytest.mark.parametrize(
    "oracle", [Lebesgue01(), BetaFamily(3), THREE_ATOMS, row_measure(ArclengthSegment01(), 2)]
)
def test_oracle_hankel_positivity(oracle):
    assert oracle.moment(0) == 1
    moments = [oracle.moment(k) for k in range(9)]
    for order in range(1, 4):
        hankel = SymMatrix(
            tuple(
                tuple(moments[i + j] for j in range(order + 1))
                for i in range(order + 1)
            )
        )
        assert psd_test(hankel).is_psd
    bound = oracle.support_bound
    assert all(moments[k] <= bound**k for k in range(1, 9))
