import random
from fractions import Fraction as F

import pytest

from shiftlab.embed import (
    STALL_BETA_NONPOSITIVE,
    STALL_ROW0_NOT_INCREASING,
    StallReport,
    classical_embed,
    classical_moments,
    poly_embed,
    recover_densities,
    row_measure_transform_check,
    spherical_embed_iterative,
    spherical_embed_measure,
)
from shiftlab.descriptors import shift2d_to_descriptor
from shiftlab.errors import (
    NegativeValue,
    NonpositiveDensity,
    TailExhausted,
    WindowTooSmall,
    ZeroMoment,
)
from shiftlab.exactcore import RationalPolynomial
from shiftlab.families import bergman_rank_one, flat_head_bergman
from shiftlab.measures import (
    AtomicMeasure1D,
    AtomicMeasure2D,
    BetaFamily,
    Lebesgue01,
    marginal,
    pushforward_atomic,
    pushforward_moments,
)
from shiftlab.shift1d import Shift1D, bergman, from_measure, unweighted
from shiftlab.shift2d import (
    Shift2D,
    col,
    corner_restrict,
    moments,
    power_components,
    restrict,
    row,
    sie_bergman,
    six_point,
    spherical_check,
)

P = RationalPolynomial.of
R = P(0, 1)

THREE_ATOMS = AtomicMeasure1D((F(1, 3), F(1, 2), 1), (F(1, 3), F(1, 3), F(1, 3)))


# -- classical embedding --------------------------------------------------------


def test_classical_embedding_moments_collapse_to_diagonal():
    table = moments(classical_embed(bergman(), 7), 6)
    for i in range(7):
        for j in range(7):
            assert table.at(i, j) == F(1, i + j + 1)


def test_classical_embedding_of_isometry_is_all_ones():
    shift = classical_embed(unweighted(), 5)
    assert all(
        shift.alpha_sq(i, j) == 1 and shift.beta_sq(i, j) == 1
        for i in range(5)
        for j in range(5)
    )


def test_classical_embedding_weight_diagram():
    base = bergman_rank_one(F(3, 5))
    w = base.weights_sq(9)
    shift = classical_embed(base, 5)
    for i in range(5):
        for j in range(5):
            assert shift.alpha_sq(i, j) == w[i + j]
            assert shift.beta_sq(i, j) == w[i + j]


def test_classical_embedding_prefix_only_exhausts():
    with pytest.raises(TailExhausted):
        classical_embed(Shift1D((F(1, 2), F(2, 3))), 4)


CLASSICAL_BASES = {
    "bergman": lambda n: bergman(),
    "rank_one_1/2": lambda n: bergman_rank_one(F(1, 2)),
    "rank_one_9/16": lambda n: bergman_rank_one(F(9, 16)),
    "rank_one_2/3": lambda n: bergman_rank_one(F(2, 3)),
    "flat_head": lambda n: flat_head_bergman(F(3, 5)),
    "unweighted": lambda n: unweighted(),
    "prefix_only": lambda n: Shift1D(bergman().weights_sq(2 * n - 1)),
}


def _outcome(f, *args):
    """What a call returns, or the type and message of what it raises."""
    try:
        return f(*args)
    except (ValueError, WindowTooSmall) as exc:
        return type(exc), str(exc)


def _grid_outcome(f, *args):
    out = _outcome(f, *args)
    if isinstance(out, Shift2D):
        return shift2d_to_descriptor(out)
    if isinstance(out, list):
        return [shift2d_to_descriptor(s) for s in out]
    return out


@pytest.mark.parametrize("name", sorted(CLASSICAL_BASES))
@pytest.mark.parametrize("n", range(1, 21))
def test_classical_embedding_matches_validated_grid(name, n):
    base = CLASSICAL_BASES[name](n)
    diag = base.weights_sq(2 * n - 1)
    grid = [[diag[i + j] for j in range(n)] for i in range(n)]
    old = Shift2D(grid, grid)
    new = classical_embed(base, n)
    assert new.window == n and new.rule is None
    for i in range(n):
        for j in range(n):
            assert new.alpha_sq(i, j) == old.alpha_sq(i, j) == diag[i + j]
            assert new.beta_sq(i, j) == old.beta_sq(i, j) == diag[i + j]
    for read in ("alpha_sq", "beta_sq"):
        for index in ((n, 0), (0, n), (n, n)):
            with pytest.raises(WindowTooSmall) as raised:
                getattr(new, read)(*index)
            assert _outcome(getattr(old, read), *index) == (
                WindowTooSmall, str(raised.value)
            )
    assert moments(new, n - 1) == moments(old, n - 1)
    assert shift2d_to_descriptor(new) == shift2d_to_descriptor(old)
    for f, args in (
        (restrict, (2, 3, 0, 0)),
        (restrict, (2, 3, 1, 2)),
        (corner_restrict, (1, 2)),
        (power_components, (2, 2)),
    ):
        assert _grid_outcome(f, new, *args) == _grid_outcome(f, old, *args)
    for f, index in ((row, 0), (row, n - 1), (col, 0), (col, n - 1)):
        ours, theirs = f(new, index), f(old, index)
        assert (ours.prefix_sq, ours.tail) == (theirs.prefix_sq, theirs.tail)
    # six_point reads moments through window + 2, so n - 2 is one window too
    # far for an n x n grid and n - 3 the farthest that fits
    for window in (n - 2, n - 3):
        assert _outcome(six_point, new, window) == _outcome(six_point, old, window)
    assert spherical_check(new) == spherical_check(old)
    if name == "prefix_only":
        with pytest.raises(TailExhausted):
            classical_embed(Shift1D(diag[:-1]), n)


def _table_outcome(f, *args):
    """A moment table's rows, or the type and message of what the call raises."""
    try:
        return f(*args).values
    except (ValueError, TailExhausted) as exc:
        return type(exc), str(exc)


def _moments_of_classical_embed(shift, n):
    return moments(classical_embed(shift, n), n - 1)


class _RawDiagonal:
    """A source whose weights skip Shift1D's checks, so the grid's own fire."""

    def __init__(self, weights):
        self.weights = weights

    def weights_sq(self, count):
        return self.weights[:count]


CLASSICAL_MOMENT_BASES = {
    **{name: CLASSICAL_BASES[name] for name in (
        "bergman", "rank_one_1/2", "rank_one_9/16", "rank_one_2/3", "flat_head", "prefix_only")},
    "prefix_one_short": lambda n: Shift1D(bergman().weights_sq(2 * n - 2)),
}


@pytest.mark.parametrize("name", sorted(CLASSICAL_MOMENT_BASES))
def test_classical_moments_equal_the_embedded_grids_moments(name):
    for n in range(1, 31):
        base = CLASSICAL_MOMENT_BASES[name](n)
        expected = _table_outcome(_moments_of_classical_embed, base, n)
        assert _table_outcome(classical_moments, base, n) == expected, n
        if name == "prefix_one_short":
            assert expected[0] is TailExhausted
        else:
            assert classical_moments(base, n).window == n - 1


@pytest.mark.parametrize(
    "base, n",
    [
        (bergman(), 0),
        (bergman(), -2),
        (Shift1D((F(1, 2), F(3, 2), F(2, 3)), norm_bound_sq=1), 2),
        (Shift1D((F(1, 2), 0, F(2, 3))), 2),
        (_RawDiagonal([F(1, 2), F(3, 4), 0]), 2),
        (_RawDiagonal([F(1, 2), -1, F(3, 4)]), 2),
    ],
)
def test_classical_moments_raise_what_the_embedding_raises(base, n):
    expected = _table_outcome(_moments_of_classical_embed, base, n)
    assert expected[0] is ValueError
    assert _table_outcome(classical_moments, base, n) == expected


# -- polynomial embeddings --------------------------------------------------------


def test_poly_embed_spherical_pair_gives_constant_sum_grid():
    shift = poly_embed(Lebesgue01(), R, P(1, -1), 8)
    reference = sie_bergman(8)
    for i in range(8):
        for j in range(8):
            assert shift.alpha_sq(i, j) == reference.alpha_sq(i, j)
            assert shift.beta_sq(i, j) == reference.beta_sq(i, j)


def test_poly_embed_point_mass_monomials():
    delta1 = AtomicMeasure1D((1,), (1,))
    shift = poly_embed(delta1, P(0, 0, 1), P(0, 0, 0, 1), 4)
    assert all(
        shift.alpha_sq(i, j) == 1 and shift.beta_sq(i, j) == 1
        for i in range(4)
        for j in range(4)
    )


def test_poly_embed_cubic_pair_matches_sublattice_restriction():
    # the (r^2, r^3) embedding of Lebesgue measure carries exactly the
    # moments of the (0,0)-component of the (2,3)-power of the diagonal
    # Bergman embedding
    neil = poly_embed(Lebesgue01(), P(0, 0, 1), P(0, 0, 0, 1), 6)
    for k in range(6):
        assert neil.alpha_sq(k, 0) == F(2 * k + 1, 2 * k + 3)
    part = restrict(classical_embed(bergman(), 32), 2, 3, 0, 0)
    for i in range(6):
        for j in range(6):
            assert neil.alpha_sq(i, j) == part.alpha_sq(i, j)
            assert neil.beta_sq(i, j) == part.beta_sq(i, j)


def test_poly_embed_moments_round_trip():
    p, q = P(0, 1), P(0, 1, -1)
    shift = poly_embed(Lebesgue01(), p, q, 6)
    oracle = pushforward_moments(Lebesgue01(), p, q)
    table = moments(shift, 5)
    for i in range(6):
        for j in range(6):
            assert table.at(i, j) == oracle.moment(i, j)


def expansion_table(sigma, p, q, size):
    """gamma(i, j) for i, j < size by multiplying out p^i q^j in Fractions."""
    table = []
    for i in range(size):
        row = []
        for j in range(size):
            product = p**i * q**j
            row.append(sum((c * sigma.moment(n) for n, c in enumerate(product.coefficients)),
                           F(0)))
        table.append(row)
    return table


@pytest.mark.parametrize("seed", range(6))
def test_poly_embed_moments_equal_expansion_table(seed):
    rng = random.Random(seed)
    sigma = [Lebesgue01(), BetaFamily(3), THREE_ATOMS][seed % 3]

    def nonneg_poly():
        # nonnegative coefficients keep the polynomial nonnegative on [0, oo)
        return P(*(F(rng.randint(0, 5), rng.randint(1, 4)) for _ in range(rng.randint(1, 3))),
                 F(rng.randint(1, 5), rng.randint(1, 4)))

    p, q = nonneg_poly(), nonneg_poly()
    window = rng.randint(1, 9)
    expected = expansion_table(sigma, p, q, window)
    table = moments(poly_embed(sigma, p, q, window), window - 1)
    for i in range(window):
        for j in range(window):
            assert table.at(i, j) == expected[i][j], (i, j)


def test_poly_embed_rejects_sign_changing_polynomial():
    with pytest.raises(NegativeValue):
        poly_embed(Lebesgue01(), P(F(-1, 2), 1), R, 4)
    with pytest.raises(NegativeValue):
        poly_embed(THREE_ATOMS, R, P(F(1, 3), -1), 4)


def test_poly_embed_zero_moment_path():
    delta1 = AtomicMeasure1D((1,), (1,))
    with pytest.raises(ZeroMoment):
        spherical_embed_measure(delta1, 1, 4)


# -- iterative constant-sum construction ------------------------------------------


def test_iterative_reproduces_constant_sum_grid():
    result = spherical_embed_iterative(bergman(), 1, 8)
    assert not isinstance(result, StallReport)
    for i in range(8):
        for j in range(8):
            assert result.alpha_sq(i, j) == F(i + 1, i + j + 2)
            assert result.beta_sq(i, j) == F(j + 1, i + j + 2)
    assert spherical_check(result) == 1


def test_iterative_stalls_on_perturbed_first_weight():
    result = spherical_embed_iterative(bergman_rank_one(F(9, 16)), 1, 10)
    assert isinstance(result, StallReport)
    assert result.stalled
    assert result.location == (0, 7)
    assert result.cause == STALL_BETA_NONPOSITIVE
    assert result.value == 0


def test_iterative_rejects_flat_row_upfront():
    row0 = [F(1, 4), F(1, 2), F(3, 4), F(3, 4)] + [F(3, 4)] * 40
    result = spherical_embed_iterative(row0, 1, 12)
    assert isinstance(result, StallReport)
    assert result.cause == STALL_ROW0_NOT_INCREASING
    assert result.location == (3, 0)


def test_iterative_agrees_with_measure_route():
    sigma = AtomicMeasure1D((F(1, 4), F(1, 2), F(4, 5)), (F(1, 2), F(1, 4), F(1, 4)))
    iterative = spherical_embed_iterative(from_measure(sigma), 1, 6)
    direct = spherical_embed_measure(sigma, 1, 6)
    assert not isinstance(iterative, StallReport)
    for i in range(6):
        for j in range(6):
            assert iterative.alpha_sq(i, j) == direct.alpha_sq(i, j)
            assert iterative.beta_sq(i, j) == direct.beta_sq(i, j)


def test_iterative_scaling_coherence():
    # doubling the weights (x4 on squares) with c = 4 scales the grid by 4
    base = spherical_embed_iterative(bergman(), 1, 5)
    scaled_row0 = [4 * w for w in bergman().weights_sq(9)]
    scaled = spherical_embed_iterative(scaled_row0, 4, 5)
    for i in range(5):
        for j in range(5):
            assert scaled.alpha_sq(i, j) == 4 * base.alpha_sq(i, j)
            assert scaled.beta_sq(i, j) == 4 * base.beta_sq(i, j)
    assert spherical_check(scaled) == 4


# -- measure-route embedding and recovery ------------------------------------------


def test_measure_route_two_atoms():
    a, b = F(1, 2), F(3, 4)
    ratio = (a / b) ** 2
    sigma = AtomicMeasure1D((0, b**2), (1 - ratio, ratio))
    shift = spherical_embed_measure(sigma, 1, 6)
    assert spherical_check(shift) == 1
    mu = pushforward_atomic(sigma, R, P(1, -1))
    assert mu == AtomicMeasure2D(
        ((0, 1), (F(9, 16), F(7, 16))), (F(5, 9), F(4, 9))
    )
    assert recover_densities(shift, (0, F(9, 16))) == mu


def test_recover_three_atom_measure():
    shift = spherical_embed_measure(THREE_ATOMS, 1, 6)
    mu = recover_densities(shift, (F(1, 3), F(1, 2), 1))
    assert mu == AtomicMeasure2D(
        ((F(1, 3), F(2, 3)), (F(1, 2), F(1, 2)), (1, 0)),
        (F(1, 3), F(1, 3), F(1, 3)),
    )


def test_recover_single_atom_with_larger_constant():
    sigma = AtomicMeasure1D((1,), (1,))
    shift = spherical_embed_measure(sigma, 2, 5)
    assert spherical_check(shift) == 2
    assert recover_densities(shift, (1,)) == AtomicMeasure2D(((1, 1),), (1,))


def test_recover_constant_sum_family_densities():
    a, b = F(1, 4), F(1, 2)
    x = y = F(1, 4)
    sigma = AtomicMeasure1D((a, b, 1), (x, y, 1 - x - y))
    shift = spherical_embed_measure(sigma, 1, 6)
    mu = recover_densities(shift, (a, b, 1))
    assert mu.densities == (F(1, 4), F(1, 4), F(1, 2))
    assert mu == pushforward_atomic(sigma, R, P(1, -1))
    assert marginal(mu, "x") == sigma


def test_recover_rejects_wrong_atoms():
    # dropping the top atom forces a negative solved density
    shift = spherical_embed_measure(THREE_ATOMS, 1, 6)
    with pytest.raises(NonpositiveDensity):
        recover_densities(shift, (F(1, 3), F(1, 2), F(3, 4)))


def test_recover_requires_constant_sum():
    with pytest.raises(ValueError):
        recover_densities(classical_embed(bergman(), 6), (F(1, 2),))


# -- row-1 measure identity ----------------------------------------------------


def test_row_measure_transform_examples():
    assert row_measure_transform_check(
        AtomicMeasure1D((0, F(1, 2)), (F(1, 2), F(1, 2)))
    )
    assert row_measure_transform_check(AtomicMeasure1D((0,), (1,)))
    assert row_measure_transform_check(
        AtomicMeasure1D((F(1, 3), F(1, 2)), (F(1, 2), F(1, 2)))
    )


def test_row_measure_transform_requires_support_below_one():
    with pytest.raises(ValueError):
        row_measure_transform_check(THREE_ATOMS)
