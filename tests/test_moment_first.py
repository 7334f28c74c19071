"""Moment-first 2-variable shifts: ``Shift2D.from_moments`` and the builders
that use it (``poly_embed``, ``spherical_embed_measure``, ``sie_bergman``).

Each is checked against a local copy of the weight-first route it replaced:
the pushforward moments divided into ``Fraction`` grids and handed to
``Shift2D``, or the generator rule evaluated over the window.
"""

import pickle
import random
from fractions import Fraction as F

import pytest

from shiftlab import shift2d
from shiftlab.embed import poly_embed, spherical_embed_measure
from shiftlab.errors import WindowTooSmall, ZeroMoment
from shiftlab.exactcore import RationalPolynomial
from shiftlab.measures import (
    AtomicMeasure1D,
    BetaFamily,
    Lebesgue01,
    PrefixTable,
    pushforward_moments,
)
from shiftlab.shift2d import (
    Moment2Table,
    Shift2D,
    col,
    k_hyponormal_2v,
    moments,
    row,
    sie_bergman,
)

P = RationalPolynomial.of


def _weight_first_poly_embed(sigma, p, q, window):
    """``poly_embed`` as the weight-first route built it."""
    if window < 1:
        raise ValueError("window must be >= 1")
    oracle = pushforward_moments(sigma, p, q)
    size = window + 1
    table = [[oracle.moment(i, j) for j in range(size)] for i in range(size)]
    for i in range(window):
        for j in range(window):
            if table[i][j] == 0:
                raise ZeroMoment(f"pushforward moment ({i},{j}) vanishes")
    alpha = [[table[i + 1][j] / table[i][j] for j in range(window)] for i in range(window)]
    beta = [[table[i][j + 1] / table[i][j] for j in range(window)] for i in range(window)]
    return Shift2D(alpha, beta)


def _outcome(build, *args):
    """The grids a build gives, or the type and text of what it raises."""
    try:
        shift = build(*args)
    except Exception as exc:  # the comparison is of the error itself
        return type(exc), str(exc)
    return shift.window, shift.alpha_grid, shift.beta_grid


def _walk(shift, window):
    """The staircase walk over a weight-first copy of the shift's grids."""
    return moments(Shift2D(shift.alpha_grid, shift.beta_grid), window)


def _random_atomic(rng):
    n = rng.randint(1, 4)
    atoms = sorted(rng.sample(range(0, 40), n))
    weights = [rng.randint(1, 9) for _ in atoms]
    total = sum(weights)
    return AtomicMeasure1D(tuple(F(a, 20) for a in atoms), tuple(F(w, total) for w in weights))


def _random_pair(rng):
    """Polynomials with nonnegative coefficients: nonnegative on [0, oo)."""
    def poly():
        return P(*(F(rng.randint(0, 4), rng.randint(1, 3)) for _ in range(rng.randint(1, 3))))
    p, q = poly(), poly()
    return p, q


def _bases(rng):
    sigma = _random_atomic(rng)
    prefix = PrefixTable([sigma.moment(k) for k in range(40)], sigma.support_bound)
    return [sigma, Lebesgue01(), BetaFamily(rng.randint(2, 5)), prefix]


# -- the builders against the weight-first route ------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_poly_embed_grids_match_the_ratio_route(seed):
    rng = random.Random(seed)
    for sigma in _bases(rng):
        p, q = _random_pair(rng)
        window = rng.randint(1, 5)
        new = _outcome(poly_embed, sigma, p, q, window)
        assert new == _outcome(_weight_first_poly_embed, sigma, p, q, window)


@pytest.mark.parametrize("seed", range(4))
def test_spherical_embed_measure_grids_match_the_ratio_route(seed):
    rng = random.Random(100 + seed)
    for sigma in _bases(rng):
        c = F(rng.randint(1, 4), rng.randint(1, 2)) + sigma.support_bound
        window = rng.randint(1, 5)
        old = _outcome(_weight_first_poly_embed, sigma, P(0, 1), P(c, -1), window)
        assert _outcome(spherical_embed_measure, sigma, c, window) == old


@pytest.mark.parametrize("window", [1, 2, 5, 9])
def test_sie_bergman_grids_match_its_rule(window):
    shift = sie_bergman(window)
    oracle = Shift2D.from_rule(shift.rule, window)
    assert shift.window == oracle.window == window
    assert shift.alpha_grid == oracle.alpha_grid
    assert shift.beta_grid == oracle.beta_grid


def test_sie_bergman_keeps_its_rule_beyond_the_window():
    shift, oracle = sie_bergman(4), Shift2D.from_rule(sie_bergman(4).rule, 4)
    assert shift.alpha_sq(7, 2) == oracle.alpha_sq(7, 2) == F(8, 11)
    assert shift.beta_sq(1, 9) == oracle.beta_sq(1, 9) == F(10, 12)
    # a window past the table walks the rule
    assert moments(shift, 6) == moments(oracle, 6)
    for j in (0, 3, 6):
        assert row(shift, j).weights_sq(8) == row(oracle, j).weights_sq(8)
        assert col(shift, j).weights_sq(8) == col(oracle, j).weights_sq(8)


# -- moments below the window are the stored table ----------------------------


@pytest.mark.parametrize("seed", range(4))
def test_moments_below_the_window_equal_the_walk(seed):
    rng = random.Random(200 + seed)
    shifts = [sie_bergman(rng.randint(1, 7))]
    for sigma in _bases(rng):
        p, q = _random_pair(rng)
        shifts.append(poly_embed(sigma, p + P(1), q + P(1), rng.randint(1, 6)))
        shifts.append(spherical_embed_measure(sigma, sigma.support_bound + 1, rng.randint(1, 6)))
    for shift in shifts:
        for w in range(shift.window):
            assert moments(shift, w) == _walk(shift, w)


def test_moments_below_the_window_build_no_grid(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the grids were built")

    monkeypatch.setattr(shift2d, "_ratio_grid", forbidden)
    shifts = [
        sie_bergman(9),
        poly_embed(Lebesgue01(), P(0, 1), P(1, 2), 9),
        spherical_embed_measure(BetaFamily(3), 2, 9),
    ]
    for shift in shifts:
        assert shift.window == 9
        moments(shift, 8)
        assert k_hyponormal_2v(shift, 2, 4).holds


def test_moments_past_a_ruleless_window_raise_what_the_walk_raises():
    shift = poly_embed(Lebesgue01(), P(0, 1), P(1, 1), 3)
    with pytest.raises(WindowTooSmall) as new:
        moments(shift, 3)
    with pytest.raises(WindowTooSmall) as old:
        _walk(shift, 3)
    assert str(new.value) == str(old.value) == "alpha index (0,3) outside the 3x3 window"


# -- errors keep their texts --------------------------------------------------


@pytest.mark.parametrize("seed", range(8))
def test_signed_prefix_tables_raise_the_grid_check_text(seed):
    # prefix tables need not be moment sequences, so weights can be negative
    rng = random.Random(300 + seed)
    for _ in range(10):
        values = [1] + [F(rng.randint(-5, 9), rng.randint(1, 4)) for _ in range(30)]
        sigma = PrefixTable(values, 1)
        p, q = _random_pair(rng)
        window = rng.randint(1, 4)
        new = _outcome(poly_embed, sigma, p, q, window)
        assert new == _outcome(_weight_first_poly_embed, sigma, p, q, window)


@pytest.mark.parametrize(
    "sigma, p, q, window, error, text",
    [
        # a zero edge moment is not a ZeroMoment: it is a zero weight
        (Lebesgue01(), P(), P(0, 1), 1, ValueError, "alpha_sq[0][0] = 0 is not positive"),
        (PrefixTable([1, 0, 1]), P(1), P(0, 1), 1, ValueError, "beta_sq[0][0] = 0 is not positive"),
        (PrefixTable([1, -1, 2]), P(0, 1), P(1), 2, ValueError,
         "alpha_sq[0][0] = -1 is not positive"),
        (PrefixTable([1, 2, -1, 3, 1]), P(1), P(0, 1), 2, ValueError,
         "beta_sq[0][1] = -1/2 is not positive"),
        (Lebesgue01(), P(), P(0, 1), 2, ZeroMoment, "pushforward moment (1,0) vanishes"),
        (Lebesgue01(), P(0, 1), P(1), 0, ValueError, "window must be >= 1"),
        (Lebesgue01(), P(0, 1), P(1), -3, ValueError, "window must be >= 1"),
        (PrefixTable([1, F(1, 2), F(1, 3)]), P(0, 1), P(0, 1), 2, IndexError,
         "moment table holds indices 0..2"),
    ],
)
def test_poly_embed_errors_keep_their_texts(sigma, p, q, window, error, text):
    for build in (poly_embed, _weight_first_poly_embed):
        with pytest.raises(error) as err:
            build(sigma, p, q, window)
        assert str(err.value) == text


# -- from_moments on its own --------------------------------------------------


@pytest.mark.parametrize("seed", range(5))
def test_from_moments_inverts_moments(seed):
    rng = random.Random(400 + seed)
    n = rng.randint(1, 6)
    sigma = _random_atomic(rng)
    p, q = _random_pair(rng)
    grid = _weight_first_poly_embed(sigma, p + P(1), q + P(1), n + 1)
    shift = Shift2D.from_moments(moments(grid, n))
    assert shift.window == n
    assert shift.alpha_grid == tuple(row[:n] for row in grid.alpha_grid[:n])
    assert shift.beta_grid == tuple(row[:n] for row in grid.beta_grid[:n])


@pytest.mark.parametrize("seed", range(6))
def test_from_moments_sign_check_matches_the_grid_check(seed):
    # alpha cells in row-major order, then beta cells, as Shift2D checks them
    rng = random.Random(500 + seed)
    for _ in range(20):
        n = rng.randint(1, 3)
        rows = [[rng.choice((-1, 1)) * rng.randint(1, 9) for _ in range(n + 1)]
                for _ in range(n + 1)]
        rows[0][0] = rng.choice((-1, 1)) * rng.randint(1, 9)
        table = Moment2Table.from_integers(n, rows, rng.randint(1, 5))
        old = _outcome(
            lambda: Shift2D(
                [[F(rows[i + 1][j], rows[i][j]) for j in range(n)] for i in range(n)],
                [[F(rows[i][j + 1], rows[i][j]) for j in range(n)] for i in range(n)],
            )
        )
        assert _outcome(Shift2D.from_moments, table) == old


def test_from_moments_reads_a_negative_table_over_its_corner():
    shift = Shift2D.from_moments(Moment2Table.from_integers(1, ((-2, -6), (-4, -20)), 3))
    assert shift.alpha_grid == ((2,),) and shift.beta_grid == ((3,),)
    assert moments(shift, 0).values == ((1,),)


@pytest.mark.parametrize(
    "rows, window, error, text",
    [
        (((1,),), 0, ValueError, "grids must be nonempty with equal shape"),
        (((1, 0, 1), (1, 1, 1), (1, 1, 1)), 2, ZeroDivisionError, "moment (0,1) is zero"),
    ],
)
def test_from_moments_rejects_empty_and_zero_tables(rows, window, error, text):
    with pytest.raises(error) as err:
        Shift2D.from_moments(Moment2Table.from_integers(window, rows, 1))
    assert str(err.value) == text


# -- pickling -----------------------------------------------------------------


@pytest.mark.parametrize(
    "build",
    [
        lambda: sie_bergman(5),
        lambda: poly_embed(BetaFamily(3), P(0, 2), P(1, 0, 1), 4),
        lambda: spherical_embed_measure(_random_atomic(random.Random(7)), 3, 4),
    ],
)
def test_moment_first_shifts_pickle_before_and_after_the_grids_are_read(build):
    shift = build()
    early = pickle.loads(pickle.dumps(shift))
    grids = (shift.alpha_grid, shift.beta_grid)
    late = pickle.loads(pickle.dumps(shift))
    for copy in (early, late):
        assert (copy.alpha_grid, copy.beta_grid) == grids
        assert copy.window == shift.window and copy.moment_rows == shift.moment_rows
        assert moments(copy, shift.window - 1) == moments(shift, shift.window - 1)
    assert (early.rule is None) is (shift.rule is None)
