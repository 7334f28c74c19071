import random
from fractions import Fraction as F
from functools import partial

import pytest

from shiftlab.descriptors import shift2d_from_descriptor
from shiftlab.errors import CommutativityViolation, WindowTooSmall
from shiftlab.families import bergman_rank_one, flat_head_bergman
from shiftlab.embed import classical_embed, classical_moments
from shiftlab.measures import BetaFamily
from shiftlab.shift1d import bergman, power_decompose
from shiftlab.shift2d import (
    BivariatePoly,
    BivariateRational,
    GeneratorRule,
    Shift2D,
    col,
    corner_restrict,
    grid_reach,
    helton_howe,
    k_hyponormal_2v,
    moment_matrix,
    moments,
    power_components,
    restrict,
    row,
    sie_bergman,
    six_point,
    spherical_check,
    sweep_targets,
)


def fact(n):
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


# -- construction and moments --------------------------------------------------


def test_commutativity_enforced():
    with pytest.raises(CommutativityViolation):
        Shift2D([[1, 1], [1, 1]], [[1, 2], [3, 4]])


def test_positive_weights_enforced():
    with pytest.raises(ValueError):
        Shift2D([[1, 1], [0, 1]], [[1, 1], [1, 1]])


@pytest.mark.parametrize(
    "alpha, beta, message",
    [
        ([], [], "grids must be nonempty with equal shape"),
        ([[1, 1], [1, 1]], [[1, 1]], "grids must be nonempty with equal shape"),
        ([[1, 1], [1]], [[1, 1], [1, 1]], "grids must be square"),
        ([[1, 1], [1, 1]], [[1, 1, 1], [1, 1, 1]], "grids must be square"),
    ],
)
def test_grid_shape_enforced(alpha, beta, message):
    with pytest.raises(ValueError) as err:
        Shift2D(alpha, beta)
    assert str(err.value) == message


def test_diagonal_grid_shares_one_hankel_grid():
    shift = Shift2D.diagonal(["1/2", 2, F(3, 4)])
    assert shift.alpha_grid is shift.beta_grid
    assert shift.alpha_grid == ((F(1, 2), 2), (2, F(3, 4)))
    assert Shift2D.diagonal([5]).alpha_grid == ((5,),)


@pytest.mark.parametrize(
    "weights, error",
    [
        ([], ValueError),
        ([1, 2], ValueError),
        ([1, 0, 2], ValueError),
        ([1, 2, "-1/3"], ValueError),
        ([1, 0.5, 2], TypeError),
    ],
)
def test_diagonal_rejects_bad_weights(weights, error):
    with pytest.raises(error):
        Shift2D.diagonal(weights)


def test_sie_bergman_moments():
    shift = sie_bergman(8)
    table = moments(shift, 7)
    assert table.at(2, 1) == F(1, 12)
    for k1 in range(7):
        for k2 in range(7):
            assert table.at(k1, k2) == F(fact(k1) * fact(k2), fact(k1 + k2 + 1))


def test_helton_howe_moments_all_one():
    table = moments(helton_howe(6), 5)
    assert all(table.at(i, j) == 1 for i in range(6) for j in range(6))


def test_classical_bergman_moments():
    table = moments(classical_embed(bergman(), 8), 7)
    for i in range(8):
        for j in range(8):
            assert table.at(i, j) == F(1, i + j + 1)


def test_moments_beyond_window_fail():
    shift = classical_embed(bergman(), 4)
    with pytest.raises(WindowTooSmall):
        moments(shift, 10)


@pytest.mark.parametrize("window", [-1, -2])
def test_moments_reject_a_negative_window(window):
    for shift in (sie_bergman(3), Shift2D([[1]], [[1]])):
        with pytest.raises(ValueError) as err:
            moments(shift, window)
        assert str(err.value) == "window must be >= 0"
    assert moments(Shift2D([[1]], [[1]]), 0).values == ((1,),)


# -- generator rules -------------------------------------------------------------


def reference_eval(rows, k1, k2):
    """Sum of c[i][j] k1^i k2^j, term by term in Fractions."""
    k1, k2 = F(k1), F(k2)
    return sum(
        (F(c) * k1**i * k2**j for i, row in enumerate(rows) for j, c in enumerate(row)),
        F(0),
    )


BIVARIATE_ROWS = [
    (),
    ((),),
    ((), (), ()),
    ((F(5, 2),),),
    ((2, 1), (1,)),
    ((1,), (), (F(-3, 4), 0, 7)),
    ((0, 0, F(1, 3)), (F(-2, 5),), (), (1, -1)),
    ((F(7, 6), F(-1, 9), 0, 0), (0,), (F(4, 3), 2)),
]
ARGUMENTS = [0, 1, 2, 7, -1, -3, F(1, 2), F(-5, 3), F(9, 4), "2/7"]


@pytest.mark.parametrize("rows", BIVARIATE_ROWS)
def test_bivariate_poly_matches_term_by_term_evaluation(rows):
    poly = BivariatePoly(rows)
    for k1 in ARGUMENTS:
        for k2 in ARGUMENTS:
            value = poly(k1, k2)
            assert type(value) is F
            assert value == reference_eval(rows, k1, k2), (k1, k2)


def test_bivariate_poly_rejects_float_arguments():
    with pytest.raises(TypeError):
        BivariatePoly(((1, 1),))(0.5, 1)


def _bimul(a, b):
    """Product of two coefficient matrices, rows trimmed of trailing zeros."""
    terms = {}
    for i, row_a in enumerate(a):
        for j, x in enumerate(row_a):
            for k, row_b in enumerate(b):
                for ell, y in enumerate(row_b):
                    terms[i + k, j + ell] = terms.get((i + k, j + ell), 0) + x * y
    rows = [[terms.get((i, j), 0) for j in range(1 + max(j for _, j in terms))]
            for i in range(1 + max(i for i, _ in terms))]
    for row in rows:
        while row and row[-1] == 0:
            row.pop()
    return rows


def random_generator(rng):
    """alpha = f(k1)/(k1 + k2 + c) and beta = g(k2)/(k1 + k2 + c), with f, g
    ratios of polynomials with positive constant terms and nonnegative
    coefficients: the weights are positive and the pair commutes."""

    def positive():
        return F(rng.randint(1, 9), rng.randint(1, 5))

    def one_variable(along_k1):
        coeffs = [positive()] + [rng.choice([0, positive()]) for _ in range(rng.randint(1, 3))]
        while coeffs[-1] == 0:
            coeffs.pop()
        # a zero coefficient along k1 is an empty row
        return [[c] if c else [] for c in coeffs] if along_k1 else [coeffs]

    shared = [[positive(), 1], [1]]
    rows = {
        "alpha_num": one_variable(True),
        "alpha_den": _bimul(one_variable(True), shared),
        "beta_num": one_variable(False),
        "beta_den": _bimul(one_variable(False), shared),
    }
    return {"kind": "generator",
            **{key: [[str(x) for x in row] for row in value] for key, value in rows.items()}}


SIE_DESCRIPTOR = {
    "kind": "generator",
    "alpha_num": [["1"], ["1"]], "alpha_den": [["2", "1"], ["1"]],
    "beta_num": [["1", "1"]], "beta_den": [["2", "1"], ["1"]],
}
GENERATOR_CASES = {
    "sie_bergman": (sie_bergman, SIE_DESCRIPTOR),
    "helton_howe": (helton_howe, {"kind": "generator", "alpha_num": [["1"]],
                                  "alpha_den": [["1"]], "beta_num": [["1"]],
                                  "beta_den": [["1"]]}),
    **{f"generator-{seed}": (None, random_generator(random.Random(seed))) for seed in range(3)},
}
WIDEST = 41


@pytest.mark.parametrize("name", sorted(GENERATOR_CASES))
def test_rule_grids_match_term_by_term_evaluation(name):
    build, descriptor = GENERATOR_CASES[name]
    cells = [(i, j) for i in range(WIDEST) for j in range(WIDEST)]
    expected = {}
    for key in ("alpha", "beta"):
        num, den = descriptor[f"{key}_num"], descriptor[f"{key}_den"]
        expected[key] = {
            (i, j): reference_eval(num, i, j) / reference_eval(den, i, j) for i, j in cells
        }
    for window in range(1, WIDEST + 1):
        if build is None:
            shift = shift2d_from_descriptor(descriptor, window=window)
        else:
            shift = build(window)
        assert shift.window == window
        for i in range(window):
            for j in range(window):
                assert shift.alpha_grid[i][j] == expected["alpha"][i, j], (window, i, j)
                assert shift.beta_grid[i][j] == expected["beta"][i, j], (window, i, j)
    # the rule extends the grid past its window with the same values
    shift = shift2d_from_descriptor(descriptor, window=1)
    assert shift.alpha_sq(WIDEST - 1, 3) == expected["alpha"][WIDEST - 1, 3]
    assert shift.beta_sq(2, WIDEST - 1) == expected["beta"][2, WIDEST - 1]


def test_rule_zero_denominator_message_is_unchanged():
    one = BivariatePoly(((1,),))
    vanishing = BivariatePoly(((-2,), (1,)))  # k1 - 2
    rule = GeneratorRule(BivariateRational(one, vanishing), BivariateRational(one, one))
    with pytest.raises(ZeroDivisionError) as err:
        Shift2D.from_rule(rule, 4)
    assert str(err.value) == "generator denominator vanishes at (2,0)"
    with pytest.raises(ZeroDivisionError) as err:
        rule.alpha_sq(2, F(1, 3))
    assert str(err.value) == "generator denominator vanishes at (2,1/3)"


# -- six-point screen -----------------------------------------------------------


def test_six_point_sie_bergman():
    assert six_point(sie_bergman(14), 10).holds


def test_six_point_helton_howe_all_boundary():
    shift = helton_howe(10)
    verdict = six_point(shift, 6)
    assert verdict.holds and verdict.first_failure is None
    # every self-commutator matrix is zero: a11 = a22 = 0 and R^2 = 4XY, so
    # the determinant sits exactly on the boundary at every base point
    for k1 in range(7):
        for k2 in range(7 - k1):
            assert shift.alpha_sq(k1 + 1, k2) == shift.alpha_sq(k1, k2)
            assert shift.beta_sq(k1, k2 + 1) == shift.beta_sq(k1, k2)
            x = shift.alpha_sq(k1, k2 + 1) * shift.beta_sq(k1 + 1, k2)
            y = shift.alpha_sq(k1, k2) * shift.beta_sq(k1, k2)
            assert (x + y) ** 2 == 4 * x * y


def test_six_point_steep_product_shift():
    # alpha_sq = 4^k1, beta_sq = 4^k2: X = Y and a11 a22 > 2X, so R < 0 with
    # R^2 > 4XY; the determinant is a11 a22 >= 0 and the test must pass
    shift = Shift2D(
        [[4**i for _ in range(8)] for i in range(8)],
        [[4**j for j in range(8)] for _ in range(8)],
    )
    assert six_point(shift, 4).holds
    assert k_hyponormal_2v(shift, 1, 4).holds


def test_six_point_flat_head_family():
    base = flat_head_bergman(F(3, 5))
    embedding = classical_embed(base, 40)
    assert six_point(embedding, 10).holds
    failures = [
        part
        for part in power_components(embedding, 2, 3)
        if not six_point(part, 4).holds
    ]
    assert failures  # some sublattice component of the (2,3) power fails


# -- exact k-hyponormality -------------------------------------------------------


def test_grid_reach_values():
    assert grid_reach(1, 15) == 18
    assert grid_reach(2, 15, restriction=(2, 3, 0, 0)) == 61
    assert grid_reach(1, 6, power=(2, 3)) == 30
    assert grid_reach(2, 6, power=(2, 2)) == 24
    # a restriction wins over a power, as in the CLI and threshold queries
    assert grid_reach(1, 4, power=(3, 3), restriction=(1, 2, 0, 1)) == 16


@pytest.mark.parametrize("k, window", [(1, 3), (2, 2)])
def test_grid_reach_is_enough_and_tight(k, window):
    base = bergman_rank_one(F(3, 5))
    reach = grid_reach(k, window)
    k_hyponormal_2v(classical_embed(base, reach), k, window)
    with pytest.raises(WindowTooSmall):
        k_hyponormal_2v(classical_embed(base, reach - 1), k, window)
    for power in ((2, 3), (3, 1)):
        grid = classical_embed(base, grid_reach(k, window, power=power))
        for part in power_components(grid, *power):
            k_hyponormal_2v(part, k, window)
    grid = classical_embed(base, grid_reach(k, window, restriction=(2, 3, 1, 2)))
    k_hyponormal_2v(restrict(grid, 2, 3, 1, 2), k, window)


def _cells(shift):
    n = shift.window
    return [(shift.alpha_sq(i, j), shift.beta_sq(i, j)) for i in range(n) for j in range(n)]


@pytest.mark.parametrize(
    "select", [{}, {"power": (2, 3)}, {"power": (3, 1)}, {"restriction": (2, 3, 1, 2)}]
)
def test_sweep_targets_builds_once_at_grid_reach(select):
    sizes = []

    def build(size):
        sizes.append(size)
        return helton_howe(size)

    sweep_targets(build, 2, 3, **select)
    assert sizes == [grid_reach(2, 3, **select)]


def test_sweep_targets_selects_whole_restriction_and_row_major_power():
    # a prebuilt grid, as an explicit one is: its moments are read once, over
    # the whole grid, and every target is a view of them
    shift = classical_embed(bergman_rank_one(F(3, 5)), grid_reach(1, 2, power=(2, 3)))
    (whole,) = sweep_targets(lambda size: shift, 1, 2)
    assert whole == _grid_moments(shift)
    (part,) = sweep_targets(lambda size: shift, 1, 2, restriction=(2, 3, 1, 2))
    assert _agrees_on(part, _grid_moments(restrict(shift, 2, 3, 1, 2)))
    parts = sweep_targets(lambda size: shift, 1, 2, power=(2, 3))
    expected = [restrict(shift, 2, 3, p, q) for p in range(2) for q in range(3)]
    assert len(parts) == len(expected) == 6
    assert all(_agrees_on(t, _grid_moments(g)) for t, g in zip(parts, expected))


def test_sweep_targets_rejects_power_and_restriction_after_the_build():
    sizes = []

    def build(size):
        sizes.append(size)
        return helton_howe(size)

    with pytest.raises(ValueError, match="either a power or a restriction"):
        sweep_targets(build, 1, 4, power=(3, 3), restriction=(1, 2, 0, 1))
    assert sizes == [grid_reach(1, 4, power=(3, 3), restriction=(1, 2, 0, 1))]


def test_khypo2_helton_howe():
    for k in (1, 2, 3):
        assert k_hyponormal_2v(helton_howe(14 + 2 * k), k, window=12).holds


def test_khypo2_classical_boundary_k1():
    at = classical_embed(bergman_rank_one(F(2, 3)), 20)
    above = classical_embed(bergman_rank_one(F(2, 3) + F(1, 100)), 20)
    assert k_hyponormal_2v(at, 1, window=15).holds
    verdict = k_hyponormal_2v(above, 1, window=15)
    assert not verdict.holds
    assert verdict.certificate is not None


def test_khypo2_agrees_with_hankel_route():
    # for the diagonal embedding, the 2-variable matrix at base (u1, u2) is
    # a blow-up of the Hankel matrix at base u1 + u2
    from shiftlab.shift1d import k_hyponormal

    for x in (F(1, 2), F(3, 5), F(7, 10)):
        base = bergman_rank_one(x)
        embedding = classical_embed(base, 16)
        for k in (1, 2):
            assert (
                k_hyponormal(base, k, window=10).holds
                == k_hyponormal_2v(embedding, k, window=10).holds
            )


def test_khypo2_monotone_in_k():
    embedding = classical_embed(bergman_rank_one(F(3, 5)), 20)
    assert not k_hyponormal_2v(embedding, 2, window=12).holds
    assert not k_hyponormal_2v(embedding, 3, window=12).holds


# -- restrictions and powers ------------------------------------------------------


def test_restrict_classical_sublattice_weights():
    base = bergman()
    w = base.weights_sq(30)
    part = restrict(classical_embed(base, 14), 2, 3, 0, 0)
    for i in range(3):
        for j in range(3):
            assert part.alpha_sq(i, j) == w[2 * i + 3 * j] * w[2 * i + 3 * j + 1]
            assert (
                part.beta_sq(i, j)
                == w[2 * i + 3 * j] * w[2 * i + 3 * j + 1] * w[2 * i + 3 * j + 2]
            )


def test_restrict_identity_and_helton():
    shift = sie_bergman(6)
    same = restrict(shift, 1, 1, 0, 0)
    for i in range(6):
        for j in range(6):
            assert same.alpha_sq(i, j) == shift.alpha_sq(i, j)
    hh = restrict(helton_howe(12), 3, 2, 1, 0)
    assert all(hh.alpha_sq(i, j) == 1 for i in range(3) for j in range(3))


def test_restrict_composition():
    shift = classical_embed(bergman(), 24)
    direct = restrict(shift, 2, 3, 1, 2)
    staged = restrict(restrict(shift, 2, 1, 1, 0), 1, 3, 0, 2)
    n = min(direct.window, staged.window)
    for i in range(n):
        for j in range(n):
            assert direct.alpha_sq(i, j) == staged.alpha_sq(i, j)
            assert direct.beta_sq(i, j) == staged.beta_sq(i, j)


@pytest.mark.parametrize("m, n", [(0, 1), (2, 0), (-1, 2)])
def test_power_components_reject_empty_powers(m, n):
    with pytest.raises(ValueError):
        power_components(helton_howe(8), m, n)


def test_restrict_window_too_small():
    with pytest.raises(WindowTooSmall):
        restrict(sie_bergman(2), 3, 3, 0, 0)


def test_corner_is_the_unit_step_sublattice():
    shift = sie_bergman(6)
    assert _cells(corner_restrict(shift, 0, 0)) == _cells(restrict(shift, 1, 1, 0, 0))
    corner = corner_restrict(shift, 2, 1)
    assert corner.window == 4
    assert _cells(corner) == [
        (shift.alpha_sq(i + 2, j + 1), shift.beta_sq(i + 2, j + 1))
        for i in range(4)
        for j in range(4)
    ]
    with pytest.raises(WindowTooSmall, match=r"^window 6 too small for corner \(6,0\)$"):
        corner_restrict(shift, 6, 0)
    with pytest.raises(
        WindowTooSmall, match=r"^window 6 cannot host a \(3,4\) restriction at \(0,3\)$"
    ):
        restrict(shift, 3, 4, 0, 3)


def test_corner_restriction_matches_top_row_restriction():
    # for diagonal embeddings, the corner at (p, q) and the corner at
    # (0, p+q) carry identical moment tables
    shift = classical_embed(bergman_rank_one(F(3, 5)), 16)
    for p, q in ((1, 1), (2, 1), (0, 3), (2, 2)):
        a = moments(corner_restrict(shift, p, q), 8)
        b = moments(corner_restrict(shift, 0, p + q), 8)
        assert a.values == b.values


def test_power_components_count_and_row_identity():
    # row 0 of the (p, 0) component of the (m, 1) power is the p-th summand
    # of the 1-variable power decomposition
    base = bergman()
    embedding = classical_embed(base, 20)
    m = 3
    parts = power_components(embedding, m, 1)
    assert len(parts) == m
    summands = power_decompose(base, m, window=6)
    for p in range(m):
        assert row(parts[p], 0).weights_sq(6) == summands[p].weights_sq(6)


def test_diagonal_power_components_are_diagonal_embeddings():
    # component (p, q) of the (m, m) power of a diagonal embedding has the
    # moment table of the diagonal embedding of the (p+q)-th m-step summand
    base = bergman()
    embedding = classical_embed(base, 26)
    m = 2
    gamma = base.moments(40)
    for p in range(m):
        for q in range(m):
            part = restrict(embedding, m, m, p, q)
            table = moments(part, 5)
            for i in range(6):
                for j in range(6):
                    assert (
                        table.at(i, j)
                        == gamma[m * (i + j) + p + q] / gamma[p + q]
                    )


# -- sweeps over moment tables -----------------------------------------------------


SUBLATTICE_SOURCES = {
    "classical": partial(classical_embed, bergman_rank_one(F(3, 5))),
    "sie_bergman": sie_bergman,
    "generator": lambda size: shift2d_from_descriptor(
        random_generator(random.Random(7)), window=size
    ),
}


def _agrees_on(table, expected):
    """``table`` reaches ``expected``'s window and matches it on every cell there."""
    w = expected.window
    return table.window >= w and all(
        table.at(i, j) == expected.at(i, j) for i in range(w + 1) for j in range(w + 1)
    )


def _grid_moments(shift):
    """The moment table a grid holds: through one step short of its size."""
    return moments(shift, shift.window - 1)


@pytest.mark.parametrize("name", sorted(SUBLATTICE_SOURCES))
def test_sublattice_matches_the_restricted_grids_moments(name):
    size = 13
    grid = SUBLATTICE_SOURCES[name](size)
    table = _grid_moments(grid)
    rng = random.Random(size)
    for _ in range(15):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        p, q = rng.randrange(m), rng.randrange(n)
        view = table.sublattice(m, n, p, q)
        assert view.window == min((size - 1 - p) // m, (size - 1 - q) // n)
        assert _agrees_on(view, _grid_moments(restrict(grid, m, n, p, q))), (m, n, p, q)
    for p, q in ((0, 0), (1, 1), (2, 1), (0, 5)):
        view = table.sublattice(1, 1, p, q)
        assert _agrees_on(view, _grid_moments(corner_restrict(grid, p, q))), (p, q)
    for m, n in ((1, 1), (2, 2), (2, 3), (3, 1)):
        views = [table.sublattice(m, n, p, q) for p in range(m) for q in range(n)]
        parts = power_components(grid, m, n)
        assert len(views) == len(parts)
        assert all(_agrees_on(v, _grid_moments(part)) for v, part in zip(views, parts))


def test_sublattice_of_a_sublattice_is_the_composed_restriction():
    table = moments(sie_bergman(25), 24)
    staged = table.sublattice(1, 1, 1, 1).sublattice(2, 3, 1, 2)
    assert _agrees_on(staged, table.sublattice(2, 3, 2, 3))


def test_sublattice_rejects_bad_steps_and_offsets_past_the_window():
    table = moments(sie_bergman(6), 5)
    for args in ((0, 1, 0, 0), (1, 0, 0, 0), (2, 2, -1, 0), (2, 2, 0, -1)):
        with pytest.raises(ValueError, match="need m,n >= 1 and p,q >= 0"):
            table.sublattice(*args)
    assert table.sublattice(1, 1, 5, 5).values == ((1,),)
    with pytest.raises(WindowTooSmall, match=r"moment window 5 cannot host a \(1,2\)"):
        table.sublattice(1, 2, 0, 6)


@pytest.mark.parametrize(
    "select", [{}, {"power": (2, 3)}, {"power": (3, 1)}, {"restriction": (2, 3, 1, 2)}]
)
def test_sweep_targets_views_a_table_as_the_grid_route_restricts(select):
    base = bergman_rank_one(F(3, 5))
    grid = classical_embed(base, grid_reach(2, 3, **select))
    if "restriction" in select:
        grids = [restrict(grid, *select["restriction"])]
    elif "power" in select:
        grids = power_components(grid, *select["power"])
    else:
        grids = [grid]
    # a grid builder and a table builder both get views of one table
    for build in (partial(classical_embed, base), partial(classical_moments, base)):
        tables = sweep_targets(build, 2, 3, **select)
        assert len(tables) == len(grids)
        assert all(_agrees_on(t, _grid_moments(g)) for t, g in zip(tables, grids))


@pytest.mark.parametrize(
    "window, select",
    [
        (4, {"restriction": (2, 3, 2, 0)}),
        (4, {"restriction": (0, 1, 0, 0)}),
        (4, {"restriction": (2, 3, 0, -1)}),
        (4, {"power": (0, 2)}),
        (4, {"power": (2, -1)}),
        (4, {"power": (3, 3), "restriction": (1, 2, 0, 1)}),
        # a negative window leaves a grid too small for the restriction or a
        # component, or no grid at all
        (-3, {"restriction": (2, 3, 1, 2)}),
        (-3, {"restriction": (3, 2, 2, 1)}),
        (-3, {"power": (2, 3)}),
        (-3, {"power": (3, 1)}),
        (-3, {"power": (2, 2)}),
        (-9, {"power": (2, 2)}),
    ],
)
def test_sweep_targets_on_a_table_raises_the_grid_routes_errors(window, select):
    base = bergman_rank_one(F(3, 5))
    errors = []
    for build in (partial(classical_embed, base), partial(classical_moments, base)):
        with pytest.raises((ValueError, WindowTooSmall)) as err:
            sweep_targets(build, 1, window, **select)
        errors.append((type(err.value), str(err.value)))
    assert errors[0] == errors[1]


@pytest.mark.parametrize(
    "build, k",
    [
        (partial(classical_embed, bergman_rank_one(F(2, 3))), 1),
        (partial(classical_embed, bergman_rank_one(F(2, 3) + F(1, 100))), 1),
        (partial(classical_embed, bergman_rank_one(F(9, 16))), 2),
        (partial(classical_embed, flat_head_bergman(F(3, 4))), 1),
        (partial(classical_embed, flat_head_bergman(F(1, 2))), 2),
        (sie_bergman, 3),
    ],
)
def test_khypo2_reads_a_table_as_it_reads_the_shift(build, k):
    window = 8
    shift = build(grid_reach(k, window))
    by_shift = k_hyponormal_2v(shift, k, window)
    by_table = k_hyponormal_2v(moments(shift, window + 2 * k), k, window)
    # equal verdicts: holds, first_failure and the failing matrix's certificate
    assert by_table == by_shift
    # a taller table gives the same verdict: the sweep reads window + 2k
    assert k_hyponormal_2v(_grid_moments(shift), k, window) == by_shift


def test_khypo2_rejects_a_table_short_of_the_sweep():
    table = moments(sie_bergman(12), 10)
    assert k_hyponormal_2v(table, 2, 6).holds  # reads exactly through 10
    with pytest.raises(WindowTooSmall, match="moment window 10 is below the 11"):
        k_hyponormal_2v(table, 2, 7)
    with pytest.raises(WindowTooSmall):
        k_hyponormal_2v(table.sublattice(2, 1, 0, 0), 1, 4)


@pytest.mark.parametrize("u", [(-1, 0), (0, -1), (-2, -3)])
def test_moment_matrix_rejects_negative_base_points(u):
    table = moments(sie_bergman(6), 5)
    with pytest.raises(ValueError, match=r"base point coordinates must be >= 0"):
        moment_matrix(table, u, 1)
    assert moment_matrix(table, (0, 0), 1).entries[0][0] == 1


# -- rows, columns, spherical structure --------------------------------------------


def test_sie_rows_are_agler_shifts():
    shift = sie_bergman(4)
    for j in range(5):
        r = row(shift, j)
        reference = BetaFamily(j + 2)
        for k in range(13):
            assert r.moment(k) == reference.moment(k)


def test_row_zero_of_classical_embedding_is_the_base():
    base = bergman_rank_one(F(3, 5))
    embedding = classical_embed(base, 10)
    assert row(embedding, 0).weights_sq(10) == base.weights_sq(10)


def test_sie_row_column_symmetry():
    shift = sie_bergman(4)
    for i in range(4):
        assert row(shift, i).weights_sq(9) == col(shift, i).weights_sq(9)


def test_row_without_rule_is_window_limited():
    shift = classical_embed(bergman(), 5)
    r = row(shift, 2)
    assert r.weights_sq(5) == [bergman().weight_sq(k + 2) for k in range(5)]
    with pytest.raises(WindowTooSmall):
        row(shift, 7)


def test_spherical_check_values():
    assert spherical_check(sie_bergman(8)) == 1
    scaled = Shift2D(
        [[4 * sie_bergman(8).alpha_sq(i, j) for j in range(8)] for i in range(8)],
        [[4 * sie_bergman(8).beta_sq(i, j) for j in range(8)] for i in range(8)],
    )
    assert spherical_check(scaled) == 4
    assert spherical_check(classical_embed(bergman(), 8)) is None
