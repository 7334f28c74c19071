"""The integer route (tables and matrices kept as integers over one
denominator) against the Fraction route it replaced, on seeded tables."""

import math
import pickle
import random
from fractions import Fraction as F

import pytest

from shiftlab.descriptors import shift2d_from_descriptor
from shiftlab.embed import classical_embed, classical_moments
from shiftlab.exactcore import RationalPolynomial, SymMatrix, psd_test
from shiftlab.families import bergman_rank_one, flat_head_bergman
from shiftlab.measures import AtomicMeasure1D, Lebesgue01, pushforward_moments
from shiftlab.shift1d import from_measure
from shiftlab.shift2d import Moment2Table, _khypo_index_set, moment_matrix, moments, sie_bergman

P = RationalPolynomial.of


def _random_measure(rng):
    atoms = sorted(rng.sample([F(i, 24) for i in range(1, 25)], rng.randint(1, 4)))
    weights = [rng.randint(1, 9) for _ in atoms]
    return AtomicMeasure1D(tuple(atoms), tuple(F(w, sum(weights)) for w in weights))


def _generator(rng):
    """alpha_sq = (a + k1)/(k1 + k2 + c), beta_sq = (b + k2)/(k1 + k2 + c): commuting."""
    a, b, c = (str(rng.randint(1, 5)) for _ in range(3))
    den = [[c, "1"], ["1"]]
    descriptor = {"kind": "generator", "alpha_num": [[a], ["1"]], "alpha_den": den,
                  "beta_num": [[b, "1"]], "beta_den": den}
    return shift2d_from_descriptor(descriptor, window=11)


# -- the Fraction route, as it was --------------------------------------------


def _fraction_diagonal(weights):
    gamma = [F(1)]
    for w in weights[:-1]:
        gamma.append(gamma[-1] * w)
    n = (len(weights) + 1) // 2
    return Moment2Table(n - 1, tuple(tuple(gamma[i:i + n]) for i in range(n)))


def _fraction_sublattice(table, m, n, p, q):
    size = min((table.window - p) // m, (table.window - q) // n)
    scale = table.at(p, q)
    return Moment2Table(size, tuple(
        tuple(table.at(m * i + p, n * j + q) / scale for j in range(size + 1))
        for i in range(size + 1)
    ))


def _fraction_matrix(table, u, k):
    idx = _khypo_index_set(k)
    return SymMatrix(tuple(
        tuple(table.at(u[0] + a + c, u[1] + b + d) for c, d in idx) for a, b in idx
    ))


# -- seeded tables, each with its Fraction-route twin -------------------------


def _classical_pairs(rng):
    shifts = [bergman_rank_one(F(2, 3) + F(rng.randint(-20, 20), 1000)),
              flat_head_bergman(F(3, 5)), from_measure(_random_measure(rng))]
    for shift in shifts:
        weights = shift.weights_sq(2 * 12 - 1)
        yield classical_moments(shift, 12), _fraction_diagonal(weights)
        yield moments(classical_embed(shift, 12), 11), _fraction_diagonal(weights)


def _grid_pairs(rng):
    for shift in (sie_bergman(11), _generator(rng)):
        table = moments(shift, 10)
        yield table, Moment2Table(10, table.values)


def _pushforward_pairs(rng):
    sigma = _random_measure(rng)
    for base in (sigma, Lebesgue01()):
        p = P(0, rng.randint(1, 3))
        q = P(rng.randint(0, 2), rng.randint(1, 2), F(rng.randint(0, 3), 4))
        oracle = pushforward_moments(base, p, q)
        values = tuple(tuple(oracle.moment(i, j) for j in range(9)) for i in range(9))
        yield Moment2Table(8, values), Moment2Table.from_integers(8, *_scaled(values))


def _scaled(values):
    den = math.lcm(*(v.denominator for row in values for v in row))
    return tuple(tuple(v.numerator * (den // v.denominator) for v in row) for row in values), den


def _pairs(seed):
    rng = random.Random(seed)
    pairs = list(_classical_pairs(rng)) + list(_grid_pairs(rng)) + list(_pushforward_pairs(rng))
    for table, twin in list(pairs):
        for m, n, p, q in ((1, 1, 1, 2), (2, 3, 1, 2), (3, 2, 2, 1), (2, 2, 1, 1)):
            pairs.append((table.sublattice(m, n, p, q), _fraction_sublattice(twin, m, n, p, q)))
    return pairs


def _same_table(table, twin):
    assert table.window == twin.window
    assert table.values == twin.values
    w = table.window
    assert all(table.at(i, j) == twin.at(i, j) for i in range(w + 1) for j in range(w + 1))
    assert table == twin and twin == table
    assert hash(table) == hash(twin)
    assert repr(table) == repr(twin)
    for original in (table, twin):
        copy = pickle.loads(pickle.dumps(original))
        assert copy == table and hash(copy) == hash(twin)
        assert copy.scaled == original.scaled


@pytest.mark.parametrize("seed", range(3))
def test_tables_built_either_way_agree(seed):
    for table, twin in _pairs(seed):
        # pickled while a form may still be deferred
        unread = pickle.loads(pickle.dumps(table))
        # the integer form is read first, so Fraction values come from it
        rows, den = table.scaled
        assert den > 0
        assert all(F(v, den) == twin.at(i, j)
                   for i, row in enumerate(rows[:twin.window + 1])
                   for j, v in enumerate(row[:twin.window + 1]))
        _same_table(table, twin)
        assert unread == twin and unread.scaled == table.scaled


def test_integer_views_never_build_fraction_values():
    table = classical_moments(bergman_rank_one(F(9, 16)), 20)
    view = table.sublattice(2, 3, 1, 2)
    moment_matrix(view, (1, 1), 2)
    assert callable(vars(table)["_values"]) and callable(vars(view)["_values"])
    # the view's denominator is the (p, q) numerator of the table
    assert view.scaled[1] == table.scaled[0][1][2]


def _same_verdict(matrix, twin):
    lazy, eager = psd_test(matrix), psd_test(twin)
    assert lazy.is_psd == eager.is_psd
    assert lazy.first_failure == eager.first_failure
    # a passing verdict defers its certificate; read it before the others
    assert callable(vars(lazy)["_certificate"]) == lazy.is_psd
    assert lazy.certificate == eager.certificate
    read_first = psd_test(matrix)
    read_first.certificate
    assert repr(lazy) == repr(eager) == repr(read_first)
    assert lazy == eager == read_first and hash(lazy) == hash(eager) == hash(psd_test(matrix))
    return lazy.is_psd


@pytest.mark.parametrize("seed", range(3))
def test_psd_verdicts_on_integer_matrices_equal_the_fraction_route(seed):
    verdicts, common_factors = set(), 0
    for table, twin in _pairs(seed):
        for k in (1, 2, 3):
            for u in ((0, 0), (1, 0), (0, 2), (1, 1)):
                if table.window < max(u) + 2 * k:
                    continue
                matrix = moment_matrix(table, u, k)
                rows, _ = matrix.scaled
                common_factors += math.gcd(*(v for row in rows for v in row)) > 1
                assert matrix == _fraction_matrix(twin, u, k)
                verdicts.add(_same_verdict(matrix, _fraction_matrix(twin, u, k)))
    # both verdicts occur, and table integers with a common factor are met
    assert verdicts == {True, False}
    assert common_factors > 0


@pytest.mark.parametrize(
    "rows",
    [
        ((4, 2, 0), (2, 4, 2), (0, 2, 3)),
        ((1, 2), (2, 1)),
        ((0, 0), (0, 0)),
        ((9, 3, 6), (3, 1, 2), (6, 2, 4)),
    ],
)
@pytest.mark.parametrize("factor, den", [(1, 1), (6, 1), (10, 15), (12, 7)])
def test_from_integers_with_a_common_factor_is_the_fraction_matrix(rows, factor, den):
    scaled = tuple(tuple(factor * v for v in row) for row in rows)
    matrix = SymMatrix.from_integers(scaled, den)
    twin = SymMatrix(tuple(tuple(F(factor * v, den) for v in row) for row in rows))
    assert matrix.order == twin.order == len(rows)
    assert matrix.entry(0, 1) == twin.entry(0, 1)
    assert matrix == twin and hash(matrix) == hash(twin) and repr(matrix) == repr(twin)
    assert pickle.loads(pickle.dumps(matrix)) == twin
    _same_verdict(matrix, twin)


def test_from_integers_checks_shape_symmetry_and_denominator():
    with pytest.raises(ValueError, match="square and nonempty"):
        SymMatrix.from_integers(((1, 2), (2,)), 1)
    with pytest.raises(ValueError, match=r"not symmetric at \(1,0\)"):
        SymMatrix.from_integers(((1, 2), (3, 1)), 1)
    for den in (0, -2):
        with pytest.raises(ValueError, match="denominator must be positive"):
            SymMatrix.from_integers(((1,),), den)
        with pytest.raises(ValueError, match="denominator must be positive"):
            Moment2Table.from_integers(0, ((1,),), den)
    # lists are accepted as rows
    assert SymMatrix.from_integers([[2, 1], [1, 2]], 2) == SymMatrix(((1, F(1, 2)), (F(1, 2), 1)))


def test_sublattice_keeps_a_positive_denominator():
    table = Moment2Table(2, ((1, 2, 3), (-2, -4, 5), (0, 7, 8)))
    view = table.sublattice(1, 1, 1, 0)
    assert view.scaled[1] > 0
    assert view.values == ((1, 2), (0, F(-7, 2)))
    with pytest.raises(ZeroDivisionError, match=r"moment \(2,0\) is zero"):
        table.sublattice(1, 1, 2, 0)


@pytest.mark.parametrize("seed", range(4))
def test_atomic_moments_are_the_density_weighted_powers(seed):
    rng = random.Random(seed)
    for _ in range(10):
        sigma = _random_measure(rng)
        if rng.random() < 0.3:
            sigma = AtomicMeasure1D.from_pairs([(0, F(1, 5))] + [
                (a, d * F(4, 5)) for a, d in zip(sigma.atoms, sigma.densities)])
        for k in range(12):
            expected = sum(d * a**k for a, d in zip(sigma.atoms, sigma.densities))
            assert sigma.moment(k) == expected
            assert type(sigma.moment(k)) is F
    with pytest.raises(ValueError, match="moment index must be >= 0"):
        sigma.moment(-1)

