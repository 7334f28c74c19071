from fractions import Fraction as F

import pytest

from shiftlab import shift2d, threshold
from shiftlab.descriptors import shift1d_from_descriptor
from shiftlab.embed import classical_embed
from shiftlab.errors import NotMonotone
from shiftlab.shift2d import DEFAULT_WINDOW_2D, grid_reach, k_hyponormal_2v, restrict
from shiftlab.threshold import (
    ThresholdQuery,
    bisect_threshold,
    evaluate_predicate,
    query_from_descriptor,
    substitute_parameter,
)

RANK_ONE_TEMPLATE = {
    "prefix_sq": ["x"],
    "tail": {"kind": "rational_fn", "num": [1, 1], "den": [2, 1], "start": 1},
    "norm_bound_sq": "2",
}

FAMILY = {
    "parameter": "x",
    "lo": "1/2",
    "hi": "4/5",
    "shift": RANK_ONE_TEMPLATE,
}


def test_substitution_is_deep_and_exact():
    out = substitute_parameter(RANK_ONE_TEMPLATE, "x", F(9, 16))
    assert out["prefix_sq"] == ["9/16"]
    assert out["tail"]["num"] == [1, 1]  # untouched
    assert RANK_ONE_TEMPLATE["prefix_sq"] == ["x"]  # original not mutated


def test_predicate_routes():
    query = query_from_descriptor(FAMILY, op="khypo1", k=2, window=15)
    assert evaluate_predicate(query, F(9, 16))
    assert not evaluate_predicate(query, F(3, 5))
    query2 = query_from_descriptor(FAMILY, op="khypo2", k=1, window=8)
    assert evaluate_predicate(query2, F(2, 3))
    assert not evaluate_predicate(query2, F(2, 3) + F(1, 100))


def test_bisect_confirms_hyponormality_boundary():
    query = query_from_descriptor(
        FAMILY, op="khypo2", k=1, window=8, precision=10**4, candidate=F(2, 3)
    )
    result = bisect_threshold(query)
    assert result.candidate_confirmed is True
    assert result.lo <= F(2, 3) < result.hi
    assert result.hi - result.lo <= F(1, 10**4)


def test_bisect_one_variable_boundary_tight():
    query = query_from_descriptor(
        FAMILY, op="khypo1", k=3, window=20, precision=10**6, candidate=F(8, 15)
    )
    result = bisect_threshold(query)
    assert result.candidate_confirmed is True
    assert result.lo <= F(8, 15) < result.hi
    assert result.hi - result.lo <= F(1, 10**6)


def test_bisect_refutes_wrong_candidate():
    query = query_from_descriptor(
        FAMILY, op="khypo1", k=2, window=20, precision=100, candidate=F(3, 5)
    )
    assert bisect_threshold(query).candidate_confirmed is False


def test_bisect_rejects_non_monotone_bracket():
    bad = dict(FAMILY, lo="3/5", hi="4/5")
    with pytest.raises(NotMonotone):
        bisect_threshold(query_from_descriptor(bad, op="khypo1", k=2, window=15))
    bad2 = dict(FAMILY, lo="1/2", hi="11/20")
    with pytest.raises(NotMonotone):
        bisect_threshold(query_from_descriptor(bad2, op="khypo1", k=2, window=15))


def test_restriction_predicate():
    query = query_from_descriptor(
        FAMILY,
        op="khypo2",
        k=2,
        window=6,
        restriction=(2, 3, 0, 0),
    )
    assert evaluate_predicate(query, F(49, 90))
    assert not evaluate_predicate(query, F(49, 90) + F(1, 100))


def test_power_predicate():
    query = query_from_descriptor(FAMILY, op="sixpoint", k=1, window=5, power=(2, 3))
    assert evaluate_predicate(query, F(1, 2))


def test_query_validation():
    with pytest.raises(ValueError):
        ThresholdQuery(
            shift_template={},
            parameter="x",
            lo=F(0),
            hi=F(1),
            op="khypo2",
            power=(2, 2),
            restriction=(2, 2, 0, 0),
        )
    with pytest.raises(ValueError):
        query_from_descriptor(FAMILY, op="nonsense")
    for precision in (0, -5):
        with pytest.raises(ValueError, match="precision"):
            query_from_descriptor(FAMILY, op="khypo1", precision=precision)
    # khypo1 tests the 1-variable shift, so a power or restriction would be
    # ignored
    for extra in ({"power": (2, 2)}, {"restriction": (2, 3, 0, 0)}):
        with pytest.raises(ValueError, match="khypo1"):
            query_from_descriptor(FAMILY, op="khypo1", **extra)
    for op in ("khypo1", "khypo2", "sixpoint"):
        with pytest.raises(ValueError, match="k must be >= 1"):
            query_from_descriptor(FAMILY, op=op, k=0)


def test_sixpoint_grid_is_sized_for_k1(monkeypatch):
    ks = []
    real = threshold.sweep_targets

    def spy(build, k, window, power=None, restriction=None):
        ks.append(k)
        return real(build, k, window, power, restriction)

    monkeypatch.setattr(threshold, "sweep_targets", spy)
    query = query_from_descriptor(FAMILY, op="sixpoint", k=3, window=15)
    assert evaluate_predicate(query, F(1, 2))
    assert ks == [1]


@pytest.mark.parametrize("x", [F(49, 90), F(49, 90) + F(1, 100)], ids=["passing", "failing"])
def test_khypo2_restriction_predicate_reads_one_moment_table(monkeypatch, x):
    restriction = (2, 3, 0, 0)
    window = DEFAULT_WINDOW_2D
    # the grid route fixes the verdict and the base points tested up to it
    shift = shift1d_from_descriptor(substitute_parameter(RANK_ONE_TEMPLATE, "x", x))
    grid = classical_embed(shift, grid_reach(2, window, restriction=restriction))
    oracle = k_hyponormal_2v(restrict(grid, *restriction), 2, window)
    bases = [(u1, total - u1) for total in range(window + 1) for u1 in range(total + 1)]
    if not oracle.holds:
        bases = bases[:bases.index(oracle.first_failure) + 1]

    calls = []
    real_matrix, real_psd = shift2d.moment_matrix, shift2d.psd_test

    def matrix_spy(table, u, k):
        calls.append(("moment_matrix", u))
        return real_matrix(table, u, k)

    def psd_spy(matrix):
        calls.append(("psd_test", matrix.order))
        return real_psd(matrix)

    def forbidden(*args, **kwargs):
        raise AssertionError("a moment-table sweep builds no grid and fills no moments")

    monkeypatch.setattr(shift2d, "moment_matrix", matrix_spy)
    monkeypatch.setattr(shift2d, "psd_test", psd_spy)
    monkeypatch.setattr(shift2d, "moments", forbidden)
    monkeypatch.setattr(shift2d.Shift2D, "__init__", forbidden)
    query = query_from_descriptor(FAMILY, op="khypo2", k=2, restriction=restriction)
    assert evaluate_predicate(query, x) is oracle.holds
    assert calls == [call for u in bases for call in (("moment_matrix", u), ("psd_test", 6))]
