import functools
import random
from fractions import Fraction as F

import pytest

from shiftlab import exactcore, shift2d, threshold
from shiftlab.descriptors import shift1d_from_descriptor
from shiftlab.embed import classical_embed, classical_moments
from shiftlab.errors import NotMonotone
from shiftlab.shift2d import (
    DEFAULT_WINDOW_2D,
    k_hyponormal_2v,
    restrict,
    sweep_targets,
)
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

# flat_head_bergman(x): squared weights 1/2, 1/2, 1/2, x, then 2/3, 3/4, ...
FLAT_HEAD_TEMPLATE = {
    "prefix_sq": ["1/2", "1/2", "1/2", "x"],
    "tail": {"kind": "rational_fn", "num": [-2, 1], "den": [-1, 1], "start": 4},
    "norm_bound_sq": "1",
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


@pytest.mark.parametrize(
    "op, k, select",
    [
        ("khypo2", 1, {}),
        ("khypo2", 2, {"restriction": (2, 3, 0, 0)}),
        ("khypo2", 2, {"power": (2, 2)}),
        ("sixpoint", 1, {}),
        ("sixpoint", 1, {"power": (2, 3)}),
    ],
)
@pytest.mark.parametrize("x", [F(1, 2), F(3, 4)])
def test_two_variable_predicates_read_only_table_integers(monkeypatch, op, k, select, x):
    # prefix tables, their views and their matrices stay integers: no
    # Fraction value is built from them on the way to a verdict
    def forbidden(*args):
        raise AssertionError("a Fraction value was built from table integers")

    monkeypatch.setattr(shift2d, "fraction_rows", forbidden)
    monkeypatch.setattr(exactcore, "fraction_rows", forbidden)
    query = ThresholdQuery(RANK_ONE_TEMPLATE, "x", F(1, 2), F(3, 4), op, k=k, window=6, **select)
    assert evaluate_predicate(query, x) == (x == F(1, 2))


# (k, window, selection, error), as the sweeps themselves reject them
REJECTED_QUERIES = {
    "k0": (0, 4, {}, "k must be >= 1"),
    "window-5": (1, -5, {}, "window must be >= 0"),
    "q-beyond-n": (1, 4, {"restriction": (1000, 1, 0, 3)},
                   "need m,n >= 1 and 0 <= p < m, 0 <= q < n"),
    "power-and-restriction": (1, 4, {"power": (2, 2), "restriction": (5000, 1, 0, 0)},
                              "choose either a power or a restriction, not both"),
}


@pytest.mark.parametrize(
    "op, k, window, select, message",
    [(op, *case) for op in ("khypo2", "sixpoint") for case in REJECTED_QUERIES.values()]
    + [("khypo1", 1, -5, {}, "window must be >= 0")],
    ids=[f"{op}-{name}" for op in ("khypo2", "sixpoint") for name in REJECTED_QUERIES]
    + ["khypo1-window-5"],
)
def test_a_rejected_query_fails_when_it_is_constructed(op, k, window, select, message):
    with pytest.raises(ValueError) as err:
        ThresholdQuery(RANK_ONE_TEMPLATE, "x", F(1, 2), F(4, 5), op, k=k, window=window, **select)
    assert str(err.value) == message


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


def _selectors(power=None, restriction=None):
    if restriction is not None:
        return [restriction]
    if power is not None:
        m, n = power
        return [(m, n, p, q) for p in range(m) for q in range(n)]
    return [(1, 1, 0, 0)]


# (template, k, window, selection, x, matrices tested when the predicate holds)
RESTRICT_23 = {"restriction": (2, 3, 0, 0)}
ONE_MATRIX_PER_OFFSET = {
    "passing": (RANK_ONE_TEMPLATE, 2, DEFAULT_WINDOW_2D, RESTRICT_23, F(49, 90), 45),
    "failing": (RANK_ONE_TEMPLATE, 2, DEFAULT_WINDOW_2D, RESTRICT_23, F(49, 90) + F(1, 100), None),
    "whole-passing": (RANK_ONE_TEMPLATE, 2, DEFAULT_WINDOW_2D, {}, F(9, 16) - F(1, 100), 16),
    "whole-failing": (RANK_ONE_TEMPLATE, 2, DEFAULT_WINDOW_2D, {}, F(9, 16) + F(1, 100), None),
    "power-passing": (RANK_ONE_TEMPLATE, 2, 6, {"power": (2, 2)}, F(69, 100), 15),
    "power-failing": (RANK_ONE_TEMPLATE, 2, 6, {"power": (2, 2)}, F(71, 100), None),
    # fails at (0, 2), after skipping (1, 0), which shares (0, 1)'s offset
    "flat-head-failing": (FLAT_HEAD_TEMPLATE, 2, DEFAULT_WINDOW_2D, {}, F(1, 2), None),
}


@pytest.mark.parametrize(
    "template, k, window, select, x, tested",
    list(ONE_MATRIX_PER_OFFSET.values()),
    ids=list(ONE_MATRIX_PER_OFFSET),
)
def test_khypo2_restriction_predicate_reads_one_moment_table(
    monkeypatch, template, k, window, select, x, tested
):
    # the grid route fixes the verdict and the first failing base point; on a
    # classical table the matrix at u in the view (m, n, p, q) depends on u
    # only through c = p + q + m*u1 + n*u2, so one base point per new c is
    # tested, up to and including that failure
    shift = shift1d_from_descriptor(substitute_parameter(template, "x", x))
    # restrict() builds each component's own grid, which must hold
    # window + 2k + 1 of its steps: more than grid_reach, which sizes views
    need = window + 2 * k + 1
    grid = classical_embed(
        shift, max(max(m * need + p, n * need + q) for m, n, p, q in _selectors(**select))
    )
    bases = [(u1, total - u1) for total in range(window + 1) for u1 in range(total + 1)]
    expected, offsets, holds = [], set(), True
    for m, n, p, q in _selectors(**select):
        oracle = k_hyponormal_2v(restrict(grid, m, n, p, q), k, window)
        for u in bases:
            c = p + q + m * u[0] + n * u[1]
            if c not in offsets:
                offsets.add(c)
                expected.append(u)
            if u == oracle.first_failure:
                break
        if not oracle.holds:
            holds = False
            break

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
    family = dict(FAMILY, shift=template)
    query = query_from_descriptor(family, op="khypo2", k=k, window=window, **select)
    assert evaluate_predicate(query, x) is holds
    order = (k + 1) * (k + 2) // 2
    assert calls == [call for u in expected for call in (("moment_matrix", u), ("psd_test", order))]
    assert holds is (tested is not None)
    if holds:
        assert len(expected) == tested


SELECTIONS = [
    {},
    {"restriction": (2, 3, 0, 0)},
    {"restriction": (2, 3, 1, 2)},
    {"restriction": (3, 2, 2, 1)},
    {"power": (2, 3)},
    {"power": (2, 2)},
    {"power": (3, 1)},
]
# each boundary with the selection and k it bounds, at window 9
BOUNDARIES = [(F(2, 3), {}, 1), (F(9, 16), {}, 2), (F(8, 15), {}, 3), (F(49, 90), SELECTIONS[1], 2)]
STEPS = [F(0), F(1, 100), -F(1, 100), F(1, 10**9), -F(1, 10**9)]
XS = [b + d for b, _, _ in BOUNDARIES for d in STEPS]
_RNG = random.Random(13)
XS += [F(_RNG.randint(500, 800), 1000) for _ in range(6)]
REFERENCE_CASES = (
    [(RANK_ONE_TEMPLATE, b + d, select, k, 9) for b, select, k in BOUNDARIES for d in STEPS]
    # every family, selection, k and window, with the x values in turn
    + [
        (template, XS[i % len(XS)], select, k, window)
        for i, (template, select, k, window) in enumerate(
            (template, select, k, window)
            for template in (RANK_ONE_TEMPLATE, FLAT_HEAD_TEMPLATE)
            for select in SELECTIONS
            for k in (1, 2, 3)
            for window in (0, 1, 4, 9)
        )
    ]
    # cases the reference rejects
    + [
        (RANK_ONE_TEMPLATE, F(3, 5), select, k, window)
        for window, select in (
            (-1, {}),
            (-3, {"restriction": (2, 3, 1, 2)}),
            (2, {"restriction": (2, 3, 2, 0)}),
            (2, {"power": (0, 2)}),
            (-1, {"power": (2, 2)}),
        )
        for k in (1, 2, 3)
    ]
)


def _outcome(thunk):
    try:
        return thunk()
    except Exception as exc:  # the reference's error must be the predicate's
        return (type(exc), str(exc))


def test_khypo2_predicate_matches_the_full_sweep_of_every_view():
    outcomes = []
    for template, x, select, k, window in REFERENCE_CASES:
        shift = shift1d_from_descriptor(substitute_parameter(template, "x", x))
        build = functools.partial(classical_moments, shift)
        reference = _outcome(
            lambda: all(
                k_hyponormal_2v(t, k, window).holds
                for t in sweep_targets(build, k, window, **select)
            )
        )
        # a query the reference rejects is rejected when it is constructed
        query = _outcome(lambda: ThresholdQuery(
            template, "x", F(0), F(1), "khypo2", k=k, window=window, **select
        ))
        case = (x, select, k, window)
        if isinstance(reference, tuple):
            assert query == reference, case
        else:
            assert _outcome(lambda: evaluate_predicate(query, x)) == reference, case
        outcomes.append(reference)
    # both sides of every boundary, and every kind of outcome
    for i in range(len(BOUNDARIES)):
        assert outcomes[5 * i:5 * i + 5] == [True, False, True, False, True]
    assert {True, False} <= set(outcomes) and any(isinstance(o, tuple) for o in outcomes)
