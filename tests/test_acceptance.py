"""Acceptance gate: every criterion checked at exact rational tolerance.

Each test prints one PASS line (pytest reports the FAIL side). All numeric
comparisons are exact equality of ``fractions.Fraction`` values; the stated
runtime budgets are asserted as well.
"""

import time
from fractions import Fraction as F

from shiftlab.exactcore import vandermonde_solve
from shiftlab.fixtures import (
    alternating_sum_identity_fixture,
    constant_sum_grid_fixture,
    density_recovery_fixture,
    flat_head_power_fixture,
    hyponormality_agreement_suite,
    marginal_coherence_suite,
    power_measure_coherence_fixture,
    psd_cross_check_suite,
    rank_one_threshold_fixture,
    restriction_gap_fixture,
    row_measure_fixture,
    spherical_route_agreement_suite,
    stall_fixture,
)


def _run(criterion, budget_s, results):
    elapsed = results.pop("elapsed")
    for item in results["items"]:
        assert item.passed, f"criterion {criterion}: {item.name} -- {item.detail}"
    assert elapsed < budget_s, f"criterion {criterion} took {elapsed:.1f}s (budget {budget_s}s)"
    names = "; ".join(item.name for item in results["items"])
    print(f"PASS criterion {criterion} [{elapsed:.2f}s < {budget_s}s, exact]: {names}")


def _timed(fn):
    start = time.perf_counter()
    out = fn()
    items = out if isinstance(out, list) else [out]
    return {"items": items, "elapsed": time.perf_counter() - start}


def test_criterion_01_rank_one_thresholds():
    _run(1, 30, _timed(rank_one_threshold_fixture))


def test_criterion_02_restriction_gap():
    _run(2, 5, _timed(restriction_gap_fixture))


def test_criterion_03_flat_head_powers():
    _run(3, 60, _timed(flat_head_power_fixture))


def test_criterion_04_constant_sum_grid():
    _run(4, 5, _timed(constant_sum_grid_fixture))


def test_criterion_05_row_measures():
    _run(5, 1, _timed(row_measure_fixture))


def test_criterion_06_alternating_sum_identity():
    _run(6, 1, _timed(alternating_sum_identity_fixture))


def test_criterion_07_density_recovery():
    start = time.perf_counter()
    result = density_recovery_fixture()
    # the governing second moment is the density-formula value 49/108
    # ((1/9 + 1/4 + 1)/3); the 49/36 variant (densities dropped) does not
    # solve to the uniform weights and is rejected
    good = vandermonde_solve((F(1, 3), F(1, 2), 1), (1, F(11, 18), F(49, 108)))
    assert good == [F(1, 3), F(1, 3), F(1, 3)]
    bad = vandermonde_solve((F(1, 3), F(1, 2), 1), (1, F(11, 18), F(49, 36)))
    assert bad != [F(1, 3), F(1, 3), F(1, 3)]
    elapsed = time.perf_counter() - start
    assert result.passed, result.detail
    assert elapsed < 1
    print(f"PASS criterion 7 [{elapsed:.2f}s < 1s, exact]: {result.name}")


def test_criterion_08_power_measure_coherence():
    _run(8, 5, _timed(power_measure_coherence_fixture))


def test_criterion_09_stall_regression():
    _run(9, 1, _timed(stall_fixture))


def test_criterion_10_randomized_suites():
    start = time.perf_counter()
    results = [
        hyponormality_agreement_suite(seed=0),
        spherical_route_agreement_suite(seed=0),
        psd_cross_check_suite(seed=0),
        marginal_coherence_suite(seed=0),
    ]
    elapsed = time.perf_counter() - start
    for item in results:
        assert item.passed, f"criterion 10: {item.name} -- {item.detail}"
    assert elapsed < 120
    names = "; ".join(item.name for item in results)
    print(f"PASS criterion 10 [{elapsed:.2f}s < 120s, exact]: {names}")
