"""Named verification fixtures and seeded randomized property suites.

Each fixture recomputes a worked example from scratch and compares against
frozen expected values; the randomized suites cross-check independent
computation routes on seeded random inputs. Both report pass/fail results
rather than raising, so the CLI and the test suite can share them.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction as F
from functools import partial

from .embed import (
    StallReport,
    classical_embed,
    classical_moments,
    recover_densities,
    spherical_embed_iterative,
    spherical_embed_measure,
)
from .exactcore import RationalPolynomial, SymMatrix, psd_memo_scope, psd_test, psd_test_minors
from .families import bergman_rank_one, flat_head_bergman
from .measures import (
    ArclengthSegment01,
    AtomicMeasure1D,
    AtomicMeasure2D,
    marginal,
    pushforward_atomic,
    row_measure,
)
from .shift1d import (
    Shift1D,
    bergman,
    curto_park_measures,
    from_measure,
    k_hyponormal,
    power_decompose,
)
from .shift2d import grid_reach, k_hyponormal_2v, moments, sweep_verdicts

THREE_ATOMS = AtomicMeasure1D((F(1, 3), F(1, 2), 1), (F(1, 3), F(1, 3), F(1, 3)))

EMBEDDING_WINDOW = 15  # base-point sweep bound u1 + u2 <= 15
COMPONENT_WINDOW = 6  # per-component sweep bound for power checks
STEP = F(1, 100)  # confirmation margin above each exact boundary
SUITE_TRIALS = 20  # random draws per seeded suite, except the PSD cross-check
PSD_TRIALS = 50  # random matrices in the PSD cross-check


@dataclass(frozen=True)
class FixtureResult:
    name: str
    passed: bool
    detail: str


def _result(name, passed, detail=""):
    return FixtureResult(name, bool(passed), detail)


# ---------------------------------------------------------------------------
# Worked-example fixtures
# ---------------------------------------------------------------------------


def rank_one_threshold_fixture() -> list:
    """Exact positivity boundaries of the rank-one family (x, 2/3, 3/4, ...)
    under the diagonal embedding, and of its (2,3) sublattice restriction."""
    out = []
    for k, boundary, restriction in (
        (1, F(2, 3), None),
        (2, F(9, 16), None),
        (3, F(8, 15), None),
        (2, F(49, 90), (2, 3, 0, 0)),
    ):
        at, above = (
            next(sweep_verdicts(partial(classical_moments, bergman_rank_one(x)), k,
                                EMBEDDING_WINDOW, restriction=restriction))
            for x in (boundary, boundary + STEP)
        )
        detail = f"first failure above at base {above.first_failure}"
        if restriction is None:
            name = f"embedding k={k} boundary {boundary}"
            detail = f"PSD at {boundary}, {detail}"
        else:
            name = f"(2,3)-restriction k={k} boundary {boundary}"
        out.append(_result(name, at.holds and not above.holds, detail))
    return out


def restriction_gap_fixture() -> FixtureResult:
    """Inside (49/90, 9/16] the embedding is 2-hyponormal while its (2,3)
    restriction is not; checked at x = 5/9."""
    embedding = partial(classical_moments, bergman_rank_one(F(5, 9)))
    (whole,) = sweep_verdicts(embedding, 2, EMBEDDING_WINDOW)
    (part,) = sweep_verdicts(embedding, 2, EMBEDDING_WINDOW, restriction=(2, 3, 0, 0))
    return _result(
        "2-hyponormal embedding with non-2-hyponormal (2,3) restriction at x=5/9",
        whole.holds and not part.holds,
        f"restriction fails at base {part.first_failure}",
    )


def flat_head_power_fixture() -> list:
    """The flat-head family at x = 3/5: the embedding passes k = 1 but its
    (2,3) power has a failing component and its (2,2) power fails k = 2;
    the corner restriction fails k = 2 itself, yet its (3,3) and (4,4)
    powers pass k = 2."""
    out = []
    embedding = partial(classical_moments, flat_head_bergman(F(3, 5)))
    (whole,) = sweep_verdicts(embedding, 1, EMBEDDING_WINDOW)
    out.append(_result("flat-head embedding passes k=1", whole.holds))
    failing = [
        pq
        for pq, verdict in zip(
            [(p, q) for p in range(2) for q in range(3)],
            sweep_verdicts(embedding, 1, COMPONENT_WINDOW, power=(2, 3)),
        )
        if not verdict.holds
    ]
    out.append(
        _result(
            "(2,3) power of the embedding has a failing component",
            bool(failing),
            f"failing components {failing}",
        )
    )
    square_power_failing = any(
        not verdict.holds
        for verdict in sweep_verdicts(embedding, 2, COMPONENT_WINDOW, power=(2, 2))
    )
    out.append(_result("(2,2) power of the embedding fails k=2", square_power_failing))

    def corner(size):
        # the (1,1) corner of the size + 1 grid: the size x size grid's table
        return embedding(size + 1).sublattice(1, 1, 1, 1)

    (corner_whole,) = sweep_verdicts(corner, 2, EMBEDDING_WINDOW)
    out.append(_result("corner restriction fails k=2", not corner_whole.holds))
    verdicts = {
        m: all(verdict.holds
               for verdict in sweep_verdicts(corner, 2, COMPONENT_WINDOW, power=(m, m)))
        for m in (3, 4)
    }
    out.append(
        _result(
            "corner restriction: (3,3) and (4,4) powers pass k=2",
            verdicts[3] and verdicts[4],
            f"verdicts {verdicts}",
        )
    )
    return out


def constant_sum_grid_fixture() -> FixtureResult:
    """Row-by-row construction from the Bergman row reproduces the closed-form
    constant-sum grid and its factorial moments on a 12-by-12 window."""
    window = 12
    grid = spherical_embed_iterative(bergman(), 1, window)
    if isinstance(grid, StallReport):
        return _result("constant-sum grid from Bergman row", False, f"stalled: {grid}")
    weights_ok = all(
        grid.alpha_sq(i, j) == F(i + 1, i + j + 2)
        and grid.beta_sq(i, j) == F(j + 1, i + j + 2)
        for i in range(window)
        for j in range(window)
    )
    table = moments(grid, window - 1)
    moments_ok = all(
        table.at(i, j)
        == F(math.factorial(i) * math.factorial(j), math.factorial(i + j + 1))
        for i in range(window)
        for j in range(window)
    )
    return _result(
        "constant-sum grid from Bergman row",
        weights_ok and moments_ok,
        "weights and moments match the closed forms",
    )


def row_measure_fixture() -> FixtureResult:
    """Rows of the arclength oracle carry the factorial moments
    k!(j+1)!/(k+j+1)! for j = 0..6, k = 0..12."""
    arc = ArclengthSegment01()
    ok = all(
        row_measure(arc, j).moment(k)
        == F(
            math.factorial(k) * math.factorial(j + 1),
            math.factorial(k + j + 1),
        )
        for j in range(7)
        for k in range(13)
    )
    return _result("arclength row-measure moments", ok)


def alternating_sum_identity_fixture() -> FixtureResult:
    """The alternating binomial sum equals the factorial ratio exactly for
    0 <= k, l <= 10."""
    ok = all(
        sum(F((-1) ** i * math.comb(ell, i), k + ell + 1 + i) for i in range(ell + 1))
        == F(
            math.factorial(k + ell) * math.factorial(ell),
            math.factorial(k + 2 * ell + 1),
        )
        for k in range(11)
        for ell in range(11)
    )
    return _result("alternating binomial / factorial identity", ok)


def density_recovery_fixture() -> FixtureResult:
    """Recover the three-atom constant-sum measure from its grid.

    The governing row moments are the density-formula values (1, 11/18,
    49/108); the recovered densities are all 1/3.
    """
    shift = spherical_embed_measure(THREE_ATOMS, 1, 6)
    mu = recover_densities(shift, (F(1, 3), F(1, 2), 1))
    expected = AtomicMeasure2D(
        ((F(1, 3), F(2, 3)), (F(1, 2), F(1, 2)), (1, 0)),
        (F(1, 3), F(1, 3), F(1, 3)),
    )
    return _result("three-atom density recovery", mu == expected, f"recovered {mu}")


def power_measure_coherence_fixture() -> FixtureResult:
    """Moments of the power summands equal the moments of the transformed
    component measures, exactly, for m in {2, 3} and k = 0..10."""
    shift = from_measure(THREE_ATOMS)
    ok = True
    for m in (2, 3):
        parts = power_decompose(shift, m, window=11)
        nus = curto_park_measures(THREE_ATOMS, m)
        ok = ok and all(
            parts[i].moment(k) == nus[i].moment(k)
            for i in range(m)
            for k in range(11)
        )
    return _result("power summand / component measure coherence", ok)


def stall_fixture() -> FixtureResult:
    """The construction from row 0 = (9/16, Bergman tail) with c = 1 stalls
    where the vertical weight reaches zero: grid point (0, 7)."""
    report = spherical_embed_iterative(bergman_rank_one(F(9, 16)), 1, 10)
    ok = (
        isinstance(report, StallReport)
        and report.location == (0, 7)
        and report.value == 0
    )
    return _result("stall regression for perturbed Bergman row", ok, f"{report}")


def example_fixtures() -> list:
    out = []
    out.extend(rank_one_threshold_fixture())
    out.append(restriction_gap_fixture())
    out.extend(flat_head_power_fixture())
    out.append(constant_sum_grid_fixture())
    out.append(row_measure_fixture())
    out.append(alternating_sum_identity_fixture())
    out.append(density_recovery_fixture())
    out.append(power_measure_coherence_fixture())
    out.append(stall_fixture())
    return out


# ---------------------------------------------------------------------------
# Seeded randomized suites
# ---------------------------------------------------------------------------


def _random_fraction(rng, lo: F, hi: F, max_den=24) -> F:
    den = rng.randint(2, max_den)
    lo_num = math.ceil(lo * den)
    hi_num = math.floor(hi * den)
    if lo_num > hi_num:
        return (lo + hi) / 2
    return F(rng.randint(lo_num, hi_num), den)


def _random_atomic(rng, n_atoms, lo=F(0), hi=F(1)) -> AtomicMeasure1D:
    atoms = set()
    while len(atoms) < n_atoms:
        atoms.add(_random_fraction(rng, lo, hi))
    weights = [rng.randint(1, 9) for _ in range(n_atoms)]
    total = sum(weights)
    return AtomicMeasure1D(
        tuple(sorted(atoms)), tuple(F(w, total) for w in weights)
    )


def hyponormality_agreement_suite(seed=0) -> FixtureResult:
    """1-variable Hankel positivity agrees with the diagonal-embedding
    positivity for k = 1, 2, 3 on random measure-backed shifts plus
    perturbations of them. Each trial walks its embedding's grid to one
    moment table, which every 2-variable sweep reads."""
    rng = random.Random(seed)
    window = 8
    grid = grid_reach(3, window)  # the k = 3 sweep reaches farthest
    mismatches = []
    for trial in range(SUITE_TRIALS):
        sigma = _random_atomic(rng, rng.randint(2, 4), F(1, 20), F(1))
        prefix = from_measure(sigma).weights_sq(2 * grid - 1)
        if trial % 3 == 2:
            # bump the first weight; agreement must also hold on failures
            prefix[0] *= 1 + F(rng.randint(1, 6), 10)
        shift = Shift1D(tuple(prefix))
        table = moments(classical_embed(shift, grid), grid - 1)
        for k in (1, 2, 3):
            one = k_hyponormal(shift, k, window).holds
            two = k_hyponormal_2v(table, k, window).holds
            if one != two:
                mismatches.append((trial, k, one, two))
    return _result(
        f"1-D/2-D positivity agreement on {SUITE_TRIALS} random shifts",
        not mismatches,
        f"mismatches {mismatches}" if mismatches else "all verdicts agree",
    )


def spherical_route_agreement_suite(seed=0) -> FixtureResult:
    """Iterative and measure-route constant-sum embeddings agree entrywise
    for random atomic measures inside (0, 1)."""
    rng = random.Random(seed + 1)
    window = 5
    failures = []
    for trial in range(SUITE_TRIALS):
        sigma = _random_atomic(rng, rng.randint(2, 4), F(1, 24), F(23, 24))
        iterative = spherical_embed_iterative(from_measure(sigma), 1, window)
        if isinstance(iterative, StallReport):
            failures.append((trial, "stalled", iterative.location))
            continue
        direct = spherical_embed_measure(sigma, 1, window)
        same = all(
            iterative.alpha_sq(i, j) == direct.alpha_sq(i, j)
            and iterative.beta_sq(i, j) == direct.beta_sq(i, j)
            for i in range(window)
            for j in range(window)
        )
        if not same:
            failures.append((trial, "grid mismatch", sigma.atoms))
    return _result(
        f"iterative vs measure-route equality on {SUITE_TRIALS} random measures",
        not failures,
        f"failures {failures}" if failures else "grids identical",
    )


def psd_cross_check_suite(seed=0) -> FixtureResult:
    """The LDL^T PSD test agrees with brute-force principal minors on
    random symmetric 4x4 rational matrices."""
    rng = random.Random(seed + 2)
    mismatches = 0
    for trial in range(PSD_TRIALS):
        if trial % 5 == 4:
            # random Gram matrix: guaranteed PSD
            a = [[F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(4)]
                 for _ in range(4)]
            rows = [
                [sum(a[r][i] * a[r][j] for r in range(4)) for j in range(4)]
                for i in range(4)
            ]
        else:
            rows = [[None] * 4 for _ in range(4)]
            for i in range(4):
                for j in range(i, 4):
                    rows[i][j] = rows[j][i] = F(
                        rng.randint(-6, 6), rng.randint(1, 6)
                    )
        matrix = SymMatrix(tuple(tuple(r) for r in rows))
        if psd_test(matrix).is_psd != psd_test_minors(matrix):
            mismatches += 1
    return _result(
        f"PSD certificate vs principal minors on {PSD_TRIALS} random matrices",
        mismatches == 0,
        f"{mismatches} mismatches",
    )


def marginal_coherence_suite(seed=0) -> FixtureResult:
    """Marginals of atomic pushforwards equal the single-coordinate
    pushforwards, collisions merged, for random measure/polynomial pairs."""
    rng = random.Random(seed + 3)
    failures = 0
    for _ in range(SUITE_TRIALS):
        sigma = _random_atomic(rng, rng.randint(1, 3))
        # nonnegative coefficients keep both polynomials nonnegative on [0, 1]
        p = RationalPolynomial(
            tuple(F(rng.randint(0, 3), rng.randint(1, 3)) for _ in range(rng.randint(1, 4)))
        )
        q = RationalPolynomial(
            tuple(F(rng.randint(0, 3), rng.randint(1, 3)) for _ in range(rng.randint(1, 4)))
        )
        mu = pushforward_atomic(sigma, p, q)
        x_direct = AtomicMeasure1D.from_pairs(
            (p(a), d) for a, d in zip(sigma.atoms, sigma.densities)
        )
        y_direct = AtomicMeasure1D.from_pairs(
            (q(a), d) for a, d in zip(sigma.atoms, sigma.densities)
        )
        if marginal(mu, "x") != x_direct or marginal(mu, "y") != y_direct:
            failures += 1
    return _result(
        f"pushforward/marginal coherence on {SUITE_TRIALS} random pairs",
        failures == 0,
        f"{failures} failures",
    )


def random_suites(seed=0) -> list:
    return [
        hyponormality_agreement_suite(seed),
        spherical_route_agreement_suite(seed),
        psd_cross_check_suite(seed),
        marginal_coherence_suite(seed),
    ]


@psd_memo_scope
def run_all(seed=0, include_random=True) -> list:
    results = example_fixtures()
    if include_random:
        results.extend(random_suites(seed))
    return results
