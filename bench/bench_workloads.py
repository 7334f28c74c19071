"""Seeded inputs, query lists and independent expected values.

Generators (``*_inputs``) are pure functions of the seed and import nothing
from shiftlab, so their determinism and validity can be tested on their own.
Expected values are computed here with plain ``Fraction`` arithmetic from the
generated inputs or from theory, never by the code under test.

Every generator fixes the *shape* of its inputs (counts, degrees, matrix
orders, denominators) and lets the seed choose only values inside that
shape, so that the work a pass does stays nearly constant across seeds.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction as F

WINDOW = 15  # base-point sweep bound u1 + u2 <= 15, the CLI default

WORKLOADS = ("fixtures", "threshold", "distinct", "measures")


def rng_for(workload, seed):
    return random.Random(f"shiftlab-bench:{workload}:{seed}")


def fmt(value):
    return str(F(value))


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# Generated objects
# ---------------------------------------------------------------------------

# Atoms are p/D with p a prime coprime to D.  Every atom then has denominator
# exactly D, the cleared generating polynomial of an n-atom measure has
# leading coefficient D**n and constant term a product of n distinct primes,
# and the rational-root search does the same amount of work for every seed.
ATOM_PRIMES = {
    42: (5, 11, 13, 17, 19, 23, 29, 31, 37, 41),
    30: (7, 11, 13, 17, 19, 23, 29),
}


def atomic_measure(rng, n):
    """n atoms in (0, 1) and positive densities summing to 1."""
    den = 42 if n <= 3 else 30
    atoms = [F(p, den) for p in sorted(rng.sample(ATOM_PRIMES[den], n))]
    weights = [rng.randint(1, 6) for _ in range(n)]
    total = sum(weights)
    return atoms, [F(w, total) for w in weights]


def atomic_descriptor(atoms, densities):
    return {
        "kind": "atomic1d",
        "atoms": [fmt(a) for a in atoms],
        "densities": [fmt(d) for d in densities],
    }


def measure_shift_descriptor(atoms, densities):
    """The 1-variable shift whose Berger measure is the given atomic measure."""
    return {"prefix_sq": [], "tail": {"kind": "from_measure",
                                      "measure": atomic_descriptor(atoms, densities)}}


# Polynomial coefficients come from pools with fixed denominators, so the
# bit sizes of pushforward moments do not drift with the seed.
UNITS = (F(1, 3), F(2, 3), F(4, 3), F(5, 3))


def nonneg_linear(rng):
    """u r + v (1 - r) with u != v both positive: positive on [0, 1]."""
    u, v = rng.sample(UNITS, 2)
    return [v, u - v]


def nonneg_quadratic(rng):
    """s (r - t)^2 + u r + v (1 - r) with s, u, v > 0 and t in (0, 1).

    Positive on [0, 1] term by term, with its minimum inside the interval
    whenever the square dominates.
    """
    s = rng.choice(UNITS) * 3
    t = F(rng.randint(1, 6), 7)
    u, v = rng.choice(UNITS) / 4, rng.choice(UNITS) / 4
    return [s * t * t + v, -2 * s * t + u - v, s]


# ---------------------------------------------------------------------------
# Independent exact arithmetic for expected values
# ---------------------------------------------------------------------------


def poly_value(coeffs, x):
    acc = F(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_mul(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def base_moment(base, k):
    if base["kind"] == "lebesgue01":
        return F(1, k + 1)
    j = base["j"]  # beta: (j-1)(1-r)^(j-2) dr
    return F(math.factorial(k) * math.factorial(j - 1), math.factorial(k + j - 1))


def continuous_pushforward_table(base, p, q, size):
    """gamma(i, j) = integral of p^i q^j against the base, 0 <= i, j < size."""
    p_pows, q_pows = [[F(1)]], [[F(1)]]
    for _ in range(size):
        p_pows.append(poly_mul(p_pows[-1], p))
        q_pows.append(poly_mul(q_pows[-1], q))
    return [
        [
            sum(c * base_moment(base, k) for k, c in enumerate(poly_mul(p_pows[i], q_pows[j])))
            for j in range(size)
        ]
        for i in range(size)
    ]


def atomic_pushforward_table(atoms, densities, p, q, size):
    images = [(poly_value(p, a), poly_value(q, a), d) for a, d in zip(atoms, densities)]
    return [
        [sum(d * s**i * t**j for s, t, d in images) for j in range(size)]
        for i in range(size)
    ]


def grid_from_table(table, window):
    """Squared weights alpha = gamma(k+e1)/gamma(k), beta = gamma(k+e2)/gamma(k)."""
    alpha = [[table[i + 1][j] / table[i][j] for j in range(window)] for i in range(window)]
    beta = [[table[i][j + 1] / table[i][j] for j in range(window)] for i in range(window)]
    return alpha, beta


def spherical_grid(atoms, densities, c, window):
    """Constant-sum grid of an atomic measure: pushforward under (r, c - r)."""
    table = atomic_pushforward_table(atoms, densities, [F(0), F(1)], [F(c), F(-1)], window + 1)
    return grid_from_table(table, window)


def _strings(grid):
    return [[fmt(w) for w in row] for row in grid]


def grid_descriptor(alpha, beta):
    """An explicit grid, as the CLI reads it and as ``embed`` reports it."""
    return {"alpha_sq": _strings(alpha), "beta_sq": _strings(beta), "window": len(alpha)}


def merged(pairs):
    """Sorted (atom, density) pairs with coinciding atoms merged."""
    out = {}
    for atom, density in pairs:
        out[atom] = out.get(atom, F(0)) + density
    return sorted(out.items())


def measure_moment(atoms, densities, k):
    return sum(d * a**k for a, d in zip(atoms, densities))


# ---------------------------------------------------------------------------
# fixtures: shiftlab.fixtures.run_all(seed), one query per pass
# ---------------------------------------------------------------------------

FIXTURE_RESULTS = 20  # FixtureResult records that run_all returns


def fixtures_inputs(seed):
    """The seed of run_all's randomized cross-check suites."""
    return {"seed": seed}


# ---------------------------------------------------------------------------
# threshold: README rank-one family, seeded brackets around known boundaries
# ---------------------------------------------------------------------------

RANK_ONE_FAMILY = {
    "prefix_sq": ["x"],
    "tail": {"kind": "rational_fn", "num": [1, 1], "den": [2, 1], "start": 1},
    "norm_bound_sq": "1",
}
# (extra CLI arguments, exact boundary from the README and the acceptance suite)
THRESHOLD_QUERIES = (
    (["--op", "khypo2", "--k", "1"], F(2, 3)),
    (["--op", "khypo2", "--k", "2"], F(9, 16)),
    (["--op", "khypo2", "--k", "2", "--restriction", "2,3,0,0"], F(49, 90)),
    (["--op", "sixpoint"], F(2, 3)),
)
BRACKET_WIDTH = F(1, 16)
PRECISION = 10**6
STEPS = 16  # bisection steps from width 1/16 to at most 1/PRECISION


def bracket(rng, boundary):
    """(lo, hi) with hi - lo = 1/16 and lo < boundary < hi.

    The boundary sits at offset t * width above lo, where the first STEPS
    binary digits of t hold exactly STEPS/2 ones and t is not dyadic.  Each
    digit decides one bisection step (1: the midpoint passes and the full
    sweep runs; 0: it fails at the first base point), so every bracket costs
    the same number of full sweeps while the path itself follows the seed.
    """
    digits = [1] * (STEPS // 2) + [0] * (STEPS // 2)
    rng.shuffle(digits)
    head = int("".join(map(str, digits)), 2)
    t = (head + F(rng.choice((1, 2)), 3)) / 2**STEPS
    lo = boundary - BRACKET_WIDTH * t
    return lo, lo + BRACKET_WIDTH


def threshold_inputs(seed):
    rng = rng_for("threshold", seed)
    out = []
    for args, boundary in THRESHOLD_QUERIES:
        lo, hi = bracket(rng, boundary)
        family = {"parameter": "x", "lo": fmt(lo), "hi": fmt(hi), "shift": RANK_ONE_FAMILY}
        out.append((args, boundary, family))
    return out


def check_threshold(result, boundary):
    lo, hi = F(result["lo"]), F(result["hi"])
    if result["candidate_confirmed"] is not True:
        return f"candidate {boundary} not confirmed"
    if not (lo <= boundary < hi) or hi - lo > F(1, PRECISION):
        return f"bracket [{lo}, {hi}] does not isolate {boundary}"
    if result["iterations"] != STEPS:
        return f"{result['iterations']} bisection steps, expected {STEPS}"
    return None


# ---------------------------------------------------------------------------
# distinct: sweeps on 2-variable shifts whose moment matrices never repeat
# ---------------------------------------------------------------------------


def distinct_inputs(seed):
    """(label, route, descriptor, k).  Every shift has a Berger measure, so
    every sweep holds at every k (the expected verdict)."""
    rng = rng_for("distinct", seed)
    out = [(f"sie_bergman k={k}", "shift2d", {"kind": "sie_bergman"}, k) for k in (1, 2, 3, 4)]
    for k, base in ((2, {"kind": "lebesgue01"}), (3, {"kind": "beta", "j": 3})):
        # p = u r keeps the pushforward expansion cheap, so the sweep dominates
        spec = {
            "kind": "poly",
            "p": ["0", fmt(rng.choice(UNITS))],
            "q": [fmt(c) for c in nonneg_quadratic(rng)],
            "base": base,
        }
        out.append((f"poly {base['kind']} k={k}", "embedding", spec, k))
    for k, n in ((2, 4), (3, 3)):
        spec = {"kind": "spherical", "c": "1", "base": atomic_descriptor(*atomic_measure(rng, n))}
        out.append((f"spherical atomic n={n} k={k}", "embedding", spec, k))
    return out


# ---------------------------------------------------------------------------
# measures: many short CLI queries on seeded measures and polynomial pairs
# ---------------------------------------------------------------------------

SPHERICAL_C = (F(1), F(6, 5), F(3, 2))
EMBED_WINDOW = 8
POLY_WINDOW = 6
GRID_WINDOW = 6
DECOMPOSE_WINDOW = 10
MOMENTS2_WINDOW = 40


def atomic2d(rng):
    """Five distinct planar atoms on a coarse lattice, so marginals merge."""
    atoms = set()
    while len(atoms) < 5:
        atoms.add((F(rng.randint(0, 3), 4), F(rng.randint(1, 4), 5)))
    weights = [rng.randint(1, 6) for _ in atoms]
    total = sum(weights)
    return sorted(atoms), [F(w, total) for w in weights]


def measures_inputs(seed):
    """A fixed mix of query kinds; each item is (kind, params, files).

    ``files`` maps a file slot to the JSON object written for it; the CLI
    arguments are built from the params and the written paths.
    """
    rng = rng_for("measures", seed)
    items = []
    for n in (3, 3, 4, 4, 5, 5):
        atoms, dens = atomic_measure(rng, n)
        items.append(("recursion", {"atoms": atoms, "densities": dens},
                      {"shift": measure_shift_descriptor(atoms, dens)}))
    for i in range(6):
        atoms, dens = atomic_measure(rng, 3 + i % 2)
        c = SPHERICAL_C[i % 3]
        items.append(("embed-spherical-base", {"atoms": atoms, "densities": dens, "c": c},
                      {"base": atomic_descriptor(atoms, dens)}))
    for i in range(6):
        atoms, dens = atomic_measure(rng, 3 + i % 2)
        items.append(("embed-spherical-row0", {"atoms": atoms, "densities": dens},
                      {"row0": measure_shift_descriptor(atoms, dens)}))
    for i in range(6):
        base = {"kind": "lebesgue01"} if i % 2 == 0 else {"kind": "beta", "j": 3 + i % 4 // 2}
        p, q = nonneg_quadratic(rng), nonneg_linear(rng)
        items.append(("embed-poly", {"base": base, "p": p, "q": q}, {"base": base}))
    for i in range(4):
        atoms, dens = atomic_measure(rng, 3 + i % 2)
        c = SPHERICAL_C[i % 3]
        alpha, beta = spherical_grid(atoms, dens, c, GRID_WINDOW)
        items.append(("recover", {"atoms": atoms, "densities": dens, "c": c},
                      {"shift": grid_descriptor(alpha, beta)}))
    for i in range(4):
        atoms, dens = atomic_measure(rng, 3 + i % 2)
        c = SPHERICAL_C[(i + 1) % 3]
        alpha, beta = spherical_grid(atoms, dens, c, GRID_WINDOW)
        items.append(("spherical-check", {"c": c}, {"shift": grid_descriptor(alpha, beta)}))
    for i in range(6):
        atoms, dens = atomic_measure(rng, 3 + i % 2)
        p, q = nonneg_quadratic(rng), nonneg_linear(rng)
        items.append(("pushforward-atomic", {"atoms": atoms, "densities": dens, "p": p, "q": q},
                      {"measure": atomic_descriptor(atoms, dens)}))
    for i in range(4):
        base = {"kind": "lebesgue01"} if i % 2 == 0 else {"kind": "beta", "j": 3 + i // 2}
        p, q = nonneg_linear(rng), nonneg_quadratic(rng)
        items.append(("pushforward-moments", {"base": base, "p": p, "q": q}, {"measure": base}))
    for i in range(6):
        atoms, dens = atomic2d(rng)
        measure = {
            "kind": "atomic2d",
            "atoms": [[fmt(s), fmt(t)] for s, t in atoms],
            "densities": [fmt(d) for d in dens],
        }
        items.append(("marginal", {"atoms": atoms, "densities": dens, "axis": "xy"[i % 2]},
                      {"measure": measure}))
    for i in range(4):
        atoms, dens = atomic_measure(rng, 3 + i % 2)
        items.append(("curto-park", {"atoms": atoms, "densities": dens, "m": 2 + i % 2},
                      {"measure": atomic_descriptor(atoms, dens)}))
    for i in range(4):
        atoms, dens = atomic_measure(rng, 3 + i % 2)
        items.append(("decompose", {"atoms": atoms, "densities": dens, "m": 2 + i % 2},
                      {"shift": measure_shift_descriptor(atoms, dens)}))
    atoms, dens = atomic_measure(rng, 3)
    items.append(("moments2-classical", {"atoms": atoms, "densities": dens},
                  {"shift": {"kind": "classical", "base": measure_shift_descriptor(atoms, dens)}}))
    items.append(("moments2-sie", {}, {"shift": {"kind": "sie_bergman"}}))
    return items


def measures_args(kind, params, paths):
    """CLI arguments for one measures query, given the written file paths."""
    if kind == "recursion":
        return ["recursion", "--shift", paths["shift"], "--count", "11", "--max-order", "5"]
    if kind == "embed-spherical-base":
        return ["embed", "--kind", "spherical", "--base", paths["base"],
                "--c", fmt(params["c"]), "--window", str(EMBED_WINDOW)]
    if kind == "embed-spherical-row0":
        return ["embed", "--kind", "spherical", "--row0", paths["row0"],
                "--c", "1", "--window", str(EMBED_WINDOW)]
    if kind == "embed-poly":
        return ["embed", "--kind", "poly", "--base", paths["base"],
                "--p", json.dumps([fmt(c) for c in params["p"]]),
                "--q", json.dumps([fmt(c) for c in params["q"]]),
                "--window", str(POLY_WINDOW)]
    if kind == "recover":
        return ["recover", "--shift", paths["shift"],
                "--atoms", ",".join(fmt(a) for a in params["atoms"])]
    if kind == "spherical-check":
        return ["spherical-check", "--shift", paths["shift"]]
    if kind in ("pushforward-atomic", "pushforward-moments"):
        return ["pushforward", "--measure", paths["measure"],
                "--p", json.dumps([fmt(c) for c in params["p"]]),
                "--q", json.dumps([fmt(c) for c in params["q"]]),
                "--window", str(POLY_WINDOW)]
    if kind == "marginal":
        return ["marginal", "--measure", paths["measure"], "--axis", params["axis"]]
    if kind == "curto-park":
        return ["curto-park", "--measure", paths["measure"], "--m", str(params["m"])]
    if kind == "decompose":
        return ["decompose", "--shift", paths["shift"], "--m", str(params["m"]),
                "--window", str(DECOMPOSE_WINDOW)]
    if kind in ("moments2-classical", "moments2-sie"):
        return ["moments2", "--shift", paths["shift"], "--window", str(MOMENTS2_WINDOW)]
    raise ValueError(f"unknown measures query {kind!r}")


def measures_expected(kind, params):
    """The expected ``result`` object of one measures query."""
    atoms, dens = params.get("atoms"), params.get("densities")
    if kind == "recursion":
        n = len(atoms)
        return {"found": True, "order": n,
                "atoms": [[fmt(a), fmt(d)] for a, d in zip(atoms, dens)]}
    if kind in ("embed-spherical-base", "embed-spherical-row0"):
        # both routes build the constant-sum grid of the same measure
        return {"shift": grid_descriptor(
            *spherical_grid(atoms, dens, params.get("c", 1), EMBED_WINDOW))}
    if kind == "embed-poly":
        table = continuous_pushforward_table(params["base"], params["p"], params["q"],
                                             POLY_WINDOW + 1)
        return {"shift": grid_descriptor(*grid_from_table(table, POLY_WINDOW))}
    if kind == "recover":
        c = params["c"]
        return {"measure": {"kind": "atomic2d",
                            "atoms": [[fmt(a), fmt(c - a)] for a in atoms],
                            "densities": [fmt(d) for d in dens]}}
    if kind == "spherical-check":
        return {"constant": fmt(params["c"])}
    if kind == "pushforward-atomic":
        p, q = params["p"], params["q"]
        pairs = merged(((poly_value(p, a), poly_value(q, a)), d) for a, d in zip(atoms, dens))
        return {"measure": {"kind": "atomic2d",
                            "atoms": [[fmt(s), fmt(t)] for (s, t), _ in pairs],
                            "densities": [fmt(d) for _, d in pairs]}}
    if kind == "pushforward-moments":
        table = continuous_pushforward_table(params["base"], params["p"], params["q"],
                                             POLY_WINDOW + 1)
        return {"moments": _strings(table)}
    if kind == "marginal":
        coord = 0 if params["axis"] == "x" else 1
        pairs = merged((a[coord], d) for a, d in zip(atoms, dens))
        return {"measure": atomic_descriptor(*zip(*pairs))}
    if kind == "curto-park":
        m = params["m"]
        out = []
        for i in range(m):
            gamma_i = measure_moment(atoms, dens, i)
            pairs = merged((a**m, d * a**i / gamma_i) for a, d in zip(atoms, dens))
            out.append(atomic_descriptor(*zip(*pairs)))
        return {"measures": out}
    if kind == "decompose":
        m = params["m"]
        moments = [measure_moment(atoms, dens, k) for k in range(m * DECOMPOSE_WINDOW + m + 1)]
        weight = [moments[k + 1] / moments[k] for k in range(len(moments) - 1)]
        components = []
        for i in range(m):
            prefix = []
            for k in range(DECOMPOSE_WINDOW):
                w = F(1)
                for offset in range(m):
                    w *= weight[i + k * m + offset]
                prefix.append(fmt(w))
            components.append({"prefix_sq": prefix, "tail": {"kind": "none"},
                               "norm_bound_sq": fmt(max(atoms) ** m)})
        return {"components": components}
    size = MOMENTS2_WINDOW + 1
    if kind == "moments2-classical":
        gamma = [measure_moment(atoms, dens, k) for k in range(2 * size)]
        return {"moments": [[fmt(gamma[i + j]) for j in range(size)] for i in range(size)]}
    if kind == "moments2-sie":
        # spherically isometric Bergman grid: gamma(i, j) = i! j! / (i + j + 1)!
        f = math.factorial
        return {"moments": [[fmt(F(f(i) * f(j), f(i + j + 1))) for j in range(size)]
                            for i in range(size)]}
    raise ValueError(f"unknown measures query {kind!r}")


def check_measures(result, kind, params):
    expected = measures_expected(kind, params)
    for key, value in expected.items():
        if result.get(key) != value:
            return f"result.{key} differs from the expected value"
    return None
