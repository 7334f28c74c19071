"""Tests of the benchmark's own code: generators, expected values, self time."""

import json
import signal
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

import bench_trace
import bench_workloads as wl
import run

SEEDS = (0, 1, 7)


def _bytes(inputs):
    return json.dumps(inputs, sort_keys=True, default=str).encode()


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_generators_are_deterministic_per_seed(workload):
    generate = getattr(wl, f"{workload}_inputs")
    assert _bytes(generate(3)) == _bytes(generate(3))
    assert _bytes(generate(3)) != _bytes(generate(4))


def _nonneg_on_unit_interval(coeffs):
    """Exact check for degree <= 2: the minimum is at an end or the vertex."""
    points = [F(0), F(1)]
    if len(coeffs) == 3 and coeffs[2] > 0:
        vertex = -coeffs[1] / (2 * coeffs[2])
        if 0 < vertex < 1:
            points.append(vertex)
    return all(wl.poly_value(coeffs, x) >= 0 for x in points)


def _polynomials(seed):
    for _, _, spec, _ in wl.distinct_inputs(seed):
        if spec.get("kind") == "poly":
            yield [F(c) for c in spec["p"]]
            yield [F(c) for c in spec["q"]]
    for kind, params, _ in wl.measures_inputs(seed):
        if "p" in params:
            yield params["p"]
            yield params["q"]


@pytest.mark.parametrize("seed", SEEDS)
def test_polynomial_pairs_are_nonnegative_on_unit_interval(seed):
    polys = list(_polynomials(seed))
    assert len(polys) == 36
    for coeffs in polys:
        assert any(coeffs) and _nonneg_on_unit_interval(coeffs), coeffs


@pytest.mark.parametrize("seed", SEEDS)
def test_atomic_measures_are_probability_measures_in_unit_interval(seed):
    for kind, params, _ in wl.measures_inputs(seed):
        atoms, densities = params.get("atoms"), params.get("densities")
        if atoms is None or kind == "marginal":
            continue
        assert atoms == sorted(set(atoms)) and all(0 < a < 1 for a in atoms)
        assert all(d > 0 for d in densities) and sum(densities) == 1
        # every atom carries the full denominator, so root-search work is fixed
        assert len({a.denominator for a in atoms}) == 1


@pytest.mark.parametrize("seed", SEEDS)
def test_threshold_brackets_enclose_boundaries_with_a_fixed_path_cost(seed):
    for args, boundary, family in wl.threshold_inputs(seed):
        lo, hi = F(family["lo"]), F(family["hi"])
        assert lo < boundary < hi and hi - lo == wl.BRACKET_WIDTH
        # bisection against the exact boundary: same step count, half passing
        passing, steps = 0, 0
        while hi - lo > F(1, wl.PRECISION):
            mid = (lo + hi) / 2
            if mid <= boundary:
                lo, passing = mid, passing + 1
            else:
                hi = mid
            steps += 1
        assert (steps, passing) == (wl.STEPS, wl.STEPS // 2)


def test_threshold_endpoints_do_not_raise_not_monotone():
    """The library predicate holds at each lo and fails at each hi."""
    shiftlab = run.load_library()
    for args, boundary, family in wl.threshold_inputs(0):
        flags = dict(zip(args[::2], args[1::2]))
        restriction = flags.get("--restriction")
        for key, expected in (("lo", True), ("hi", False)):
            query = shiftlab.threshold.query_from_descriptor(
                family, op=flags["--op"], k=int(flags.get("--k", 1)),
                restriction=tuple(map(int, restriction.split(","))) if restriction else None)
            x = F(family[key])
            assert shiftlab.threshold.evaluate_predicate(query, x) is expected, (args, key)


@pytest.mark.parametrize("seed", SEEDS)
def test_expected_values_are_computable_for_every_measures_query(seed):
    items = wl.measures_inputs(seed)
    assert len(items) == 58
    for kind, params, files in items:
        expected = wl.measures_expected(kind, params)
        assert expected
        wl.measures_args(kind, params, {slot: f"{slot}.json" for slot in files})


def test_spherical_grid_has_constant_weight_sum():
    atoms, densities = [F(1, 3), F(1, 2)], [F(1, 4), F(3, 4)]
    alpha, beta = wl.spherical_grid(atoms, densities, F(3, 2), 4)
    assert all(a + b == F(3, 2) for ra, rb in zip(alpha, beta) for a, b in zip(ra, rb))
    assert alpha[0][0] == wl.measure_moment(atoms, densities, 1)


def test_self_time_subtracts_direct_children():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and b [5, 9]
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 2.0, 3.0, 1, 0],
        ["b", 5.0, 9.0, 0, 0],
    ]
    calls, seconds = bench_trace.self_times(spans)
    assert dict(calls) == {"root": 1, "a": 1, "b": 2}
    assert seconds["root"] == pytest.approx(3.0)
    assert seconds["a"] == pytest.approx(2.0)
    assert seconds["b"] == pytest.approx(5.0)


def test_tracer_records_nesting():
    tracer = bench_trace.Tracer()
    outer = tracer.open("outer")
    inner = tracer.open("inner")
    tracer.close(inner)
    tracer.close(outer)
    assert [s[3] for s in tracer.spans] == [-1, 0]


def test_tail_keeps_ten_samples_beyond():
    assert run.tail(list(range(99))) is None
    value, percentile = run.tail(list(range(200)))
    assert value == 189 and percentile == pytest.approx(95.0)


def test_layer_metrics_cover_every_summary_key():
    names = [name for name, _, _ in bench_trace.LAYER_METRICS]
    summary, extra = bench_trace.summarize(bench_trace.Tracer())
    assert sorted(summary) == sorted(names) and not extra
    declared = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [m["name"] for m in declared["per_layer"]] == names
    assert [m["name"] for m in declared["end_to_end"]] == [n for n, _ in run.END_TO_END]


def test_speed_probe_samples_while_active_and_leaves_no_timer():
    probe, handler = run.SpeedProbe(), signal.getsignal(signal.SIGALRM)
    with probe.active():
        deadline = time.perf_counter() + 3 * run.REF_EVERY_S
        while time.perf_counter() < deadline:
            pass
    assert sum(start < deadline for start, _ in probe.intervals) >= 2
    assert len(probe.intervals) >= run.REF_MIN_CHUNKS
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler


def test_speed_probe_takes_chunks_out_of_the_interrupted_query():
    probe = run.SpeedProbe()
    probe.intervals = [(1.0, 1.5), (2.0, 2.25), (3.5, 4.5)]
    assert probe.inside(0.5, 3.0) == pytest.approx(0.75)
    assert probe.inside(3.0, 4.0) == 0  # a chunk that ends after the query is not in it
    assert probe.scale() == pytest.approx(run.REF_NOMINAL_S / 0.5)


def test_speed_probe_scales_a_query_by_the_chunks_nearest_to_it():
    probe = run.SpeedProbe()
    # chunk i runs at [i, i + t_i] with t_i = 0.01 * (i + 1)
    probe.intervals = [(float(i), i + 0.01 * (i + 1)) for i in range(40)]
    nearest = run.REF_NEAREST
    assert probe.scale(0.5, 0.6) == pytest.approx(run.REF_NOMINAL_S / (0.01 * (nearest + 1) / 2))
    # a query holding more than REF_NEAREST chunks is scaled by all of them
    assert probe.scale(10.0, 39.9) == pytest.approx(run.REF_NOMINAL_S / 0.255)
