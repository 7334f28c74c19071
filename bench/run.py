"""shiftlab benchmark: four seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload measures --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload fixtures --seed 0 --seconds 20 --trace 1
    python3 bench/run.py --workload all --seed 1 --seconds 20

One run is one fresh interpreter and one closed-loop client: the workload's
query list runs back to back, pass after pass, for about ``--seconds`` (the
pass count is fixed per workload from its nominal pass time, at least two).
Every pass repeats the same queries; the first pass is checked against
independently computed expected values and every later pass must reproduce
its output bytes.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.  With
``--trace 1`` two untraced passes (the first verifies, the second is the
reference for the tracing overhead) are followed by two traced passes, and
the last line carries the per-layer metrics.  Every reported time except
``setup_s`` is scaled to the speed of a reference computation timed in the
same run, because the shared host's speed drifts.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import bench_trace
import bench_workloads as wl

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / ".work"
RECORD_DIR = BENCH_DIR / ".records"

SETUP_PROBES = 9  # at least; spread over the run
MIN_PASSES = 2
TRACED_PASSES = 2
# Seconds one pass took when the benchmark was defined (2-core Xeon, Python
# 3.11).  A run makes seconds // nominal passes, at least MIN_PASSES, so every
# run of a workload has the same number of samples behind each percentile.
NOMINAL_PASS_S = {"fixtures": 6.0, "threshold": 4.5, "distinct": 6.5, "measures": 2.4}
TAIL_BEYOND = 10  # a tail percentile needs at least this many samples beyond it
TAIL_MIN_SAMPLES = 100  # with fewer, that percentile would be below p90

# Host speed.  The shared host slows all code alike by 20-50% for minutes at a
# time, which moves every time metric of a run together.  A fixed reference
# computation, timed through the passes, measures how fast the host ran, and
# every query time the benchmark reports is scaled to the reference speed:
# multiplied by REF_NOMINAL_S / (the reference's median time near the query).
REF_EVERY_S = 0.25  # one reference chunk per this much wall time (about 5%)
REF_MIN_CHUNKS = 5  # timed after the passes if they were too short for that many
REF_NEAREST = 9  # a query is scaled by at least this many chunks, the nearest to it
REF_NOMINAL_S = 0.0114  # the chunk's median time on the box described in README.md

# Trace-completeness expectations at this revision of the library.
SWEEP_SPANS = 136  # base points u1 + u2 <= 15
FIXTURES_SEED0 = {"exactcore.psd_calls": 4123, "exactcore.psd_distinct": 1139}

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("query_p50_s", "s"),
    ("query_tail_s", "s"),
)


class BenchError(Exception):
    """The benchmark itself cannot run (missing sources, failed probe)."""


# ---------------------------------------------------------------------------
# Library loading and queries
# ---------------------------------------------------------------------------


def load_library():
    """Import shiftlab from this checkout's src/, never from elsewhere."""
    if not (SRC / "shiftlab" / "__init__.py").is_file():
        raise BenchError(f"no shiftlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import shiftlab
    import shiftlab.cli

    if Path(shiftlab.__file__).resolve().parent != SRC / "shiftlab":
        raise BenchError(f"imported shiftlab from {shiftlab.__file__}, not from {SRC}")
    return shiftlab


class Query:
    """One timed call plus its correctness check.

    ``call`` returns the raw outcome; ``check`` returns an error message or
    None; ``output`` returns the bytes every later pass must reproduce.
    """

    def __init__(self, name, call, check, output, cli=False):
        self.name, self.call, self.check, self.output, self.cli = name, call, check, output, cli


def _cli_query(lib, runner, name, args, check):
    def call():
        return runner.invoke(lib.cli.main, args)

    def verify(result):
        if result.exception is not None and not isinstance(result.exception, SystemExit):
            return f"raised {type(result.exception).__name__}: {result.exception}"
        if result.exit_code != 0:
            return f"exit code {result.exit_code}: {result.stderr.strip()[:300]}"
        return check(json.loads(result.stdout)["result"])

    return Query(name, call, verify, lambda result: result.stdout_bytes, cli=True)


def _write(workdir, name, obj):
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(obj, sort_keys=True), encoding="utf-8")
    return str(path)


def build_queries(lib, workload, seed, workdir):
    """Generate the seed's inputs, write descriptor files, return the queries."""
    if workload == "fixtures":
        suite_seed = wl.fixtures_inputs(seed)["seed"]

        def check(results):
            failed = [r.name for r in results if not r.passed]
            if failed:
                return f"fixtures failed: {failed}"
            if len(results) != wl.FIXTURE_RESULTS:
                return f"{len(results)} fixture results, expected {wl.FIXTURE_RESULTS}"
            return None

        return [Query("run_all", lambda: lib.fixtures.run_all(suite_seed), check,
                      lambda results: repr(results).encode())]

    if workload == "distinct":
        queries = []
        for label, route, descriptor, k in wl.distinct_inputs(seed):
            def call(route=route, descriptor=descriptor, k=k):
                grid_window = wl.WINDOW + 2 * k + 1
                if route == "shift2d":
                    shift = lib.descriptors.shift2d_from_descriptor(descriptor, window=grid_window)
                else:
                    spec = lib.descriptors.embedding_from_descriptor(descriptor)
                    shift = spec.build(grid_window)
                return lib.shift2d.k_hyponormal_2v(shift, k, wl.WINDOW)

            def check(verdict, label=label):
                return None if verdict.holds else f"{label}: fails at {verdict.first_failure}"

            queries.append(Query(label, call, check, lambda r: repr(r).encode()))
        return queries

    from click.testing import CliRunner

    runner = CliRunner()
    queries = []
    if workload == "threshold":
        for i, (extra, boundary, family) in enumerate(wl.threshold_inputs(seed)):
            path = _write(workdir, f"family{i}", family)
            args = ["threshold", "--family", path, *extra, "--candidate", wl.fmt(boundary)]
            queries.append(_cli_query(
                lib, runner, " ".join(extra), args,
                lambda result, b=boundary: wl.check_threshold(result, b)))
        return queries

    for i, (kind, params, files) in enumerate(wl.measures_inputs(seed)):
        paths = {slot: _write(workdir, f"q{i}-{slot}", obj) for slot, obj in files.items()}
        args = wl.measures_args(kind, params, paths)
        queries.append(_cli_query(
            lib, runner, kind, args,
            lambda result, kind=kind, params=params: wl.check_measures(result, kind, params)))
    return queries


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


def reference_chunk():
    """Exact rational elimination of the kind psd_test does, in the
    benchmark's own code, so that no change to the library changes it."""
    for n in (9, 10, 11, 12):
        m = [[Fraction(1, i + j + 1) + Fraction(i, 7 * j + 3) for j in range(n)]
             for i in range(n)]
        for c in range(n):
            for r in range(c + 1, n):
                f = m[r][c] / m[c][c]
                for k in range(c, n):
                    m[r][k] -= f * m[c][k]


class SpeedProbe:
    """Times the reference chunk every REF_EVERY_S while active.

    The chunk runs from a SIGALRM handler, so it samples the host evenly
    through the passes, also inside a query that runs for seconds.  The
    collector is off during a chunk, so the library's heap is not charged to
    it, and the chunk intervals are kept so that ``inside`` can take them out
    of the latency of the query they interrupted.
    """

    def __init__(self):
        self.intervals = []

    def _tick(self, signum=None, frame=None):
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            reference_chunk()
            self.intervals.append((start, time.perf_counter()))
        finally:
            if enabled:
                gc.enable()

    @contextlib.contextmanager
    def active(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            while len(self.intervals) < REF_MIN_CHUNKS:
                self._tick()

    def inside(self, start, end):
        """Seconds of chunks run between ``start`` and ``end``."""
        return sum(b - a for a, b in self.intervals if start <= a and b <= end)

    def chunk_times(self):
        return [b - a for a, b in self.intervals]

    def scale(self, start=None, end=None):
        """Factor that turns seconds into reference-speed seconds: from all
        chunks, or from those timed during [start, end] and, if they are fewer
        than REF_NEAREST, from the REF_NEAREST chunks nearest to it."""
        intervals = self.intervals
        if start is not None:
            def gap(interval):
                return max(start - interval[1], interval[0] - end, 0.0)

            intervals = sorted(intervals, key=gap)
            inside = sum(1 for interval in intervals if gap(interval) == 0)
            intervals = intervals[:max(inside, REF_NEAREST)]
        return REF_NOMINAL_S / statistics.median(b - a for a, b in intervals)


# Key of the span the benchmark opens around each query in a traced pass.
ROOT_SPAN = {"fixtures": "fixtures", "distinct": "query", "threshold": "cli", "measures": "cli"}


class Session:
    """Runs passes over one query list and keeps what the checks need."""

    def __init__(self, workload, queries):
        self.workload = workload
        self.queries = queries
        self.expected = [None] * len(queries)  # outputs of the verified first pass
        self.problems = []
        self.attempted = 0
        self.failed = 0
        self.report_bytes = 0
        self.speed = SpeedProbe()
        self.windows = []  # (start, end) of every query run, in order

    def _fail(self, name, error):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{name}: {error}")

    def run_pass(self, tracer=None):
        """Run every query once; return the per-query latencies in seconds."""
        first = self.attempted == 0
        durations = []
        for i, query in enumerate(self.queries):
            if tracer is not None:
                tracer.query = i
                span = tracer.open(ROOT_SPAN[self.workload])
            start = time.perf_counter()
            try:
                outcome, error = query.call(), None
            except Exception as exc:  # a raising query counts as failed
                outcome, error = None, f"raised {type(exc).__name__}: {exc}"
            end = time.perf_counter()
            durations.append(end - start - self.speed.inside(start, end))
            self.windows.append((start, end))
            if tracer is not None:
                tracer.close(span)
            self.attempted += 1
            if error is None:
                output = query.output(outcome)
                if query.cli:
                    self.report_bytes += len(output)
                    if tracer is not None:
                        tracer.counts["report_bytes"] += len(output)
                if first:
                    try:
                        error = query.check(outcome)
                    except Exception as exc:
                        error = f"check raised {type(exc).__name__}: {exc}"
                    if error is None:
                        self.expected[i] = output
                elif self.expected[i] is None:
                    error = "the first pass failed its check"
                elif output != self.expected[i]:
                    error = "output differs from the verified first pass"
            if error is not None:
                self._fail(query.name, error)
        return durations

    def outputs_digest(self):
        return wl.digest(b"".join(wl.digest(out or b"").encode() for out in self.expected))


def pass_count(workload, seconds):
    return max(MIN_PASSES, int(seconds // NOMINAL_PASS_S[workload]))


def tail(values):
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples
    beyond it, or None when there are fewer than TAIL_MIN_SAMPLES samples."""
    if len(values) < TAIL_MIN_SAMPLES:
        return None
    ordered = sorted(values)
    index = len(ordered) - TAIL_BEYOND - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered)


# ---------------------------------------------------------------------------
# Set-up time, records and metadata
# ---------------------------------------------------------------------------


def prepare(lib, workload, seed):
    """Set-up as a user pays it: generate inputs and write descriptor files."""
    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=WORK_DIR))
    return workdir, build_queries(lib, workload, seed, workdir)


def setup_probe(workload, seed):
    """Body of one set-up probe process: import, generate, write, clean up."""
    lib = load_library()
    workdir, _ = prepare(lib, workload, seed)
    shutil.rmtree(workdir, ignore_errors=True)


def setup_probes(workload, seed, count):
    """Wall times of ``count`` probe processes, each from a fresh interpreter
    to the first query."""
    samples = []
    for _ in range(count):
        start = time.perf_counter()
        probe = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=120, check=False)
        samples.append(time.perf_counter() - start)
        if probe.returncode != 0:
            raise BenchError(f"set-up probe failed: {probe.stderr.strip()[-500:]}")
    return samples


def source_digest(with_bench=False):
    """Digest of the library sources (and of the benchmark's own code)."""
    files = sorted((SRC / "shiftlab").rglob("*.py"))
    if with_bench:
        files += sorted(BENCH_DIR.glob("*.py"))
    return wl.digest(b"".join(f.relative_to(ROOT).as_posix().encode() + b"\0" + f.read_bytes()
                              for f in files))


def reconcile_record(workload, seed, outputs, counts):
    """Compare with the record of an earlier run of this seed on the same
    library and benchmark code; outputs and exact counts must repeat.
    Returns problems."""
    RECORD_DIR.mkdir(exist_ok=True)
    path = RECORD_DIR / f"{workload}-seed{seed}.json"
    source = source_digest(with_bench=True)
    record = {"source": source, "outputs": outputs, "counts": None}
    problems = []
    try:
        old = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        old = None
    if old is not None and old.get("source") == source:
        if old.get("outputs") != outputs:
            problems.append("outputs differ from an earlier run with this seed")
        if counts is not None and old.get("counts") not in (None, counts):
            changed = sorted(k for k in counts if old["counts"].get(k) != counts[k])
            problems.append(f"counts differ from an earlier run with this seed: {changed}")
        record["counts"] = old.get("counts")
    if counts is not None:
        record["counts"] = counts
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(record, sort_keys=True), encoding="utf-8")
    os.replace(tmp, path)
    return problems


def commit_id():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.is_file():
                return loose.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata(workload, seed, session, passes):
    """Run metadata for the ``meta`` line; ``passes`` counts every pass run."""
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "commit": commit_id(),
        "source_sha256": source_digest(),
        "queries_per_pass": len(session.queries),
        "passes": passes,
        "attempted": session.attempted,
        "failed": session.failed,
        "fail_frac": session.failed / session.attempted,
        "outputs_sha256": session.outputs_digest(),
    }


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def latency_metrics(passes):
    """wall_s, query_p50_s and query_tail_s of per-query latencies by pass."""
    latencies = [d for p in passes for d in p]
    per_query = [statistics.median(samples) for samples in zip(*passes)]
    query_tail = tail(latencies)
    return {
        "wall_s": statistics.median(sum(p) for p in passes),
        "query_p50_s": statistics.median(per_query),
        # few samples: the slowest query's median is steadier than the maximum
        "query_tail_s": max(per_query) if query_tail is None else query_tail[0],
    }


def host_speed(speed, scales):
    """Meta entry: the reference timings behind a run's scale factors."""
    return {"reference_chunks": len(speed.intervals),
            "reference_median_s": statistics.median(speed.chunk_times()),
            "reference_nominal_s": REF_NOMINAL_S,
            "scale": statistics.median(scales), "scale_range": [min(scales), max(scales)]}


def untraced_run(lib, workload, seed, seconds):
    # Start-up time drifts with the host too, so the set-up probes are spread
    # over the run: some before the first pass and after every pass, with the
    # reference timer off, so that no chunk runs beside a probe.
    count = pass_count(workload, seconds)
    per_slot = -(-SETUP_PROBES // (count + 1))
    setup_samples = []
    workdir, queries = prepare(lib, workload, seed)
    try:
        session = Session(workload, queries)
        passes = []
        for _ in range(count):
            setup_samples += setup_probes(workload, seed, per_slot)
            with session.speed.active():
                passes.append(session.run_pass())
        setup_samples += setup_probes(workload, seed, per_slot)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # Each latency is scaled by the reference chunks timed nearest to its query.
    scales = [session.speed.scale(*window) for window in session.windows]
    factors = iter(scales)
    values = latency_metrics([[d * next(factors) for d in p] for p in passes])
    # Start-up time is page faults and file reads as much as bytecode, which
    # the reference does not track, so setup_s stays a plain wall time.
    values["setup_s"] = statistics.median(setup_samples)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    samples = len(passes) * len(queries)
    meta = metadata(workload, seed, session, len(passes))
    meta.update({
        "setup_samples_s": setup_samples,
        "wall_s": {"passes": len(passes), "per_pass_unscaled": [sum(p) for p in passes]},
        "query_latency": {"samples": samples,
                          "tail": "slowest query's median" if samples < TAIL_MIN_SAMPLES else
                          f"p{100 * (samples - TAIL_BEYOND) / samples:.1f}, "
                          f"{TAIL_BEYOND} samples beyond"},
        "report_bytes_per_pass": session.report_bytes // len(passes),
        "host_speed": host_speed(session.speed, scales),
        "unscaled_s": latency_metrics(passes),
    })
    problems = session.problems + reconcile_record(
        workload, seed, session.outputs_digest(), None)
    return session, problems, meta, {name: (values[name], unit) for name, unit in END_TO_END}


def sweep_spans(lib, tracer):
    """psd_test and moment_matrix spans of a passing window-15, k=2 classical
    sweep (x = 9/16); a complete trace shows one of each per base point."""
    shift = lib.descriptors.shift1d_from_descriptor(
        lib.threshold.substitute_parameter(wl.RANK_ONE_FAMILY, "x", Fraction(9, 16)))
    tracer.reset()
    verdict = lib.shift2d.k_hyponormal_2v(
        lib.embed.classical_embed(shift, wl.WINDOW + 5), 2, wl.WINDOW)
    calls, _ = bench_trace.self_times(tracer.spans)
    tracer.reset()
    psd = sum(n for key, n in calls.items() if key.startswith("exactcore.psd.n"))
    return {"holds": verdict.holds, "psd_test": psd,
            "moment_matrix": calls["shift2d.moment_matrix"]}


def traced_run(lib, workload, seed, seconds):
    """Per-layer metrics; the pass count is fixed, so ``seconds`` is unused."""
    workdir, queries = prepare(lib, workload, seed)
    try:
        session = Session(workload, queries)
        # The reference samples the untraced passes only: a chunk inside a
        # span would be charged to that span's layer.
        with session.speed.active():
            session.run_pass()  # verifies outputs; also warms lazy imports and caches
            untraced = session.run_pass()
        tracer = bench_trace.Tracer()
        wrappers = bench_trace.install(tracer, [sys.modules[__name__], wl])
        problems = [f"trace incomplete: unwrapped binding {site}"
                    for site in bench_trace.missed_sites(wrappers, [sys.modules[__name__], wl])]
        sweep = sweep_spans(lib, tracer)
        if sweep != {"holds": True, "psd_test": SWEEP_SPANS, "moment_matrix": SWEEP_SPANS}:
            problems.append(f"trace incomplete: fixed sweep gave {sweep}, "
                            f"expected {SWEEP_SPANS} spans of each")
        per_pass, walls, extra_orders = [], [], set()
        for _ in range(TRACED_PASSES):
            tracer.reset()
            walls.append(sum(session.run_pass(tracer)))
            summary, extra = bench_trace.summarize(tracer)
            per_pass.append(summary)
            extra_orders.update(extra)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    counts = bench_trace.exact_counts(per_pass[0])
    for i, summary in enumerate(per_pass[1:], start=2):
        if bench_trace.exact_counts(summary) != counts:
            problems.append(f"counts of traced pass {i} differ from the first traced pass")
    if workload == "fixtures" and seed == 0:
        for name, expected in FIXTURES_SEED0.items():
            if counts[name] != expected:
                problems.append(f"trace incomplete: {name} = {counts[name]} at seed 0, "
                                f"expected {expected}")
    if extra_orders:
        problems.append(f"psd_test saw matrix orders {sorted(extra_orders)} that have no metric")
    problems = session.problems + problems + reconcile_record(
        workload, seed, session.outputs_digest(), counts)
    units = {name: unit for name, unit, _ in bench_trace.LAYER_METRICS}
    metrics = {}
    for name, unit in units.items():
        if name in counts or unit == "ratio":
            value = per_pass[0][name]
        else:
            value = statistics.median(p[name] for p in per_pass)
        metrics[name] = value
    meta = metadata(workload, seed, session, len(per_pass) + 2)
    meta.update({
        "traced_passes": len(per_pass),
        "untraced_wall_s": sum(untraced),
        "traced_wall_s": statistics.median(walls),
        "tracing_overhead_frac": statistics.median(walls) / sum(untraced) - 1,
        "trace_checks": {"sweep_spans": sweep, "sweep_spans_expected": SWEEP_SPANS,
                         "fixtures_seed0_expected": FIXTURES_SEED0},
    })
    scale = session.speed.scale()
    meta["host_speed"] = host_speed(session.speed, [scale])
    return session, problems, meta, {
        name: (value * scale if units[name] == "s" else value, units[name])
        for name, value in metrics.items()}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def report(workload, session, problems, meta, metrics):
    print(f"# {workload}: {meta['passes']} passes x {meta['queries_per_pass']} queries, "
          f"{session.failed}/{session.attempted} failed (fail_frac {meta['fail_frac']:.4f})")
    speed = meta["host_speed"]
    print(f"# times in s but setup_s are scaled to the reference speed, by {speed['scale']:.4f} "
          f"in the median ({speed['reference_chunks']} reference chunks, median "
          f"{speed['reference_median_s']:.5f} s, nominal {REF_NOMINAL_S} s)")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>16.6g} {unit}")
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    print("meta " + json.dumps(meta, sort_keys=True))
    result = {
        "correct": not problems,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0 if not problems else 1


def run_all_workloads(args):
    """Each workload in its own fresh interpreter, one after another."""
    rows = {}
    for workload in wl.WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.strip().splitlines()
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        if child.returncode != 0 or not lines:
            print(f"error: workload {workload} exited with {child.returncode}", file=sys.stderr)
            return 1
        rows[workload] = json.loads(lines[-1])
    print(json.dumps(rows, sort_keys=True))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*wl.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            return run_all_workloads(args)
        if args.setup_probe:
            setup_probe(args.workload, args.seed)
            return 0
        lib = load_library()
        run = traced_run if args.trace else untraced_run
        return report(args.workload, *run(lib, args.workload, args.seed, args.seconds))
    except (BenchError, ImportError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
