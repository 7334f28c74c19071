"""Span tracing of shiftlab's layers, installed from the benchmark's own files.

Each public function named in ``TARGETS`` is replaced by a wrapper that
records a span (key, start, end, parent, query id) around the call.  Library
modules import names directly (``shift2d`` does ``from .exactcore import
psd_test``), so a wrapper is bound at every module attribute that holds the
wrapped function, not only at its home module; ``missed_sites`` reports any
binding that still holds an original after installation.

Spans stay in memory; ``summarize`` turns one pass's spans and counters into
per-layer metrics.  A span's self time is its duration minus the durations
of its direct children (calls are sequential, so children never overlap).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# Matrix orders that occur in the workloads; each gets its own psd metrics.
PSD_ORDERS = (2, 3, 4, 6, 10, 15)

HOOK = "trace.hook"


class Tracer:
    """In-memory span recorder plus the exact counters read at layer boundaries."""

    def __init__(self):
        self.query = None
        self.reset()

    def reset(self):
        self.spans = []  # [key, start, end, parent index or -1, query id]
        self.stack = []
        self.counts = defaultdict(int)
        self.psd_keys = set()

    def open(self, key):
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([key, time.perf_counter(), 0.0, parent, self.query])
        self.stack.append(index)
        return index

    def close(self, index):
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()


def self_times(spans):
    """Per-key call counts and summed self time (duration minus children)."""
    child = [0.0] * len(spans)
    for key, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls = defaultdict(int)
    seconds = defaultdict(float)
    for i, (key, start, end, _, _) in enumerate(spans):
        calls[key] += 1
        seconds[key] += (end - start) - child[i]
    return calls, seconds


# ---------------------------------------------------------------------------
# Counters read at the layer boundaries
# ---------------------------------------------------------------------------


def _bits(value):
    return max(value.numerator.bit_length(), value.denominator.bit_length())


def _psd_key(args, kwargs):
    matrix = args[0] if args else kwargs["matrix"]
    return f"exactcore.psd.n{matrix.order}"


def _after_psd(tracer, result, args, kwargs):
    matrix = args[0] if args else kwargs["matrix"]
    tracer.psd_keys.add(matrix.entries)
    counts = tracer.counts
    counts["psd_fail"] += not result.is_psd
    bits = max(_bits(e) for row in matrix.entries for e in row)
    counts["entry_bits_max"] = max(counts["entry_bits_max"], bits)
    bits = max(_bits(e) for e in result.certificate)
    counts["cert_bits_max"] = max(counts["cert_bits_max"], bits)


def _after_construct(tracer, result, args, kwargs):
    tracer.counts["cells_built"] += args[0].window ** 2


def _after_moments(tracer, result, args, kwargs):
    tracer.counts["moment_cells"] += (result.window + 1) ** 2


def _after_six_point(tracer, result, args, kwargs):
    # base points are screened in order of u1 + u2, then u1 ascending
    counts = tracer.counts
    counts["six_point_deferrals"] += len(getattr(result, "boundary_deferrals", ()))
    if result.first_failure is None:
        counts["six_point_screened"] += (result.window + 1) * (result.window + 2) // 2
    else:
        u1, u2 = result.first_failure
        total = u1 + u2
        counts["six_point_screened"] += total * (total + 1) // 2 + u1 + 1


def _after_spherical(tracer, result, args, kwargs):
    tracer.counts["stalls"] += bool(getattr(result, "stalled", False))


def _after_bisect(tracer, result, args, kwargs):
    tracer.counts["iterations"] += result.iterations


# (module, attribute or Class.method, span key, after-hook)
TARGETS = (
    ("shiftlab.descriptors", "measure1d_from_descriptor", "descriptors.parse", None),
    ("shiftlab.descriptors", "measure2d_from_descriptor", "descriptors.parse", None),
    ("shiftlab.descriptors", "shift1d_from_descriptor", "descriptors.parse", None),
    ("shiftlab.descriptors", "shift2d_from_descriptor", "descriptors.parse", None),
    ("shiftlab.descriptors", "embedding_from_descriptor", "descriptors.parse", None),
    ("shiftlab.threshold", "query_from_descriptor", "descriptors.parse", None),
    ("shiftlab.threshold", "evaluate_predicate", "threshold.predicate", None),
    ("shiftlab.threshold", "bisect_threshold", "threshold.bisect", _after_bisect),
    ("shiftlab.embed", "classical_embed", "embed.classical", None),
    ("shiftlab.embed", "poly_embed", "embed.poly", None),
    ("shiftlab.embed", "spherical_embed_iterative", "embed.spherical", _after_spherical),
    ("shiftlab.embed", "spherical_embed_measure", "embed.spherical", None),
    ("shiftlab.embed", "recover_densities", "embed.recover", None),
    ("shiftlab.shift2d", "Shift2D.__init__", "shift2d.construct", _after_construct),
    ("shiftlab.shift2d", "Shift2D.from_rule", "shift2d.rule", None),
    ("shiftlab.shift2d", "moments", "shift2d.moments", _after_moments),
    ("shiftlab.shift2d", "moment_matrix", "shift2d.moment_matrix", None),
    ("shiftlab.shift2d", "k_hyponormal_2v", "shift2d.sweep", None),
    ("shiftlab.shift2d", "restrict", "shift2d.restrict", None),
    ("shiftlab.shift2d", "corner_restrict", "shift2d.restrict", None),
    ("shiftlab.shift2d", "power_components", "shift2d.restrict", None),
    ("shiftlab.shift2d", "six_point", "shift2d.six_point", _after_six_point),
    ("shiftlab.shift2d", "spherical_check", "shift2d.spherical_check", None),
    ("shiftlab.shift1d", "k_hyponormal", "shift1d.khypo", None),
    ("shiftlab.shift1d", "hankel_matrix", "shift1d.hankel", None),
    ("shiftlab.shift1d", "detect_recursion", "shift1d.recursion", None),
    ("shiftlab.shift1d", "power_decompose", "shift1d.power", None),
    ("shiftlab.shift1d", "curto_park_measures", "shift1d.power", None),
    ("shiftlab.measures", "pushforward_atomic", "measures.pushforward", None),
    ("shiftlab.measures", "pushforward_moments", "measures.pushforward", None),
    ("shiftlab.measures", "Pushforward2D.moment", "measures.pushforward", None),
    ("shiftlab.measures", "marginal", "measures.marginal", None),
    ("shiftlab.exactcore", "psd_test", _psd_key, _after_psd),
    ("shiftlab.exactcore", "psd_test_minors", "exactcore.psd_minors", None),
    ("shiftlab.exactcore", "SymMatrix.__post_init__", "exactcore.symmatrix", None),
    ("shiftlab.exactcore", "rational_roots", "exactcore.roots", None),
    ("shiftlab.exactcore", "isolate_real_roots", "exactcore.isolate", None),
    ("shiftlab.exactcore", "poly_nonneg_on", "exactcore.isolate", None),
    ("shiftlab.exactcore", "solve_linear", "exactcore.solve", None),
    ("shiftlab.exactcore", "vandermonde_solve", "exactcore.solve", None),
)


def _wrap(fn, tracer, key, after):
    key_of = key if callable(key) else None

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.open(key_of(args, kwargs) if key_of else key)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if after is not None:
            # the hook gets its own span so that no layer is charged for it
            hook = tracer.open(HOOK)
            try:
                after(tracer, result, args, kwargs)
            finally:
                tracer.close(hook)
        return result

    return traced


def _modules(extra=()):
    names = [n for n in sys.modules if n == "shiftlab" or n.startswith("shiftlab.")]
    return [sys.modules[n] for n in sorted(names)] + list(extra)


def install(tracer, extra_modules=()):
    """Wrap every target at every module binding; return {original: wrapper}."""
    wrappers = {}
    for module_name, attr, key, after in TARGETS:
        module = importlib.import_module(module_name)
        owner, _, name = attr.rpartition(".")
        if owner:
            cls = getattr(module, owner)
            original = cls.__dict__[name]
            if isinstance(original, classmethod):
                wrapper = classmethod(_wrap(original.__func__, tracer, key, after))
            else:
                wrapper = _wrap(original, tracer, key, after)
            setattr(cls, name, wrapper)
        else:
            original = getattr(module, name)
            wrapper = _wrap(original, tracer, key, after)
        wrappers[original] = wrapper
    by_id = {id(fn): w for fn, w in wrappers.items()}  # originals stay alive in wrappers
    for module in _modules(extra_modules):
        for name, value in list(vars(module).items()):
            if id(value) in by_id:
                setattr(module, name, by_id[id(value)])
    return wrappers


def missed_sites(wrappers, extra_modules=()):
    """Module or class attributes that still hold an unwrapped target."""
    originals = {id(fn) for fn in wrappers}
    missed = []
    for module in _modules(extra_modules):
        for name, value in vars(module).items():
            if id(value) in originals:
                missed.append(f"{module.__name__}.{name}")
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    if id(member) in originals:
                        missed.append(f"{module.__name__}.{name}.{attr}")
    return missed


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# (metric name, unit, better); "count" metrics are exact and must repeat.
LAYER_METRICS = (
    ("cli.queries", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.report_bytes", "bytes", "lower"),
    ("fixtures.self_s", "s", "lower"),
    ("descriptors.parse_calls", "count", "lower"),
    ("descriptors.parse_s", "s", "lower"),
    ("threshold.predicate_calls", "count", "lower"),
    ("threshold.predicate_s", "s", "lower"),
    ("threshold.iterations", "count", "lower"),
    ("embed.classical_calls", "count", "lower"),
    ("embed.classical_s", "s", "lower"),
    ("embed.poly_s", "s", "lower"),
    ("embed.spherical_s", "s", "lower"),
    ("embed.recover_s", "s", "lower"),
    ("embed.stalls", "count", "lower"),
    ("shift2d.construct_calls", "count", "lower"),
    ("shift2d.construct_s", "s", "lower"),
    ("shift2d.cells_built", "count", "lower"),
    ("shift2d.moments_calls", "count", "lower"),
    ("shift2d.moments_s", "s", "lower"),
    ("shift2d.moment_cells", "count", "lower"),
    ("shift2d.moment_matrix_calls", "count", "lower"),
    ("shift2d.moment_matrix_s", "s", "lower"),
    ("shift2d.sweep_calls", "count", "lower"),
    ("shift2d.sweep_self_s", "s", "lower"),
    ("shift2d.restrict_s", "s", "lower"),
    ("shift2d.six_point_calls", "count", "lower"),
    ("shift2d.six_point_s", "s", "lower"),
    ("shift2d.six_point_deferrals", "count", "lower"),
    ("shift2d.six_point_deferral_ratio", "ratio", "lower"),
    ("shift2d.spherical_check_s", "s", "lower"),
    ("shift1d.khypo_calls", "count", "lower"),
    ("shift1d.khypo_s", "s", "lower"),
    ("shift1d.hankel_s", "s", "lower"),
    ("shift1d.recursion_s", "s", "lower"),
    ("shift1d.power_s", "s", "lower"),
    ("measures.pushforward_s", "s", "lower"),
    ("measures.marginal_s", "s", "lower"),
    ("exactcore.psd_calls", "count", "lower"),
    ("exactcore.psd_distinct", "count", "lower"),
    ("exactcore.psd_distinct_ratio", "ratio", "lower"),
    ("exactcore.psd_fail", "count", "lower"),
    ("exactcore.psd_s", "s", "lower"),
    *((f"exactcore.psd_calls.n{n}", "count", "lower") for n in PSD_ORDERS),
    *((f"exactcore.psd_s.n{n}", "s", "lower") for n in PSD_ORDERS),
    ("exactcore.entry_bits_max", "bits", "lower"),
    ("exactcore.cert_bits_max", "bits", "lower"),
    ("exactcore.symmatrix_calls", "count", "lower"),
    ("exactcore.symmatrix_s", "s", "lower"),
    ("exactcore.roots_calls", "count", "lower"),
    ("exactcore.roots_s", "s", "lower"),
    ("exactcore.isolate_s", "s", "lower"),
    ("exactcore.solve_s", "s", "lower"),
    ("exactcore.psd_minors_s", "s", "lower"),
)


def summarize(tracer):
    """Per-layer metrics of the spans and counters recorded since the last reset."""
    calls, seconds = self_times(tracer.spans)
    counts = tracer.counts
    psd = [k for k in calls if k.startswith("exactcore.psd.n")]
    psd_calls = sum(calls[k] for k in psd)
    screened = counts["six_point_screened"]
    out = {
        "cli.queries": calls["cli"],
        "cli.self_s": seconds["cli"],
        "cli.report_bytes": counts["report_bytes"],
        "fixtures.self_s": seconds["fixtures"],
        "descriptors.parse_calls": calls["descriptors.parse"],
        "descriptors.parse_s": seconds["descriptors.parse"],
        "threshold.predicate_calls": calls["threshold.predicate"],
        "threshold.predicate_s": seconds["threshold.predicate"],
        "threshold.iterations": counts["iterations"],
        "embed.classical_calls": calls["embed.classical"],
        "embed.classical_s": seconds["embed.classical"],
        "embed.poly_s": seconds["embed.poly"],
        "embed.spherical_s": seconds["embed.spherical"],
        "embed.recover_s": seconds["embed.recover"],
        "embed.stalls": counts["stalls"],
        "shift2d.construct_calls": calls["shift2d.construct"],
        # evaluating a generator rule over the window is part of construction
        "shift2d.construct_s": seconds["shift2d.construct"] + seconds["shift2d.rule"],
        "shift2d.cells_built": counts["cells_built"],
        "shift2d.moments_calls": calls["shift2d.moments"],
        "shift2d.moments_s": seconds["shift2d.moments"],
        "shift2d.moment_cells": counts["moment_cells"],
        "shift2d.moment_matrix_calls": calls["shift2d.moment_matrix"],
        "shift2d.moment_matrix_s": seconds["shift2d.moment_matrix"],
        "shift2d.sweep_calls": calls["shift2d.sweep"],
        "shift2d.sweep_self_s": seconds["shift2d.sweep"],
        "shift2d.restrict_s": seconds["shift2d.restrict"],
        "shift2d.six_point_calls": calls["shift2d.six_point"],
        "shift2d.six_point_s": seconds["shift2d.six_point"],
        "shift2d.six_point_deferrals": counts["six_point_deferrals"],
        "shift2d.six_point_deferral_ratio": (
            counts["six_point_deferrals"] / screened if screened else 0.0
        ),
        "shift2d.spherical_check_s": seconds["shift2d.spherical_check"],
        "shift1d.khypo_calls": calls["shift1d.khypo"],
        "shift1d.khypo_s": seconds["shift1d.khypo"],
        "shift1d.hankel_s": seconds["shift1d.hankel"],
        "shift1d.recursion_s": seconds["shift1d.recursion"],
        "shift1d.power_s": seconds["shift1d.power"],
        "measures.pushforward_s": seconds["measures.pushforward"],
        "measures.marginal_s": seconds["measures.marginal"],
        "exactcore.psd_calls": psd_calls,
        "exactcore.psd_distinct": len(tracer.psd_keys),
        "exactcore.psd_distinct_ratio": (
            len(tracer.psd_keys) / psd_calls if psd_calls else 0.0
        ),
        "exactcore.psd_fail": counts["psd_fail"],
        "exactcore.psd_s": sum(seconds[k] for k in psd),
        "exactcore.entry_bits_max": counts["entry_bits_max"],
        "exactcore.cert_bits_max": counts["cert_bits_max"],
        "exactcore.symmatrix_calls": calls["exactcore.symmatrix"],
        "exactcore.symmatrix_s": seconds["exactcore.symmatrix"],
        "exactcore.roots_calls": calls["exactcore.roots"],
        "exactcore.roots_s": seconds["exactcore.roots"],
        "exactcore.isolate_s": seconds["exactcore.isolate"],
        "exactcore.solve_s": seconds["exactcore.solve"],
        "exactcore.psd_minors_s": seconds["exactcore.psd_minors"],
    }
    for n in PSD_ORDERS:
        out[f"exactcore.psd_calls.n{n}"] = calls[f"exactcore.psd.n{n}"]
        out[f"exactcore.psd_s.n{n}"] = seconds[f"exactcore.psd.n{n}"]
    other = sorted(int(k[len("exactcore.psd.n"):]) for k in psd)
    extra = [n for n in other if n not in PSD_ORDERS]
    return out, extra


def exact_counts(metrics):
    """The count-type metrics, which must repeat exactly for one seed."""
    units = {name: unit for name, unit, _ in LAYER_METRICS}
    return {k: v for k, v in metrics.items() if units[k] in ("count", "bits", "bytes")}
