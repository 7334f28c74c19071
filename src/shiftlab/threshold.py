"""Parametric threshold bisection over exact rationals.

A family descriptor is a 1-variable shift descriptor with one free rational
parameter; the predicate is a positivity test of its diagonal embedding (or
a power / sublattice restriction of it). Bisection narrows the true/false
boundary to a requested width and can confirm an exact candidate value.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .descriptors import _rational, shift1d_from_descriptor
from .embed import classical_moments
from .errors import DescriptorError, NotMonotone
from .exactcore import format_rational, psd_memo_scope
from .shift1d import DEFAULT_WINDOW_1D, check_sweep, k_hyponormal
from .shift2d import DEFAULT_WINDOW_2D, k_hyponormal_diagonal, six_point, sweep_targets, sweep_views

PREDICATE_OPS = ("khypo1", "khypo2", "sixpoint")
CANDIDATE_MARGIN = Fraction(1, 1000)


@dataclass(frozen=True)
class ThresholdQuery:
    """A monotone predicate over one rational parameter plus a search range."""

    shift_template: dict
    parameter: str
    lo: Fraction
    hi: Fraction
    op: str
    k: int = 1
    window: Optional[int] = None
    power: Optional[tuple] = None
    restriction: Optional[tuple] = None
    precision: int = 10**6
    candidate: Optional[Fraction] = None

    def __post_init__(self):
        if self.op not in PREDICATE_OPS:
            raise ValueError(f"op must be one of {PREDICATE_OPS}")
        sweep_views(self.power, self.restriction)
        if self.op == "khypo1" and (self.power is not None or self.restriction is not None):
            raise ValueError(
                "khypo1 tests the 1-variable shift; a power or restriction "
                "needs khypo2 or sixpoint"
            )
        if self.precision < 1:
            raise ValueError("precision must be >= 1")
        check_sweep(self.k, 0 if self.window is None else self.window)


@dataclass(frozen=True)
class ThresholdResult:
    lo: Fraction
    hi: Fraction
    iterations: int
    candidate: Optional[Fraction]
    candidate_confirmed: Optional[bool]


def query_from_descriptor(data, path="$", **overrides) -> ThresholdQuery:
    """Build a query from a family descriptor file plus CLI overrides."""
    if not isinstance(data, dict):
        raise DescriptorError("expected an object", path)
    for key in ("parameter", "shift", "lo", "hi"):
        if key not in data:
            raise DescriptorError(f"missing required field {key!r}", path)
    fields = dict(
        shift_template=data["shift"],
        parameter=data["parameter"],
        lo=_rational(data["lo"], f"{path}.lo"),
        hi=_rational(data["hi"], f"{path}.hi"),
    )
    fields.update({k: v for k, v in overrides.items() if v is not None})
    return ThresholdQuery(**fields)


def substitute_parameter(obj, name: str, value: Fraction):
    """Deep-copy a descriptor, replacing every string equal to ``name``."""
    if isinstance(obj, str):
        return format_rational(value) if obj == name else obj
    if isinstance(obj, list):
        return [substitute_parameter(v, name, value) for v in obj]
    if isinstance(obj, dict):
        return {k: substitute_parameter(v, name, value) for k, v in obj.items()}
    return obj


def evaluate_predicate(query: ThresholdQuery, x: Fraction) -> bool:
    descriptor = substitute_parameter(query.shift_template, query.parameter, x)
    shift = shift1d_from_descriptor(descriptor)
    if query.op == "khypo1":
        window = query.window if query.window is not None else DEFAULT_WINDOW_1D
        return k_hyponormal(shift, query.k, window).holds
    window = query.window if query.window is not None else DEFAULT_WINDOW_2D
    # strided views of one prefix-product table; six-point reads a k = 1 sweep's
    build = functools.partial(classical_moments, shift)
    if query.op == "khypo2":
        return k_hyponormal_diagonal(build, query.k, window, query.power, query.restriction)
    targets = sweep_targets(build, 1, window, query.power, query.restriction)
    return all(six_point(t, window).holds for t in targets)


@psd_memo_scope
def bisect_threshold(query: ThresholdQuery) -> ThresholdResult:
    """Bisect the monotone predicate to width 1/precision, then test the
    candidate exactly (true at the candidate, false at candidate + 1/1000).
    """
    lo, hi = query.lo, query.hi
    if lo >= hi:
        raise ValueError("need lo < hi")
    if not evaluate_predicate(query, lo):
        raise NotMonotone(f"predicate is false at the lower endpoint {lo}")
    if evaluate_predicate(query, hi):
        raise NotMonotone(f"predicate is true at the upper endpoint {hi}")
    width = Fraction(1, query.precision)
    iterations = 0
    while hi - lo > width:
        mid = (lo + hi) / 2
        if evaluate_predicate(query, mid):
            lo = mid
        else:
            hi = mid
        iterations += 1
    confirmed = None
    if query.candidate is not None:
        confirmed = evaluate_predicate(query, query.candidate) and not evaluate_predicate(
            query, query.candidate + CANDIDATE_MARGIN
        )
    return ThresholdResult(lo, hi, iterations, query.candidate, confirmed)
