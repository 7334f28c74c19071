"""Command-line front end.

Every subcommand reads JSON descriptors, runs one library operation, and
emits a deterministic report on stdout (JSON by default, CSV with --csv).
Identical inputs produce identical bytes; wall-clock timing goes to stderr.

Exit codes: 0 success, 2 property-violation verdict (a failed positivity
test, a stalled construction, a refuted candidate, a failed fixture),
1 errors (bad descriptors, invalid arguments, exhausted data).
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import sys
import time
from fractions import Fraction

import click

from . import __version__
from .descriptors import (
    embedding_from_descriptor,
    measure1d_from_descriptor,
    measure2d_from_descriptor,
    measure_to_descriptor,
    shift1d_from_descriptor,
    shift1d_to_descriptor,
    shift2d_from_descriptor,
    shift2d_to_descriptor,
)
from .embed import StallReport, recover_densities
from .errors import DenominatorLimitExceeded, DescriptorError, ShiftLabError
from .exactcore import RationalPolynomial, as_rational, format_rational, fraction_rows
from .fixtures import run_all
from .measures import marginal, pushforward_atomic, pushforward_moments
from .shift1d import (
    DEFAULT_WINDOW_1D,
    curto_park_measures,
    detect_recursion,
    k_hyponormal,
    power_decompose,
)
from .shift2d import (
    DEFAULT_WINDOW_2D,
    moments,
    restrict,
    six_point,
    spherical_check,
    sweep_targets,
    sweep_verdicts,
)
from .threshold import bisect_threshold, query_from_descriptor

DENOM_BITS_ENV = "SHIFTLAB_MAX_DENOM_BITS"

#: Deepest nesting of JSON objects and arrays a descriptor file may use.
MAX_NESTING = 32

#: Failures a command reports as an ``error:`` line with exit code 1.
REPORTED_ERRORS = (ShiftLabError, ValueError, ZeroDivisionError, IndexError)


# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------


def _denom_limit():
    raw = os.environ.get(DENOM_BITS_ENV)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise DescriptorError(f"{DENOM_BITS_ENV} must be an integer, got {raw!r}")


def _check_denominator(value, limit):
    """Refuse a rational, or a string that spells one, whose denominator
    needs more than ``limit`` bits; other strings pass."""
    try:
        bits = as_rational(value).denominator.bit_length()
    except (ValueError, ZeroDivisionError):
        return
    if bits > limit:
        raise DenominatorLimitExceeded(f"denominator needs {bits} bits, cap is {limit}")


def _jsonify(value, limit):
    if isinstance(value, (Fraction, str)):
        if limit is not None:
            _check_denominator(value, limit)
        return value if isinstance(value, str) else format_rational(value)
    if isinstance(value, bool) or value is None or isinstance(value, int):
        return value
    if dataclasses.is_dataclass(value):
        return {
            f.name: _jsonify(getattr(value, f.name), limit)
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(k): _jsonify(v, limit) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v, limit) for v in value]
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _flatten(value, prefix, rows):
    if isinstance(value, dict):
        for k in sorted(value):
            _flatten(value[k], f"{prefix}.{k}" if prefix else k, rows)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            _flatten(v, f"{prefix}[{i}]", rows)
    else:
        rows.append((prefix, "" if value is None else str(value)))


def _emit(payload: dict, as_csv: bool):
    body = _jsonify(payload, _denom_limit())
    if as_csv:
        import csv  # loaded only here, so that a JSON report does not pay for it
        rows = []
        _flatten(body, "", rows)
        csv.writer(sys.stdout, lineterminator="\n").writerows(rows)
    else:
        sys.stdout.write(json.dumps(body, sort_keys=True, indent=2) + "\n")


def _reject_float(text: str):
    raise DescriptorError(f"floats are not accepted, got {text}")


def _nesting(value) -> int:
    """How deeply JSON containers nest in ``value``, the outermost counting 1,
    taken level by level so that no depth can exhaust the Python stack."""
    depth, level = 0, [value]
    while level := [v for v in level if isinstance(v, (dict, list))]:
        depth += 1
        level = [c for v in level for c in (v.values() if isinstance(v, dict) else v)]
    return depth


def _load(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle, parse_float=_reject_float)
        if _nesting(data) <= MAX_NESTING:
            return data
    except json.JSONDecodeError as exc:
        raise DescriptorError(f"invalid JSON in {path}: line {exc.lineno}, col {exc.colno}")
    except OSError as exc:
        raise DescriptorError(f"cannot read {path}: {exc}")
    except RecursionError:
        pass  # the parser ran out of stack, far deeper than MAX_NESTING
    raise DescriptorError(f"{path} nests deeper than {MAX_NESTING} levels")


def _coeffs(text: str, name: str) -> RationalPolynomial:
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError):
        data = None
    if not isinstance(data, list):
        data = [piece.strip() for piece in text.split(",")]
    return RationalPolynomial(tuple(_rational_option(c, name) for c in data))


def _rational_option(text: str, name: str) -> Fraction:
    try:
        return as_rational(text)
    except (ValueError, TypeError, ZeroDivisionError):
        raise DescriptorError(f"--{name} must be a rational like 49/90, got {text!r}")


def _int_tuple(text, name, size):
    if text is None:
        return None
    parts = [piece.strip() for piece in text.split(",")]
    if len(parts) != size or not all(re.fullmatch("-?[0-9]+", piece) for piece in parts):
        raise DescriptorError(f"--{name} must be {size} comma-separated integers")
    return tuple(int(piece) for piece in parts)


def run_command(func):
    """Execute a handler with the shared timing/error/exit-code contract.

    The handler returns ``(inputs, params, result, ok)``; the report is
    ``{"command", "inputs", "params", "result"}``, where ``"command"`` is the
    name of the running click command and ``ok`` picks exit code 0 or 2.
    """

    def wrapper(*args, **kwargs):
        started = time.perf_counter()
        try:
            inputs, params, result, ok = func(*args, **kwargs)
            elapsed = time.perf_counter() - started
            _emit({
                "command": click.get_current_context().command.name,
                "inputs": inputs,
                "params": params,
                "result": result,
            }, kwargs.get("as_csv", False))
            # sys.exit's traceback keeps this frame, so drop the report now
            del inputs, params, result
        except REPORTED_ERRORS as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)
        click.echo(f"elapsed_s={elapsed:.3f}", err=True)
        sys.exit(0 if ok else 2)

    wrapper.__name__ = func.__name__
    wrapper.__doc__ = func.__doc__
    return wrapper


format_options = click.option("--csv", "as_csv", is_flag=True,
                              help="Emit CSV instead of JSON.")


# ---------------------------------------------------------------------------
# Command group
# ---------------------------------------------------------------------------


@click.group()
@click.version_option(__version__)
def main():
    """Exact-arithmetic toolkit for weighted shifts and their embeddings."""


@main.command("moments1")
@click.option("--shift", "shift_file", required=True, type=click.Path())
@click.option("--count", default=10, show_default=True)
@format_options
@run_command
def moments1(shift_file, count, as_csv):
    """Moments of a 1-variable shift."""
    data = _load(shift_file)
    shift = shift1d_from_descriptor(data)
    values = shift.moments(count)
    return {"shift": data}, {"count": count}, {"moments": values}, True


@main.command("moments2")
@click.option("--shift", "shift_file", required=True, type=click.Path())
@click.option("--window", default=8, show_default=True)
@format_options
@run_command
def moments2(shift_file, window, as_csv):
    """Moment table of a 2-variable shift."""
    data = _load(shift_file)
    if window < 0:
        raise ValueError("window must be >= 0")
    shift = shift2d_from_descriptor(data, window=window + 1)
    table = moments(shift, window)
    return {"shift": data}, {"window": window}, {"moments": table.values}, True


@main.command("khypo1")
@click.option("--shift", "shift_file", required=True, type=click.Path())
@click.option("--k", default=1, show_default=True)
@click.option("--window", default=DEFAULT_WINDOW_1D, show_default=True)
@format_options
@run_command
def khypo1(shift_file, k, window, as_csv):
    """Exact k-hyponormality of a 1-variable shift on a base-point window."""
    data = _load(shift_file)
    verdict = k_hyponormal(shift1d_from_descriptor(data), k, window)
    return {"shift": data}, {"k": k, "window": window}, verdict, verdict.holds


@main.command("khypo2")
@click.option("--shift", "shift_file", required=True, type=click.Path())
@click.option("--k", default=1, show_default=True)
@click.option("--window", default=DEFAULT_WINDOW_2D, show_default=True)
@click.option("--power", default=None, help="Test every component of the (m,n) power.")
@click.option("--restriction", default=None,
              help="Test one sublattice component, as m,n,p,q.")
@format_options
@run_command
def khypo2(shift_file, k, window, power, restriction, as_csv):
    """Exact k-hyponormality of a 2-variable shift (or a power/restriction)."""
    data = _load(shift_file)
    power = _int_tuple(power, "power", 2)
    restriction = _int_tuple(restriction, "restriction", 4)
    verdicts = list(sweep_verdicts(
        lambda size: shift2d_from_descriptor(data, window=size), k, window, power, restriction
    ))
    holds = all(v.holds for v in verdicts)
    params = {"k": k, "window": window, "power": power, "restriction": restriction}
    return {"shift": data}, params, {"holds": holds, "components": verdicts}, holds


@main.command("sixpoint")
@click.option("--shift", "shift_file", required=True, type=click.Path())
@click.option("--window", default=DEFAULT_WINDOW_2D, show_default=True)
@format_options
@run_command
def sixpoint(shift_file, window, as_csv):
    """Exact six-point hyponormality test of the self-commutator matrices."""
    data = _load(shift_file)
    (table,) = sweep_targets(lambda size: shift2d_from_descriptor(data, window=size), 1, window)
    verdict = six_point(table, window)
    return {"shift": data}, {"window": window}, verdict, verdict.holds


@main.command("embed")
@click.option("--kind", type=click.Choice(["classical", "poly", "spherical"]), default=None)
@click.option("--spec", "spec_file", type=click.Path(), default=None,
              help="Full embedding descriptor; replaces the individual flags.")
@click.option("--base", "base_file", type=click.Path(), default=None,
              help="1-variable shift (classical) or measure (poly/spherical).")
@click.option("--row0", "row0_file", type=click.Path(), default=None,
              help="1-variable shift descriptor for the iterative spherical route.")
@click.option("--p", "p_text", default=None, help="Coefficients of p, ascending.")
@click.option("--q", "q_text", default=None, help="Coefficients of q, ascending.")
@click.option("--c", "c_text", default="1", show_default=True)
@click.option("--window", default=8, show_default=True)
@format_options
@run_command
def embed_cmd(kind, spec_file, base_file, row0_file, p_text, q_text, c_text, window,
              as_csv):
    """Build a 2-variable embedding and emit its squared-weight grids."""
    if spec_file is not None:
        data = _load(spec_file)
        inputs = {"spec": data}
    else:
        data = _flag_descriptor(kind, base_file, row0_file, p_text, q_text, c_text)
        inputs = {**data, "window": window}
    grid = embedding_from_descriptor(data).build(window)
    if isinstance(grid, StallReport):
        result, ok = {"stalled": grid}, False
    else:
        result, ok = {"shift": shift2d_to_descriptor(grid)}, True
    return inputs, {"window": window}, result, ok


def _flag_descriptor(kind, base_file, row0_file, p_text, q_text, c_text):
    """The ``--spec`` descriptor that the individual ``embed`` flags spell out.

    Only the flags the kind reads enter it; a missing one is left for
    ``embedding_from_descriptor`` to report.
    """
    if kind is None:
        raise DescriptorError("embed needs --kind or --spec")
    data = {"kind": kind}
    if kind == "poly":
        for name, text in (("p", p_text), ("q", q_text)):
            if text is not None:
                data[name] = list(_coeffs(text, name).coefficients)
    elif kind == "spherical":
        data["c"] = _rational_option(c_text, "c")
        if row0_file is not None:
            data["row0"] = _load(row0_file)
            return data
    if base_file is not None:
        data["base"] = _load(base_file)
    return data


@main.command("restrict")
@click.option("--shift", "shift_file", required=True, type=click.Path())
@click.option("--m", required=True, type=int)
@click.option("--n", required=True, type=int)
@click.option("--p", default=0, show_default=True, type=int)
@click.option("--q", default=0, show_default=True, type=int)
@click.option("--window", default=None, type=int,
              help="Grid window used to materialize named shifts.")
@format_options
@run_command
def restrict_cmd(shift_file, m, n, p, q, window, as_csv):
    """Sublattice restriction: the (p,q)-component of the (m,n) power."""
    data = _load(shift_file)
    shift = shift2d_from_descriptor(data, window=window)
    result = {"shift": shift2d_to_descriptor(restrict(shift, m, n, p, q))}
    return {"shift": data}, {"m": m, "n": n, "p": p, "q": q}, result, True


@main.command("power")
@click.option("--shift", "shift_file", required=True, type=click.Path())
@click.option("--m", required=True, type=int)
@click.option("--n", required=True, type=int)
@click.option("--k", default=1, show_default=True)
@click.option("--window", default=6, show_default=True,
              help="Base-point bound for each component test.")
@format_options
@run_command
def power_cmd(shift_file, m, n, k, window, as_csv):
    """k-hyponormality of every component of the (m,n) power."""
    data = _load(shift_file)
    verdicts = list(sweep_verdicts(
        lambda size: shift2d_from_descriptor(data, window=size), k, window, power=(m, n)
    ))
    holds = all(v.holds for v in verdicts)
    components = {f"{p},{q}": verdicts[p * n + q] for p in range(m) for q in range(n)}
    params = {"m": m, "n": n, "k": k, "window": window}
    return {"shift": data}, params, {"holds": holds, "components": components}, holds


@main.command("decompose")
@click.option("--shift", "shift_file", required=True, type=click.Path())
@click.option("--m", required=True, type=int)
@click.option("--window", default=10, show_default=True)
@format_options
@run_command
def decompose(shift_file, m, window, as_csv):
    """Orthogonal summands of the m-th power of a 1-variable shift."""
    data = _load(shift_file)
    parts = power_decompose(shift1d_from_descriptor(data), m, window)
    result = {"components": [shift1d_to_descriptor(part) for part in parts]}
    return {"shift": data}, {"m": m, "window": window}, result, True


@main.command("curto-park")
@click.option("--measure", "measure_file", required=True, type=click.Path())
@click.option("--m", required=True, type=int)
@format_options
@run_command
def curto_park(measure_file, m, as_csv):
    """Component measures of the m-th power of an atomic-measure shift."""
    data = _load(measure_file)
    sigma = measure1d_from_descriptor(data)
    if getattr(sigma, "kind", None) != "atomic1d":
        raise DescriptorError("curto-park needs an atomic1d measure")
    nus = curto_park_measures(sigma, m)
    result = {"measures": [measure_to_descriptor(nu) for nu in nus]}
    return {"measure": data}, {"m": m}, result, True


@main.command("recursion")
@click.option("--moments", "moments_text", default=None,
              help="Comma-separated moment list starting at 1.")
@click.option("--shift", "shift_file", type=click.Path(), default=None)
@click.option("--count", default=11, show_default=True,
              help="Moments to draw from --shift.")
@click.option("--max-order", default=5, show_default=True)
@format_options
@run_command
def recursion(moments_text, shift_file, count, max_order, as_csv):
    """Detect the minimal linear recursion of a moment sequence."""
    if moments_text is not None:
        values = [_rational_option(piece.strip(), "moments") for piece in moments_text.split(",")]
        inputs = {"moments": values}
    elif shift_file is not None:
        data = _load(shift_file)
        values = shift1d_from_descriptor(data).moments(count)
        inputs = {"shift": data, "count": count}
    else:
        raise DescriptorError("recursion needs --moments or --shift")
    result = detect_recursion(values, max_order)
    body = {
        "found": result.found,
        "order": result.order,
        "coefficients": result.coefficients,
        "generating_poly": result.generating_poly.coefficients if result.generating_poly else None,
        "atoms": result.atoms,
        "root_intervals": result.root_intervals or None,
    }
    return inputs, {"max_order": max_order}, body, True


@main.command("pushforward")
@click.option("--measure", "measure_file", required=True, type=click.Path())
@click.option("--p", "p_text", required=True)
@click.option("--q", "q_text", required=True)
@click.option("--window", default=6, show_default=True,
              help="Moment window emitted for non-atomic bases.")
@format_options
@run_command
def pushforward(measure_file, p_text, q_text, window, as_csv):
    """Image of a 1-variable measure under r -> (p(r), q(r))."""
    data = _load(measure_file)
    sigma = measure1d_from_descriptor(data)
    p, q = _coeffs(p_text, "p"), _coeffs(q_text, "q")
    if window < 0:
        raise ValueError("window must be >= 0")
    inputs = {"measure": data, "p": p.coefficients, "q": q.coefficients}
    if getattr(sigma, "kind", None) == "atomic1d":
        mu = pushforward_atomic(sigma, p, q)
        result = {"measure": measure_to_descriptor(mu)}
    else:
        oracle = pushforward_moments(sigma, p, q)
        result = {"moments": fraction_rows(*oracle.scaled_table(window))}
    return inputs, {"window": window}, result, True


@main.command("marginal")
@click.option("--measure", "measure_file", required=True, type=click.Path())
@click.option("--axis", type=click.Choice(["x", "y"]), required=True)
@format_options
@run_command
def marginal_cmd(measure_file, axis, as_csv):
    """Coordinate marginal of a planar atomic measure."""
    data = _load(measure_file)
    mu = measure2d_from_descriptor(data)
    if getattr(mu, "kind", None) != "atomic2d":
        raise DescriptorError("marginal needs an atomic2d measure")
    result = {"measure": measure_to_descriptor(marginal(mu, axis))}
    return {"measure": data}, {"axis": axis}, result, True


@main.command("recover")
@click.option("--shift", "shift_file", required=True, type=click.Path())
@click.option("--atoms", "atoms_text", required=True,
              help="Comma-separated first-coordinate atoms.")
@click.option("--window", default=None, type=int)
@format_options
@run_command
def recover(shift_file, atoms_text, window, as_csv):
    """Recover the atomic measure of a constant-sum grid from its atoms."""
    data = _load(shift_file)
    shift = shift2d_from_descriptor(data, window=window)
    atoms = [_rational_option(piece.strip(), "atoms") for piece in atoms_text.split(",")]
    result = {"measure": measure_to_descriptor(recover_densities(shift, atoms))}
    return {"shift": data, "atoms": atoms}, {}, result, True


@main.command("spherical-check")
@click.option("--shift", "shift_file", required=True, type=click.Path())
@click.option("--window", default=None, type=int)
@format_options
@run_command
def spherical_check_cmd(shift_file, window, as_csv):
    """Constant weight-sum check; reports the constant when it exists."""
    data = _load(shift_file)
    if window is not None and window < 0:
        raise ValueError("window must be >= 0")
    shift = shift2d_from_descriptor(data, window=None if window is None else window + 2)
    constant = spherical_check(shift, window)
    return {"shift": data}, {"window": window}, {"constant": constant}, constant is not None


@main.command("threshold")
@click.option("--family", "family_file", required=True, type=click.Path())
@click.option("--op", type=click.Choice(["khypo1", "khypo2", "sixpoint"]), default="khypo2",
              show_default=True)
@click.option("--k", default=1, show_default=True)
@click.option("--window", default=None, type=int)
@click.option("--power", default=None)
@click.option("--restriction", default=None)
@click.option("--precision", default=10**6, show_default=True,
              help="Stop when the bracketing interval is narrower than 1/precision.")
@click.option("--candidate", default=None, help="Exact boundary candidate to confirm.")
@format_options
@run_command
def threshold(family_file, op, k, window, power, restriction, precision, candidate,
              as_csv):
    """Bisect a monotone positivity threshold over the family parameter."""
    data = _load(family_file)
    power = _int_tuple(power, "power", 2)
    restriction = _int_tuple(restriction, "restriction", 4)
    query = query_from_descriptor(
        data,
        op=op,
        k=k,
        window=window,
        power=power,
        restriction=restriction,
        precision=precision,
        candidate=None if candidate is None else _rational_option(candidate, "candidate"),
    )
    result = bisect_threshold(query)
    params = {"op": op, "k": k, "window": window, "power": power,
              "restriction": restriction, "precision": precision}
    return {"family": data}, params, result, result.candidate_confirmed is not False


@main.command("fixtures")
@click.option("--seed", default=0, show_default=True)
@click.option("--skip-random", is_flag=True, help="Run only the worked-example fixtures.")
def fixtures_cmd(seed, skip_random):
    """Run the named verification fixtures and the seeded random suites."""
    started = time.perf_counter()
    results = run_all(seed=seed, include_random=not skip_random)
    failed = 0
    for item in results:
        status = "PASS" if item.passed else "FAIL"
        line = f"{status} {item.name}"
        if item.detail and not item.passed:
            line += f" ({item.detail})"
        click.echo(line)
        failed += not item.passed
    click.echo(f"{len(results) - failed}/{len(results)} fixtures passed")
    click.echo(f"elapsed_s={time.perf_counter() - started:.3f}", err=True)
    sys.exit(0 if failed == 0 else 2)


if __name__ == "__main__":
    main()
