"""JSON descriptors for measures and shifts.

Rationals travel as ``"p/q"`` strings (plain integers are accepted too);
polynomials as coefficient lists, ascending degree; bivariate polynomials as
coefficient matrices. Schema problems raise ``DescriptorError`` carrying a
JSON-path diagnostic.
"""

from __future__ import annotations

from .embed import EmbeddingSpec
from .errors import DescriptorError
from .exactcore import RationalPolynomial, as_rational, format_rational
from .measures import (
    ArclengthSegment01,
    AtomicMeasure1D,
    AtomicMeasure2D,
    BetaFamily,
    Lebesgue01,
    PrefixTable,
    pushforward_moments,
)
from .shift1d import (
    MeasureTail,
    RationalWeightRule,
    Shift1D,
    agler,
    bergman,
    flat_shift,
    from_measure,
    unweighted,
)
from .shift2d import (
    BivariatePoly,
    BivariateRational,
    GeneratorRule,
    Shift2D,
    helton_howe,
    sie_bergman,
)


def _rational(value, path):
    try:
        return as_rational(value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise DescriptorError(f"expected a rational, got {value!r} ({exc})", path)


def _rational_list(values, path):
    if not isinstance(values, list):
        raise DescriptorError("expected a list of rationals", path)
    return [_rational(v, f"{path}[{i}]") for i, v in enumerate(values)]


def _polynomial(values, path) -> RationalPolynomial:
    return RationalPolynomial(tuple(_rational_list(values, path)))


def _bivariate(values, path) -> BivariatePoly:
    if not isinstance(values, list) or not all(isinstance(r, list) for r in values):
        raise DescriptorError("expected a coefficient matrix", path)
    return BivariatePoly(
        tuple(tuple(_rational_list(r, f"{path}[{i}]")) for i, r in enumerate(values))
    )


def _require(data, key, path):
    if not isinstance(data, dict):
        raise DescriptorError("expected an object", path)
    if key not in data:
        raise DescriptorError(f"missing required field {key!r}", path)
    return data[key]


def _require_int(data, key, path):
    value = _require(data, key, path)
    if not isinstance(value, int):
        raise DescriptorError(f"field {key!r} must be an integer", path)
    return value


# ---------------------------------------------------------------------------
# Measures
# ---------------------------------------------------------------------------


def measure1d_from_descriptor(data, path="$"):
    kind = _require(data, "kind", path)
    if kind == "atomic1d":
        return AtomicMeasure1D(
            tuple(_rational_list(_require(data, "atoms", path), f"{path}.atoms")),
            tuple(
                _rational_list(_require(data, "densities", path), f"{path}.densities")
            ),
        )
    if kind == "lebesgue01":
        return Lebesgue01()
    if kind == "beta":
        return BetaFamily(_require_int(data, "j", path))
    if kind == "prefix_table":
        return PrefixTable(
            _rational_list(_require(data, "moments", path), f"{path}.moments"),
            support_bound=_rational(data.get("support_bound", 1), f"{path}.support_bound"),
        )
    raise DescriptorError(f"unknown 1-variable measure kind {kind!r}", path)


def measure2d_from_descriptor(data, path="$"):
    kind = _require(data, "kind", path)
    if kind == "atomic2d":
        atoms = _require(data, "atoms", path)
        if not isinstance(atoms, list):
            raise DescriptorError("expected a list of atom pairs", f"{path}.atoms")
        pairs = []
        for i, pair in enumerate(atoms):
            if not isinstance(pair, list) or len(pair) != 2:
                raise DescriptorError("atom must be a pair", f"{path}.atoms[{i}]")
            pairs.append(
                (
                    _rational(pair[0], f"{path}.atoms[{i}][0]"),
                    _rational(pair[1], f"{path}.atoms[{i}][1]"),
                )
            )
        return AtomicMeasure2D(
            tuple(pairs),
            tuple(
                _rational_list(_require(data, "densities", path), f"{path}.densities")
            ),
        )
    if kind == "arclength_segment01":
        return ArclengthSegment01()
    if kind == "pushforward":
        return pushforward_moments(
            measure1d_from_descriptor(_require(data, "base", path), f"{path}.base"),
            _polynomial(_require(data, "p", path), f"{path}.p"),
            _polynomial(_require(data, "q", path), f"{path}.q"),
        )
    raise DescriptorError(f"unknown 2-variable measure kind {kind!r}", path)


def measure_to_descriptor(measure):
    kind = getattr(measure, "kind", None)
    if kind == "atomic1d":
        return {
            "kind": "atomic1d",
            "atoms": [format_rational(a) for a in measure.atoms],
            "densities": [format_rational(d) for d in measure.densities],
        }
    if kind == "atomic2d":
        return {
            "kind": "atomic2d",
            "atoms": [[format_rational(s), format_rational(t)] for s, t in measure.atoms],
            "densities": [format_rational(d) for d in measure.densities],
        }
    if kind == "lebesgue01":
        return {"kind": "lebesgue01"}
    if kind == "beta":
        return {"kind": "beta", "j": measure.j}
    if kind == "arclength_segment01":
        return {"kind": "arclength_segment01"}
    if kind == "prefix_table":
        return {
            "kind": "prefix_table",
            "moments": [format_rational(v) for v in measure.values],
            "support_bound": format_rational(measure.support_bound),
        }
    if kind == "pushforward":
        return {
            "kind": "pushforward",
            "p": [format_rational(c) for c in measure.p.coefficients],
            "q": [format_rational(c) for c in measure.q.coefficients],
            "base": measure_to_descriptor(measure.base),
        }
    raise DescriptorError(f"measure of kind {kind!r} is not serializable")


# ---------------------------------------------------------------------------
# 1-variable shifts
# ---------------------------------------------------------------------------

_NAMED_SHIFTS = {
    "bergman": lambda data, path: bergman(),
    "unweighted": lambda data, path: unweighted(),
    "agler": lambda data, path: agler(_require_int(data, "j", path)),
    "flat": lambda data, path: flat_shift(
        _rational(_require(data, "first_weight_sq", path), f"{path}.first_weight_sq")
    ),
}


def shift1d_from_descriptor(data, path="$") -> Shift1D:
    kind = data.get("kind") if isinstance(data, dict) else None
    if isinstance(kind, str) and kind in _NAMED_SHIFTS:
        return _NAMED_SHIFTS[kind](data, path)
    if not isinstance(data, dict) or "prefix_sq" not in data:
        raise DescriptorError(
            "expected a shift descriptor with 'prefix_sq' or a named kind", path
        )
    prefix = _rational_list(data["prefix_sq"], f"{path}.prefix_sq")
    tail_data = data.get("tail", {"kind": "none"})
    tail_kind = _require(tail_data, "kind", f"{path}.tail")
    if tail_kind == "none":
        tail = None
    elif tail_kind == "rational_fn":
        start = tail_data.get("start", 0)
        if not isinstance(start, int) or start < 0:
            raise DescriptorError("'start' must be a nonnegative integer", f"{path}.tail")
        tail = RationalWeightRule(
            _polynomial(_require(tail_data, "num", f"{path}.tail"), f"{path}.tail.num"),
            _polynomial(_require(tail_data, "den", f"{path}.tail"), f"{path}.tail.den"),
            start,
        )
    elif tail_kind == "from_measure":
        oracle = measure1d_from_descriptor(
            _require(tail_data, "measure", f"{path}.tail"), f"{path}.tail.measure"
        )
        tail = MeasureTail(oracle)
    else:
        raise DescriptorError(f"unknown tail kind {tail_kind!r}", f"{path}.tail")
    norm = data.get("norm_bound_sq")
    norm = None if norm is None else _rational(norm, f"{path}.norm_bound_sq")
    if not prefix and isinstance(tail, MeasureTail):
        shift = from_measure(tail.oracle)
        if norm is not None:
            shift.norm_bound_sq = norm
        return shift
    return Shift1D(tuple(prefix), tail, norm_bound_sq=norm)


def shift1d_to_descriptor(shift: Shift1D):
    out = {"prefix_sq": [format_rational(w) for w in shift.prefix_sq]}
    if shift.tail is None:
        out["tail"] = {"kind": "none"}
    elif isinstance(shift.tail, RationalWeightRule):
        out["tail"] = {
            "kind": "rational_fn",
            "num": [format_rational(c) for c in shift.tail.num.coefficients],
            "den": [format_rational(c) for c in shift.tail.den.coefficients],
            "start": shift.tail.start,
        }
    elif isinstance(shift.tail, MeasureTail):
        out["tail"] = {
            "kind": "from_measure",
            "measure": measure_to_descriptor(shift.tail.oracle),
        }
    else:
        raise DescriptorError("shift tail is not serializable")
    if shift.norm_bound_sq is not None:
        out["norm_bound_sq"] = format_rational(shift.norm_bound_sq)
    return out


# ---------------------------------------------------------------------------
# 2-variable shifts
# ---------------------------------------------------------------------------


def shift2d_from_descriptor(data, path="$", window=None) -> Shift2D:
    """Build a 2-variable shift; ``window`` overrides any window in the data."""
    if not isinstance(data, dict):
        raise DescriptorError("expected an object", path)
    size = window if window is not None else data.get("window")
    kind = data.get("kind")
    if kind is None and "alpha_sq" in data:
        alpha = _require(data, "alpha_sq", path)
        beta = _require(data, "beta_sq", path)
        grids = []
        for name, grid in (("alpha_sq", alpha), ("beta_sq", beta)):
            if not isinstance(grid, list) or not all(isinstance(r, list) for r in grid):
                raise DescriptorError("expected a grid of rationals", f"{path}.{name}")
            grids.append(
                [
                    _rational_list(row, f"{path}.{name}[{i}]")
                    for i, row in enumerate(grid)
                ]
            )
        return Shift2D(grids[0], grids[1])
    if size is None or not isinstance(size, int) or size < 1:
        raise DescriptorError(
            f"shift kind {kind!r} needs a positive integer window", path
        )
    if kind == "sie_bergman":
        return sie_bergman(size)
    if kind == "helton_howe":
        return helton_howe(size)
    if kind == "classical":
        return embedding_from_descriptor(data, path).build(size)
    if kind == "generator":
        rule = GeneratorRule(
            BivariateRational(
                _bivariate(_require(data, "alpha_num", path), f"{path}.alpha_num"),
                _bivariate(_require(data, "alpha_den", path), f"{path}.alpha_den"),
            ),
            BivariateRational(
                _bivariate(_require(data, "beta_num", path), f"{path}.beta_num"),
                _bivariate(_require(data, "beta_den", path), f"{path}.beta_den"),
            ),
        )
        return Shift2D.from_rule(rule, size)
    raise DescriptorError(f"unknown 2-variable shift kind {kind!r}", path)


def embedding_from_descriptor(data, path="$"):
    """Parse an embedding descriptor into an ``EmbeddingSpec``.

    Shapes: {"kind":"classical","base":<shift>}, {"kind":"poly","p":[...],
    "q":[...],"base":<measure>}, {"kind":"spherical","c":"1","row0":<shift>}
    or {"kind":"spherical","c":"1","base":<measure>}.
    """
    kind = _require(data, "kind", path)
    if kind == "classical":
        return EmbeddingSpec(
            "classical",
            shift1d_from_descriptor(_require(data, "base", path), f"{path}.base"),
        )
    if kind == "poly":
        return EmbeddingSpec(
            "poly",
            measure1d_from_descriptor(_require(data, "base", path), f"{path}.base"),
            p=_polynomial(_require(data, "p", path), f"{path}.p"),
            q=_polynomial(_require(data, "q", path), f"{path}.q"),
        )
    if kind == "spherical":
        c = _rational(data.get("c", 1), f"{path}.c")
        if "row0" in data:
            return EmbeddingSpec(
                "spherical",
                shift1d_from_descriptor(data["row0"], f"{path}.row0"),
                c=c,
            )
        return EmbeddingSpec(
            "spherical",
            measure1d_from_descriptor(_require(data, "base", path), f"{path}.base"),
            c=c,
        )
    raise DescriptorError(f"unknown embedding kind {kind!r}", path)


def shift2d_to_descriptor(shift: Shift2D):
    n = shift.window
    return {
        "alpha_sq": [
            [format_rational(shift.alpha_sq(i, j)) for j in range(n)] for i in range(n)
        ],
        "beta_sq": [
            [format_rational(shift.beta_sq(i, j)) for j in range(n)] for i in range(n)
        ],
        "window": n,
    }
