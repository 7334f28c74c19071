"""Malformed-input fuzzing: descriptor parsers and CLI commands may fail only
with the errors the CLI reports as an ``error:`` line, never a traceback."""

import json

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from shiftlab.cli import REPORTED_ERRORS, main
from shiftlab.descriptors import (
    embedding_from_descriptor,
    measure1d_from_descriptor,
    measure2d_from_descriptor,
    shift1d_from_descriptor,
    shift2d_from_descriptor,
)
from shiftlab.shift2d import moments
from shiftlab.threshold import query_from_descriptor

KINDS = [
    "atomic1d", "lebesgue01", "beta", "prefix_table", "atomic2d",
    "arclength_segment01", "pushforward", "bergman", "unweighted", "agler",
    "flat", "none", "rational_fn", "from_measure", "sie_bergman", "helton_howe",
    "classical", "generator", "poly", "spherical",
]
KEYS = [
    "kind", "atoms", "densities", "j", "moments", "support_bound", "base", "p",
    "q", "first_weight_sq", "prefix_sq", "tail", "start", "num", "den",
    "measure", "norm_bound_sq", "window", "alpha_sq", "beta_sq", "alpha_num",
    "alpha_den", "beta_num", "beta_den", "c", "row0", "parameter", "shift", "lo",
    "hi",
]
# Small fixed rationals (and malformed ones): every value stays cheap to use.
RATIONALS = ["0", "1", "-1", "1/2", "2/3", "3/2", "-1/3", "7/10", "1/0", "abc", "x"]

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 6),
    st.sampled_from([0.5, -1.5]),
    st.sampled_from(RATIONALS + KINDS),
)
json_values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.sampled_from(KEYS), children, max_size=4),
    ),
    max_leaves=12,
)
descriptors = st.one_of(
    json_values,
    st.fixed_dictionaries(
        {"kind": st.one_of(st.sampled_from(KINDS), json_values)},
        optional={key: json_values for key in KEYS if key != "kind"},
    ),
)


def _parse_and_use(target, data):
    """Parse ``data`` as ``target`` and read a few values from the result."""
    if target == "measure1d":
        sigma = measure1d_from_descriptor(data)
        for k in range(3):
            sigma.moment(k)
    elif target == "measure2d":
        mu = measure2d_from_descriptor(data)
        for k1, k2 in ((0, 0), (1, 0), (0, 1), (1, 1)):
            mu.moment(k1, k2)
    elif target == "shift1d":
        shift1d_from_descriptor(data).moments(4)
    elif target == "shift2d":
        shift = shift2d_from_descriptor(data)
        moments(shift, shift.window - 1)
    elif target == "embedding":
        embedding_from_descriptor(data).build(3)
    else:
        query_from_descriptor(data)


@settings(max_examples=100, deadline=None)
@given(
    target=st.sampled_from(
        ["measure1d", "measure2d", "shift1d", "shift2d", "embedding", "threshold"]
    ),
    data=descriptors,
)
def test_descriptor_parsers_raise_only_reported_errors(target, data):
    try:
        _parse_and_use(target, data)
    except REPORTED_ERRORS:
        pass


COMMANDS = [
    ["moments1", "--shift", "{}", "--count", "4"],
    ["khypo1", "--shift", "{}", "--window", "2"],
    ["moments2", "--shift", "{}", "--window", "2"],
    ["sixpoint", "--shift", "{}", "--window", "1"],
    ["embed", "--spec", "{}", "--window", "3"],
    ["recursion", "--shift", "{}", "--count", "5"],
    ["curto-park", "--measure", "{}", "--m", "2"],
    ["marginal", "--measure", "{}", "--axis", "x"],
    ["threshold", "--family", "{}", "--op", "khypo1", "--window", "2",
     "--precision", "8"],
]


@pytest.fixture(scope="module")
def descriptor_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "descriptor.json"


@settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(command=st.sampled_from(COMMANDS), data=descriptors)
def test_cli_never_shows_a_traceback(descriptor_file, command, data):
    descriptor_file.write_text(json.dumps(data))
    args = [str(descriptor_file) if arg == "{}" else arg for arg in command]
    result = CliRunner().invoke(main, args)
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.exit_code in (0, 1, 2)
    if result.exit_code == 1:
        assert result.stderr.startswith("error: ")
