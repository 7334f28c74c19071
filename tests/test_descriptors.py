from fractions import Fraction as F

import pytest

from shiftlab.descriptors import (
    measure1d_from_descriptor,
    measure2d_from_descriptor,
    measure_to_descriptor,
    shift1d_from_descriptor,
    shift1d_to_descriptor,
    shift2d_from_descriptor,
    shift2d_to_descriptor,
)
from shiftlab.errors import DescriptorError
from shiftlab.shift1d import bergman
from shiftlab.shift2d import sie_bergman


def test_measure1d_atomic_round_trip():
    data = {
        "kind": "atomic1d",
        "atoms": ["1/3", "1/2", "1"],
        "densities": ["1/3", "1/3", "1/3"],
    }
    mu = measure1d_from_descriptor(data)
    assert mu.atoms == (F(1, 3), F(1, 2), 1)
    assert measure_to_descriptor(mu) == data


def test_measure1d_named_kinds():
    assert measure1d_from_descriptor({"kind": "lebesgue01"}).moment(3) == F(1, 4)
    assert measure1d_from_descriptor({"kind": "beta", "j": 4}).moment(1) == F(1, 4)
    table = measure1d_from_descriptor(
        {"kind": "prefix_table", "moments": ["1", "1/2"], "support_bound": "1"}
    )
    assert table.moment(1) == F(1, 2)


@pytest.mark.parametrize("bound", ["-1", "-1/100", -3])
def test_prefix_table_rejects_a_negative_support_bound(bound):
    data = {"kind": "prefix_table", "moments": ["1", "1/2"], "support_bound": bound}
    with pytest.raises(ValueError) as err:
        measure1d_from_descriptor(data)
    assert str(err.value) == "support_bound must be >= 0"
    # a point mass at 0 is supported in [0, 0]
    point = measure1d_from_descriptor({**data, "moments": ["1", "0"], "support_bound": "0"})
    assert point.support_bound == 0


def test_measure2d_kinds():
    arc = measure2d_from_descriptor({"kind": "arclength_segment01"})
    assert arc.moment(1, 1) == F(1, 6)
    push = measure2d_from_descriptor(
        {"kind": "pushforward", "p": [0, 1], "q": [1, -1], "base": {"kind": "lebesgue01"}}
    )
    assert push.moment(2, 1) == F(1, 12)
    atomic = measure2d_from_descriptor(
        {"kind": "atomic2d", "atoms": [["1", "0"], ["0", "1"]], "densities": ["1/2", "1/2"]}
    )
    assert atomic.moment(1, 0) == F(1, 2)
    assert measure_to_descriptor(atomic)["kind"] == "atomic2d"


def test_measure_errors_carry_paths():
    with pytest.raises(DescriptorError) as err:
        measure1d_from_descriptor({"kind": "atomic1d", "atoms": ["x"], "densities": ["1"]})
    assert "$.atoms[0]" in str(err.value)
    with pytest.raises(DescriptorError):
        measure1d_from_descriptor({"kind": "mystery"})
    with pytest.raises(DescriptorError):
        measure1d_from_descriptor({"atoms": []})


def test_shift1d_rational_tail_round_trip():
    data = {
        "prefix_sq": ["9/16"],
        "tail": {"kind": "rational_fn", "num": ["1", "1"], "den": ["2", "1"], "start": 1},
        "norm_bound_sq": "1",
    }
    shift = shift1d_from_descriptor(data)
    assert shift.weights_sq(3) == [F(9, 16), F(2, 3), F(3, 4)]
    assert shift1d_to_descriptor(shift) == data


def test_shift1d_named_and_measure_kinds():
    assert shift1d_from_descriptor({"kind": "bergman"}).moment(3) == F(1, 4)
    assert shift1d_from_descriptor({"kind": "agler", "j": 3}).weight_sq(0) == F(1, 3)
    assert shift1d_from_descriptor({"kind": "flat", "first_weight_sq": "1/4"}).weights_sq(
        3
    ) == [F(1, 4), 1, 1]
    shift = shift1d_from_descriptor(
        {
            "prefix_sq": [],
            "tail": {
                "kind": "from_measure",
                "measure": {
                    "kind": "atomic1d",
                    "atoms": ["1/2", "1"],
                    "densities": ["1/2", "1/2"],
                },
            },
        }
    )
    assert shift.moment(2) == F(5, 8)
    back = shift1d_to_descriptor(shift)
    assert back["tail"]["measure"]["atoms"] == ["1/2", "1"]


def test_shift1d_prefix_only_default_tail():
    shift = shift1d_from_descriptor({"prefix_sq": ["1/2", "2/3"]})
    assert shift.tail is None


def test_shift2d_grids_round_trip():
    data = shift2d_to_descriptor(sie_bergman(3))
    again = shift2d_from_descriptor(data)
    assert shift2d_to_descriptor(again) == data


def test_shift2d_named_kinds_and_window_override():
    shift = shift2d_from_descriptor({"kind": "sie_bergman", "window": 3}, window=5)
    assert shift.window == 5
    hh = shift2d_from_descriptor({"kind": "helton_howe"}, window=2)
    assert hh.alpha_sq(1, 1) == 1
    classical = shift2d_from_descriptor(
        {"kind": "classical", "base": {"kind": "bergman"}}, window=4
    )
    assert classical.alpha_sq(1, 2) == bergman().weight_sq(3)


def test_shift2d_generator_kind():
    data = {
        "kind": "generator",
        "alpha_num": [["1"], ["1"]],
        "alpha_den": [["2", "1"], ["1"]],
        "beta_num": [["1", "1"]],
        "beta_den": [["2", "1"], ["1"]],
        "window": 4,
    }
    shift = shift2d_from_descriptor(data)
    reference = sie_bergman(4)
    assert all(
        shift.alpha_sq(i, j) == reference.alpha_sq(i, j)
        and shift.beta_sq(i, j) == reference.beta_sq(i, j)
        for i in range(4)
        for j in range(4)
    )
    assert shift.rule is not None  # rows keep their closed-form tails


def test_shift2d_named_needs_window():
    with pytest.raises(DescriptorError):
        shift2d_from_descriptor({"kind": "sie_bergman"})


def test_shift1d_rejects_unknown_tail():
    with pytest.raises(DescriptorError) as err:
        shift1d_from_descriptor({"prefix_sq": [], "tail": {"kind": "magic"}})
    assert "$.tail" in str(err.value)


def test_embedding_spec_descriptors():
    from shiftlab.descriptors import embedding_from_descriptor
    from shiftlab.embed import StallReport

    classical = embedding_from_descriptor(
        {"kind": "classical", "base": {"kind": "bergman"}}
    )
    grid = classical.build(4)
    assert grid.alpha_sq(1, 1) == F(3, 4)

    poly = embedding_from_descriptor(
        {"kind": "poly", "p": [0, 1], "q": [1, -1], "base": {"kind": "lebesgue01"}}
    )
    assert poly.build(3).alpha_sq(0, 0) == F(1, 2)

    iterative = embedding_from_descriptor(
        {"kind": "spherical", "c": "1", "row0": {"kind": "bergman"}}
    )
    built = iterative.build(3)
    assert not isinstance(built, StallReport)
    assert built.beta_sq(0, 1) == F(2, 3)

    from_measure_route = embedding_from_descriptor(
        {
            "kind": "spherical",
            "c": "1",
            "base": {"kind": "atomic1d", "atoms": ["1/2"], "densities": ["1"]},
        }
    )
    assert from_measure_route.build(3).alpha_sq(2, 2) == F(1, 2)


def test_embedding_spec_validation():
    from shiftlab.embed import EmbeddingSpec

    with pytest.raises(ValueError):
        EmbeddingSpec("poly", None)
    with pytest.raises(ValueError):
        EmbeddingSpec("spherical", None)
    with pytest.raises(ValueError):
        EmbeddingSpec("mystery", None)
