import gc
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from click.testing import CliRunner

import shiftlab
from shiftlab.cli import main
from shiftlab.descriptors import measure1d_from_descriptor, shift2d_to_descriptor
from shiftlab.embed import classical_embed
from shiftlab.exactcore import RationalPolynomial, format_rational
from shiftlab.families import bergman_rank_one
from shiftlab.measures import Pushforward2D
from shiftlab.shift2d import restrict, sie_bergman


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def files(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return {
        "bergman": write("bergman.json", {"kind": "bergman"}),
        "sie": write("sie.json", {"kind": "sie_bergman"}),
        "rank_one_high": write(
            "rank_one_high.json",
            {
                "prefix_sq": ["7/10"],
                "tail": {"kind": "rational_fn", "num": [1, 1], "den": [2, 1], "start": 1},
            },
        ),
        "three_atoms": write(
            "three_atoms.json",
            {
                "kind": "atomic1d",
                "atoms": ["1/3", "1/2", "1"],
                "densities": ["1/3", "1/3", "1/3"],
            },
        ),
        "helton_howe": write("helton_howe.json", {"kind": "helton_howe"}),
        "classical_grid": write(
            "classical.json", {"kind": "classical", "base": {"kind": "bergman"}}
        ),
        # 3-bit denominators whose x-marginal needs 4 bits:
        # 1/6 + 1/4 = 5/12 and 1/4 + 1/3 = 7/12
        "sixths_and_quarters": write(
            "sixths_and_quarters.json",
            {
                "kind": "atomic2d",
                "atoms": [["0", "0"], ["0", "1"], ["1", "0"], ["1", "1"]],
                "densities": ["1/6", "1/4", "1/4", "1/3"],
            },
        ),
        "planar": write(
            "planar.json",
            {
                "kind": "atomic2d",
                "atoms": [["1/3", "2/3"], ["1/2", "1/2"], ["1", "0"]],
                "densities": ["1/3", "1/3", "1/3"],
            },
        ),
        "family": write(
            "family.json",
            {
                "parameter": "x",
                "lo": "1/2",
                "hi": "4/5",
                "shift": {
                    "prefix_sq": ["x"],
                    "tail": {"kind": "rational_fn", "num": [1, 1], "den": [2, 1], "start": 1},
                    "norm_bound_sq": "2",
                },
            },
        ),
    }


# Lebesgue measure's moments 1/(n + 1), as a table supported in [0, 1]
LEBESGUE_TABLE = {"kind": "prefix_table", "moments": [f"1/{n + 1}" for n in range(16)]}


def _payload(result):
    return json.loads(result.stdout)


def test_moments1(runner, files):
    result = runner.invoke(main, ["moments1", "--shift", files["bergman"], "--count", "4"])
    assert result.exit_code == 0
    assert _payload(result)["result"]["moments"] == ["1", "1/2", "1/3", "1/4"]


def test_moments2_and_determinism(runner, files):
    args = ["moments2", "--shift", files["sie"], "--window", "3"]
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert first.exit_code == 0
    assert first.stdout == second.stdout  # byte-stable
    table = _payload(first)["result"]["moments"]
    assert table[2][1] == "1/12"


def test_khypo1_verdict_exit_codes(runner, files):
    good = runner.invoke(main, ["khypo1", "--shift", files["bergman"], "--k", "2"])
    assert good.exit_code == 0
    bad = runner.invoke(
        main, ["khypo1", "--shift", files["rank_one_high"], "--k", "2", "--window", "10"]
    )
    assert bad.exit_code == 2
    body = _payload(bad)
    assert body["result"]["holds"] is False
    assert body["result"]["certificate"]["first_failure"] is not None


def test_khypo2_with_restriction(runner, files):
    result = runner.invoke(
        main,
        [
            "khypo2",
            "--shift",
            files["sie"],
            "--k",
            "2",
            "--window",
            "6",
            "--restriction",
            "2,3,0,0",
        ],
    )
    assert result.exit_code == 0


def test_sixpoint(runner, files):
    result = runner.invoke(main, ["sixpoint", "--shift", files["sie"], "--window", "8"])
    assert result.exit_code == 0
    assert _payload(result)["result"] == {"holds": True, "window": 8, "first_failure": None}


@pytest.mark.parametrize(
    "args",
    [
        ["power", "--m", "0", "--n", "1"],
        ["power", "--m", "2", "--n", "-1"],
        ["khypo2", "--power", "0,2"],
    ],
)
def test_empty_power_is_an_error(runner, files, args):
    result = runner.invoke(main, [args[0], "--shift", files["sie"], *args[1:], "--window", "3"])
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr.startswith("error: ")


@pytest.mark.parametrize(
    "args",
    [
        ["khypo1", "--shift", "bergman", "--window", "-3"],
        ["khypo2", "--shift", "sie", "--window", "-1"],
        ["sixpoint", "--shift", "sie", "--window", "-1"],
        ["power", "--shift", "sie", "--m", "2", "--n", "2", "--window", "-2"],
        ["khypo2", "--shift", "sie", "--window", "3", "--power", "2,2",
         "--restriction", "2,3,0,0"],
        ["threshold", "--family", "family", "--op", "khypo1", "--k", "2",
         "--window", "3", "--precision", "100", "--power", "2,2"],
        ["threshold", "--family", "family", "--op", "khypo1", "--k", "2",
         "--window", "3", "--precision", "100", "--restriction", "2,3,0,0"],
    ],
)
def test_invalid_sweep_is_an_error(runner, files, args):
    result = runner.invoke(main, [files.get(arg, arg) for arg in args])
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr.startswith("error: ")


@pytest.mark.parametrize(
    "args",
    [
        ["threshold", "--family", "family", "--op", "khypo1", "--k", "2",
         "--window", "3", "--precision", "-5"],
        ["threshold", "--family", "family", "--op", "khypo1", "--k", "2",
         "--window", "3", "--precision", "0"],
        ["recursion", "--moments", "1,1/2,1/3,1/4", "--max-order", "0"],
        ["recursion", "--moments", "1,1/2,1/3,1/4", "--max-order", "-1"],
        ["moments1", "--shift", "bergman", "--count", "-3"],
        ["recursion", "--shift", "bergman", "--count", "-3"],
    ],
)
def test_nonpositive_bound_is_an_error(runner, files, args):
    result = runner.invoke(main, [files.get(arg, arg) for arg in args])
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr.startswith("error: ")
    assert "must be >= " in result.stderr


@pytest.mark.parametrize(
    "args",
    [
        ["khypo1", "--shift", "bergman", "--window", "0"],
        ["khypo2", "--shift", "sie", "--window", "0"],
        ["sixpoint", "--shift", "sie", "--window", "0"],
    ],
)
def test_window_zero_tests_the_origin(runner, files, args):
    result = runner.invoke(main, [files.get(arg, arg) for arg in args])
    assert result.exit_code == 0
    assert _payload(result)["params"]["window"] == 0


def test_command_leaves_no_report_in_cyclic_garbage(runner, files):
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        result = runner.invoke(main, ["moments2", "--shift", files["sie"], "--window", "20"])
        assert result.exit_code == 0
        del result  # the result holds the exception, whose traceback holds the frames
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        assert not any(isinstance(obj, F) for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()


@pytest.mark.parametrize(
    "descriptor",
    [{"kind": []}, {"kind": {}}, {"kind": "bergman", "note": 0.5}],
)
def test_malformed_descriptor_is_an_error(runner, tmp_path, descriptor):
    path = tmp_path / "shift.json"
    path.write_text(json.dumps(descriptor))
    result = runner.invoke(main, ["khypo1", "--shift", str(path)])
    assert result.exit_code == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.stderr.startswith("error: ")


def test_float_coefficient_option_is_an_error(runner, files):
    result = runner.invoke(
        main, ["pushforward", "--measure", files["three_atoms"], "--p", "[0.5]", "--q", "1"]
    )
    assert result.exit_code == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.stderr.startswith("error: ")


def test_agler_index_must_be_an_integer(runner, tmp_path):
    path = tmp_path / "agler.json"
    path.write_text(json.dumps({"kind": "agler", "j": "3"}))
    result = runner.invoke(main, ["khypo1", "--shift", str(path)])
    assert result.exit_code == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.stderr.startswith("error: ")
    assert "'j' must be an integer" in result.stderr


def test_embed_spherical_matches_closed_form(runner, files):
    result = runner.invoke(
        main,
        ["embed", "--kind", "spherical", "--c", "1", "--row0", files["bergman"], "--window", "4"],
    )
    assert result.exit_code == 0
    grid = _payload(result)["result"]["shift"]
    assert grid["alpha_sq"][0] == ["1/2", "1/3", "1/4", "1/5"]
    assert grid["beta_sq"][0] == ["1/2", "2/3", "3/4", "4/5"]


def test_embed_stall_exits_2(runner, tmp_path):
    descriptor = {
        "prefix_sq": ["9/16"],
        "tail": {"kind": "rational_fn", "num": [1, 1], "den": [2, 1], "start": 1},
    }
    path = tmp_path / "stall.json"
    path.write_text(json.dumps(descriptor))
    result = runner.invoke(
        main,
        ["embed", "--kind", "spherical", "--c", "1", "--row0", str(path), "--window", "10"],
    )
    assert result.exit_code == 2
    body = _payload(result)
    assert body["result"]["stalled"]["location"] == [0, 7]


def test_power_and_decompose(runner, files):
    result = runner.invoke(
        main,
        ["power", "--shift", files["sie"], "--m", "2", "--n", "2", "--k", "1", "--window", "4"],
    )
    assert result.exit_code == 0
    decomposed = runner.invoke(
        main, ["decompose", "--shift", files["bergman"], "--m", "2", "--window", "3"]
    )
    assert decomposed.exit_code == 0
    parts = _payload(decomposed)["result"]["components"]
    assert parts[0]["prefix_sq"] == ["1/3", "3/5", "5/7"]


def test_power_and_khypo2_power_agree(runner, files):
    power = runner.invoke(
        main,
        ["power", "--shift", files["sie"], "--m", "2", "--n", "2", "--k", "1", "--window", "4"],
    )
    khypo2 = runner.invoke(
        main,
        ["khypo2", "--shift", files["sie"], "--power", "2,2", "--k", "1", "--window", "4"],
    )
    assert power.exit_code == khypo2.exit_code == 0
    by_pq = _payload(power)["result"]["components"]
    assert list(by_pq) == ["0,0", "0,1", "1,0", "1,1"]
    assert list(by_pq.values()) == _payload(khypo2)["result"]["components"]


def test_curto_park(runner, files):
    result = runner.invoke(main, ["curto-park", "--measure", files["three_atoms"], "--m", "2"])
    assert result.exit_code == 0
    measures = _payload(result)["result"]["measures"]
    assert measures[1]["densities"] == ["2/11", "3/11", "6/11"]


def test_recursion_from_moments(runner):
    result = runner.invoke(
        main,
        [
            "recursion",
            "--moments",
            "1,11/18,49/108,251/648,1393/3888,8051/23328,47449/139968",
            "--max-order",
            "3",
        ],
    )
    assert result.exit_code == 0
    body = _payload(result)["result"]
    assert body["found"] is True and body["order"] == 3
    assert body["atoms"] == [["1/3", "1/3"], ["1/2", "1/3"], ["1", "1/3"]]


@pytest.mark.parametrize("window", ["-1", "-3"])
@pytest.mark.parametrize("base", [{"kind": "lebesgue01"}, {"kind": "beta", "j": 3}, None])
def test_pushforward_negative_window_is_an_error(runner, files, tmp_path, base, window):
    measure = files["three_atoms"]
    if base is not None:
        measure = tmp_path / "base.json"
        measure.write_text(json.dumps(base))
    result = runner.invoke(
        main, ["pushforward", "--measure", str(measure), "--p", "0,1", "--q", "1,-1",
               "--window", window]
    )
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr == "error: window must be >= 0\n"


@pytest.mark.parametrize("base", ["three_atoms", "lebesgue"])
def test_pushforward_takes_one_coefficient_polynomials(runner, files, tmp_path, base):
    lebesgue = tmp_path / "lebesgue.json"
    lebesgue.write_text(json.dumps({"kind": "lebesgue01"}))
    measure = str(lebesgue) if base == "lebesgue" else files[base]
    bare, listed = (
        runner.invoke(main, ["pushforward", "--measure", measure, "--p", p, "--q", q])
        for p, q in (("0", "2"), ("[0]", "[2]"))
    )
    assert bare.exit_code == 0
    assert bare.stdout == listed.stdout


def test_pushforward_window_zero_is_the_total_mass(runner, tmp_path):
    measure = tmp_path / "lebesgue.json"
    measure.write_text(json.dumps({"kind": "lebesgue01"}))
    result = runner.invoke(
        main, ["pushforward", "--measure", str(measure), "--p", "0,1", "--q", "1,-1",
               "--window", "0"]
    )
    assert result.exit_code == 0
    assert _payload(result)["result"] == {"moments": [["1"]]}


@pytest.mark.parametrize("window", range(5))
@pytest.mark.parametrize(
    "base",
    [{"kind": "lebesgue01"}, {"kind": "beta", "j": 3}, LEBESGUE_TABLE],
    ids=["lebesgue01", "beta3", "prefix_table"],
)
def test_pushforward_report_equals_the_oracle_cell_by_cell(runner, tmp_path, base, window):
    measure = tmp_path / "base.json"
    measure.write_text(json.dumps(base))
    p, q = RationalPolynomial.of(0, F(1, 2), F(1, 3)), RationalPolynomial.of(1, F(-2, 3))
    result = runner.invoke(
        main, ["pushforward", "--measure", str(measure), "--p", "0,1/2,1/3",
               "--q", "1,-2/3", "--window", str(window)]
    )
    assert result.exit_code == 0
    oracle = Pushforward2D(measure1d_from_descriptor(base), p, q)
    assert _payload(result)["result"]["moments"] == [
        [format_rational(oracle.moment(i, j)) for j in range(window + 1)]
        for i in range(window + 1)
    ]


def test_pushforward_reads_a_prefix_table_up_to_its_last_moment(runner, tmp_path):
    # p = r, q = 0: window W reads moments 0..W of the table
    measure = tmp_path / "table.json"
    measure.write_text(json.dumps({"kind": "prefix_table", "moments": ["1", "1/2", "1/3"]}))
    args = ["pushforward", "--measure", str(measure), "--p", "0,1", "--q", "0", "--window"]
    answered = runner.invoke(main, [*args, "2"])
    assert answered.exit_code == 0
    assert _payload(answered)["result"]["moments"] == [
        ["1", "0", "0"], ["1/2", "0", "0"], ["1/3", "0", "0"]
    ]
    short = runner.invoke(main, [*args, "3"])
    assert short.exit_code == 1
    assert short.stdout == ""
    assert short.stderr == "error: moment table holds indices 0..2\n"


def test_pushforward_and_marginal(runner, files):
    pushed = runner.invoke(
        main,
        ["pushforward", "--measure", files["three_atoms"], "--p", "0,1", "--q", "1,-1"],
    )
    assert pushed.exit_code == 0
    mu = _payload(pushed)["result"]["measure"]
    assert mu["atoms"] == [["1/3", "2/3"], ["1/2", "1/2"], ["1", "0"]]
    marg = runner.invoke(main, ["marginal", "--measure", files["planar"], "--axis", "x"])
    assert marg.exit_code == 0
    assert _payload(marg)["result"]["measure"]["atoms"] == ["1/3", "1/2", "1"]


def test_recover_and_spherical_check(runner, files, tmp_path):
    embed_result = runner.invoke(
        main,
        ["embed", "--kind", "spherical", "--c", "1", "--base", files["three_atoms"],
         "--window", "6"],
    )
    assert embed_result.exit_code == 0
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps(_payload(embed_result)["result"]["shift"]))
    recovered = runner.invoke(
        main, ["recover", "--shift", str(grid_path), "--atoms", "1/3,1/2,1"]
    )
    assert recovered.exit_code == 0
    assert _payload(recovered)["result"]["measure"]["densities"] == ["1/3", "1/3", "1/3"]
    check = runner.invoke(main, ["spherical-check", "--shift", str(grid_path)])
    assert check.exit_code == 0
    assert _payload(check)["result"]["constant"] == "1"
    not_spherical = runner.invoke(
        main, ["spherical-check", "--shift", files["sie"], "--window", "4"]
    )
    assert not_spherical.exit_code == 0


def test_spherical_check_verdicts(runner, tmp_path, files):
    # all-ones grid: constant sum 2
    hh = tmp_path / "hh.json"
    hh.write_text(json.dumps({"kind": "helton_howe"}))
    constant = runner.invoke(main, ["spherical-check", "--shift", str(hh), "--window", "3"])
    assert constant.exit_code == 0
    assert _payload(constant)["result"]["constant"] == "2"
    # diagonal Bergman embedding: sum varies, verdict exits 2
    diag = tmp_path / "diag.json"
    diag.write_text(json.dumps({"kind": "classical", "base": {"kind": "bergman"}}))
    varying = runner.invoke(main, ["spherical-check", "--shift", str(diag), "--window", "3"])
    assert varying.exit_code == 2
    assert _payload(varying)["result"]["constant"] is None


def test_threshold_cli(runner, files):
    result = runner.invoke(
        main,
        [
            "threshold",
            "--family",
            files["family"],
            "--op",
            "khypo1",
            "--k",
            "2",
            "--window",
            "15",
            "--precision",
            "1000",
            "--candidate",
            "9/16",
        ],
    )
    assert result.exit_code == 0
    body = _payload(result)["result"]
    assert body["candidate_confirmed"] is True


def _threshold(runner, files, op, k):
    return runner.invoke(
        main,
        ["threshold", "--family", files["family"], "--op", op, "--k", k,
         "--window", "15", "--precision", "1000"],
    )


def test_threshold_sixpoint_ignores_k(runner, files):
    # the six-point test has no order: --k sizes no grid and changes no verdict
    by_k1 = _threshold(runner, files, "sixpoint", "1")
    by_k3 = _threshold(runner, files, "sixpoint", "3")
    assert by_k1.exit_code == by_k3.exit_code == 0
    assert _payload(by_k1)["result"] == _payload(by_k3)["result"]


@pytest.mark.parametrize("op", ["khypo1", "khypo2", "sixpoint"])
def test_threshold_k_below_one_is_an_error(runner, files, op):
    result = _threshold(runner, files, op, "0")
    assert result.exit_code == 1
    assert result.stderr == "error: k must be >= 1\n"


def test_csv_output_is_flat_and_stable(runner, files):
    args = ["moments1", "--shift", files["bergman"], "--count", "3", "--csv"]
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert first.exit_code == 0
    assert first.stdout == second.stdout
    assert "result.moments[2],1/3" in first.stdout


def test_denominator_cap(runner, files, monkeypatch):
    monkeypatch.setenv("SHIFTLAB_MAX_DENOM_BITS", "4")
    result = runner.invoke(main, ["moments1", "--shift", files["bergman"], "--count", "40"])
    assert result.exit_code == 1
    assert "denominator" in result.stderr


@pytest.mark.parametrize(
    "args, cap, bits",
    [
        (["embed", "--kind", "classical", "--base", "bergman", "--window", "4"], 2, 3),
        (["restrict", "--shift", "classical_grid", "--m", "2", "--n", "2", "--window", "8"],
         2, 3),
        (["curto-park", "--measure", "three_atoms", "--m", "2"], 2, 4),
        (["decompose", "--shift", "bergman", "--m", "2", "--window", "4"], 2, 3),
        (["pushforward", "--measure", "three_atoms", "--p", "0,1/2", "--q", "1,-1"], 2, 3),
        (["marginal", "--measure", "sixths_and_quarters", "--axis", "x"], 3, 4),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else None,
)
def test_denominator_cap_covers_serialized_results(runner, files, monkeypatch, args, cap, bits):
    # each result reaches the report as text that a serializer already
    # formatted; every rational in the inputs is within the cap
    argv = [files.get(arg, arg) for arg in args]
    assert runner.invoke(main, argv).exit_code == 0
    monkeypatch.setenv("SHIFTLAB_MAX_DENOM_BITS", str(cap))
    for extra in ([], ["--csv"]):
        result = runner.invoke(main, [*argv, *extra])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == f"error: denominator needs {bits} bits, cap is {cap}\n"


def test_denominator_cap_covers_echoed_inputs(runner, files, tmp_path, monkeypatch):
    shift = tmp_path / "shift.json"
    shift.write_text(json.dumps({"prefix_sq": ["7/10"]}))
    embedded = runner.invoke(main, ["embed", "--kind", "spherical", "--c", "1",
                                    "--base", files["three_atoms"], "--window", "3"])
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps(_payload(embedded)["result"]["shift"]))
    cases = [
        # the report's only moment is 1; the descriptor holds 7/10
        (["moments1", "--shift", str(shift), "--count", "1"], 3, 4),
        # the grid's first weight is 11/18; the atoms and the recovered
        # measure need 2 bits
        (["recover", "--shift", str(grid), "--atoms", "1/3,1/2,1"], 2, 5),
    ]
    for args, cap, bits in cases:
        monkeypatch.delenv("SHIFTLAB_MAX_DENOM_BITS", raising=False)
        assert runner.invoke(main, args).exit_code == 0
        monkeypatch.setenv("SHIFTLAB_MAX_DENOM_BITS", str(cap))
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert result.stderr == f"error: denominator needs {bits} bits, cap is {cap}\n"


@pytest.mark.parametrize(
    "args",
    [
        ["embed", "--kind", "poly", "--base", "three_atoms", "--p", "0,1", "--q", "1,-1",
         "--window", "3"],
        ["khypo2", "--shift", "sie", "--power", "2,1", "--window", "2"],
        ["recursion", "--moments", "1,0,-1,0,1,0,-1,0"],
        ["threshold", "--family", "family", "--window", "2", "--power", "2,1",
         "--precision", "8"],
    ],
    ids=lambda args: args[0],
)
def test_a_cap_every_denominator_meets_changes_no_byte(runner, files, monkeypatch, args):
    # names, kinds and option texts such as "2,1" are not rationals and pass
    argv = [files.get(arg, arg) for arg in args]
    for extra in ([], ["--csv"]):
        monkeypatch.delenv("SHIFTLAB_MAX_DENOM_BITS", raising=False)
        free = runner.invoke(main, [*argv, *extra])
        monkeypatch.setenv("SHIFTLAB_MAX_DENOM_BITS", "64")
        capped = runner.invoke(main, [*argv, *extra])
        assert free.exit_code == capped.exit_code == 0
        assert capped.stdout == free.stdout


@pytest.mark.parametrize(
    "c, base",
    [("0", "three_atoms"), ("-1", "lebesgue"), ("0", "point_at_0"), ("-1/2", "three_atoms")],
)
@pytest.mark.parametrize("route", ["flags", "spec"])
def test_spherical_measure_route_rejects_a_nonpositive_c(runner, files, tmp_path, c, base,
                                                           route):
    bases = {
        "three_atoms": json.loads(Path(files["three_atoms"]).read_text()),
        "lebesgue": {"kind": "lebesgue01"},
        "point_at_0": {"kind": "atomic1d", "atoms": ["0"], "densities": ["1"]},
    }
    base_file = tmp_path / "base.json"
    base_file.write_text(json.dumps(bases[base]))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"kind": "spherical", "c": c, "base": bases[base]}))
    args = (["--kind", "spherical", "--c", c, "--base", str(base_file)] if route == "flags"
            else ["--spec", str(spec)])
    result = runner.invoke(main, ["embed", *args, "--window", "3"])
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr == "error: c must be positive\n"


def test_schema_error_exit_code(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"prefix_sq": ')
    result = runner.invoke(main, ["khypo1", "--shift", str(bad)])
    assert result.exit_code == 1
    assert "invalid JSON" in result.stderr


def _nested_bergman(depth):
    """A bergman descriptor whose ignored key nests objects ``depth`` deep in all."""
    return '{"kind": "bergman", "note": ' + '{"a": ' * (depth - 1) + "0" + "}" * depth


@pytest.mark.parametrize("depth", [32, 33, 700, 3000])
def test_descriptor_nesting_is_capped_at_32(runner, tmp_path, depth):
    # 700 used to overflow the report echo and 3000 the JSON parser
    path = tmp_path / "deep.json"
    path.write_text(_nested_bergman(depth))
    result = runner.invoke(main, ["moments1", "--shift", str(path), "--count", "2"])
    if depth <= 32:
        assert result.exit_code == 0
        assert _payload(result)["result"]["moments"] == ["1", "1/2"]
    else:
        assert result.exit_code == 1
        assert result.stderr == f"error: $: {path} nests deeper than 32 levels\n"


def test_deeply_nested_coefficient_option_is_an_error(runner, files):
    p = "[" * 3000 + "]" * 3000
    result = runner.invoke(
        main, ["pushforward", "--measure", files["three_atoms"], "--p", p, "--q", "1"]
    )
    assert result.exit_code == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.stderr.startswith("error: $: --p must be a rational like 49/90, got '[[[")


def test_cli_import_leaves_out_mpmath():
    src = os.path.dirname(os.path.dirname(shiftlab.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, shiftlab.cli; print('mpmath' in sys.modules)"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "shiftlab.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0


def test_embed_with_spec_file(runner, tmp_path):
    spec = {"kind": "spherical", "c": "1", "row0": {"kind": "bergman"}}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    result = runner.invoke(main, ["embed", "--spec", str(path), "--window", "3"])
    assert result.exit_code == 0
    grid = _payload(result)["result"]["shift"]
    assert grid["alpha_sq"] == [
        ["1/2", "1/3", "1/4"],
        ["2/3", "1/2", "2/5"],
        ["3/4", "3/5", "1/2"],
    ]


@pytest.mark.parametrize(
    "flags, spec",
    [
        (
            ["--kind", "spherical", "--c", "1", "--row0", "bergman"],
            {"kind": "spherical", "c": "1", "row0": {"kind": "bergman"}},
        ),
        (
            ["--kind", "spherical", "--c", "6/5", "--base", "three_atoms"],
            {
                "kind": "spherical",
                "c": "6/5",
                "base": {
                    "kind": "atomic1d",
                    "atoms": ["1/3", "1/2", "1"],
                    "densities": ["1/3", "1/3", "1/3"],
                },
            },
        ),
        (
            ["--kind", "classical", "--base", "bergman"],
            {"kind": "classical", "base": {"kind": "bergman"}},
        ),
        (
            ["--kind", "poly", "--base", "three_atoms", "--p", "0,1", "--q", "1,-1"],
            {
                "kind": "poly",
                "p": [0, 1],
                "q": [1, -1],
                "base": {
                    "kind": "atomic1d",
                    "atoms": ["1/3", "1/2", "1"],
                    "densities": ["1/3", "1/3", "1/3"],
                },
            },
        ),
    ],
)
def test_embed_flags_and_spec_build_the_same_grid(runner, files, tmp_path, flags, spec):
    flags = [files.get(arg, arg) for arg in flags]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    by_flags = runner.invoke(main, ["embed", *flags, "--window", "3"])
    by_spec = runner.invoke(main, ["embed", "--spec", str(path), "--window", "3"])
    assert by_flags.exit_code == by_spec.exit_code == 0
    assert _payload(by_flags)["result"] == _payload(by_spec)["result"]
    inputs = _payload(by_flags)["inputs"]
    assert inputs["kind"] == spec["kind"] and inputs["window"] == 3


# q = x(x - 9/10)(x - 1) is negative on (9/10, 1), next to its root at 1
NEGATIVE_NEAR_ONE = ["0", "9/10", "-19/10", "1"]


@pytest.mark.parametrize(
    "base",
    [{"kind": "lebesgue01"}, {"kind": "beta", "j": 3}, LEBESGUE_TABLE],
    ids=["lebesgue01", "beta3", "prefix_table"],
)
@pytest.mark.parametrize("route", ["flags", "spec"])
def test_embed_rejects_q_negative_next_to_a_root_at_one(runner, tmp_path, base, route):
    if route == "flags":
        measure = tmp_path / "base.json"
        measure.write_text(json.dumps(base))
        args = ["--kind", "poly", "--base", str(measure), "--p", "[0,1]",
                "--q", json.dumps(NEGATIVE_NEAR_ONE)]
    else:
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"kind": "poly", "p": [0, 1], "q": NEGATIVE_NEAR_ONE,
                                    "base": base}))
        args = ["--spec", str(spec)]
    result = runner.invoke(main, ["embed", *args, "--window", "2"])
    assert result.exit_code == 1
    assert result.stderr == "error: q takes negative values on [0, 1]\n"


def test_embed_checks_a_prefix_table_on_its_own_support(runner, tmp_path):
    # 1 - x is nonnegative on [0, 1] but not on [0, 2]
    measure = tmp_path / "base.json"
    args = ["embed", "--kind", "poly", "--base", str(measure), "--p", "[0,1]",
            "--q", "[1,-1]", "--window", "2"]
    measure.write_text(json.dumps(LEBESGUE_TABLE))
    assert runner.invoke(main, args).exit_code == 0
    measure.write_text(json.dumps({**LEBESGUE_TABLE, "support_bound": "2"}))
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert result.stderr == "error: q takes negative values on [0, 2]\n"


@pytest.mark.parametrize(
    "base",
    [{"kind": "lebesgue01"}, {"kind": "beta", "j": 3}, LEBESGUE_TABLE],
    ids=["lebesgue01", "beta3", "prefix_table"],
)
@pytest.mark.parametrize(
    "p, q, message",
    [
        ("[-1]", "[1]", "p takes negative values on [0, 1]"),
        ("[0,1]", json.dumps(NEGATIVE_NEAR_ONE), "q takes negative values on [0, 1]"),
    ],
    ids=["p", "q"],
)
def test_pushforward_rejects_polynomials_negative_on_the_support(
    runner, tmp_path, base, p, q, message
):
    measure = tmp_path / "base.json"
    measure.write_text(json.dumps(base))
    result = runner.invoke(
        main, ["pushforward", "--measure", str(measure), "--p", p, "--q", q, "--window", "1"]
    )
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr == f"error: {message}\n"


@pytest.mark.parametrize(
    "command, shift, window",
    [
        ("spherical-check", "sie", "-1"),
        ("spherical-check", "grid", "-1"),
        ("moments2", "grid", "-1"),
        # a named shift is built at the window, so the window is checked first
        ("moments2", "sie", "-1"),
        ("spherical-check", "sie", "-2"),
    ],
    ids=["spherical-check-sie", "spherical-check-grid", "moments2-grid", "moments2-sie",
         "spherical-check-sie-window-2"],
)
def test_negative_moment_window_is_an_error(runner, files, tmp_path, command, shift, window):
    path = files.get(shift)
    if shift == "grid":
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"alpha_sq": [["1", "1"], ["1", "1"]],
                                    "beta_sq": [["1", "1"], ["1", "1"]]}))
    result = runner.invoke(main, [command, "--shift", str(path), "--window", window])
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr == "error: window must be >= 0\n"


@pytest.mark.parametrize("command", ["pushforward", "embed"])
def test_prefix_table_with_a_negative_support_bound_is_an_error(runner, tmp_path, command):
    measure = tmp_path / "base.json"
    measure.write_text(json.dumps({**LEBESGUE_TABLE, "support_bound": "-1"}))
    if command == "pushforward":
        args = ["pushforward", "--measure", str(measure), "--window", "1"]
    else:
        args = ["embed", "--kind", "poly", "--base", str(measure), "--window", "2"]
    result = runner.invoke(main, [*args, "--p", "[0,1]", "--q", "[1]"])
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr == "error: support_bound must be >= 0\n"


def test_restrict_matches_the_library(runner, files):
    args = ["restrict", "--shift", files["sie"], "--m", "2", "--n", "3", "--p", "1", "--q", "2"]
    result = runner.invoke(main, [*args, "--window", "12"])
    assert result.exit_code == 0
    body = _payload(result)
    assert body["command"] == "restrict"
    assert body["params"] == {"m": 2, "n": 3, "p": 1, "q": 2}
    assert body["result"]["shift"] == shift2d_to_descriptor(restrict(sie_bergman(12), 2, 3, 1, 2))
    small = runner.invoke(main, [*args, "--window", "3"])
    assert small.exit_code == 1
    assert small.stderr == "error: window 3 cannot host a (2,3) restriction at (1,2)\n"


def test_fixtures_worked_examples_pass(runner):
    result = runner.invoke(main, ["fixtures", "--seed", "0", "--skip-random"])
    assert result.exit_code == 0
    assert result.stdout.splitlines()[-1] == "16/16 fixtures passed"


@pytest.mark.parametrize(
    "args",
    [
        ["moments1", "--shift", "bergman", "--count", "2"],
        ["moments2", "--shift", "sie", "--window", "2"],
        ["khypo1", "--shift", "bergman", "--window", "2"],
        ["khypo2", "--shift", "sie", "--window", "1"],
        ["sixpoint", "--shift", "sie", "--window", "1"],
        ["embed", "--kind", "classical", "--base", "bergman", "--window", "2"],
        ["restrict", "--shift", "sie", "--m", "2", "--n", "1", "--window", "3"],
        ["power", "--shift", "sie", "--m", "2", "--n", "1", "--window", "1"],
        ["decompose", "--shift", "bergman", "--m", "2", "--window", "2"],
        ["curto-park", "--measure", "three_atoms", "--m", "2"],
        ["recursion", "--moments", "1,1/2,1/4"],
        ["pushforward", "--measure", "three_atoms", "--p", "0,1", "--q", "1"],
        ["marginal", "--measure", "planar", "--axis", "y"],
        ["recover", "--shift", "helton_howe", "--atoms", "1", "--window", "2"],
        ["spherical-check", "--shift", "sie", "--window", "1"],
        ["threshold", "--family", "family", "--op", "khypo1", "--window", "2",
         "--precision", "4"],
    ],
    ids=lambda args: args[0],
)
def test_report_names_its_command(runner, files, args):
    argv = [files.get(arg, arg) for arg in args]
    result = runner.invoke(main, argv)
    assert result.exit_code in (0, 2)
    payload = _payload(result)
    assert sorted(payload) == ["command", "inputs", "params", "result"]
    assert payload["command"] == args[0]
    csv = runner.invoke(main, [*argv, "--csv"])
    assert csv.exit_code == result.exit_code
    assert f"command,{args[0]}\n" in csv.stdout


@pytest.mark.parametrize(
    "flags",
    [
        ["--kind", "classical", "--base", "bergman"],
        ["--kind", "poly", "--base", "three_atoms", "--p", "0,1", "--q", "[1,-1]"],
        ["--kind", "spherical", "--c", "6/5", "--base", "three_atoms"],
        ["--kind", "spherical", "--row0", "bergman", "--base", "three_atoms"],
    ],
    ids=["classical", "poly", "spherical-base", "spherical-row0"],
)
def test_embed_flag_inputs_are_the_spec_descriptor(runner, files, tmp_path, flags):
    by_flags = runner.invoke(main, ["embed", *(files.get(f, f) for f in flags), "--window", "3"])
    assert by_flags.exit_code == 0
    inputs = _payload(by_flags)["inputs"]
    assert inputs.pop("window") == 3
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(inputs))
    by_spec = runner.invoke(main, ["embed", "--spec", str(path), "--window", "3"])
    assert by_spec.exit_code == 0
    assert _payload(by_spec)["result"] == _payload(by_flags)["result"]
    assert _payload(by_spec)["inputs"] == {"spec": inputs}


def test_embed_poly_flag_report_echoes_p_and_q(runner, tmp_path):
    base = tmp_path / "base.json"
    base.write_text(json.dumps({"kind": "lebesgue01"}))
    reports = [
        _payload(runner.invoke(main, ["embed", "--kind", "poly", "--base", str(base),
                                      "--p", p, "--q", "1,-1", "--window", "2"]))
        for p in ("0,1", "0,2")
    ]
    assert [r["inputs"]["p"] for r in reports] == [["0", "1"], ["0", "2"]]
    assert [r["inputs"]["q"] for r in reports] == [["1", "-1"], ["1", "-1"]]
    assert reports[0]["result"] != reports[1]["result"]


@pytest.mark.parametrize(
    "flags, missing",
    [
        (["--kind", "classical"], "base"),
        (["--kind", "poly", "--p", "0,1", "--q", "1"], "base"),
        (["--kind", "poly", "--base", "three_atoms", "--q", "1"], "p"),
        (["--kind", "poly", "--base", "three_atoms", "--p", "0,1"], "q"),
        (["--kind", "spherical", "--c", "1"], "base"),
    ],
    ids=["classical", "poly-base", "poly-p", "poly-q", "spherical"],
)
def test_embed_missing_flag_is_a_missing_descriptor_field(runner, files, flags, missing):
    result = runner.invoke(main, ["embed", *(files.get(f, f) for f in flags), "--window", "2"])
    assert result.exit_code == 1
    assert result.stderr == f"error: $: missing required field {missing!r}\n"


def test_embed_without_kind_or_spec_is_an_error(runner):
    result = runner.invoke(main, ["embed", "--window", "2"])
    assert result.exit_code == 1
    assert result.stderr == "error: $: embed needs --kind or --spec\n"


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--kind", "classical", "--base", "{}"],
         "$.base: expected a shift descriptor with 'prefix_sq' or a named kind"),
        (["--kind", "poly", "--base", "{}", "--p", "0,1", "--q", "1"],
         "$.base: unknown 1-variable measure kind 'mystery'"),
        (["--kind", "spherical", "--base", "{}"],
         "$.base: unknown 1-variable measure kind 'mystery'"),
        (["--kind", "spherical", "--row0", "{}"],
         "$.row0: expected a shift descriptor with 'prefix_sq' or a named kind"),
        # the coefficient flags are read before the base file
        (["--kind", "poly", "--base", "{}", "--p", "x", "--q", "1"],
         "$: --p must be a rational like 49/90, got 'x'"),
    ],
    ids=["classical", "poly", "spherical-base", "spherical-row0", "poly-p-first"],
)
def test_embed_flag_file_errors_name_their_field(runner, tmp_path, flags, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"kind": "mystery"}))
    args = [str(path) if f == "{}" else f for f in flags]
    result = runner.invoke(main, ["embed", *args, "--window", "2"])
    assert result.exit_code == 1
    assert result.stderr == f"error: {message}\n"


POWER_SHIFTS = {
    "sie": {"kind": "sie_bergman"},
    "helton_howe": {"kind": "helton_howe"},
    "classical": {"kind": "classical", "base": {"kind": "bergman"}},
    "generator": {"kind": "generator", "alpha_num": [["1"], ["1"]],
                  "alpha_den": [["4", "1"], ["1"]], "beta_num": [["2", "1"]],
                  "beta_den": [["4", "1"], ["1"]]},
}


@pytest.mark.parametrize("shift", sorted(POWER_SHIFTS))
@pytest.mark.parametrize(
    "args", [["khypo2", "--power", "0,0"], ["power", "--m", "0", "--n", "0"]],
    ids=["khypo2", "power"],
)
def test_nonpositive_power_names_itself(runner, tmp_path, shift, args):
    # the power is checked where it sizes the grid, before any grid is built
    path = tmp_path / "shift.json"
    path.write_text(json.dumps(POWER_SHIFTS[shift]))
    result = runner.invoke(main, [args[0], "--shift", str(path), *args[1:]])
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr == "error: power exponents must be >= 1, got (0,0)\n"


@pytest.mark.parametrize("op", ["khypo2", "sixpoint"])
def test_threshold_nonpositive_power_names_itself(runner, files, op):
    args = ["threshold", "--family", files["family"], "--op", op, "--precision", "100"]
    result = runner.invoke(main, [*args, "--power", "0,0"])
    assert result.exit_code == 1
    assert result.stderr == "error: power exponents must be >= 1, got (0,0)\n"
    both = runner.invoke(main, [*args, "--power", "0,0", "--restriction", "2,3,0,0"])
    assert both.exit_code == 1
    assert both.stderr == "error: choose either a power or a restriction, not both\n"


@pytest.mark.parametrize(
    "args",
    [
        ["khypo2", "--shift", "classical"],
        ["sixpoint", "--shift", "classical"],
        ["power", "--shift", "classical", "--m", "2", "--n", "2"],
        ["threshold", "--family", "family", "--precision", "100"],
    ],
    ids=["khypo2", "sixpoint", "power", "threshold"],
)
def test_negative_window_is_checked_before_the_build(runner, files, tmp_path, args):
    # the window is checked with k and the views, not by the grid it sizes
    classical = tmp_path / "classical.json"
    classical.write_text(json.dumps({"kind": "classical", "base": {"kind": "bergman"}}))
    named = dict(files, classical=str(classical))
    result = runner.invoke(main, [named.get(arg, arg) for arg in args] + ["--window", "-5"])
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr == "error: window must be >= 0\n"


@pytest.mark.parametrize(
    "args, message",
    [
        (["khypo2", "--shift", "sie", "--power=--2,2"], "--power must be 2"),
        (["khypo2", "--shift", "sie", "--power", "\u00b2,2"], "--power must be 2"),
        (["khypo2", "--shift", "sie", "--restriction", "2,3,0,+0"], "--restriction must be 4"),
        (["threshold", "--family", "family", "--restriction=--2,3,0,0"],
         "--restriction must be 4"),
        (["threshold", "--family", "family", "--power", "2,\u0663"], "--power must be 2"),
    ],
    ids=["double-minus", "superscript", "plus", "threshold-double-minus", "arabic-indic"],
)
def test_malformed_integer_tuple_names_its_option(runner, files, args, message):
    result = runner.invoke(main, [files.get(arg, arg) for arg in args])
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr == f"error: $: {message} comma-separated integers\n"


@pytest.mark.parametrize(
    "args, descriptor, message",
    [
        (["moments1", "--count", "3"], {"prefix_sq": [True, "1/2"]},
         "$.prefix_sq[0]: expected a rational, got True"),
        (["khypo1"], {"kind": "agler", "j": True}, "$: field 'j' must be an integer"),
        (["khypo1"], {"prefix_sq": ["1/2"], "norm_bound_sq": False},
         "$.norm_bound_sq: expected a rational, got False"),
        (["khypo1"], {"prefix_sq": [], "tail": {"kind": "rational_fn", "num": [1, 1],
                                                "den": [2, 1], "start": True}},
         "$.tail: 'start' must be a nonnegative integer"),
    ],
    ids=["prefix", "agler-j", "norm-bound", "tail-start"],
)
def test_json_booleans_are_not_numbers(runner, tmp_path, args, descriptor, message):
    path = tmp_path / "shift.json"
    path.write_text(json.dumps(descriptor))
    result = runner.invoke(main, [args[0], "--shift", str(path), *args[1:]])
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr.startswith(f"error: {message}")


def test_boolean_coefficient_option_is_an_error(runner, files):
    result = runner.invoke(
        main, ["pushforward", "--measure", files["three_atoms"], "--p", "[true, false]",
               "--q", "1"]
    )
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr == "error: $: --p must be a rational like 49/90, got True\n"


def test_nonpositive_power_with_a_restriction_asks_to_choose(runner, files):
    result = runner.invoke(
        main,
        ["khypo2", "--shift", files["sie"], "--power", "0,0", "--restriction", "2,3,0,0"],
    )
    assert result.exit_code == 1
    assert result.stderr == "error: choose either a power or a restriction, not both\n"


def _spherical_grid(runner, files, tmp_path):
    """A constant-sum grid file that ``recover`` accepts."""
    built = runner.invoke(
        main,
        ["embed", "--kind", "spherical", "--c", "1", "--base", files["three_atoms"],
         "--window", "6"],
    )
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(_payload(built)["result"]["shift"]))
    return str(path)


@pytest.mark.parametrize(
    "args, message",
    [
        (["recover", "--shift", "grid", "--atoms", "x"],
         "$: --atoms must be a rational like 49/90, got 'x'"),
        (["recover", "--shift", "grid", "--atoms", ""],
         "$: --atoms must be a rational like 49/90, got ''"),
        (["recover", "--shift", "grid", "--atoms", "1/2,1/2"],
         "duplicate interpolation node 1/2"),
        (["recursion", "--moments", "1,x"],
         "$: --moments must be a rational like 49/90, got 'x'"),
    ],
    ids=["atoms-x", "atoms-empty", "atoms-duplicate", "moments-x"],
)
def test_rational_list_flags_name_themselves(runner, files, tmp_path, args, message):
    grid = _spherical_grid(runner, files, tmp_path)
    result = runner.invoke(main, [grid if arg == "grid" else arg for arg in args])
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr == f"error: {message}\n"


def _explicit_grid(tmp_path, size):
    """The rank-one x = 3/5 classical embedding as an explicit size x size grid."""
    path = tmp_path / f"grid{size}.json"
    grid = classical_embed(bergman_rank_one(F(3, 5)), size)
    path.write_text(json.dumps(shift2d_to_descriptor(grid)))
    return str(path)


def test_explicit_grid_too_small_for_the_sweep_names_the_moment_window(runner, tmp_path):
    result = runner.invoke(
        main, ["khypo2", "--shift", _explicit_grid(tmp_path, 3), "--window", "1"]
    )
    assert result.exit_code == 1
    assert result.stderr == (
        "error: moment window 2 is below the 3 a k=1 sweep over window 1 reads\n"
    )


def test_explicit_grid_restriction_reads_the_grids_whole_table(runner, tmp_path):
    # a (1,2) restriction of a 6 x 6 grid is 2 x 2 and cannot fill the k = 1
    # moments at the origin, but the view of the 6 x 6 grid's table reaches
    # them; the verdict is the one a larger grid gives
    args = ["khypo2", "--window", "0", "--restriction", "1,2,0,1"]
    small = runner.invoke(main, [*args, "--shift", _explicit_grid(tmp_path, 6)])
    large = runner.invoke(main, [*args, "--shift", _explicit_grid(tmp_path, 20)])
    assert small.exit_code == large.exit_code == 0
    assert _payload(small)["result"] == _payload(large)["result"]


def test_sixpoint_needs_window_plus_three_grid_cells(runner, tmp_path):
    # the six-point test reads moments through window + 2, as a k = 1 sweep does
    grid = _explicit_grid(tmp_path, 5)
    fits = runner.invoke(main, ["sixpoint", "--shift", grid, "--window", "2"])
    assert fits.exit_code == 0
    short = runner.invoke(main, ["sixpoint", "--shift", grid, "--window", "3"])
    assert short.exit_code == 1
    assert short.stderr == (
        "error: moment window 4 is below the 5 a six-point sweep over window 3 reads\n"
    )


@pytest.mark.parametrize(
    "args, message",
    [
        (["pushforward", "--measure", "three_atoms", "--p", "0.5", "--q", "1"],
         "$: --p must be a rational like 49/90, got '0.5'"),
        (["pushforward", "--measure", "three_atoms", "--p", "1e-1", "--q", "1"],
         "$: --p must be a rational like 49/90, got '1e-1'"),
        (["pushforward", "--measure", "three_atoms", "--p", "0,1", "--q", "1_000"],
         "$: --q must be a rational like 49/90, got '1_000'"),
        (["recover", "--shift", "grid", "--atoms", "1/3,0.5,1"],
         "$: --atoms must be a rational like 49/90, got '0.5'"),
        (["threshold", "--family", "family", "--op", "khypo1", "--k", "2",
          "--precision", "1000", "--candidate", "0.5625"],
         "$: --candidate must be a rational like 49/90, got '0.5625'"),
        (["threshold", "--family", "decimal_family", "--op", "khypo1", "--k", "2",
          "--precision", "1000"],
         "$.hi: expected a rational, got '0.75' (Invalid literal for Fraction: '0.75')"),
    ],
    ids=["p-decimal", "p-exponent", "q-underscore", "atoms-decimal", "candidate-decimal",
         "family-decimal"],
)
def test_decimal_looking_rationals_are_an_error(runner, files, tmp_path, args, message):
    # each of these exact values was once read from its decimal spelling
    named = dict(files, grid=_spherical_grid(runner, files, tmp_path))
    family = tmp_path / "decimal_family.json"
    family.write_text(json.dumps(dict(json.loads(Path(files["family"]).read_text()), hi="0.75")))
    named["decimal_family"] = str(family)
    result = runner.invoke(main, [named.get(arg, arg) for arg in args])
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr == f"error: {message}\n"
