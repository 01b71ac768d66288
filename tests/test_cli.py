import dataclasses
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lienardqm import __version__, checks
from lienardqm.cli import RunConfig, build_parser, cmd_sweep, main, write_output
from lienardqm.errors import ConstraintViolationError
from lienardqm.params import AmbiguityParams, PhysicalParams, derive_params
from lienardqm.susy import ground_state_energy


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def test_spectrum_csv_schema_and_values(tmp_path):
    out = tmp_path / "spec.csv"
    code = main(["spectrum", "--omega", "1", "--k", "1", "--alpha", "0",
                 "--gamma", "0", "--n-max", "5", "--output", str(out)])
    assert code == 0
    lines = _read(out).splitlines()
    assert lines[0] == "n,energy,hbar_omega_units"
    energies = [float(line.split(",")[1]) for line in lines[1:]]
    assert energies == [0.5, 1.5, 2.5, 3.5, 4.5, 5.5]


def test_spectrum_constraint_violation_exit_code(tmp_path):
    code = main(["spectrum", "--k", "1", "--alpha", "-9", "--gamma", "9",
                 "--omega", "1", "--output", str(tmp_path / "x.csv")])
    assert code == 2


@pytest.mark.parametrize("argv", [
    "spectrum --alpha 2.97306 --gamma -4.84517e-05",
    "spectrum --alpha 2.97306 --gamma=-4.84517e-05",
    "sweep --alpha-values -1e-3,2 --gamma 1",
])
def test_negative_values_in_any_notation_parse(tmp_path, argv):
    # argparse alone takes '-4.84517e-05' and '-1e-3,2' for options
    assert main([*argv.split(), "--output", str(tmp_path / "o.csv")]) == 0


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as info:
        main(["spectrum", "--frequency", "1"])
    assert info.value.code == 2


@pytest.mark.parametrize("argv", [
    "classical --hbar 3", "classical --alpha 5", "classical --gamma 2",
    "classical --n-max 9", "wavefn --n-max 9", "verify --n-max 9",
    "limit --k 1", "limit --alpha 5", "limit --gamma 2", "sweep --n-max 9",
    # no option may be abbreviated: limit --k above is not --k-sequence
    "spectrum --om 2", "limit --k-seq 0.1",
    # verify works out its own grids
    "verify --h-p 0", "verify --h-p -1", "verify --h-p 1e-9", "verify --h-p 10",
    "verify --grid-n 100000000", "verify --grid-n 499 --y-max 150",
])
def test_unread_option_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "o.csv"
    with pytest.raises(SystemExit) as info:
        main(argv.split() + ["--output", str(out)])
    assert info.value.code == 2
    flag = argv.split(maxsplit=1)[1]
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not out.exists()


def test_classical_csv_schema(tmp_path):
    out = tmp_path / "classical.csv"
    code = main(["classical", "--omega", "1", "--k", "1", "--step", "0.01",
                 "--output", str(out)])
    assert code == 0
    lines = _read(out).splitlines()
    assert lines[0] == "t,x_numeric,x_analytic,abs_err"
    worst = max(float(line.split(",")[3]) for line in lines[1:])
    assert worst < 1e-6


def test_wavefn_csv_schema(tmp_path):
    out = tmp_path / "wf.csv"
    code = main(["wavefn", "--omega", "1", "--k", "1", "--alpha", "19",
                 "--gamma", "1", "--level", "2", "--samples", "301",
                 "--output", str(out)])
    assert code == 0
    lines = _read(out).splitlines()
    assert lines[0] == "p,y,psi"
    assert len(lines) == 302


@pytest.mark.parametrize("level", [10, 20, 100])
def test_wavefn_k0_window_keeps_the_norm(tmp_path, level):
    # the window reaches 3 sqrt(hbar omega) past the turning point
    # sqrt(2n + 1); a fixed +-6 lost 7.6e-6, 0.20 and 0.72 of these norms
    out = tmp_path / "wf.csv"
    assert main(["wavefn", "--k", "0", "--hbar", "0.25", "--level", str(level),
                 "--output", str(out)]) == 0
    p, _, values = np.loadtxt(out, delimiter=",", skiprows=1, unpack=True)
    assert abs(np.trapezoid(values ** 2, p) - 1.0) < 1e-10


RERUN_CASES = {
    "spectrum": "spectrum --omega 1.7 --k 0.3 --alpha 2 --gamma 3 --n-max 4",
    "classical": "classical --omega 1.05 --k 0.9 --amplitude 0.8 --step 0.01",
    "classical-k0": "classical --omega 1.05 --k 0 --amplitude 0.8 --step 0.01",
    "limit": "limit --n-max 1 --k-sequence 0.1,0.01 --a-values 1e2,1e4",
    "wavefn": "wavefn --alpha 19 --gamma 1 --level 2 --samples 301",
    "wavefn-k0": "wavefn --k 0 --level 2 --samples 301",
    "sweep": "sweep --omega-values 2,1 --k-values 1,0.5 --alpha 19 --gamma 1",
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", sorted(RERUN_CASES))
def test_byte_identical_reruns(tmp_path, case, fmt):
    args = RERUN_CASES[case].split() + ["--format", fmt]
    out1, out2 = tmp_path / f"a.{fmt}", tmp_path / f"b.{fmt}"
    assert main(args + ["--output", str(out1)]) == 0
    assert main(args + ["--output", str(out2)]) == 0
    assert _read(out1) == _read(out2)


def test_json_round_trip(tmp_path):
    out = tmp_path / "spec.json"
    code = main(["spectrum", "--omega", "1", "--k", "1", "--alpha", "19",
                 "--gamma", "1", "--n-max", "3", "--format", "json",
                 "--output", str(out)])
    assert code == 0
    payload = json.loads(_read(out))
    assert set(payload) == {"meta", "rows"}
    assert payload["meta"]["version"]
    assert payload["meta"]["params"]["alpha"] == 19.0
    energies = [row["energy"] for row in payload["rows"]]
    assert energies == [1.5, 2.5, 3.5, 4.5]
    # serialize again: identical bytes
    text = json.dumps(payload, sort_keys=True, indent=1) + "\n"
    assert text == _read(out)


def _reference_fmt(value):
    """One CSV cell, formatted on its own."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _reference_output(columns, rows, meta, fmt):
    """The table as formatted cell by cell, row by row: the writer's oracle."""
    if fmt == "csv":
        lines = [",".join(columns)]
        lines.extend(",".join(_reference_fmt(cell) for cell in row)
                     for row in rows)
        return "\n".join(lines) + "\n"
    payload = {"meta": {"params": meta, "version": __version__},
               "rows": [dict(zip(columns, row)) for row in rows]}
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


_EDGE_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0,
                                5e-324, -2.2e-308, 1.7e308, -1.7e308])
_FLOATS = _EDGE_FLOATS | st.floats(allow_nan=True, allow_infinity=True)
_TEXT = (st.text(st.sampled_from('ab,% "\\\u00e9\u221e\n'), max_size=6)
         | st.sampled_from([", ", "%s", "%%", '"quoted"', "back\\slash",
                            "na\u00efve"]))
_CELLS = (_TEXT | st.booleans() | st.integers(-2 ** 70, 2 ** 70) | st.none()
          | _FLOATS | _FLOATS.map(np.float64))
_COLUMNS = st.lists(_TEXT, min_size=1, max_size=5)
_META = st.dictionaries(_TEXT, _CELLS, max_size=3)


@st.composite
def _tables(draw):
    """(columns, rows): a 2-D float64 array or a list of mixed row tuples."""
    columns = draw(_COLUMNS)
    if draw(st.booleans()):
        rows = draw(arrays(np.float64, (draw(st.integers(0, 8)), len(columns)),
                           elements=_FLOATS))
    else:
        rows = draw(st.lists(st.tuples(*[_CELLS] * len(columns)), max_size=8))
    return columns, rows


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(table=_tables(), meta=_META, fmt=st.sampled_from(["csv", "json"]))
def test_write_output_matches_cell_by_cell_reference(tmp_path, table, meta,
                                                     fmt):
    columns, rows = table
    out = tmp_path / f"o.{fmt}"
    write_output(out, columns, rows, meta, fmt)
    with open(out, encoding="utf-8", newline="") as fh:
        assert fh.read() == _reference_output(columns, rows, meta, fmt)


def _percent_17g_cases():
    """float64 values that reach every path of the array formatter: each
    layout, both shortest-digit levels of JSON, and its bound, tie and
    power-of-two fallbacks besides those CSV shares."""
    rng = np.random.default_rng(20261018)
    tens = np.array([float(f"1e{e}") for e in range(-300, 301)])
    ties = rng.integers(2 ** 52, 2 ** 53, 2000) / 4.0  # m/4 in [2^50, 2^51)
    specials = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324,
                -2.5e-320, 1e-310, np.finfo(float).max, -np.finfo(float).max,
                np.finfo(float).tiny, 1e-5, 1e-4, 9.9999999999999991e-5,
                0.00012345, 1e16, 1e17, 99999999999999984.0,
                12345678901234567.0, 1125899906842624.25, 0.5, 1.0, 100.0]
    # short decimals, as the CLI's grids and steps write them
    decimals = [np.round(rng.uniform(-1e3, 1e3, 2000), places)
                for places in range(8)]
    near = np.array([1e-5, 1e-4, 1e15, 1e16, 1e17])
    neighbours = near[:, None] + np.arange(-8, 9) * np.spacing(near)[:, None]
    return np.concatenate([
        rng.integers(0, 2 ** 64, 10 ** 5, dtype=np.uint64).view(np.float64),
        tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf), -tens,
        ties, -ties, specials,
        rng.standard_normal(2000) * 10.0 ** rng.integers(-120, 120, 2000),
        *decimals, np.linspace(-5.0, 5.0, 20001), np.arange(5000) * 2e-4,
        np.arange(10 ** 6 + 1, step=97, dtype=np.float64),
        np.ldexp(1.0, np.arange(-930, 931)), neighbours.ravel()])


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_csv_array_cells_match_percent_17g(tmp_path, fmt):
    # CSV cells are '%.17g' % v; JSON is json.dumps of the same table
    values = _percent_17g_cases()
    rows = values[:len(values) // 3 * 3].reshape(-1, 3)
    out = tmp_path / f"o.{fmt}"
    write_output(out, ("b", "c", "a"), rows, {}, fmt)
    with open(out, "rb") as fh:
        got = fh.read().split(b"\n")
    if fmt == "csv":
        want = ["b,c,a", *(",".join(["%.17g"] * 3) % tuple(row)
                           for row in rows.tolist()), ""]
    else:
        want = _reference_output(("b", "c", "a"), rows.tolist(), {},
                                 "json").split("\n")
    assert len(got) == len(want)
    for line, text in zip(got, want):
        assert line == text.encode()


def test_config_file_and_flag_precedence(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"alpha": 19.0, "gamma": 1.0, "n_max": 2}))
    out = tmp_path / "o.csv"
    # config supplies alpha/gamma; flag overrides n_max
    code = main(["spectrum", "--config", str(config), "--omega", "1",
                 "--k", "1", "--n-max", "1", "--output", str(out)])
    assert code == 0
    lines = _read(out).splitlines()
    assert len(lines) == 3  # header + n in {0, 1}
    assert float(lines[1].split(",")[1]) == 1.5  # shift from config alpha*gamma


def test_config_file_unknown_key_rejected(tmp_path):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"omegaa": 2.0}))
    assert main(["spectrum", "--config", str(config)]) == 2


@pytest.mark.parametrize("argv, payload, code", [
    ("classical", {"hbar": 0}, 0),
    ("limit", {"k": -1}, 0),
    ("spectrum", {"hbar": 0}, 2),
    ("limit", {"grid_n": 6000}, 2),
], ids=["classical-unread-hbar", "limit-unread-k", "spectrum-read-hbar",
        "removed-key"])
def test_config_keys_range_checked_only_where_read(tmp_path, argv, payload,
                                                   code):
    config = tmp_path / "run.json"
    config.write_text(json.dumps(payload))
    out = tmp_path / "o.csv"
    assert main([argv, "--config", str(config), "--output", str(out)]) == code
    assert out.exists() == (code == 0)


def _flags(command):
    """The options a subcommand accepts besides --config, --output, --format."""
    sub = next(action for action in build_parser()._actions
               if action.dest == "command").choices[command]
    names = {action.dest for action in sub._actions if action.option_strings}
    return names - {"help", "config", "output", "format"}


@pytest.mark.parametrize("command", ["classical", "spectrum", "wavefn",
                                     "verify", "limit", "sweep"])
def test_json_echo_holds_exactly_the_accepted_flags(tmp_path, command):
    out = tmp_path / "o.json"
    assert main([command, "--format", "json", "--output", str(out)]) == 0
    params = json.loads(_read(out))["meta"]["params"]
    assert set(params) == _flags(command)


@pytest.mark.parametrize("payload, code, named", [
    ({"omega": "1"}, 2, "'omega'"),
    ({"omega": True}, 2, "'omega'"),
    ({"n_max": True}, 2, "'n_max'"),
    ({"n_max": 2.0}, 2, "'n_max'"),
    ({"alpha": None}, 2, "'alpha'"),
    ({"format": 1}, 2, "'format'"),
    (["omega"], 2, "JSON object"),
    ({"omega": 2, "n_max": 1, "t_end": None, "output": None}, 0, None),
], ids=["str-for-float", "bool-for-float", "bool-for-int", "float-for-int",
        "null-for-float", "int-for-str", "not-an-object", "accepted"])
def test_config_file_value_types(tmp_path, capsys, payload, code, named):
    config = tmp_path / "run.json"
    config.write_text(json.dumps(payload))
    out = tmp_path / "o.csv"
    assert main(["spectrum", "--config", str(config), "--output", str(out)]) == code
    err = capsys.readouterr().err
    if named:
        assert named in err
    else:
        assert err == "" and len(_read(out).splitlines()) == 3


@pytest.mark.parametrize("argv, config, named", [
    ("spectrum --k nan", None, "'k'"),
    ("spectrum --alpha nan", None, "'alpha'"),
    ("classical --amplitude nan", None, "'amplitude'"),
    ("classical --phase inf", None, "'phase'"),
    ("classical --t-end inf", None, "'t_end'"),
    ("sweep --k-values nan,1", None, "'k_values'"),
    ("limit --a-values 1e2,inf", None, "'a_values'"),
    ("spectrum", '{"omega": NaN}', "'omega'"),
    ("verify", '{"t_end": -Infinity}', "'t_end'"),
], ids=["spectrum-k", "spectrum-alpha", "classical-amplitude",
        "classical-phase", "classical-t-end", "sweep-k-values",
        "limit-a-values", "config-nan", "config-infinity"])
def test_non_finite_input_exits_2(tmp_path, capsys, argv, config, named):
    # main returning (not raising) is the no-traceback half of the contract
    args = argv.split()
    if config:
        path = tmp_path / "run.json"
        path.write_text(config)
        args += ["--config", str(path)]
    out = tmp_path / "o.csv"
    assert main(args + ["--output", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, named", [
    ("spectrum --omega 1e200", "omega = 1e+200"),
    ("spectrum --omega 1e60", "omega = 1e+60"),
    ("spectrum --k 1e-200", "k = 1e-200"),
    ("spectrum --alpha 1e200 --gamma 1e200", "alpha*gamma = inf"),
    ("classical --step 3 --t-end 300", "step 3.0"),
    ("limit --a-values -1", "'a_values' must hold numbers > 0"),
    ("limit --n-max -1 --a-values 1", "option 'n_max' must be >= 0, got -1"),
    ("verify --k 0", "`spectrum`, `wavefn` and `limit`"),
    ("verify --omega 1e50", "omega = 1e+50 is too large for verify: its "
                            "one-period span 6.28e-50"),
    ("wavefn --samples 0", "'samples' must be >= 2"),
    ("wavefn --samples -3", "'samples' must be >= 2"),
    ("limit --n-max 6", "option 'n_max' must be in 0..5"),
    ("verify --alpha -80 --gamma 1", "lam = 1, set by omega = 1, k = 1, "
                                     "hbar = 1 and alpha*gamma = -80, is "
                                     "below 2.5"),
    ("wavefn --level 200", "psi_200 is not finite at lam = 9"),
    ("wavefn --k 1e-9 --level 0", "wavefn at k = 1e-09, hbar = 1, omega = 1, "
                                  "lam = 9e+18 and level 0: log-space "
                                  "exponent exceeded 700"),
    ("limit --a-values 1e154", "the Laguerre-Hermite limit at n = 4 is not "
                               "finite at scale 1e+154"),
    ("limit --a-values 1e-300", "the Laguerre-Hermite limit at n = 3 "
                                "overflows at scale 1e-300"),
    ("wavefn --k 1e-30 --level 1", "the momentum window of psi_1 has no "
                                   "width in float64 at k = 1e-30 (lam = "
                                   "9e+60)"),
    ("spectrum --n-max 100000000", "option 'n_max' = 100000000 would give "
                                   "more than 1000000 output rows"),
    ("spectrum --n-max 1000000", "option 'n_max' = 1000000 would give"),
    ("classical --step 1e-300", "options 'step' = 1e-300 and 't_end' = "
                                "6.283185307179586 (unset: one period at "
                                "'omega' = 1.0) would give"),
    ("classical --step 1e-6 --t-end 1", "options 'step' = 1e-06 and "
                                        "'t_end' = 1.0 would give"),
    ("wavefn --samples 1000000000", "option 'samples' = 1000000000 would give"),
    ("wavefn --level -1", "option 'level' must be >= 0, got -1"),
    ("limit --k-sequence -1", "option 'k_sequence' must hold numbers > 0"),
    ("limit --k-sequence 0.01,0.1", "option 'k_sequence' must be strictly "
                                    "decreasing, got '0.01,0.1'"),
    ("sweep --omega-values " + ",".join(map(str, range(1, 1002)))
     + " --k-values " + ",".join(map(str, range(1, 1001))),
     "options 'omega_values', 'k_values' with 1001000 parameter points "
     "would give more than 1000000 output rows"),
    ("spectrum --n-max -1", "option 'n_max' must be >= 0, got -1"),
    ("classical --amplitude -1", "option 'amplitude' must be >= 0, got -1.0"),
    ("classical --step 0", "option 'step' must be > 0, got 0.0"),
    ("classical --t-end -1", "option 't_end' must be > 0, got -1.0"),
    ("spectrum --hbar 0", "option 'hbar' must be > 0, got 0.0"),
    ("wavefn --hbar 0", "option 'hbar' must be > 0, got 0.0"),
    ("verify --alpha -75.24 --gamma 1", "lam = 2.4, set by omega = 1, k = 1, "
                                        "hbar = 1 and alpha*gamma = -75.24, "
                                        "is below 2.5"),
    ("classical --amplitude 5", "option 'amplitude' must be < 3 omega / k "
                                "= 3 at omega = 1 and k = 1, got 5.0"),
    ("classical --amplitude 3", "option 'amplitude' must be < 3 omega / k "
                                "= 3 at omega = 1 and k = 1, got 3.0"),
    ("classical --k 0 --amplitude 1e200", "option 'amplitude' must be <= "
                                          "1.34078e+154, where its square "
                                          "overflows, got 1e+200"),
    ("classical --k 1e-300 --amplitude 1e299", "option 'amplitude' must be "
                                               "<= 1.34078e+154"),
], ids=["omega-cubed-overflows", "a-script-squared-overflows",
        "k-squared-underflows", "lam-overflows", "unstable-step",
        "limit-a-values", "limit-n-max-negative", "verify-k-zero",
        "verify-omega-beyond-rk4-step", "wavefn-samples-zero",
        "wavefn-samples-negative", "limit-n-max-over-5", "verify-lam-1-window", "wavefn-level-200", "wavefn-k-tiny-exponent",
        "limit-a-values-overflow",
        "limit-a-values-tiny", "wavefn-k-tiny-window",
        "spectrum-n-max-huge", "spectrum-n-max-one-over", "classical-step-tiny",
        "classical-one-row-over", "wavefn-samples-huge", "wavefn-level-negative",
        "limit-k-sequence-negative", "limit-k-sequence-increasing",
        "sweep-axes-huge", "spectrum-n-max-negative",
        "classical-amplitude-negative", "classical-step-zero",
        "classical-t-end-negative", "spectrum-hbar-zero", "wavefn-hbar-zero",
        "verify-lam-2.4", "classical-amplitude-over", "classical-amplitude-at",
        "classical-amplitude-squared-overflows-k0",
        "classical-amplitude-squared-overflows"])
def test_finite_but_extreme_input_exits_2(tmp_path, capsys, argv, named):
    out = tmp_path / "o.csv"
    tracemalloc.start()
    try:
        code = main(argv.split() + ["--output", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert named in capsys.readouterr().err
    assert not out.exists()
    # rejected before the sizes were allocated: a 1e8-point grid is 800 MB
    assert peak < 16 * 2 ** 20


@pytest.mark.parametrize("argv", ["--omega 4 --k 8", "--hbar 4 --k 0.5"])
def test_verify_passes_in_any_unit_of_energy(tmp_path, capsys, argv):
    # a_script = 9 and hbar omega = 4: the default physics in other units
    out = tmp_path / "o.csv"
    assert main(["verify", *argv.split(), "--output", str(out)]) == 0
    assert "verify: 19/19 checks passed" in capsys.readouterr().out


@pytest.mark.parametrize("argv, named", [
    ("sweep --omega-values ,", "'omega_values'"),
    ("sweep --k-values , --alpha-values 1", "'k_values'"),
    ("limit --k-sequence , --a-values ,", "'k_sequence'"),
    ("limit --a-values ,", "'a_values'"),
], ids=["sweep-omega-values", "sweep-k-values", "limit-both", "limit-a-values"])
def test_list_option_without_numbers_exits_2(tmp_path, capsys, argv, named):
    out = tmp_path / "o.csv"
    assert main(argv.split() + ["--output", str(out)]) == 2
    assert f"option {named} must hold one or more finite numbers" in \
        capsys.readouterr().err
    assert not out.exists()


def test_output_dir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("LIENARDQM_OUTDIR", str(tmp_path))
    code = main(["spectrum", "--omega", "1", "--k", "1", "--alpha", "0",
                 "--gamma", "0"])
    assert code == 0
    assert (tmp_path / "spectrum.csv").exists()


def test_limit_command_studies(tmp_path):
    out = tmp_path / "limit.csv"
    code = main(["limit", "--omega", "1", "--n-max", "1",
                 "--k-sequence", "0.1,0.01", "--a-values", "1e2,1e4",
                 "--output", str(out)])
    assert code == 0
    lines = _read(out).splitlines()
    assert lines[0] == "study,n,scale,value"
    studies = {line.split(",")[0] for line in lines[1:]}
    assert studies == {"wavefn-deviation", "laguerre-hermite",
                       "gamma-asymptotic"}
    # deviations decrease along the k sequence for each level
    rows = [line.split(",") for line in lines[1:]
            if line.startswith("wavefn-deviation,0,")]
    devs = [float(r[3]) for r in rows]
    assert devs[1] < devs[0]


def test_sweep_sorted_and_consistent(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--omega-values", "2,1", "--k-values", "1,0.5",
                 "--alpha", "19", "--gamma", "1", "--output", str(out)])
    assert code == 0
    lines = _read(out).splitlines()
    assert lines[0] == "omega,k,alpha,gamma,a_script,lambda,shift,e0"
    rows = [tuple(float(tok) for tok in line.split(",")) for line in lines[1:]]
    assert rows == sorted(rows)
    assert len(rows) == 4
    for row in rows:
        omega, k, alpha, gamma = row[:4]
        derived = derive_params(PhysicalParams(omega=omega, k=k),
                                AmbiguityParams(alpha=alpha, gamma=gamma))
        assert row[4] == pytest.approx(derived.a_script, rel=1e-15)
        assert row[6] == pytest.approx(derived.shift, rel=1e-12)


def test_sweep_invalid_tuple_exit_2(tmp_path):
    code = main(["sweep", "--alpha-values=-9,-200", "--gamma", "9",
                 "--omega", "1", "--k", "1",
                 "--output", str(tmp_path / "s.csv")])
    assert code == 2


_SWEEP_AXES = ("omega", "k", "alpha", "gamma")


def _sweep_reference(config, path):
    """Write the sweep table of config point by point (derive_params and
    ground_state_energy at each point of the product grid, rows sorted by
    their first four cells) through write_output. Returns None, or the
    message naming the first invalid point in product order."""
    axes = [[float(tok) for tok in getattr(config, f"{name}_values").split(",")]
            for name in _SWEEP_AXES]
    rows = []
    for omega, k, alpha, gamma in itertools.product(*axes):
        try:
            phys = PhysicalParams(omega=omega, k=k, hbar=config.hbar)
            derived = derive_params(phys, AmbiguityParams(alpha=alpha,
                                                          gamma=gamma))
        except ConstraintViolationError as exc:
            return (f"omega = {omega}, k = {k}, alpha = {alpha}, "
                    f"gamma = {gamma}: {exc}")
        rows.append((omega, k, alpha, gamma, derived.a_script, derived.lam,
                     derived.shift, ground_state_energy(phys, derived)))
    rows.sort(key=lambda row: row[:4])
    meta = {name: getattr(config, name) for name in
            ("omega", "k", "hbar", "alpha", "gamma",
             *(f"{name}_values" for name in _SWEEP_AXES))}
    write_output(path, ("omega", "k", "alpha", "gamma", "a_script", "lambda",
                        "shift", "e0"), np.array(rows), meta, config.format)
    return None


@st.composite
def _sweep_configs(draw):
    """Sweeps of 1-4 values per axis, unsorted, with repeats and signed
    zeros. omega scales by t^2 and k by t^3 for t = 10^-45..10^45, which
    leaves a_script = 9 omega^3/(hbar k^2) in range; alpha*gamma may still
    break its bound."""
    t = 10.0 ** draw(st.integers(-45, 45))
    positive = st.sampled_from([0.5, 1.0, 2.0]) | st.floats(0.01, 100.0)
    signed = st.sampled_from([0.0, -0.0, 1.0, 19.0]) | st.floats(-100.0, 100.0)

    def axis(values):
        return ",".join(map(repr, draw(st.lists(values, min_size=1,
                                                max_size=4))))

    return RunConfig(omega_values=axis(positive.map(lambda w: w * t * t)),
                     k_values=axis(positive.map(lambda k: k * t * t * t)),
                     alpha_values=axis(signed), gamma_values=axis(signed),
                     hbar=draw(st.just(1.0) | st.floats(0.01, 100.0)),
                     format=draw(st.sampled_from(["csv", "json"])))


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(config=_sweep_configs())
# a_script = 3.767...: its Python ** 2 and its product with itself differ
# in the last bit, and so does lam = sqrt(a_script^2 + 1)
@example(config=RunConfig(omega_values="0.65", k_values="0.81",
                          alpha_values="1", gamma_values="1"))
@example(config=RunConfig(omega_values="2e90,1e90", k_values="1e135,3e135",
                          alpha_values="0,-0,0", gamma_values="5,-0",
                          hbar=1e-3, format="json"))
@example(config=RunConfig(omega_values="2e-90,1e-90",
                          k_values="1e-135,3e-135", alpha_values="-0,0",
                          gamma_values="1e-300", hbar=1e3))
def test_sweep_matches_point_by_point_reference(tmp_path, config):
    expected, got = tmp_path / "expected", tmp_path / "got"
    error = _sweep_reference(config, expected)
    config = dataclasses.replace(config, output=str(got))
    if error is None:
        assert cmd_sweep(config) == 0
        assert _read(got) == _read(expected)
    else:
        with pytest.raises(ConstraintViolationError) as info:
            cmd_sweep(config)
        assert str(info.value) == error


@pytest.mark.parametrize("flags, hbar, point", [
    ("--k-values 1,0", 1.0, (1.0, 0.0, 0.0, 0.0)),
    ("--k-values=1,-0", 1.0, (1.0, -0.0, 0.0, 0.0)),
    ("--k-values=1,-1", 1.0, (1.0, -1.0, 0.0, 0.0)),
    ("--omega-values 2,0", 1.0, (0.0, 1.0, 0.0, 0.0)),
    ("--omega-values 1,-1", 1.0, (-1.0, 1.0, 0.0, 0.0)),
    ("--omega-values 2,1", 0.0, (2.0, 1.0, 0.0, 0.0)),
    ("--k-values 1,2", -1.0, (1.0, 1.0, 0.0, 0.0)),
    ("--alpha-values=0,-9,-200 --gamma 9", 1.0, (1.0, 1.0, -9.0, 9.0)),
    ("--omega-values 1,1e120", 1.0, (1e120, 1.0, 0.0, 0.0)),
    ("--omega-values 1,1e60", 1.0, (1e60, 1.0, 0.0, 0.0)),
], ids=["k-0", "k-minus-0", "k-negative", "omega-0", "omega-negative", "hbar-0",
        "hbar-negative", "alpha-gamma-bound", "omega-cubed-overflows",
        "a-script-squared-overflows"])
def test_sweep_names_its_first_invalid_point(tmp_path, capsys, flags, hbar,
                                             point):
    out = tmp_path / "s.csv"
    assert main(["sweep", *flags.split(), f"--hbar={hbar!r}",
                 "--output", str(out)]) == 2
    assert not out.exists()
    # the point, then what the scalar path raises there
    omega, k, alpha, gamma = point
    with pytest.raises(ConstraintViolationError) as info:
        derive_params(PhysicalParams(omega=omega, k=k, hbar=hbar),
                      AmbiguityParams(alpha=alpha, gamma=gamma))
    assert capsys.readouterr().err == (
        f"error: omega = {omega!r}, k = {k!r}, alpha = {alpha!r}, "
        f"gamma = {gamma!r}: {info.value}\n")


def test_parser_is_built_once_and_not_changed_by_use(tmp_path, capsys):
    assert build_parser() is build_parser()
    first, second, third = (tmp_path / f"{name}.json"
                            for name in ("first", "second", "third"))
    assert main(["spectrum", "--n-max", "2", "--format", "json",
                 "--output", str(first)]) == 0
    assert main(["sweep", "--k-values", "1,2", "--format", "json",
                 "--output", str(second)]) == 0
    # the flags of one call do not carry into the next
    assert main(["spectrum", "--format", "json", "--output", str(third)]) == 0
    spectra = [json.loads(_read(path)) for path in (first, third)]
    assert [len(payload["rows"]) for payload in spectra] == [3, 6]
    assert spectra[1]["meta"]["params"]["n_max"] == 5
    assert len(json.loads(_read(second))["rows"]) == 2
    with pytest.raises(SystemExit) as info:
        main(["sweep", "--n-max", "1"])
    assert info.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert capsys.readouterr().out == f"{__version__}\n"
    assert main(["sweep", "--output", str(tmp_path / "s.csv")]) == 0


def test_verify_passes_and_fails_by_exit_code(tmp_path, monkeypatch):
    out = tmp_path / "verify.csv"
    code = main(["verify", "--omega", "1", "--k", "1", "--alpha", "19",
                 "--gamma", "1", "--output", str(out)])
    assert code == 0
    lines = _read(out).splitlines()
    assert lines[0] == "check,params,measured,expected,tolerance,pass"
    assert all(line.endswith(",true") for line in lines[1:])
    # a deliberately coarse collocation degree blows the operator and
    # eigensolver tolerances
    monkeypatch.setattr(checks, "_COLLOCATION_N", 16)
    code = main(["verify", "--omega", "1", "--k", "1", "--alpha", "19",
                 "--gamma", "1", "--output", str(tmp_path / "verify_fail.csv")])
    assert code == 1
