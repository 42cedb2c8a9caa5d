import contextlib
import io
import json
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import clickdyn.integrate as integ
from clickdyn import InputError, cli, dataset, hbm, melnikov
from clickdyn.cli import main
from clickdyn.dataset import Dataset, emit_dataset, format_value, read_csv
from clickdyn.equilibria import bifurcation_set, working_center
from clickdyn.freevib import amplitude_frequency_curve, energy_bands
from clickdyn.model import Params, moment, potential, stiffness


def run_cli(*argv):
    return main(list(argv))


def test_csv_round_trip(tmp_path):
    rows = [(0.1, -1.0 / 3.0), (math.pi, 1e-300), (2.0**-52, 1.7976e308)]
    ds = Dataset("t", ("x", "y"), rows)
    path = emit_dataset(ds, tmp_path / "t.csv")
    cols, back = read_csv(path)
    assert cols == ("x", "y")
    assert len(back) == len(rows)
    for row, orig in zip(back, rows):
        for a, b in zip(row, orig):
            assert a == b          # bit-exact
    # a row whose text is empty is a row
    rows = [("",), ("a",), ("",)]
    path = emit_dataset(Dataset("s", ("name",), rows), tmp_path / "s.csv")
    assert read_csv(path) == (("name",), rows)


# Cells of every kind format_value handles, with the edge values of each.
_FLOAT_CELLS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324,
                     -2.2250738585072009e-308, 1e308,
                     -1.7976931348623157e308]))
_INT_CELLS = st.one_of(st.integers(-2**70, 2**70),
                       st.sampled_from([10**17, -10**17, 2**53 + 1, -1, 0]))
_STR_CELLS = st.text(st.characters(min_codepoint=32, max_codepoint=126),
                     max_size=8)
_BOOL_CELLS = st.booleans()
_NUMPY_CELLS = _FLOAT_CELLS.map(np.float64)
_COLUMN_CELLS = st.sampled_from([
    _FLOAT_CELLS, _INT_CELLS, _STR_CELLS,                   # one type each
    _BOOL_CELLS, _NUMPY_CELLS,
    st.one_of(_FLOAT_CELLS, _INT_CELLS, _STR_CELLS,         # mixed
              _BOOL_CELLS, _NUMPY_CELLS)])


@st.composite
def _datasets(draw):
    """Rows whose columns each hold one kind of cell, or a mix of kinds."""
    cells = [draw(_COLUMN_CELLS) for _ in range(draw(st.integers(1, 4)))]
    rows = draw(st.lists(st.tuples(*cells), max_size=12))
    return Dataset("t", tuple(f"c{j}" for j in range(len(cells))), rows)


@settings(max_examples=200, deadline=None)
@given(ds=_datasets())
@example(ds=Dataset("t", ("flag",), [(True,), (False,)]))
@example(ds=Dataset("t", ("n", "x"), [(10**17, -0.0), (-2**60, math.nan)]))
def test_emitted_rows_are_format_value_joins(ds):
    """Each CSV line is ``",".join(map(format_value, row))``."""
    with tempfile.TemporaryDirectory() as tmp:
        data = emit_dataset(ds, Path(tmp) / "t.csv").read_bytes()
    lines = [",".join(ds.columns)]
    lines += [",".join(map(format_value, row)) for row in ds.rows]
    assert data == ("\n".join(lines) + "\n").encode()


def test_dataset_rejects_ragged_rows():
    with pytest.raises(ValueError):
        Dataset("t", ("x", "y"), [(1.0,)])
    for at in (0, 2, 4):            # the wrong row first, middle, last
        rows = [(float(i), 1.0) for i in range(5)]
        rows[at] = (1.0, 2.0, 3.0)
        with pytest.raises(ValueError, match=r"^dataset 'curve': "
                                             r"row width 3 != 2 columns$"):
            Dataset("curve", ("x", "y"), rows)
    # array rows: 2-D float64 with one column per name
    with pytest.raises(ValueError, match=r"^dataset 'curve': row width 3 "
                                         r"!= 2 columns$"):
        Dataset("curve", ("x", "y"), np.zeros((5, 3)))
    for rows in (np.zeros(4), np.zeros((2, 2), dtype=np.float32),
                 np.zeros((2, 2), dtype=np.int64)):
        with pytest.raises(ValueError, match=r"^dataset 'curve': array rows "
                                             r"must be 2-D float64"):
            Dataset("curve", ("x", "y"), rows)


def test_an_empty_array_writes_the_header_only(tmp_path):
    ds = Dataset("t", ("x", "y"), np.empty((0, 2)))
    assert emit_dataset(ds, tmp_path / "t.csv").read_bytes() == b"x,y\n"
    assert read_csv(tmp_path / "t.csv") == (("x", "y"), [])
    assert len(ds.rows) == 0


# Float64 cells: every class the array pass treats apart (the range
# [1e-10, 1e15), its edges, 0, -0, nan, inf, subnormals and values outside).
_ARRAY_CELLS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.floats(1e-10, 1e15, exclude_max=True).flatmap(
        lambda x: st.sampled_from([x, -x])),
    st.sampled_from([math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0,
                     5e-324, 1e-10, np.nextafter(1e-10, 0.0), 1e15,
                     np.nextafter(1e15, 0.0), -1e15, 1e16, 2.0**53]),
    st.integers(-2**53, 2**53).map(float))


@st.composite
def _array_datasets(draw):
    """Arrays of 0-40 rows and 1-4 columns."""
    cols = draw(st.integers(1, 4))
    n_rows = draw(st.integers(0, 40))
    rows = draw(hnp.arrays(np.float64, (n_rows, cols), elements=_ARRAY_CELLS))
    return Dataset("t", tuple(f"c{j}" for j in range(cols)), rows)


def _format_value_joins(ds):
    lines = [",".join(ds.columns)]
    lines += [",".join(map(format_value, row)) for row in ds.rows.tolist()]
    return ("\n".join(lines) + "\n").encode()


@settings(max_examples=200, deadline=None)
@given(ds=_array_datasets())
def test_array_rows_are_format_value_joins(ds):
    """An array's CSV lines are the ``format_value`` joins of its rows, on
    either side of ``_ARRAY_MIN`` cells."""
    for array_min in (dataset._ARRAY_MIN, 0):
        with mock.patch.object(dataset, "_ARRAY_MIN", array_min), \
                tempfile.TemporaryDirectory() as tmp:
            data = emit_dataset(ds, Path(tmp) / "t.csv").read_bytes()
        assert data == _format_value_joins(ds)


def _bulk_values(rng) -> np.ndarray:
    """About 2e5 floats where a 17-digit writer goes wrong, if it does."""
    bits = rng.integers(0, 2**64, 60000, dtype=np.uint64, endpoint=False)
    log_uniform = 10.0 ** rng.uniform(-12.0, 17.0, 70000)
    edges = np.array([1e-10, 1e15, 5e-324, 2.2250738585072014e-308])
    powers = np.array([10.0**k for k in range(-12, 18)]
                      + [float(f"1e{k}") for k in range(-12, 18)])
    # exact ties: a/2**(17 - X), a odd, with a*5**(16 - X) in [2e16, 2e17),
    # lie halfway between two 17-digit decimals of exponent X
    ties = []
    for x in range(-8, 15):
        f = 5 ** (16 - x)
        odd = rng.integers(-(-2 * 10**16 // f), min(2 * 10**17 // f, 2**53),
                           1500) | 1
        ties.append(odd / 2.0 ** (17 - x))
    integers = rng.integers(0, 2**53, 35000, endpoint=True).astype(float)
    values = np.concatenate([
        log_uniform,
        edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf),
        powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
        *ties, integers])
    values *= rng.choice([-1.0, 1.0], values.size)
    return np.concatenate([bits.view(np.float64), values])


def test_array_pass_is_exact_on_hard_values(tmp_path):
    """Byte-equal to ``format_value`` on about 2e5 values: random bit
    patterns, 1e-12..1e17 log-uniform, the range edges and powers of ten
    with their neighbours, exact decimal ties and integers up to 2**53."""
    values = _bulk_values(np.random.default_rng(2805))
    assert values.size > 3 * dataset._BLOCK     # several blocks
    for cols in (1, 3):
        ds = Dataset("t", tuple("xyz"[:cols]),
                     values[:values.size // cols * cols].reshape(-1, cols))
        data = emit_dataset(ds, tmp_path / "t.csv").read_bytes()
        assert data == _format_value_joins(ds)


def test_equilibria_subcommand(tmp_path):
    out = tmp_path / "eq"
    assert run_cli("equilibria", "--alpha", "1.5", "--beta", "1",
                   "--out", str(out)) == 0
    cols, rows = read_csv(out / "equilibria.csv")
    assert len(rows) == 4
    kinds = sorted(r[cols.index("kind")] for r in rows)
    assert kinds == ["center", "center", "saddle", "saddle"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["files"]["equilibria"]["rows"] == 4
    assert manifest["files"]["equilibria"]["metadata"]["region"] == \
        "double_well"


def test_determinism_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert run_cli("freevib", "--alpha", "1.5", "--beta", "1",
                       "--n", "8", "--out", str(out)) == 0
    for name in sorted(f.name for f in out1.iterdir()):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_phase_portrait_emits_separatrix_level(tmp_path):
    out = tmp_path / "pp"
    assert run_cli("phase-portrait", "--alpha", "0.5", "--beta", "1",
                   "--n", "101", "--out", str(out)) == 0
    cols, rows = read_csv(out / "phase_portrait.csv")
    levels = {r[0] for r in rows}
    assert any(abs(lv - 0.125) < 1e-12 for lv in levels)


def test_phase_portrait_omega_max_past_the_square_of_a_float(tmp_path):
    # omega_max**2 overflows past 1.34e154; the window then holds every level
    # from its top down, as it does at any large omega_max
    csv = []
    for omega_max in ("1e10", "1e200"):
        out = tmp_path / omega_max
        assert run_cli("phase-portrait", "--alpha", "1.5", "--n", "101",
                       "--omega-max", omega_max, "--out", str(out)) == 0
        csv.append((out / "phase_portrait.csv").read_bytes())
    assert csv[0] == csv[1]


@st.composite
def _portrait_case(draw):
    """A parameter point in one of the four statics regions, plus options."""
    region = draw(st.sampled_from(["double_well", "hard_single",
                                   "soft_single", "cusp"]))
    gamma = draw(st.just(0.0) | st.floats(0.0, 0.1))
    if region == "double_well":
        alpha, beta = draw(st.floats(1.2, 1.8)), draw(st.floats(0.9, 1.1))
    elif region == "hard_single":
        alpha, beta = draw(st.floats(2.3, 2.8)), 1.0
    elif region == "soft_single":
        alpha, beta = draw(st.floats(0.25, 0.35)), draw(st.floats(0.45, 0.55))
        gamma = 0.0
    else:
        alpha = beta = draw(st.floats(0.8, 1.2))
    return dict(alpha=alpha, beta=beta, gamma=gamma,
                kappa=draw(st.floats(0.5, 2.0)), n=draw(st.integers(2, 60)),
                omega_max=draw(st.floats(0.2, 3.0)))


@settings(max_examples=60, deadline=None)
@given(_portrait_case())
# scalar potential(p, pi) once squared through libm pow and came out an ulp
# above the array value, so the pi barrier level missed the saddle
@example(dict(alpha=1.412602848879522, beta=0.99999, gamma=0.0, kappa=1.0,
              n=2, omega_max=1.0))
# on the cusp alpha == beta, alpha^2 + beta^2 - 2*alpha*beta*cos(theta)
# cancelled beside theta = 0 and put the window exits 1.7e-12 off their level
@example(dict(alpha=1.1462381422576038, beta=1.1462381422576038, gamma=0.0,
              kappa=1.1462381422576038, n=2, omega_max=1.1462381422576038))
def test_phase_portrait_points_lie_on_their_levels(case):
    p = Params(alpha=case["alpha"], beta=case["beta"], gamma=case["gamma"],
               kappa=case["kappa"])
    with tempfile.TemporaryDirectory() as tmp:
        assert run_cli("phase-portrait", "--out", tmp,
                       *(f"--{k.replace('_', '-')}={v!r}"
                         for k, v in case.items())) == 0
        _cols, rows = read_csv(Path(tmp) / "phase_portrait.csv")
    assert rows
    data = np.asarray(rows)
    level = np.concatenate([data[:, 0], data[:, 0]])
    theta = np.concatenate([data[:, 2], data[:, 4]])
    omega = np.concatenate([data[:, 3], data[:, 5]])
    energy = 0.5 * p.kappa * omega**2 + np.asarray(potential(p, theta))
    assert np.all(np.abs(energy - level)
                  <= 1e-12 * np.maximum(1.0, level))
    assert np.all(np.abs(theta) <= math.pi)
    assert np.all(np.abs(omega) <= case["omega_max"])
    if p.gamma == 0.0 and abs(p.alpha - p.beta) < 1.0 < p.alpha + p.beta:
        # double well: the barrier levels pass exactly through the saddles
        for barrier, saddles in ((float(potential(p, 0.0)), [(0.0, 0.0)]),
                                 (float(potential(p, math.pi)),
                                  [(-math.pi, 0.0), (math.pi, 0.0)])):
            on_level = level == barrier
            points = set(zip(theta[on_level].tolist(),
                             omega[on_level].tolist()))
            assert set(saddles) <= points


@pytest.mark.parametrize("argv", [
    ("phase-portrait", "--n", "1"),
    ("phase-portrait", "--n-levels", "0"),
    ("phase-portrait", "--omega-max", "0"),
    ("phase-portrait", "--omega-max", "nan"),
    ("phase-portrait", "--levels", "x"),
    ("phase-portrait", "--levels", "0.1,,0.2"),
    ("phase-portrait", "--levels", "0.1,inf"),
    ("melnikov", "--xi-values", ","),
    ("melnikov", "--xi-values", "0.1,nan"),
    ("melnikov", "--xi-values", "-0.1"),
    ("melnikov", "--xi-values", "0.1,-0.2"),
    ("energy", "--gamma", "nan"),
    ("equilibria", "--kappa", "inf"),
    ("simulate", "--phi", "nan"),
    ("simulate", "--t-end", "-1"),
    ("simulate", "--t-end", "0"),
    ("hbm", "--s-min", "2", "--s-max", "1"),
    ("sweep", "--s-min", "1", "--s-max", "1"),
    ("freevib", "--n", "0"),
    ("hbm", "--n", "0"),
    ("hbm", "--s-min", "0"),
    ("hbm", "--drive", "-1"),
    ("sweep", "--n", "0"),
    ("sweep", "--s-min", "nan"),
    ("energy", "--n", "0"),
    ("energy", "--theta-min", "1", "--theta-max", "1"),
    ("bifurcation-set", "--n", "0"),
    ("bifurcation-set", "--variant", "B3"),
    ("bifurcation-set", "--alpha-min", "2", "--alpha-max", "1"),
    ("melnikov", "--n-omega", "0"),
    ("simulate", "--rel-tol", "0"),
    ("poincare", "--n-points", "0"),
    ("poincare", "--discard", "-1"),
    ("lyapunov", "--horizon", "0"),
    ("lyapunov", "--interval", "0"),
    ("lyapunov", "--interval", "-1"),
    ("lyapunov", "--theta0", "inf"),
    ("poincare", "--xi", "0.1"),                  # no drive
    ("poincare", "--m0", "0.02"),                 # no drive frequency
    ("sweep", "--m0", "0.01", "--n", "3"),        # no damping (xi = 0)
    ("sweep", "--xi", "0", "--epsilon", "-0.01"),
    # round(horizon / interval) intervals: infinitely many
    ("lyapunov", "--xi", "0.1", "--m0", "0.1", "--omega0", "0.8",
     "--horizon", "1e300", "--interval", "1e-300"),
    # more than integrate._MAX_INTERVALS intervals
    ("lyapunov", "--xi", "0.1", "--m0", "0.1", "--omega0", "0.8",
     "--horizon", "1", "--interval", "1e-300"),
    ("lyapunov", "--horizon", "1000001", "--interval", "1"),
])
def test_bad_list_and_portrait_inputs_are_config_errors(tmp_path, capsys,
                                                        argv):
    assert run_cli(*argv, "--alpha", "1.5", "--beta", "1",
                   "--out", str(tmp_path / "o")) == 2
    assert capsys.readouterr().err.startswith("error:config:")


@pytest.mark.parametrize("argv, code", [
    (("lyapunov", "--xi", "0.1", "--m0", "0.1", "--omega0", "0.8",
      "--interval", "1e300"), 2),
    (("lyapunov", "--xi", "0.1", "--m0", "0.1", "--omega0", "0.8",
      "--horizon", "1e300", "--interval", "1e295"), 2),
    (("simulate", "--t-end", "1e300"), 2),
    (("poincare", "--xi", "0.1", "--m0", "0.1", "--omega0", "1e-300",
      "--n-points", "1", "--discard", "0"), 2),
    # a drive period of 6e300 at s_min
    (("sweep", "--xi", "0.1", "--m0", "0.01", "--s-min", "1e-300",
      "--s-max", "1", "--n", "2"), 2),
])
def test_a_run_past_the_time_bound_is_refused_before_a_step(
        argv, code, tmp_path, capsys, monkeypatch):
    # every run integrates at most integrate._T_MAX; with a step loop that
    # raises, a run that is not refused fails fast instead of never ending
    def integrated(*args, **kwargs):
        raise AssertionError("the step loop ran")

    monkeypatch.setattr(integ, "_dop853", integrated)
    assert run_cli(*argv, "--alpha", "1.5", "--out", str(tmp_path)) == code
    err = capsys.readouterr().err
    assert err.startswith("error:config:" if code == 2 else "error:numeric:")
    assert "1e+07" in err


def _bad_value(check, opts):
    """Strategy of values the validator ``check`` of an ``opts`` table
    rejects, as flag text.

    The kind of validator is read from its name and closure: the bound of
    ``_at_least``, the start key of ``_above``, the names of ``_one_of``.
    Each strategy's simplest value, drawn first, is the boundary case.
    """
    kind = check.__qualname__.split(".")[0]
    cell = check.__closure__[0].cell_contents if check.__closure__ else None
    non_finite = st.sampled_from([math.nan, math.inf, -math.inf])
    below = st.floats(0.0, 1e300)
    if kind == "_at_least":
        return st.integers(1, 10**6).map(lambda d: str(cell - d))
    if kind == "_one_of":
        return st.text(st.characters(codec="ascii",
                                     exclude_categories=["Cc"])).filter(
            lambda v: v not in cell)
    if kind in ("_numbers", "_numbers_or_empty",
                "_nonnegative_numbers"):    # one bad entry
        bad = ["nan", "inf", "-inf", "x", "", "1e"]
        if kind == "_nonnegative_numbers":
            bad += ["-0.1", "-5e-324"]
        return st.tuples(
            st.lists(st.floats(-1e3, 1e3).map(repr), max_size=3),
            st.sampled_from(bad),
            st.integers(0, 3),
        ).map(lambda t: ",".join(t[0][:t[2]] + [t[1]] + t[0][t[2]:])
              ).filter(lambda v: v != "")
    if kind == "_positive":
        values = st.one_of(below.map(lambda d: -d), non_finite)
    elif kind == "_nonnegative":
        values = st.one_of(below.map(lambda d: -math.ulp(0.0) - d),
                           non_finite)
    elif kind == "_finite":
        values = non_finite
    else:   # _above: an end at or below its start
        values = st.one_of(below.map(lambda d: opts[cell][1] - d),
                           st.sampled_from([math.nan, math.inf]))
    return values.map(repr)


_REJECTING = [(command, key)
              for command, (_run, opts) in cli._COMMANDS.items()
              for key, (_kind, _default, check) in opts.items()
              if check is not cli._any]


@pytest.mark.parametrize("command, key", _REJECTING,
                         ids=[f"{c}-{k}" for c, k in _REJECTING])
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_every_rejected_option_value_exits_2(command, key, data):
    opts = cli._COMMANDS[command][1]
    value = data.draw(_bad_value(opts[key][2], opts))
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stderr(err):
        code = main([command, "--alpha", "1.5", "--beta", "1", "--out", tmp,
                     f"--{key.replace('_', '-')}={value}"])
    assert code == 2
    assert err.getvalue().startswith("error:config:")


_HELP_AND_PARSE_ERRORS = [
    [], ["--help"], ["energy", "--help"], ["bogus"], ["energ"],
    ["--alpha", "1.5", "energy"], ["energy", "--bogus", "1"],
    ["energy", "--alpha"], ["energy", "--alpha", "x"]]


def _full_parser_exit(argv):
    """Exit code of ``main`` for what a freshly built parser prints."""
    with pytest.raises(SystemExit) as stop:
        cli._build_parser.__wrapped__().parse_args(argv)
    return 0 if stop.value.code in (0, None) else cli.EXIT_CONFIG


@pytest.mark.parametrize("argv", _HELP_AND_PARSE_ERRORS,
                         ids=[" ".join(a) or "no-args"
                              for a in _HELP_AND_PARSE_ERRORS])
def test_help_and_parse_errors_are_those_of_the_full_parser(argv, capsys,
                                                            monkeypatch):
    # main's cached parser prints what an uncached build of it prints
    monkeypatch.setenv("COLUMNS", "80")
    got = (main(argv), *capsys.readouterr())
    assert got == (_full_parser_exit(argv), *capsys.readouterr())
    assert got[0] == (0 if "--help" in argv else 2)
    assert got[1 if "--help" in argv else 2].startswith("usage: clickdyn ")


def test_parse_errors_name_the_command_argument(capsys):
    assert main([]) == 2
    assert capsys.readouterr().err.endswith(
        "error: the following arguments are required: command\n")
    assert main(["bogus"]) == 2
    assert "error: argument command: invalid choice: 'bogus'" in \
        capsys.readouterr().err


def test_consecutive_calls_are_independent(tmp_path):
    assert run_cli("energy", "--alpha", "1.5", "--n", "5",
                   "--out", str(tmp_path / "a")) == 0
    assert run_cli("energy", "--alpha", "1.5",
                   "--out", str(tmp_path / "b")) == 0
    assert len(read_csv(tmp_path / "a" / "energy.csv")[1]) == 5
    assert len(read_csv(tmp_path / "b" / "energy.csv")[1]) == 401


def _energy_run(out, *flags):
    """Exit code, manifest options and CSV bytes of one energy run."""
    code = run_cli("energy", "--alpha", "1.5", *flags, "--out", str(out))
    options = json.loads((out / "manifest.json").read_text())[
        "config"]["options"]
    return code, options, (out / "energy.csv").read_bytes()


def test_repeated_calls_match_calls_on_a_fresh_parser(tmp_path):
    flags = [("--n", "5", "--theta-min", "-1"), ("--n", "7")]
    got = [_energy_run(tmp_path / f"cached{i}", *f)
           for i, f in enumerate(flags)]
    fresh = []
    for i, f in enumerate(flags):
        cli._build_parser.cache_clear()
        fresh.append(_energy_run(tmp_path / f"fresh{i}", *f))
    assert got == fresh
    assert [(g[1]["n"], g[1]["theta_min"]) for g in got] == \
        [(5, -1.0), (7, -math.pi)]


@pytest.mark.parametrize("bad", [["--alpha", "x"], ["--bogus", "1"],
                                 ["--n"]])
def test_a_parse_error_leaves_the_next_call_unchanged(tmp_path, bad, capsys):
    assert run_cli("energy", "--beta", "1", *bad) == 2
    assert capsys.readouterr().err.startswith("usage: clickdyn ")
    code, options, csv = _energy_run(tmp_path / "o", "--n", "3")
    assert (code, options["n"], csv.count(b"\n")) == (0, 3, 4)
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["config"]["params"] == {"alpha": 1.5}


def test_full_and_subcommand_parsers_in_either_order(tmp_path, capsys):
    cli._build_parser.cache_clear()
    assert main([]) == 2
    fresh_err = capsys.readouterr().err
    for out in ("a", "b"):
        assert _energy_run(tmp_path / out, "--n", "3")[0] == 0
        assert main([]) == 2
        assert capsys.readouterr().err == fresh_err
    assert (tmp_path / "a" / "energy.csv").read_bytes() == \
        (tmp_path / "b" / "energy.csv").read_bytes()


# (flags of both runs, flags of the second): a value the swept system
# does not read, recorded in the manifest but not in the curves
_UNREAD_BY_SWEEP = {
    "full-drive": (("--m0", "0.02"), ("--drive", "0.9")),
    "full-omega0": (("--m0", "0.02"), ("--omega0", "2")),
    "cubic-m0": (("--epsilon", "0.3"), ("--m0", "5")),
}


@pytest.mark.parametrize("flags, other", _UNREAD_BY_SWEEP.values(),
                         ids=list(_UNREAD_BY_SWEEP))
def test_sweep_curves_ignore_what_the_swept_system_does_not_read(
        tmp_path, flags, other):
    runs = []
    for extra in ((), other):
        out = tmp_path / str(len(runs))
        assert run_cli("sweep", "--alpha", "1.5", "--xi", "0.1", "--n", "5",
                       *flags, *extra, "--out", str(out)) == 0
        runs.append(([(out / f"sweep_{k}.csv").read_bytes()
                      for k in ("up", "down", "jumps")],
                     json.loads((out / "manifest.json").read_text())))
    assert runs[0][0] == runs[1][0]
    assert runs[0][1]["config"] != runs[1][1]["config"]


@pytest.mark.parametrize("flag", ["--seed", "--jobs"])
def test_seed_and_jobs_are_not_options(tmp_path, flag):
    assert run_cli("energy", "--alpha", "1.5", flag, "8",
                   "--out", str(tmp_path / "o")) == 2


def test_energy_and_moment(tmp_path):
    out = tmp_path / "e"
    assert run_cli("energy", "--alpha", "0.5", "--n", "51",
                   "--out", str(out)) == 0
    cols, rows = read_csv(out / "energy.csv")
    assert len(rows) == 51
    assert run_cli("moment", "--alpha", "1.2", "--beta", "1.2", "--n", "51",
                   "--out", str(out)) == 0


@pytest.mark.parametrize("alpha, beta, gamma", [
    (1.5, 1.0, 0.0), (0.37, 0.81, 0.23), (1.2, 1.2, 0.1), (2.6, 2.6, 0.0)])
def test_moment_rows_equal_pointwise_moments(tmp_path, alpha, beta, gamma):
    # the grid is evaluated as one array; each row is the scalar moment
    out = tmp_path / "m"
    assert run_cli("moment", "--alpha", str(alpha), "--beta", str(beta),
                   "--gamma", str(gamma), "--n", "401",
                   "--out", str(out)) == 0
    p = Params(alpha=alpha, beta=beta, gamma=gamma)
    _, rows = read_csv(out / "moment.csv")
    assert len(rows) == 401
    for theta, m in rows:
        assert m == float(moment(p, theta))


@pytest.mark.parametrize("alpha, beta, gamma", [
    (1.5, 1.0, 0.0), (0.37, 0.81, 0.23), (1.2, 1.2, 0.1), (2.6, 2.6, 0.0)])
def test_stiffness_rows_equal_pointwise_stiffness(tmp_path, alpha, beta,
                                                  gamma):
    # the grid is evaluated as one array; each row is the scalar stiffness,
    # and NaN on the alpha == beta cusp theta = 0, which this grid holds
    out = tmp_path / "k"
    assert run_cli("stiffness", "--alpha", str(alpha), "--beta", str(beta),
                   "--gamma", str(gamma), "--theta-min", "-4",
                   "--theta-max", "4", "--n", "401",
                   "--out", str(out)) == 0
    p = Params(alpha=alpha, beta=beta, gamma=gamma)
    _, rows = read_csv(out / "stiffness.csv")
    assert len(rows) == 401
    for theta, k in rows:
        if alpha == beta and theta == 0.0:
            assert math.isnan(k)
        else:
            assert k == float(stiffness(p, theta))
    assert sum(math.isnan(k) for _, k in rows) == (alpha == beta)


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[params]\nalpha = 1.0\nbeta = 1.0\n"
                   "[energy]\nn = 11\n")
    out = tmp_path / "o"
    assert run_cli("energy", "--config", str(cfg), "--alpha", "1.5",
                   "--out", str(out)) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["params"]["alpha"] == 1.5
    assert manifest["files"]["energy"]["rows"] == 11


def test_unknown_config_key_nearest_match(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[params]\nalpha = 1.0\nalfa = 2.0\n")
    assert run_cli("energy", "--config", str(cfg)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:config:")
    assert "alpha" in err      # nearest-match hint


@pytest.mark.parametrize("ini", ["[params]\nalpha = x\n",
                                 "[params]\nalpha = 1.5\n[energy]\nn = x\n",
                                 "[params]\nalpha = 1.5\n[energy]\nn = 0\n"])
def test_bad_config_file_values_are_config_errors(tmp_path, capsys, ini):
    cfg = tmp_path / "run.ini"
    cfg.write_text(ini)
    assert run_cli("energy", "--config", str(cfg),
                   "--out", str(tmp_path / "o")) == 2
    assert capsys.readouterr().err.startswith("error:config:")


@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf-8"])
def test_unreadable_config_files_are_config_errors(tmp_path, capsys, kind):
    cfg = tmp_path / "run.ini"
    if kind == "directory":
        cfg.mkdir()
    elif kind == "not-utf-8":
        cfg.write_bytes(b"[params]\nalpha = 1.5\xff\n")
    assert run_cli("energy", "--config", str(cfg), "--alpha", "1.5",
                   "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:config:") and str(cfg) in err


_CUBIC = hbm.CubicApprox(omega_n=1.0, epsilon=-0.01, origin_theta=0.0)
_DUFFING = melnikov.reduce_system(Params(alpha=1.5), melnikov.DUFFING)
_RULE_CASES = {
    "t_end": (lambda: integ.IntegratorSpec(t_end=1e300), True),
    "alpha": (lambda: Params(alpha=0.0), True),
    "no drive": (lambda: integ.poincare_section(
        Params(alpha=1.5, xi=0.1), (0.1, 0.0), 1), True),
    "intervals": (lambda: integ.largest_lyapunov(
        Params(alpha=1.5), (0.1, 0.0), horizon=10**6 + 1,
        renorm_interval=1.0), True),
    "no damping": (lambda: hbm.sweep_hysteresis(
        Params(alpha=1.5, m_big0=0.01), 0.5, 1.5, 3), True),
    "frf drive": (lambda: hbm.frf_amplitudes(_CUBIC, 1.0, 0.1, -0.3, [1.0]),
                  True),
    "backbone amplitude": (lambda: hbm.backbone(_CUBIC, 1.0, [0.0]), True),
    "omega_n": (lambda: hbm.CubicApprox(0.0, 0.0, 0.0), True),
    "B variant": (lambda: bifurcation_set("B0", 0.0, [1.0], [1.0]), True),
    "reduction variant": (lambda: melnikov.reduce_system(
        Params(alpha=1.5), "quartic"), True),
    "separatrix source": (lambda: melnikov.separatrix(_DUFFING, "table"),
                          True),
    "grid omega": (lambda: melnikov.threshold_grid(_DUFFING, [0.0], [0.1]),
                   True),
    "grid xi0": (lambda: melnikov.threshold_grid(_DUFFING, [1.0], [-0.1]),
                 True),
    "grid empty": (lambda: melnikov.threshold_grid(_DUFFING, [], [0.1]),
                   True),
    "single well": (lambda: melnikov.reduce_system(
        Params(alpha=2.5), melnikov.DUFFING), False),
    "threshold overflow": (lambda: melnikov.threshold_numeric(
        melnikov.reduce_system(Params(alpha=1.5), melnikov.DUFFING),
        0.1, 400.0), False),
}


@pytest.mark.parametrize("call, refused", _RULE_CASES.values(),
                         ids=list(_RULE_CASES))
def test_refused_inputs_raise_input_error_and_no_solution_a_value_error(
        call, refused):
    # the CLI maps InputError to exit 2 and any other ValueError to exit 3
    with pytest.raises(ValueError) as caught:
        call()
    assert isinstance(caught.value, InputError) == refused


def test_missing_alpha_is_config_error(capsys):
    assert run_cli("energy") == 2
    assert capsys.readouterr().err.startswith("error:config:")


def test_invalid_param_is_config_error(capsys):
    assert run_cli("energy", "--alpha", "-1") == 2
    err = capsys.readouterr().err
    assert "alpha" in err


def test_numeric_failure_exit_code(tmp_path, capsys):
    # single-well parameters cannot be reduced for chaos thresholds
    assert run_cli("melnikov", "--alpha", "2.5", "--beta", "1",
                   "--n-omega", "3", "--out", str(tmp_path / "m")) == 3
    assert capsys.readouterr().err.startswith("error:numeric:")


def test_melnikov_refuses_thresholds_past_overflow(tmp_path, capsys):
    # at alpha = 1.5 the duffing threshold is finite up to Omega of about
    # 327, where cosh(pi*Omega/(2w)) overflows
    out = tmp_path / "m"
    assert run_cli("melnikov", "--alpha", "1.5", "--beta", "1",
                   "--xi", "0.1", "--omega-max", "30",
                   "--out", str(out)) == 0
    assert capsys.readouterr().err == ""
    out = tmp_path / "m400"
    assert run_cli("melnikov", "--alpha", "1.5", "--beta", "1",
                   "--xi", "0.1", "--omega-max", "400",
                   "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:numeric:") and "Omega = " in err
    assert not (out / "melnikov_threshold.csv").exists()


def test_io_failure_exit_code(capsys):
    assert run_cli("energy", "--alpha", "1.5",
                   "--out", "/proc/no/such/dir") == 4
    assert capsys.readouterr().err.startswith("error:io:")


def test_a_failed_write_leaves_no_partial_output(tmp_path, capsys,
                                                 monkeypatch):
    def refuse(*args):
        raise OSError("disk full")

    monkeypatch.setattr(cli, "emit_manifest", refuse)
    out = tmp_path / "hbm"
    assert run_cli("hbm", "--alpha", "1.5", "--xi", "0.05", "--n", "20",
                   "--out", str(out)) == 4
    assert capsys.readouterr().err.startswith("error:io:")
    assert list(out.glob("*.csv")) == []


def test_freevib_missing_branch_is_config_error(tmp_path, capsys):
    # a double well has no AF1 band
    assert run_cli("freevib", "--alpha", "1.5", "--branch", "AF1",
                   "--out", str(tmp_path / "fv")) == 2
    assert capsys.readouterr().err == (
        "error:config: branch 'AF1' not available; "
        "have ['AF3', 'AF4', 'AF5']\n")


def test_freevib_manifest_counts_dropped_samples(tmp_path):
    # beta just above alpha - 1: the AF3 band (0, 5e-13) lies within the
    # 1e-12 barrier tolerance, so none of its 30 energies has a period
    out = tmp_path / "fv"
    assert run_cli("freevib", "--alpha", "1.5", "--beta", "0.500001",
                   "--out", str(out)) == 0
    files = json.loads((out / "manifest.json").read_text())["files"]
    assert {name: (f["rows"], f["metadata"]["dropped"])
            for name, f in files.items()} == {
        "freevib_AF3": (0, 30), "freevib_AF4": (30, 0),
        "freevib_AF5": (30, 0)}


# the flags, beside --alpha 1.5, that a run needs; otherwise the defaults
_RUN_FLAGS = {command: () for command in cli._COMMANDS} | {
    "sweep": ("--xi", "0.1"),
    "poincare": ("--xi", "0.1", "--m0", "0.02", "--omega0", "0.8")}


def _not_json(constant):
    raise ValueError(f"{constant} is not JSON")


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_every_manifest_is_strict_json(tmp_path, command):
    # an open band end (AF5 of a double well) is null, not Infinity
    assert run_cli(command, "--alpha", "1.5", *_RUN_FLAGS[command],
                   "--out", str(tmp_path)) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text(),
                          parse_constant=_not_json)
    if command == "freevib":
        assert manifest["files"]["freevib_AF5"]["metadata"]["band"][1] is None


def test_a_manifest_refuses_a_non_finite_value(tmp_path):
    ds = Dataset("t", ("x",), [], metadata={"drift": math.nan})
    with pytest.raises(ValueError, match="not JSON compliant"):
        dataset.emit_manifest([ds], {}, tmp_path / "manifest.json")


def _param_flags(params: dict) -> list[str]:
    return [arg for key, value in params.items()
            for arg in (f"--{key}", repr(value))]


@pytest.mark.parametrize("params", [
    {"alpha": 1.5},                                    # double well
    {"alpha": 1.5, "beta": 0.500001},                  # AF3 all dropped
    {"alpha": 1.1, "beta": 1.1, "gamma": 0.02},        # cusp point
    {"alpha": 2.5, "gamma": 0.05, "kappa": 0.8},       # single well
])
def test_freevib_rows_are_the_library_curves(tmp_path, params):
    # each band's CSV holds the rows of amplitude_frequency_curve called
    # on that band alone, as floats
    out = tmp_path / "fv"
    assert run_cli("freevib", *_param_flags(params), "--n", "12",
                   "--out", str(out)) == 0
    p = Params(**params)
    bands = energy_bands(p)
    names = sorted(path.stem for path in out.glob("freevib_*.csv"))
    assert names == [f"freevib_{b}" for b in sorted(bands)]
    for name in names:
        cols, rows = read_csv(out / f"{name}.csv")
        assert cols == ("energy", "theta_ini", "theta_fin", "amplitude",
                        "period", "frequency")
        (curve,) = amplitude_frequency_curve(p, bands, [name[8:]], 12)
        np.testing.assert_array_equal(np.array(rows).reshape(-1, 6), curve)
    if params.get("beta") == 0.500001:
        assert read_csv(out / "freevib_AF3.csv")[1] == []


@pytest.mark.parametrize("params, drive, most_roots", [
    ({"alpha": 1.5, "xi": 0.02}, 0.05, 3),
    ({"alpha": 1.1, "beta": 1.1, "gamma": 0.02, "xi": 0.02}, 0.05, 3),
    ({"alpha": 2.5, "kappa": 0.8, "xi": 0.1}, 0.05, 1),
    ({"alpha": 1.5, "xi": 0.02}, 0.0, 0),              # no roots at all
])
def test_hbm_rows_are_the_library_roots(tmp_path, params, drive,
                                        most_roots):
    out = tmp_path / "hbm"
    assert run_cli("hbm", *_param_flags(params), "--drive", repr(drive),
                   "--s-min", "0.5", "--s-max", "1.5", "--n", "101",
                   "--out", str(out)) == 0
    p = Params(**params)
    cubic = hbm.fit_cubic(p, working_center(p))
    s_values = np.linspace(0.5, 1.5, 101)
    amplitude, phase = hbm.frf_amplitudes(cubic, p.kappa, p.xi, drive,
                                          s_values)
    # the roots of each s in turn, ascending
    k, root = np.nonzero(~np.isnan(amplitude))
    cols, rows = read_csv(out / "hbm_frf.csv")
    assert cols == ("s", "root", "amplitude", "phase")
    np.testing.assert_array_equal(
        np.array(rows).reshape(-1, 4),
        np.column_stack([s_values[k], root, amplitude[k, root],
                         phase[k, root]]))
    assert np.count_nonzero(~np.isnan(amplitude), axis=1).max() == \
        most_roots


def test_melnikov_subcommand(tmp_path):
    out = tmp_path / "mel"
    assert run_cli("melnikov", "--alpha", "1.5", "--beta", "1",
                   "--xi", "0.1", "--n-omega", "4",
                   "--xi-values", "0.1,0.2", "--out", str(out)) == 0
    cols, rows = read_csv(out / "melnikov_threshold.csv")
    assert len(rows) == 8
    m0 = cols.index("m0_crit")
    assert all(r[m0] > 0.0 for r in rows)


def test_stiffness_handles_cusp(tmp_path):
    out = tmp_path / "k"
    assert run_cli("stiffness", "--alpha", "1.2", "--beta", "1.2",
                   "--n", "41", "--out", str(out)) == 0
    cols, rows = read_csv(out / "stiffness.csv")
    by_theta = {r[0]: r[1] for r in rows}
    assert math.isnan(by_theta[0.0])


def test_simulate_conservative_reports_drift(tmp_path):
    out = tmp_path / "sim"
    assert run_cli("simulate", "--alpha", "1.5", "--beta", "1",
                   "--theta0", "0.9", "--t-end", "20", "--out", str(out)) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["files"]["trajectory"]["metadata"]["energy_drift"] <= 1e-8


def test_simulate_runs_a_settled_damped_orbit_to_the_end(tmp_path):
    # the stages underflow once the orbit has settled in its well; the
    # step loop used to divide by zero there and exit 3
    out = tmp_path / "sim"
    assert run_cli("simulate", "--alpha", "1.5", "--xi", "0.5",
                   "--theta0", "0.3", "--t-end", "1000",
                   "--out", str(out)) == 0
    _, rows = read_csv(out / "trajectory.csv")
    assert rows[-1][0] == 1000.0
    assert rows[-1][1] == pytest.approx(0.72273424781, abs=1e-10)
    assert abs(rows[-1][2]) < 1e-300


def test_poincare_subcommand(tmp_path):
    out = tmp_path / "poin"
    assert run_cli("poincare", "--alpha", "1.5", "--beta", "1",
                   "--xi", "0.1", "--m0", "0.02", "--omega0", "0.8",
                   "--theta0", "0.7", "--n-points", "5", "--discard", "50",
                   "--out", str(out)) == 0
    cols, rows = read_csv(out / "poincare.csv")
    assert len(rows) == 5


def test_lyapunov_manifest_carries_the_standard_error(tmp_path):
    out = tmp_path / "lyap"
    assert run_cli("lyapunov", "--alpha", "1.5", "--beta", "1",
                   "--xi", "0.1", "--m0", "0.02", "--omega0", "0.8",
                   "--theta0", "0.7", "--horizon", "40",
                   "--out", str(out)) == 0
    _, rows = read_csv(out / "lyapunov.csv")
    meta = json.loads((out / "manifest.json").read_text())[
        "files"]["lyapunov"]["metadata"]
    rates = [r[1] for r in rows]
    assert len(rates) == 8
    assert meta["exponent_stderr"] == pytest.approx(
        np.std(rates, ddof=1) / math.sqrt(len(rates)), rel=1e-12)


def test_lyapunov_tangent_underflow_is_a_numeric_error(tmp_path, capsys):
    # critically damped at a center: the tangent's norm would fall to
    # about exp(-980) within one 1000-long interval; it sticks at the
    # smallest subnormal, whose log gave a rate of -0.744 where the run
    # decays at -0.98.  At the settled center the steps reach the 1.0 cap,
    # so this is cheap.
    out = tmp_path / "lyap"
    assert run_cli("lyapunov", "--alpha", "1.5", "--beta", "1", "--xi", "1",
                   "--theta0", "0.7227", "--interval", "1000",
                   "--out", str(out)) == 3
    assert capsys.readouterr().err.startswith("error:numeric: tangent norm")
    assert not (out / "lyapunov.csv").exists()


def test_bifurcation_subcommand(tmp_path):
    out = tmp_path / "bif"
    assert run_cli("bifurcation-set", "--alpha", "1.0", "--gamma", "0",
                   "--variant", "B2", "--n", "101", "--out", str(out)) == 0
    cols, rows = read_csv(out / "bifurcation_B2.csv")
    ia, ib = cols.index("alpha"), cols.index("beta")
    for r in rows:
        assert r[ia] + r[ib] == pytest.approx(1.0, abs=1e-9)
