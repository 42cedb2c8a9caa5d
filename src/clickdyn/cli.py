"""Command-line front end.

Subcommands map one-to-one onto the analysis modules and each writes one
CSV per curve plus a JSON manifest.  Parameters come from an INI-style
config file ([params] section plus one section per subcommand) and/or
flags; flags override the file.  Exit codes: 0 success, 2 a refused input
(any :class:`~clickdyn.model.InputError`, the config file's included), 3 no
solution or divergence (any other ValueError, RuntimeError or
ArithmeticError), 4 I/O failure.
"""

from __future__ import annotations

import argparse
import configparser
import difflib
import functools
import math
import sys
from pathlib import Path

import numpy as np

from . import equilibria as eq
from . import freevib, hbm, melnikov
from .dataset import Dataset, emit_dataset, emit_manifest
from .integrate import (IntegratorSpec, integrate, largest_lyapunov,
                        poincare_section)
from .model import (InputError, Params, _stiffness_field, barrier_energies,
                    moment, potential)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

_PARAM_KEYS = ("alpha", "beta", "gamma", "kappa", "xi", "m0", "omega0", "phi")


def _float_list(text: str) -> list[float]:
    """Comma-separated finite floats, e.g. ``0.1,0.2``; ValueError if not."""
    values = [float(tok) for tok in text.split(",")]
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{text!r} holds a non-finite value")
    return values


# Option validators: check(value, options) -> None, or what is wrong.  They
# see the resolved options, so a range end can be checked against its start.
def _finite(v, o):
    return None if math.isfinite(v) else "must be finite"


def _positive(v, o):
    return None if 0.0 < v < math.inf else "must be positive and finite"


def _nonnegative(v, o):
    return None if 0.0 <= v < math.inf else "must be nonnegative and finite"


def _at_least(lo):
    return lambda v, o: None if v >= lo else f"must be >= {lo}"


def _above(key):
    return lambda v, o: (None if o[key] < v < math.inf
                         else f"must be finite and > {key}")


def _one_of(*choices):
    return lambda v, o: (None if v in choices
                         else f"must be one of {', '.join(choices)}")


def _numbers(v, o):
    try:
        _float_list(v)
    except ValueError:
        return "must be comma-separated finite numbers"
    return None


def _numbers_or_empty(v, o):
    return None if v == "" else _numbers(v, o)


def _nonnegative_numbers(v, o):
    return _numbers(v, o) or (None if min(_float_list(v)) >= 0.0
                              else "must all be >= 0")


def _any(v, o):
    return None


# per-subcommand option tables: name -> (type, default, validator)
_GRID_OPTS = {
    "theta_min": (float, -math.pi, _finite),
    "theta_max": (float, math.pi, _above("theta_min")),
    "n": (int, 401, _at_least(1)),
}
_STATE_OPTS = {
    "theta0": (float, 0.1, _finite),
    "omega0_state": (float, 0.0, _finite),
}
_OPTIONS: dict[str, dict] = {
    "energy": dict(_GRID_OPTS),
    "moment": dict(_GRID_OPTS),
    "stiffness": dict(_GRID_OPTS),
    "phase-portrait": {
        "n": (int, 401, _at_least(2)),
        "omega_max": (float, 2.0, _positive),
        "n_levels": (int, 12, _at_least(1)),
        "levels": (str, "", _numbers_or_empty),
    },
    "equilibria": {},
    "bifurcation-set": {
        "variant": (str, "B1", _one_of("B0", "B1", "B2")),
        "alpha_min": (float, 0.05, _positive),
        "alpha_max": (float, 3.0, _above("alpha_min")),
        "beta_min": (float, 0.05, _positive),
        "beta_max": (float, 3.0, _above("beta_min")),
        "n": (int, 201, _at_least(1)),
    },
    "freevib": {"branch": (str, "all", _any), "n": (int, 30, _at_least(1))},
    "hbm": {
        "s_min": (float, 0.1, _positive),
        "s_max": (float, 2.0, _above("s_min")),
        "n": (int, 400, _at_least(1)),
        "drive": (float, 0.05, _nonnegative),
    },
    "melnikov": {
        "variant": (str, "duffing",
                    _one_of(melnikov.DUFFING, melnikov.PENDULUM,
                            melnikov.SOFT_CUBIC)),
        "omega_min": (float, 0.2, _positive),
        "omega_max": (float, 3.0, _above("omega_min")),
        "n_omega": (int, 30, _at_least(1)),
        "xi_values": (str, "0.1,0.2,0.4", _nonnegative_numbers),
    },
    "simulate": {
        **_STATE_OPTS,
        "t_end": (float, 100.0, _positive),
        "rel_tol": (float, 1e-10, _positive),
        "abs_tol": (float, 1e-12, _positive),
    },
    "sweep": {
        "s_min": (float, 0.5, _positive),
        "s_max": (float, 1.5, _above("s_min")),
        "n": (int, 60, _at_least(1)),
        "drive": (float, 0.05, _nonnegative),
        "epsilon": (float, 0.0, _finite),
    },
    "lyapunov": {
        **_STATE_OPTS,
        "horizon": (float, 2000.0, _positive),
        "interval": (float, 5.0, _positive),
    },
    "poincare": {
        **_STATE_OPTS,
        "n_points": (int, 200, _at_least(1)),
        "discard": (int, 200, _at_least(0)),
    },
}


def _nearest(key: str, valid) -> str:
    hits = difflib.get_close_matches(key, list(valid), n=1)
    hint = f" (did you mean {hits[0]!r}?)" if hits else ""
    return f"unknown key {key!r}{hint}"


def _ini_value(kind, section: str, key: str, val: str):
    try:
        return kind(val)
    except ValueError:
        raise InputError(f"[{section}] {key} = {val!r}: "
                         f"not a valid {kind.__name__}") from None


def parse_config(command: str, args) -> dict:
    """Resolved configuration: file values overridden by flags, then defaults."""
    valid_opts = _OPTIONS[command]
    file_params: dict = {}
    file_opts: dict = {}
    if args.config:
        path = Path(args.config)
        try:
            text = path.read_text()
        except (OSError, UnicodeDecodeError) as e:
            raise InputError(f"cannot read {path}: {e}") from None
        ini = configparser.ConfigParser()
        try:
            ini.read_string(text)
        except configparser.Error as e:
            raise InputError(f"config parse failure: {e}") from None
        for section in ini.sections():
            if section == "params":
                for key, val in ini.items(section):
                    if key not in _PARAM_KEYS:
                        raise InputError(
                            f"[params]: {_nearest(key, _PARAM_KEYS)}")
                    file_params[key] = _ini_value(float, section, key, val)
            elif section == command:
                for key, val in ini.items(section):
                    if key not in valid_opts:
                        raise InputError(
                            f"[{section}]: {_nearest(key, valid_opts)}")
                    file_opts[key] = _ini_value(valid_opts[key][0], section,
                                                key, val)
            elif section not in _OPTIONS:
                raise InputError(
                    f"{_nearest(section, list(_OPTIONS) + ['params'])}")
    params_kw = dict(file_params)
    for key in _PARAM_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            params_kw[key] = flag
    if "alpha" not in params_kw:
        raise InputError("alpha is required (flag --alpha or [params] alpha)")
    rename = {"m0": "m_big0", "omega0": "omega_big0"}
    params = Params(**{rename.get(k, k): v for k, v in params_kw.items()})
    opts = {key: spec[1] for key, spec in valid_opts.items()}
    opts.update(file_opts)
    for key in valid_opts:
        flag = getattr(args, f"opt_{key}", None)
        if flag is not None:
            opts[key] = flag
    for key, (_kind, _default, check) in valid_opts.items():
        problem = check(opts[key], opts)
        if problem:
            raise InputError(f"{key} {problem}, got {opts[key]!r}")
    return {"command": command, "params": params_kw, "options": opts,
            "_params_obj": params}


def _theta_grid(opts) -> np.ndarray:
    return np.linspace(opts["theta_min"], opts["theta_max"], opts["n"])


def _run_energy(p: Params, opts) -> list[Dataset]:
    thetas = _theta_grid(opts)
    rows = np.column_stack((thetas, potential(p, thetas)))
    return [Dataset("energy", ("theta", "potential"), rows)]


def _run_moment(p: Params, opts) -> list[Dataset]:
    thetas = _theta_grid(opts)
    rows = np.column_stack((thetas, moment(p, thetas)))
    return [Dataset("moment", ("theta", "moment"), rows)]


def _run_stiffness(p: Params, opts) -> list[Dataset]:
    """Stiffness on the grid, NaN on the alpha == beta cusps theta = 2*n*pi."""
    thetas = _theta_grid(opts)
    with np.errstate(invalid="ignore"):     # 0/0 where D = 0
        vals = _stiffness_field(p.alpha, p.beta, p.gamma, thetas)
    rows = np.column_stack((thetas, vals))
    return [Dataset("stiffness", ("theta", "stiffness"), rows)]


def _run_phase_portrait(p: Params, opts) -> list[Dataset]:
    """Level sets of H = kappa*omega^2/2 + V(theta) in |omega| <= omega_max.

    Each level is the pair of curves omega = +-sqrt(2*(h - V(theta))/kappa)
    over {theta : h - kappa*omega_max^2/2 <= V(theta) <= h}, sampled on the
    theta grid plus the critical points of V and the exact angles where V
    reaches either bound (turning points and window exits), so separatrix
    levels pass through the saddles.
    """
    n, omega_max = opts["n"], opts["omega_max"]
    if opts["levels"]:
        levels = _float_list(opts["levels"])
    else:
        h1, h2 = barrier_energies(p)
        top = max(h1, h2) * 2.0 if max(h1, h2) > 0 else 1.0
        levels = list(np.linspace(top / opts["n_levels"], top,
                                  opts["n_levels"]))
        for barrier in (h1, h2):
            if barrier > 0.0:
                levels.append(barrier)      # separatrix level sets
        levels = sorted(set(levels))
    # the critical points of V on the grid put separatrix levels through
    # the saddles
    theta_c = eq.interior_angle(p)
    extrema = [0.0] if theta_c is None else [0.0, -theta_c, theta_c]
    grid = np.union1d(np.linspace(-math.pi, math.pi, n), extrema)
    v = np.asarray(potential(p, grid))
    tops = np.array(levels, dtype=float)
    floors = tops - 0.5 * p.kappa * (omega_max * omega_max)
    at, roots = freevib.level_angles(p, np.unique(np.append(tops, floors)))
    # a bound's roots are the run at[i:j] of its value in the sorted at
    first, last = (np.searchsorted(at, np.stack([tops, floors]), side)
                   .T.tolist() for side in ("left", "right"))
    rows = []
    for top, floor, (i, k), (j, m) in zip(tops.tolist(), floors.tolist(),
                                          first, last):
        crossings = np.concatenate([roots[i:j], roots[k:m]])
        v_cross = np.concatenate([at[i:j], at[k:m]])
        theta = np.concatenate([grid, -crossings[::-1], crossings])
        v_all = np.concatenate([v, v_cross[::-1], v_cross])
        inside = (v_all <= top) & (v_all >= floor)
        omega = np.minimum(np.sqrt(2.0 * np.maximum(top - v_all, 0.0)
                                   / p.kappa), omega_max)
        order = np.argsort(theta, kind="stable")
        theta, omega, inside = theta[order], omega[order], inside[order]
        k = np.nonzero(inside[:-1] & inside[1:])[0]
        # upper branch, then lower; 0.0 - omega keeps omega = 0 unsigned
        w0, w1 = omega[k], omega[k + 1]
        rows.append(np.column_stack((
            np.full(2 * k.size, top), np.arange(2.0 * k.size),
            np.tile(theta[k], 2), np.concatenate((w0, 0.0 - w0)),
            np.tile(theta[k + 1], 2), np.concatenate((w1, 0.0 - w1)))))
    return [Dataset("phase_portrait",
                    ("level", "segment", "theta0", "omega0_v",
                     "theta1", "omega1_v"), np.vstack(rows))]


def _run_equilibria(p: Params, opts) -> list[Dataset]:
    rows = []
    for e in eq.equilibria_in_period(p):
        l1, l2 = e.eigenvalues
        rows.append((e.branch_id, float(e.theta), float(e.k_local), e.kind,
                     float(l1.real), float(l1.imag),
                     float(l2.real), float(l2.imag)))
    ds = Dataset("equilibria",
                 ("branch", "theta", "stiffness", "kind",
                  "eig1_re", "eig1_im", "eig2_re", "eig2_im"), rows,
                 metadata={"region": eq.classify_region(p)})
    return [ds]


def _run_bifurcation_set(p: Params, opts) -> list[Dataset]:
    variant = opts["variant"]
    a_grid = np.linspace(opts["alpha_min"], opts["alpha_max"], opts["n"])
    if variant == "B0":
        curve = eq.zero_stiffness_set(p.beta, p.gamma, a_grid)
    else:
        b_grid = np.linspace(opts["beta_min"], opts["beta_max"], opts["n"])
        curve = eq.bifurcation_set(variant, p.gamma, a_grid, b_grid)
    return [Dataset(f"bifurcation_{variant}", curve.columns, curve.samples)]


def _run_freevib(p: Params, opts) -> list[Dataset]:
    bands = freevib.energy_bands(p)
    branches = list(bands) if opts["branch"] == "all" else [opts["branch"]]
    curves = freevib.amplitude_frequency_curve(p, bands, branches, opts["n"])
    # an open band end (inf) is null: JSON has no infinity
    return [Dataset(f"freevib_{branch}",
                    ("energy", "theta_ini", "theta_fin",
                     "amplitude", "period", "frequency"), rows,
                    metadata={"band": [v if math.isfinite(v) else None
                                       for v in bands[branch]],
                              "dropped": opts["n"] - len(rows)})
            for branch, rows in zip(branches, curves)]


def _run_hbm(p: Params, opts) -> list[Dataset]:
    cubic = hbm.fit_cubic(p, eq.working_center(p))
    b_amp = opts["drive"]
    s_values = np.linspace(opts["s_min"], opts["s_max"], opts["n"])
    amplitude, phase = hbm.frf_amplitudes(cubic, p.kappa, p.xi, b_amp,
                                          s_values)
    # a row's roots ascend in A and its missing roots (NaN) come last, so
    # a root's column is its index
    i, root = np.nonzero(~np.isnan(amplitude))
    frf_rows = np.column_stack([s_values[i], root, amplitude[i, root],
                                phase[i, root]])
    folds = hbm.fold_frequencies(cubic, p.kappa, p.xi, b_amp,
                                 float(s_values[0]), float(s_values[-1]))
    a_max = frf_rows[:, 2].max() if len(frf_rows) else 1.0
    bb = hbm.backbone(cubic, p.kappa,
                      np.linspace(1e-3, max(a_max, 1e-2), 200))
    meta = {"epsilon": cubic.epsilon, "quad_coeff": cubic.quad_coeff,
            "omega_n": cubic.omega_n, "origin_theta": cubic.origin_theta}
    return [
        Dataset("hbm_frf", ("s", "root", "amplitude", "phase"), frf_rows,
                metadata=meta),
        Dataset("hbm_backbone", ("amplitude", "s", "s_unit_kappa"), bb),
        Dataset("hbm_folds", ("s",), folds.reshape(-1, 1)),
    ]


def _run_melnikov(p: Params, opts) -> list[Dataset]:
    reduced = melnikov.reduce_system(p, opts["variant"])
    omega_grid = np.linspace(opts["omega_min"], opts["omega_max"],
                             opts["n_omega"])
    xi_grid = np.asarray(_float_list(opts["xi_values"]))
    grid = melnikov.threshold_grid(reduced, omega_grid, xi_grid)
    rows = []
    for i, xi0 in enumerate(grid.xi_grid.tolist()):
        for j, om in enumerate(grid.omega_grid.tolist()):
            rows.append((xi0, om, float(grid.m0_crit[i, j]),
                         float(grid.m0_printed[i, j]), grid.printed_form,
                         bool(grid.printed_agrees[i, j])))
    return [Dataset("melnikov_threshold",
                    ("xi0", "omega0", "m0_crit", "m0_printed",
                     "printed_form", "printed_agrees"), rows,
                    metadata={"variant": grid.variant})]


def _run_simulate(p: Params, opts) -> list[Dataset]:
    spec = IntegratorSpec(rel_tol=opts["rel_tol"], abs_tol=opts["abs_tol"],
                          t_end=opts["t_end"])
    traj = integrate(p, (opts["theta0"], opts["omega0_state"]), spec)
    rows = np.column_stack((traj.times, traj.states))
    meta = {"accepted": traj.step_stats.accepted,
            "rejected": traj.step_stats.rejected}
    if traj.energy_drift is not None:
        meta["energy_drift"] = traj.energy_drift
    return [Dataset("trajectory", ("t", "theta", "omega"), rows,
                    metadata=meta)]


def _run_sweep(p: Params, opts) -> list[Dataset]:
    if opts["epsilon"] != 0.0:
        cubic = hbm.CubicApprox(omega_n=1.0 / math.sqrt(p.kappa),
                                epsilon=opts["epsilon"], origin_theta=0.0)
        system = (cubic, p.kappa, p.xi, opts["drive"])
    else:
        system = p
    result = hbm.sweep_hysteresis(system, opts["s_min"], opts["s_max"],
                                  opts["n"])
    up = np.column_stack((result.up_s, result.up_amplitude))
    down = np.column_stack((result.down_s, result.down_amplitude))
    jumps = [("up", float(s)) for s in result.up_jumps] + \
            [("down", float(s)) for s in result.down_jumps]
    return [
        Dataset("sweep_up", ("s", "amplitude"), up,
                metadata={"unsettled": len(result.up_unsettled)}),
        Dataset("sweep_down", ("s", "amplitude"), down,
                metadata={"unsettled": len(result.down_unsettled)}),
        Dataset("sweep_jumps", ("direction", "s"), jumps,
                metadata={"periods": result.periods}),
    ]


def _run_lyapunov(p: Params, opts) -> list[Dataset]:
    est = largest_lyapunov(p, (opts["theta0"], opts["omega0_state"]),
                           horizon=opts["horizon"],
                           renorm_interval=opts["interval"])
    rates = est.segment_rates
    rows = np.column_stack((np.arange(float(rates.size)), rates))
    return [Dataset("lyapunov", ("segment", "rate"), rows,
                    metadata={"exponent": est.exponent,
                              "exponent_stderr": est.stderr,
                              "tail_exponent": est.tail_exponent})]


def _run_poincare(p: Params, opts) -> list[Dataset]:
    pm = poincare_section(p, (opts["theta0"], opts["omega0_state"]),
                          opts["n_points"], opts["discard"])
    return [Dataset("poincare", ("theta", "omega"), pm.points,
                    metadata={"discard": pm.discard,
                              "omega0": pm.omega_big0})]


_RUNNERS = {
    "energy": _run_energy,
    "moment": _run_moment,
    "stiffness": _run_stiffness,
    "phase-portrait": _run_phase_portrait,
    "equilibria": _run_equilibria,
    "bifurcation-set": _run_bifurcation_set,
    "freevib": _run_freevib,
    "hbm": _run_hbm,
    "melnikov": _run_melnikov,
    "simulate": _run_simulate,
    "sweep": _run_sweep,
    "lyapunov": _run_lyapunov,
    "poincare": _run_poincare,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="clickdyn",
        description="Static and dynamic analysis of the bistable "
                    "click-mechanism rotational oscillator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in _OPTIONS:
        sp = sub.add_parser(command)
        sp.add_argument("--config", default=None)
        sp.add_argument("--out", default=".")
        for key in _PARAM_KEYS:
            sp.add_argument(f"--{key}", type=float, default=None)
        for key, (typ, _default, _check) in _OPTIONS[command].items():
            sp.add_argument(f"--{key.replace('_', '-')}", dest=f"opt_{key}",
                            type=typ, default=None)
    return parser


def run(command: str, config: dict, out_dir: Path) -> list[Path]:
    """Execute one subcommand and write its datasets plus the manifest.

    On a failure the files written so far are removed.
    """
    p = config["_params_obj"]
    datasets = _RUNNERS[command](p, config["options"])
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    public = {k: v for k, v in config.items() if not k.startswith("_")}
    try:
        for ds in datasets:
            written.append(emit_dataset(ds, out_dir / f"{ds.name}.csv"))
        written.append(emit_manifest(datasets, public,
                                     out_dir / "manifest.json"))
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        raise
    return written


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return EXIT_CONFIG if e.code not in (0, None) else 0
    try:
        config = parse_config(args.command, args)
        written = run(args.command, config, Path(args.out))
    except InputError as e:
        print(f"error:config: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as e:
        print(f"error:io: {e}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, RuntimeError, ArithmeticError) as e:
        print(f"error:numeric: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    for path in written:
        print(path)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
