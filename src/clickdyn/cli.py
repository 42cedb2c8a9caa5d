"""Command-line front end.

Subcommands map one-to-one onto the analysis modules and each writes one
CSV per curve plus a JSON manifest.  Parameters come from an INI-style
config file ([params] section plus one section per subcommand) and/or
flags; flags override the file.  Exit codes: 0 success, 2 configuration
error, 3 numeric failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import configparser
import difflib
import math
import sys
from pathlib import Path

import numpy as np

from . import equilibria as eq
from . import freevib, hbm, melnikov
from .dataset import Dataset, emit_dataset, emit_manifest
from .integrate import (IntegratorSpec, integrate, largest_lyapunov,
                        poincare_section)
from .model import (Params, _stiffness_field, barrier_energies, moment,
                    potential)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


class ConfigError(ValueError):
    pass


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
        "xi_values": (str, "0.1,0.2,0.4", _numbers),
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
        raise ConfigError(f"[{section}] {key} = {val!r}: "
                          f"not a valid {kind.__name__}") from None


def parse_config(command: str, args) -> dict:
    """Resolved configuration: file values overridden by flags, then defaults."""
    valid_opts = _OPTIONS[command]
    file_params: dict = {}
    file_opts: dict = {}
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        ini = configparser.ConfigParser()
        try:
            ini.read_string(path.read_text())
        except configparser.Error as e:
            raise ConfigError(f"config parse failure: {e}") from None
        for section in ini.sections():
            if section == "params":
                for key, val in ini.items(section):
                    if key not in _PARAM_KEYS:
                        raise ConfigError(
                            f"[params]: {_nearest(key, _PARAM_KEYS)}")
                    file_params[key] = _ini_value(float, section, key, val)
            elif section == command:
                for key, val in ini.items(section):
                    if key not in valid_opts:
                        raise ConfigError(
                            f"[{section}]: {_nearest(key, valid_opts)}")
                    file_opts[key] = _ini_value(valid_opts[key][0], section,
                                                key, val)
            elif section not in _OPTIONS:
                raise ConfigError(
                    f"{_nearest(section, list(_OPTIONS) + ['params'])}")
    params_kw = dict(file_params)
    for key in _PARAM_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            params_kw[key] = flag
    if "alpha" not in params_kw:
        raise ConfigError("alpha is required (flag --alpha or [params] alpha)")
    rename = {"m0": "m_big0", "omega0": "omega_big0"}
    try:
        params = Params(**{rename.get(k, k): v for k, v in params_kw.items()})
    except ValueError as e:
        raise ConfigError(str(e)) from None
    opts = {key: spec[1] for key, spec in valid_opts.items()}
    opts.update(file_opts)
    for key in valid_opts:
        flag = getattr(args, f"opt_{key}", None)
        if flag is not None:
            opts[key] = flag
    for key, (_kind, _default, check) in valid_opts.items():
        problem = check(opts[key], opts)
        if problem:
            raise ConfigError(f"{key} {problem}, got {opts[key]!r}")
    return {"command": command, "params": params_kw, "options": opts,
            "_params_obj": params}


def _theta_grid(opts) -> np.ndarray:
    return np.linspace(opts["theta_min"], opts["theta_max"], opts["n"])


def _run_energy(p: Params, opts) -> list[Dataset]:
    thetas = _theta_grid(opts)
    rows = zip(thetas.tolist(), potential(p, thetas).tolist())
    return [Dataset("energy", ("theta", "potential"), list(rows))]


def _run_moment(p: Params, opts) -> list[Dataset]:
    thetas = _theta_grid(opts)
    rows = zip(thetas.tolist(), moment(p, thetas).tolist())
    return [Dataset("moment", ("theta", "moment"), list(rows))]


def _run_stiffness(p: Params, opts) -> list[Dataset]:
    """Stiffness on the grid, NaN on the alpha == beta cusps theta = 2*n*pi."""
    thetas = _theta_grid(opts)
    with np.errstate(invalid="ignore"):     # 0/0 where D = 0
        vals = _stiffness_field(p.alpha, p.beta, p.gamma, thetas)
    rows = zip(thetas.tolist(), vals.tolist())
    return [Dataset("stiffness", ("theta", "stiffness"), list(rows))]


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
    rows = []
    for top in map(float, levels):
        floor = top - 0.5 * p.kappa * omega_max**2
        crossings, v_cross = [], []
        for bound in (top, floor):
            roots = freevib.level_angles(p, bound)
            crossings += [-r for r in reversed(roots)] + roots
            v_cross += [bound] * (2 * len(roots))
        theta = np.concatenate([grid, crossings])
        v_all = np.concatenate([v, v_cross])
        inside = (v_all <= top) & (v_all >= floor)
        omega = np.minimum(np.sqrt(2.0 * np.maximum(top - v_all, 0.0)
                                   / p.kappa), omega_max)
        order = np.argsort(theta, kind="stable")
        theta, omega, inside = theta[order], omega[order], inside[order]
        k = np.nonzero(inside[:-1] & inside[1:])[0]
        # upper branch, then lower; 0.0 - omega keeps omega = 0 unsigned
        segs = [seg for w in (omega, 0.0 - omega)
                for seg in zip(theta[k].tolist(), w[k].tolist(),
                               theta[k + 1].tolist(), w[k + 1].tolist())]
        rows += [(top, j, *seg) for j, seg in enumerate(segs)]
    return [Dataset("phase_portrait",
                    ("level", "segment", "theta0", "omega0_v",
                     "theta1", "omega1_v"), rows)]


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
    rows = [tuple(float(v) for v in row) for row in curve.samples]
    return [Dataset(f"bifurcation_{variant}", curve.columns, rows)]


def _run_freevib(p: Params, opts) -> list[Dataset]:
    bands = freevib.energy_bands(p)
    branches = list(bands) if opts["branch"] == "all" else [opts["branch"]]
    out = []
    for branch in branches:
        if branch not in bands:
            raise ConfigError(
                f"branch {branch!r} not available; have {sorted(bands)}")
        rows = []
        for pt in freevib.amplitude_frequency_curve(p, branch, opts["n"]):
            rows.append((pt.energy,
                         math.nan if pt.theta_ini is None else pt.theta_ini,
                         math.nan if pt.theta_fin is None else pt.theta_fin,
                         pt.amplitude, pt.period, pt.frequency))
        out.append(Dataset(f"freevib_{branch}",
                           ("energy", "theta_ini", "theta_fin",
                            "amplitude", "period", "frequency"), rows,
                           metadata={"band": list(bands[branch])}))
    return out


def _run_hbm(p: Params, opts) -> list[Dataset]:
    cubic = hbm.fit_cubic(p, eq.working_center(p))
    b_amp = opts["drive"]
    s_values = np.linspace(opts["s_min"], opts["s_max"], opts["n"])
    branch = hbm.frf_curve(cubic, p.kappa, p.xi, b_amp, s_values)
    frf_rows = []
    for s, amps, phases in zip(branch.s_values, branch.amplitudes,
                               branch.phases):
        for i, (a, ph) in enumerate(zip(amps, phases)):
            frf_rows.append((float(s), i, float(a), float(ph)))
    meta = {"epsilon": cubic.epsilon, "quad_coeff": cubic.quad_coeff,
            "omega_n": cubic.omega_n, "origin_theta": cubic.origin_theta}
    return [
        Dataset("hbm_frf", ("s", "root", "amplitude", "phase"), frf_rows,
                metadata=meta),
        Dataset("hbm_backbone", ("amplitude", "s", "s_unit_kappa"),
                [tuple(float(v) for v in row) for row in branch.backbone]),
        Dataset("hbm_folds", ("s",), [(float(s),) for s in branch.folds]),
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
    rows = list(zip(traj.times.tolist(), *traj.states.T.tolist()))
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
    up = [(float(s), float(a))
          for s, a in zip(result.up_s, result.up_amplitude)]
    down = [(float(s), float(a))
            for s, a in zip(result.down_s, result.down_amplitude)]
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
    rows = [(i, float(r)) for i, r in enumerate(est.segment_rates)]
    return [Dataset("lyapunov", ("segment", "rate"), rows,
                    metadata={"exponent": est.exponent,
                              "exponent_stderr": est.stderr,
                              "tail_exponent": est.tail_exponent})]


def _run_poincare(p: Params, opts) -> list[Dataset]:
    if p.m_big0 <= 0.0 or p.omega_big0 <= 0.0:
        raise ConfigError("poincare requires a drive: m0 > 0 and omega0 > 0")
    pm = poincare_section(p, (opts["theta0"], opts["omega0_state"]),
                          opts["n_points"], opts["discard"])
    rows = [(float(th), float(om)) for th, om in pm.points]
    return [Dataset("poincare", ("theta", "omega"), rows,
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


def _build_parser(commands=tuple(_OPTIONS)) -> argparse.ArgumentParser:
    """The parser with the subparsers of ``commands`` (default: all).

    A subset keeps the usage line of the full parser, which argparse also
    prints for an unrecognized argument after a subcommand.  The full parser
    sets no metavar, so its errors still name ``argument command``.
    """
    parser = argparse.ArgumentParser(
        prog="clickdyn",
        description="Static and dynamic analysis of the bistable "
                    "click-mechanism rotational oscillator.",
    )
    metavar = (None if len(commands) == len(_OPTIONS)
               else "{%s}" % ",".join(_OPTIONS))
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar=metavar)
    for command in commands:
        sp = sub.add_parser(command)
        sp.add_argument("--config", default=None)
        sp.add_argument("--out", default=".")
        sp.add_argument("--keep-partial", action="store_true")
        for key in _PARAM_KEYS:
            sp.add_argument(f"--{key}", type=float, default=None)
        for key, (typ, _default, _check) in _OPTIONS[command].items():
            sp.add_argument(f"--{key.replace('_', '-')}", dest=f"opt_{key}",
                            type=typ, default=None)
    return parser


def run(command: str, config: dict, out_dir: Path,
        keep_partial: bool = False) -> list[Path]:
    """Execute one subcommand and write its datasets plus the manifest."""
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
        if not keep_partial:
            for path in written:
                path.unlink(missing_ok=True)
        raise
    return written


def main(argv=None) -> int:
    # Build only the named subcommand's parser; help, a missing or unknown
    # subcommand and an option before the subcommand get all of them.
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser(argv[:1] if argv and argv[0] in _OPTIONS
                           else tuple(_OPTIONS))
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_CONFIG if e.code not in (0, None) else 0
    try:
        config = parse_config(args.command, args)
    except ConfigError as e:
        print(f"error:config: {e}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        written = run(args.command, config, Path(args.out),
                      keep_partial=args.keep_partial)
    except ConfigError as e:
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
