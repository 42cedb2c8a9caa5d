"""Seeded job generation, execution and correctness checks.

A workload is an endless sequence of rounds.  Round ``r`` of a workload is
a pure function of ``(seed, r)``, so the same seed always yields the same
jobs.  Every round holds the same mix of job kinds; the parameter that
drives a kind's cost is drawn from stratum ``r % STRATA`` of its range (with
a seeded offset inside the stratum), so any four consecutive rounds cover
the whole range and the work per run does not swing with the seed.

A job is a plain dict.  CLI jobs carry the argument list given to
``clickdyn.cli.main`` (the output directory is appended at run time);
library jobs carry the arguments of three calls to one public library
function.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
from scipy.optimize import brentq

from clickdyn import cli, equilibria, freevib, hbm, integrate, melnikov
from clickdyn.model import Params, potential

WORKLOADS = ("forced", "output", "statics")
STRATA = 4

# The job whose outputs are produced twice per run and must be
# byte-identical (the rule of acceptance check 11).
RERUN_KIND = {"forced": "poincare_above", "output": "simulate_forced",
              "statics": "hbm"}


def _num(x: float) -> str:
    return repr(float(x))


def _stratum(rng, r: int, lo: float, hi: float) -> float:
    """Value in stratum ``r % STRATA`` of [lo, hi], seeded inside it."""
    k = r % STRATA
    return lo + (hi - lo) * (k + rng.uniform()) / STRATA


def hbm_folds(eps: float, kappa: float, xi: float, b_amp: float,
              s_lo: float, s_hi: float, n_scan: int = 2000) -> list[float]:
    """Fold frequencies of the cubic HBM response in [s_lo, s_hi].

    The amplitude relation is a cubic in u = A^2 with no root u <= 0, so it
    has three positive roots where its discriminant is positive and one
    where it is negative; the folds are the discriminant's zeros.  This is
    the benchmark's own reference, independent of the program's root
    counting (``hbm.fold_frequencies`` counts ``np.roots`` roots and can
    report a fold twice when a near-double root is split).
    """
    a = 0.5625 * eps * eps
    d = -b_amp * b_amp

    def disc(s):
        lin = 1.0 - kappa * s * s
        b = 1.5 * eps * lin
        c = lin * lin + (2.0 * xi * s) ** 2
        return (18.0 * a * b * c * d - 4.0 * b ** 3 * d + b * b * c * c
                - 4.0 * a * c ** 3 - 27.0 * a * a * d * d)

    # A grid point can sit exactly on a fold (the sweep grids here are
    # built from the folds), so zeros are skipped and each sign change is
    # bracketed by the nearest points of nonzero sign on either side.
    signed = [(s, math.copysign(1.0, v)) for s in
              np.linspace(s_lo, s_hi, n_scan + 1).tolist()
              if (v := disc(s)) != 0.0]
    return [brentq(disc, s0, s1, xtol=1e-15)
            for (s0, sg0), (s1, sg1) in zip(signed, signed[1:]) if sg0 != sg1]


def round_jobs(workload: str, seed: int, r: int) -> list[dict]:
    """The jobs of round ``r`` of ``workload`` under ``seed``."""
    rng = np.random.default_rng([WORKLOADS.index(workload), seed, r])
    return {"forced": _forced_round, "output": _output_round,
            "statics": _statics_round}[workload](rng, r)


def _forced_round(rng, r: int) -> list[dict]:
    jobs = []
    # Full-system sweep about the interior center of a double well.
    alpha = rng.uniform(1.35, 1.75)
    xi = _stratum(rng, r, 0.03, 0.1)
    m0 = rng.uniform(0.01, 0.02)
    jobs.append({"kind": "sweep_full", "argv": [
        "sweep", "--alpha", _num(alpha), "--beta", "1", "--xi", _num(xi),
        "--m0", _num(m0), "--s-min", "0.75", "--s-max", "1.1", "--n", "5"]})
    # Lightly damped cubic sweep on a grid straddling both HBM folds.  The
    # drive is set from the bistability measure q = 0.75*|eps|*a_pk^2/(2*xi)
    # with a_pk = B/(2*xi), so every seed gets a comparable fold gap.
    eps = -rng.uniform(0.008, 0.012)
    xi_c = _stratum(rng, r + 1, 0.008, 0.012)
    q = rng.uniform(2.2, 2.6)
    drive = 2.0 * xi_c * math.sqrt(q * 2.0 * xi_c / (0.75 * abs(eps)))
    f_lo, f_hi = hbm_folds(eps, 1.0, xi_c, drive, 0.9, 1.02)
    gap = f_hi - f_lo
    jobs.append({"kind": "sweep_cubic", "argv": [
        "sweep", "--alpha", "1", "--xi", _num(xi_c), "--drive", _num(drive),
        "--epsilon", _num(eps), "--s-min", _num(f_lo - 0.5 * gap),
        "--s-max", _num(f_hi + 0.5 * gap), "--n", "6"]})
    # Poincare sections and Lyapunov exponents with the forcing below and
    # above the duffing-reduction Melnikov threshold (acceptance check 10),
    # at three parameter points per round, so that the latency median and
    # tail fall among these jobs rather than on a boundary between classes.
    for k in range(3):
        alpha = rng.uniform(1.4, 1.6)
        xi = rng.uniform(0.08, 0.12)
        omega0 = rng.uniform(0.7, 1.0)
        p = Params(alpha=alpha, xi=xi)
        thr = melnikov.threshold_numeric(
            melnikov.reduce_system(p, "duffing"), xi, omega0)
        theta0 = equilibria.interior_angle(p)
        for side, ratio in (("below", _stratum(rng, r + 2 * k, 0.2, 0.5)),
                            ("above", _stratum(rng, r + 2 * k + 1, 1.5, 2.0))):
            common = ["--alpha", _num(alpha), "--beta", "1", "--xi", _num(xi),
                      "--m0", _num(ratio * thr), "--omega0", _num(omega0),
                      "--theta0", _num(theta0)]
            jobs.append({"kind": f"poincare_{side}", "argv": [
                "poincare", *common, "--n-points", "100", "--discard", "100"]})
            # horizon 700 makes a Lyapunov job cost about what a Poincare
            # job does, so these jobs form one class of latencies
            jobs.append({"kind": f"lyapunov_{side}", "argv": [
                "lyapunov", *common, "--horizon", "700"]})
    return jobs


def _output_round(rng, r: int) -> list[dict]:
    jobs = []
    jobs.append({"kind": "simulate_conservative", "argv": [
        "simulate", "--alpha", _num(rng.uniform(1.3, 1.8)), "--beta", "1",
        "--theta0", _num(_stratum(rng, r, 0.3, 1.2)),
        "--t-end", _num(rng.uniform(980.0, 1020.0))]})
    jobs.append({"kind": "simulate_forced", "argv": [
        "simulate", "--alpha", _num(rng.uniform(1.3, 1.8)), "--beta", "1",
        "--xi", _num(rng.uniform(0.03, 0.08)),
        "--m0", _num(_stratum(rng, r + 1, 0.05, 0.15)),
        "--omega0", _num(rng.uniform(0.7, 1.2)),
        "--theta0", _num(rng.uniform(0.3, 1.2)),
        "--t-end", _num(rng.uniform(980.0, 1020.0))]})
    jobs.append({"kind": "phase_portrait", "argv": [
        "phase-portrait", "--alpha", _num(rng.uniform(1.3, 1.8)),
        "--beta", "1", "--n", str(99 + 2 * (r % 3))]})
    # Library calls: one free oscillation in each double-well band, at
    # energies placed as in acceptance check 05, and the continued
    # separatrix of each of the three reductions.
    alpha = float(rng.uniform(1.3, 1.8))
    jobs.append({"kind": "free_oscillation", "alpha": alpha, "starts": [
        _free_oscillation_start(alpha, branch, float(rng.uniform(0.08, 0.92)))
        for branch in ("AF3", "AF4", "AF5")]})
    jobs.append({"kind": "separatrix", "alpha": float(rng.uniform(1.3, 1.8)),
                 "variants": ["duffing", "pendulum", "soft_cubic"]})
    return jobs


def _free_oscillation_start(alpha: float, branch: str, frac: float) -> dict:
    p = Params(alpha=alpha)
    lo, hi = freevib.energy_bands(p)[branch]
    if math.isinf(hi):
        energy = lo * (1.0 + 0.05 + (3.0 - 0.05) * frac)
    else:
        energy = lo + (hi - lo) * frac
    if branch == "AF4":
        h1 = float(potential(p, 0.0))
        state0 = [0.0, math.sqrt(2.0 * (energy - h1) / p.kappa)]
    else:
        state0 = [equilibria.interior_angle(p),
                  math.sqrt(2.0 * energy / p.kappa)]
    return {"branch": branch, "energy": energy, "state0": state0,
            "t_max": 8.0 * freevib.period_of_energy(p, energy)}


# Parameter regions of the statics workload, one per round in turn:
# double well, hard single well, soft single well (center at pi), and the
# alpha == beta cusp.
_REGIONS = ("double_well", "hard_single", "soft_single", "cusp")


def _statics_params(rng, region: str) -> tuple[float, float, float]:
    if region == "double_well":
        return rng.uniform(1.2, 1.8), rng.uniform(0.9, 1.1), \
            rng.uniform(0.0, 0.05)
    if region == "hard_single":
        return rng.uniform(2.3, 2.8), 1.0, rng.uniform(0.0, 0.1)
    if region == "soft_single":
        return rng.uniform(0.25, 0.35), rng.uniform(0.45, 0.55), 0.0
    a = rng.uniform(0.8, 1.2)
    return a, a, rng.uniform(0.0, 0.05)


def _statics_round(rng, r: int) -> list[dict]:
    region = _REGIONS[r % len(_REGIONS)]
    alpha, beta, gamma = _statics_params(rng, region)
    par = ["--alpha", _num(alpha), "--beta", _num(beta),
           "--gamma", _num(gamma)]
    jobs = [{"kind": "equilibria", "argv": ["equilibria", *par]}]
    for variant in ("B0", "B1", "B2"):
        jobs.append({"kind": f"bifurcation_{variant}", "argv": [
            "bifurcation-set", *par, "--variant", variant]})
    jobs.append({"kind": "freevib", "argv": ["freevib", *par]})
    jobs.append({"kind": "hbm", "argv": [
        "hbm", *par, "--xi", _num(rng.uniform(0.03, 0.08)),
        "--drive", _num(rng.uniform(0.005, 0.02))]})
    # The Melnikov reductions need a saddle at theta = 0 (duffing) or a
    # negative pole stiffness (pendulum); the hard single well has neither.
    variant = {"double_well": "duffing", "soft_single": "pendulum",
               "cusp": "duffing"}.get(region)
    if variant:
        jobs.append({"kind": "melnikov", "argv": [
            "melnikov", *par, "--xi", _num(rng.uniform(0.05, 0.15)),
            "--variant", variant]})
    for field in ("energy", "moment", "stiffness"):
        jobs.append({"kind": field, "argv": [field, *par, "--n", "4001"]})
    return jobs


# --------------------------------------------------------------- execution

def execute(job: dict, out_dir: Path):
    """Run one job; CLI jobs return their exit code, library jobs a result.

    Modules are looked up at call time, so a traced run reaches the
    wrapped functions.
    """
    if "argv" in job:
        with redirect_stdout(io.StringIO()):
            return cli.main([*job["argv"], "--out", str(out_dir)])
    p = Params(alpha=job["alpha"])
    if job["kind"] == "free_oscillation":
        return [integrate.measure_free_oscillation(p, tuple(s["state0"]),
                                                   t_max=s["t_max"])
                for s in job["starts"]]
    # Every reduction runs even after one has raised, so a failing job
    # costs about what a passing one does.
    orbits, failures = [], []
    for variant in job["variants"]:
        try:
            orbits.append(melnikov.separatrix(
                melnikov.reduce_system(p, variant), "continued"))
        except ValueError as e:
            failures.append(f"{variant}: {e}")
    if failures:
        raise RuntimeError("; ".join(failures))
    return orbits


def digest(job: dict, out_dir: Path, result) -> str:
    """Hash of everything a job produced, for byte-identity checks."""
    h = hashlib.sha256()
    if "argv" in job:
        h.update(str(result).encode())
        for path in sorted(Path(out_dir).iterdir()):
            h.update(path.name.encode())
            h.update(path.read_bytes())
        return h.hexdigest()
    for item in result:
        if job["kind"] == "free_oscillation":
            h.update(repr((item.amplitude, item.period,
                           item.rotating)).encode())
            continue
        for arr in (item.times, item.thetas, item.omegas):
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


# ------------------------------------------------------------------ checks

def check(job: dict, out_dir: Path, result) -> list[str]:
    """Correctness problems of one finished job (empty when it passed)."""
    if "argv" not in job:
        return _check_library(job, result)
    errors, files = _read_outputs(Path(out_dir))
    if errors:
        return errors
    kind = job["kind"]
    opts = _argv_options(job["argv"])
    if kind == "sweep_cubic":
        errors += _check_sweep_cubic(opts, files)
    elif kind == "simulate_conservative":
        drift = files["trajectory"]["metadata"]["energy_drift"]
        # acceptance check 04 allows 1e-8 over t = 100; drift grows with t
        limit = 1e-8 * float(opts["t-end"]) / 100.0
        if not drift <= limit:
            errors.append(f"energy drift {drift:.3e} > {limit:.1e}")
    elif kind == "phase_portrait":
        errors += _check_separatrix_levels(opts, files)
    elif kind == "hbm":
        errors += _check_frf(opts, files)
    for name, info in files.items():
        if kind not in _MAY_HOLD_NAN and not _all_finite(info["rows_data"]):
            errors.append(f"{name}: non-finite value")
    return errors


# NaN marks values that do not exist: stiffness and eigenvalues at the cusp,
# turning angles of rotating orbits.
_MAY_HOLD_NAN = {"stiffness", "equilibria", "freevib"}


def _argv_options(argv: list[str]) -> dict:
    return {argv[i][2:]: argv[i + 1] for i in range(1, len(argv) - 1, 2)}


def _read_outputs(out_dir: Path):
    """Manifest entries with the CSV rows attached; row counts must match."""
    manifest = json.loads((out_dir / "manifest.json").read_text())
    errors = []
    files = {}
    for name, info in manifest["files"].items():
        lines = (out_dir / f"{name}.csv").read_text().split("\n")
        if lines[-1] != "":
            errors.append(f"{name}.csv: missing final newline")
        body = [ln.split(",") for ln in lines[1:-1]]
        if lines[0].split(",") != info["columns"]:
            errors.append(f"{name}.csv: header differs from manifest")
        if len(body) != info["rows"]:
            errors.append(f"{name}.csv: {len(body)} rows, manifest says "
                          f"{info['rows']}")
        files[name] = dict(info, rows_data=body)
    return errors, files


def _all_finite(rows) -> bool:
    for row in rows:
        for tok in row:
            try:
                v = float(tok)
            except ValueError:
                continue
            if not math.isfinite(v):
                return False
    return True


def _check_sweep_cubic(opts: dict, files: dict) -> list[str]:
    s_min, s_max = float(opts["s-min"]), float(opts["s-max"])
    n = int(opts["n"])
    eps, xi, drive = (float(opts[k]) for k in ("epsilon", "xi", "drive"))
    folds = hbm_folds(eps, 1.0, xi, drive, s_min, s_max)
    # The program's fold finder is compared too, but does not judge the
    # sweep: these grids put its scan points on the folds, where it can
    # report a fold twice.
    repo_folds = hbm.fold_frequencies(hbm.CubicApprox(1.0, eps, 0.0), 1.0,
                                      xi, drive, s_min, s_max)
    if len(repo_folds) != len(folds) or any(
            abs(a - b) > 1e-9 for a, b in zip(repo_folds, folds)):
        print(f"note: hbm.fold_frequencies gives {list(map(float, repo_folds))}"
              f" where the discriminant gives {folds}", file=sys.stderr)
    jumps = [(d, float(s)) for d, s in files["sweep_jumps"]["rows_data"]]
    step = (s_max - s_min) / (n - 1)
    errors = []
    if len(folds) != 2:
        errors.append(f"{len(folds)} HBM folds in the swept range, want 2")
    if not {"up", "down"} <= {d for d, _ in jumps}:
        errors.append(f"no up and down jump: {jumps}")
    for d, s in jumps:
        if folds and min(abs(s - f) for f in folds) > step + 1e-12:
            errors.append(f"{d} jump at {s} not within one grid step of "
                          f"folds {list(map(float, folds))}")
    return errors


def _check_separatrix_levels(opts: dict, files: dict) -> list[str]:
    p = Params(alpha=float(opts["alpha"]), beta=float(opts["beta"]))
    levels = {float(row[0]) for row in files["phase_portrait"]["rows_data"]}
    errors = []
    for barrier in (float(potential(p, 0.0)), float(potential(p, math.pi))):
        if barrier > 0.0 and not any(abs(lv - barrier) < 1e-12
                                     for lv in levels):
            errors.append(f"separatrix level {barrier} missing")
    return errors


def _check_frf(opts: dict, files: dict) -> list[str]:
    """FRF roots satisfy the amplitude relation (acceptance check 07)."""
    eps = files["hbm_frf"]["metadata"]["epsilon"]
    kappa = float(opts.get("kappa", 1.0))
    xi = float(opts["xi"])
    b = float(opts["drive"])
    worst = 0.0
    for s, _root, a, _phase in files["hbm_frf"]["rows_data"]:
        s, a = float(s), float(a)
        g = 1.0 - kappa * s * s + 0.75 * eps * a * a
        worst = max(worst, abs((g * g + (2.0 * xi * s) ** 2) * a * a - b * b))
    return [] if worst <= 1e-10 else [f"FRF residual {worst:.2e} > 1e-10"]


def _check_library(job: dict, result) -> list[str]:
    p = Params(alpha=job["alpha"])
    errors = []
    if job["kind"] == "free_oscillation":
        for start, osc in zip(job["starts"], result):
            period = freevib.period_of_energy(p, start["energy"])
            rel = abs(osc.period - period) / period
            # tolerance of acceptance check 05
            if rel > 1e-4:
                errors.append(f"{start['branch']}: measured period off "
                              f"quadrature by {rel:.2e} > 1e-4")
        return errors
    for variant, orbit in zip(job["variants"], result):
        closed = melnikov.separatrix(melnikov.reduce_system(p, variant),
                                     "closed_form")
        dev = max(float(np.max(np.abs(closed.thetas - orbit.thetas))),
                  float(np.max(np.abs(closed.omegas - orbit.omegas))))
        # tolerance of test_continued_matches_closed_form
        if dev > 1e-6:
            errors.append(f"{variant}: continued separatrix off closed "
                          f"form by {dev:.2e} > 1e-6")
    return errors
