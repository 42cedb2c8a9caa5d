"""End-to-end acceptance checks.

Each test verifies one acceptance criterion and prints a single pass/fail
line (through the capture-disabled channel, so the lines show up in normal
pytest output as well).
"""

import json
import math
import time
from dataclasses import replace

import numpy as np

from clickdyn.cli import main as cli_main
from clickdyn.equilibria import (CENTER, SADDLE, equilibria_in_period,
                                 interior_angle, interior_angle_closed_form)
from clickdyn.freevib import energy_bands, period_of_energy
from clickdyn.hbm import (CubicApprox, fold_frequencies, frf_amplitudes,
                          sweep_hysteresis)
from clickdyn.integrate import (IntegratorSpec, integrate, largest_lyapunov,
                                measure_free_oscillation, poincare_section)
from clickdyn.melnikov import (DUFFING, PENDULUM, SOFT_CUBIC, reduce_system,
                               threshold_grid, threshold_numeric)
from clickdyn.model import Params, barrier_energies, moment, potential, stiffness

P_IV = Params(alpha=1.5, beta=1.0)


def _report(capsys, num, name, ok, extra=""):
    tail = f"  ({extra})" if extra else ""
    with capsys.disabled():
        print(f"[acceptance {num:02d}] {name}: "
              f"{'PASS' if ok else 'FAIL'}{tail}", flush=True)
    assert ok, f"acceptance criterion {num} ({name}) failed {tail}"


def _fd_params(rng):
    while True:
        a, b = rng.uniform(0.3, 1.7, size=2)
        if abs(a - b) >= 0.35:
            return Params(alpha=float(a), beta=float(b),
                          gamma=float(rng.uniform(0.0, 0.5)))


def test_acceptance_01_energy_derivative_consistency(capsys):
    rng = np.random.default_rng(11)
    t0 = time.perf_counter()
    h = 1e-5
    worst = 0.0
    for _ in range(1000):
        p = _fd_params(rng)
        th = float(rng.uniform(-math.pi, math.pi))
        dpen = (float(potential(p, th + h)) - float(potential(p, th - h))) / (2 * h)
        dmom = (float(moment(p, th + h)) - float(moment(p, th - h))) / (2 * h)
        worst = max(worst,
                    abs(dpen - float(moment(p, th))),
                    abs(dmom - float(stiffness(p, th))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 1.0
    _report(capsys, 1, "moment/stiffness match energy derivatives", ok,
            f"worst={worst:.2e}, {elapsed:.2f}s")


def test_acceptance_02_double_well_equilibrium_structure(capsys):
    rng = np.random.default_rng(12)
    ok = True
    worst = 0.0
    n = 0
    while n < 200:
        a, b = rng.uniform(0.1, 1.9, size=2)
        if not (abs(a - b) < 1.0 < a + b and a != b):
            continue
        n += 1
        p = Params(alpha=float(a), beta=float(b))
        eqs = equilibria_in_period(p)
        kinds = sorted(e.kind for e in eqs)
        ok &= len(eqs) == 4 and kinds == [CENTER, CENTER, SADDLE, SADDLE]
        th3 = interior_angle(p)
        worst = max(worst, abs(math.cos(th3) -
                               math.cos(interior_angle_closed_form(p))))
    ok &= worst <= 1e-10
    _report(capsys, 2, "double-well equilibria and interior angle", ok,
            f"worst cos dev={worst:.2e}")


def test_acceptance_03_barrier_energies(capsys):
    h1_a, _ = barrier_energies(Params(alpha=0.5, beta=1.0))
    _, h2_b = barrier_energies(Params(alpha=1.0, beta=1.0))
    ok = abs(h1_a - 0.125) <= 1e-15 and abs(h2_b - 0.5) <= 1e-15
    _report(capsys, 3, "barrier energy closed forms", ok,
            f"H1(0.5,1)={h1_a!r}, H2(1,1)={h2_b!r}")


def test_acceptance_04_conservative_energy_drift(capsys):
    rng = np.random.default_rng(13)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        state0 = (float(rng.uniform(-math.pi, math.pi)),
                  float(rng.uniform(-1.5, 1.5)))
        traj = integrate(P_IV, state0, IntegratorSpec(t_end=100.0))
        worst = max(worst, traj.energy_drift)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    _report(capsys, 4, "energy drift over t=100 for 50 random starts", ok,
            f"worst={worst:.2e}, {elapsed:.1f}s")


def _free_vibrations(p):
    """(quadrature period, integrated period) at 20 energies of each band,
    from a start on the band's orbit."""
    h1 = barrier_energies(p)[0]
    th3 = interior_angle(p)
    for branch, (lo, hi) in energy_bands(p).items():
        if math.isinf(hi):
            energies = lo * (1.0 + np.geomspace(0.05, 3.0, 20))
        else:
            energies = lo + (hi - lo) * np.linspace(0.08, 0.92, 20)
        for h_level in energies:
            h_level = float(h_level)
            period = period_of_energy(p, h_level)
            if branch == "AF4":
                state0 = (0.0, math.sqrt(2.0 * (h_level - h1) / p.kappa))
            else:
                state0 = (th3, math.sqrt(2.0 * h_level / p.kappa))
            osc = measure_free_oscillation(p, state0, t_max=8.0 * period)
            yield period, osc.period


def test_acceptance_05_period_quadrature_vs_integration(capsys):
    p = P_IV
    t0 = time.perf_counter()
    h1, h2 = barrier_energies(p)
    worst = 0.0
    n_checked = 0
    for period, measured in _free_vibrations(p):
        worst = max(worst, abs(measured - period) / period)
        n_checked += 1
    # the period diverges on approach to a barrier
    diverges = (period_of_energy(p, h1 - 1e-8) > period_of_energy(p, h1 - 1e-4)
                and period_of_energy(p, h2 + 1e-8) >
                period_of_energy(p, h2 + 1e-4))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and diverges and n_checked >= 60 and elapsed < 30.0
    _report(capsys, 5, "free-vibration period quadrature vs integration", ok,
            f"{n_checked} energies, worst rel={worst:.2e}, {elapsed:.1f}s")


def test_event_periods_match_the_quadrature_to_1e_9():
    # acceptance 05's cases: the event times, closed to adjacent floats on
    # the dense output of a run at rel_tol 1e-11, leave the period to the
    # run's own error
    deviations = [abs(measured - period) / period
                  for period, measured in _free_vibrations(P_IV)]
    assert len(deviations) == 60
    assert max(deviations) <= 1e-9


def test_acceptance_07_hbm_roots(capsys):
    t0 = time.perf_counter()
    lin = CubicApprox(omega_n=1.0, epsilon=0.0, origin_theta=0.0)
    kappa, xi, b = 1.3, 0.07, 0.4
    s = np.linspace(0.05, 2.5, 60)
    (a,) = frf_amplitudes(lin, kappa, xi, b, s)[0].T    # one root per s
    expect = b / np.hypot(1.0 - kappa * s * s, 2.0 * xi * s)
    worst_lin = float(np.max(np.abs(a - expect)))
    soft = CubicApprox(omega_n=1.0, epsilon=-0.05, origin_theta=0.0)
    s = np.linspace(0.2, 1.5, 200)
    a, phi = frf_amplitudes(soft, 1.0, 0.05, 0.3, s)
    root = ~np.isnan(a)
    band = s[root.sum(axis=1) == 3].tolist()
    s = s[:, None]
    g = 1.0 - s * s + 0.75 * soft.epsilon * a * a
    worst_res = float(np.max(np.abs((g * g + (0.1 * s) ** 2) * a * a
                                    - 0.3 ** 2)[root]))
    worst_bal = float(np.max(np.maximum(
        np.abs(g * a - 0.3 * np.cos(phi)),
        np.abs(0.1 * s * a - 0.3 * np.sin(phi)))[root]))
    elapsed = time.perf_counter() - t0
    ok = (worst_lin <= 1e-12 and worst_res <= 1e-10 and worst_bal <= 1e-8
          and band and max(band) < 1.0 and elapsed < 5.0)
    _report(capsys, 7, "harmonic-balance frequency response", ok,
            f"lin={worst_lin:.1e}, resid={worst_res:.1e}, "
            f"band up to {max(band):.3f}, {elapsed:.1f}s")


def test_acceptance_08_sweep_hysteresis_brackets_folds(capsys):
    t0 = time.perf_counter()
    cubic = CubicApprox(omega_n=1.0, epsilon=-0.01, origin_theta=0.0)
    kappa, xi, b = 1.0, 0.01, 0.05
    s_lo, s_hi, n_steps = 0.968, 0.984, 33
    grid_step = (s_hi - s_lo) / (n_steps - 1)
    folds = fold_frequencies(cubic, kappa, xi, b, s_lo, s_hi)
    res = sweep_hysteresis((cubic, kappa, xi, b), s_lo, s_hi, n_steps)
    elapsed = time.perf_counter() - t0

    def near_fold(jump):
        return min(abs(jump - f) for f in folds) <= grid_step + 1e-12

    ok = (len(folds) == 2
          and res.up_jumps and res.down_jumps
          and all(near_fold(j) for j in res.up_jumps + res.down_jumps)
          and min(res.up_jumps) != min(res.down_jumps)
          and not res.up_unsettled and not res.down_unsettled
          and res.periods <= 1150
          and elapsed < 300.0)
    _report(capsys, 8, "swept response jumps bracket the HBM folds", ok,
            f"folds={[round(float(f), 6) for f in folds]}, "
            f"up={[round(float(j), 6) for j in res.up_jumps]}, "
            f"down={[round(float(j), 6) for j in res.down_jumps]}, "
            f"unsettled={len(res.up_unsettled) + len(res.down_unsettled)}, "
            f"periods={res.periods}, {elapsed:.0f}s")


def test_acceptance_09_melnikov_thresholds(capsys):
    p = Params(alpha=1.5, beta=1.0, xi=0.1)
    r = reduce_system(p, PENDULUM)
    w0 = math.sqrt(-r.k1 / r.kappa)
    worst = 0.0
    for omega0 in np.linspace(0.2, 3.0, 8):
        for xi0 in (0.1, 0.4):
            expect = (8.0 * w0 * xi0 / math.pi) * math.cosh(
                math.pi * omega0 / (2.0 * w0))
            got = threshold_numeric(r, xi0, float(omega0))
            worst = max(worst, abs(got - expect) / expect)
    t1 = threshold_numeric(r, 0.1, 1.0)
    t2 = threshold_numeric(r, 0.2, 1.0)
    linear = abs(t2 - 2.0 * t1) / t2
    agree = {}
    for variant in (DUFFING, PENDULUM, SOFT_CUBIC):
        grid = threshold_grid(reduce_system(p, variant), [1.0], [0.1])
        agree[variant] = "yes" if grid.printed_agrees[0, 0] else "no"
    ok = worst <= 0.02 and linear <= 1e-12
    _report(capsys, 9, "chaos-threshold quadrature vs closed form", ok,
            f"worst rel={worst:.2e}, xi-linearity={linear:.1e}, "
            f"printed-form agreement {agree}")


def test_acceptance_10_threshold_separates_dynamics(capsys):
    t0 = time.perf_counter()
    p = Params(alpha=1.5, beta=1.0, xi=0.1)
    r = reduce_system(p, DUFFING)
    thr = threshold_numeric(r, p.xi, 0.8)
    th3 = interior_angle(p)

    def run(m0):
        pf = replace(p, m_big0=m0, omega_big0=0.8)
        state0 = (th3, 0.0)
        est = largest_lyapunov(pf, state0, horizon=1000.0)
        points = poincare_section(pf, state0, n_points=200, discard=100)
        reps = []
        for th, om in points:
            q = (math.remainder(float(th), 2.0 * math.pi), float(om))
            for rp in reps:
                if math.hypot(q[0] - rp[0], q[1] - rp[1]) <= 1e-2:
                    break
            else:
                reps.append(q)
        return est.exponent, est.stderr, len(reps)

    lam_hi, err_hi, n_hi = run(1.5 * thr)
    lam_lo, err_lo, n_lo = run(0.2 * thr)
    elapsed = time.perf_counter() - t0
    ok = (lam_hi > 0.01 and n_hi > 100
          and lam_lo <= 0.01 and n_lo <= 2
          and elapsed < 300.0)
    _report(capsys, 10, "forcing above/below threshold is chaotic/regular",
            ok, f"thr={thr:.4f}, above: lam={lam_hi:+.3f}+-{err_hi:.3f} "
            f"n={n_hi}; below: lam={lam_lo:+.3f}+-{err_lo:.3f} n={n_lo}; "
            f"{elapsed:.0f}s")


def test_acceptance_11_cli_determinism(capsys, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    codes = [cli_main(["hbm", "--alpha", "1.5", "--beta", "1",
                       "--xi", "0.05", "--drive", "0.01", "--n", "41",
                       "--out", str(out)])
             for out in (out1, out2)]
    names = sorted(f.name for f in out1.iterdir())
    identical = all((out1 / n).read_bytes() == (out2 / n).read_bytes()
                    for n in names)
    manifest = json.loads((out1 / "manifest.json").read_text())
    ok = (codes == [0, 0] and identical and len(names) >= 2
          and "config_hash" in manifest)
    _report(capsys, 11, "CLI reruns are byte-identical", ok,
            f"files={names}")
