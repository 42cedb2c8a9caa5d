"""Single-term harmonic balance of the cubic approximation.

The forced response is analyzed on the canonical cubic oscillator

    kappa * x'' + 2*xi * x' + x + eps * x^3 = B * sin(s * T)

whose single-harmonic balance gives the amplitude relationship

    ((1 - kappa*s^2 + 0.75*eps*A^2)^2 + (2*xi*s)^2) * A^2 = B^2.

The drive amplitude is normalized so that the static (s -> 0, eps = 0)
response equals B, i.e. B = M0 / K in physical terms.  The cubic fit about
a center uses Richardson-extrapolated central differences of the restoring
moment; the quadratic (asymmetry) coefficient is reported alongside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import brentq

from .equilibria import CENTER, Equilibrium, equilibria_in_period
from .integrate import IntegratorSpec, integrate_rhs
from .model import Params, moment, scalar_rhs

__all__ = [
    "CubicApprox",
    "FrfBranch",
    "SweepResult",
    "fit_cubic",
    "fit_cubic_from_function",
    "frf_amplitudes",
    "frf_curve",
    "fold_frequencies",
    "backbone",
    "sweep_hysteresis",
]


@dataclass(frozen=True)
class CubicApprox:
    omega_n: float        # linearized frequency at the expansion center
    epsilon: float        # cubic coefficient of the normalized restoring term
    origin_theta: float   # expansion center
    k_linear: float = 1.0       # stiffness at the center
    quad_coeff: float = 0.0     # quadratic Taylor coefficient of the moment

    def __post_init__(self):
        if self.omega_n <= 0.0:
            raise ValueError("omega_n must be positive")


@dataclass
class FrfBranch:
    s_values: np.ndarray
    amplitudes: list[np.ndarray]     # 1-3 positive roots per s
    phases: list[np.ndarray]
    folds: list[float]
    backbone: np.ndarray             # columns (s, a)


@dataclass
class SweepResult:
    up_s: np.ndarray
    up_amplitude: np.ndarray
    down_s: np.ndarray
    down_amplitude: np.ndarray
    up_jumps: list[float]
    down_jumps: list[float]


def _derivatives(mfun, x0: float, step: float) -> tuple[float, float, float]:
    """(M', M'', M''') at x0 by Richardson-extrapolated central differences."""

    def d1(h):
        return (mfun(x0 + h) - mfun(x0 - h)) / (2.0 * h)

    def d2(h):
        return (mfun(x0 + h) - 2.0 * mfun(x0) + mfun(x0 - h)) / h**2

    def d3(h):
        return (mfun(x0 + 2 * h) - 2.0 * mfun(x0 + h) + 2.0 * mfun(x0 - h)
                - mfun(x0 - 2 * h)) / (2.0 * h**3)

    out = []
    for d in (d1, d2, d3):
        coarse = d(2.0 * step)
        fine = d(step)
        out.append((4.0 * fine - coarse) / 3.0)
    return out[0], out[1], out[2]


def fit_cubic_from_function(mfun, theta_eq: float, kappa: float,
                            step: float = 1e-3) -> CubicApprox:
    """Cubic approximation of an arbitrary restoring moment about a center.

    epsilon is the cubic Taylor coefficient of the moment normalized by the
    local stiffness, so a linear moment gives epsilon = 0 exactly (to
    finite-difference accuracy).
    """
    k, m2, m3 = _derivatives(mfun, theta_eq, step)
    if k <= 0.0:
        raise ValueError("expansion point is not a center (nonpositive stiffness)")
    cubic = m3 / 6.0
    return CubicApprox(
        omega_n=math.sqrt(k / kappa),
        epsilon=cubic / k,
        origin_theta=theta_eq,
        k_linear=k,
        quad_coeff=m2 / 2.0,
    )


def fit_cubic(p: Params, eq: Equilibrium, step: float = 1e-3) -> CubicApprox:
    """Cubic approximation of the system moment about a center equilibrium."""
    if eq.kind != CENTER:
        raise ValueError(f"cubic fit requires a center, got {eq.kind}")
    return fit_cubic_from_function(
        lambda th: float(moment(p, th)), eq.theta, p.kappa, step
    )


def frf_amplitudes(cubic: CubicApprox, kappa: float, xi: float,
                   b_amp: float, s: float) -> list[tuple[float, float]]:
    """All positive-amplitude HBM roots (A, phi) at frequency ratio s.

    Roots of the cubic in u = A^2 are classified in closed form and polished
    with a Newton step on the residual of the amplitude relationship.
    """
    if s <= 0.0:
        raise ValueError("frequency ratio s must be positive")
    if b_amp < 0.0:
        raise ValueError("drive amplitude must be nonnegative")
    eps = cubic.epsilon
    lin = 1.0 - kappa * s * s
    damp2 = (2.0 * xi * s) ** 2
    if eps == 0.0:
        u = b_amp**2 / (lin * lin + damp2)
        roots = [u]
    else:
        c3 = 0.5625 * eps * eps
        c2 = 1.5 * eps * lin
        c1 = lin * lin + damp2
        c0 = -(b_amp**2)
        raw = np.roots([c3, c2, c1, c0])
        roots = [float(r.real) for r in raw
                 if abs(r.imag) <= 1e-9 * max(1.0, abs(r.real)) and r.real > 0.0]

        def residual(u):
            g = lin + 0.75 * eps * u
            return (g * g + damp2) * u - b_amp**2

        def dresidual(u):
            g = lin + 0.75 * eps * u
            return g * g + damp2 + 1.5 * eps * g * u

        polished = []
        for u in roots:
            du = dresidual(u)
            if du != 0.0:
                u = u - residual(u) / du
            if u > 0.0:
                polished.append(u)
        roots = sorted(set(polished))
    out = []
    for u in roots:
        amp = math.sqrt(u)
        phase = math.atan2(2.0 * xi * s, lin + 0.75 * eps * u)
        out.append((amp, phase))
    return out


def fold_frequencies(cubic: CubicApprox, kappa: float, xi: float,
                     b_amp: float, s_lo: float, s_hi: float,
                     n_scan: int = 2000) -> list[float]:
    """Frequencies where the HBM root count changes (fold points).

    The amplitude relation, a cubic in u = A^2 with no root u <= 0, has
    three positive roots where its discriminant is positive and one where it
    is negative.  Scan points on a fold (discriminant 0) are skipped.
    """
    eps = cubic.epsilon
    c3 = 0.5625 * eps * eps
    c0 = -(b_amp**2)

    def disc(s):
        lin = 1.0 - kappa * s * s
        c2 = 1.5 * eps * lin
        c1 = lin * lin + (2.0 * xi * s) ** 2
        return (18.0 * c3 * c2 * c1 * c0 - 4.0 * c2**3 * c0 + c2 * c2 * c1 * c1
                - 4.0 * c3 * c1**3 - 27.0 * c3 * c3 * c0 * c0)

    scan = [(s, v > 0.0) for s in np.linspace(s_lo, s_hi, n_scan + 1).tolist()
            if (v := disc(s)) != 0.0]
    return [brentq(disc, lo, hi, xtol=1e-15)
            for (lo, three_lo), (hi, three_hi) in zip(scan, scan[1:])
            if three_lo != three_hi]


def backbone(cubic: CubicApprox, kappa: float, a_grid) -> np.ndarray:
    """Backbone samples (a, s_kappa, s_squared_unit).

    ``s_kappa = sqrt((1 + 0.75*eps*a^2) / kappa)`` is consistent with the
    amplitude relationship; ``s_squared_unit = 1 + 0.75*eps*a^2`` is the
    commonly plotted kappa = 1 form.  Entries with negative radicand are
    dropped.
    """
    rows = []
    for a in np.asarray(a_grid, dtype=float):
        if a <= 0.0:
            raise ValueError("backbone amplitudes must be positive")
        val = 1.0 + 0.75 * cubic.epsilon * a * a
        if val < 0.0:
            continue
        rows.append((a, math.sqrt(val / kappa), val))
    return np.asarray(rows, dtype=float).reshape(-1, 3)


def frf_curve(cubic: CubicApprox, kappa: float, xi: float, b_amp: float,
              s_values) -> FrfBranch:
    """Full frequency-response branch data over a frequency grid."""
    s_values = np.asarray(s_values, dtype=float)
    amps, phases = [], []
    for s in s_values:
        pairs = frf_amplitudes(cubic, kappa, xi, b_amp, float(s))
        amps.append(np.asarray([a for a, _ in pairs]))
        phases.append(np.asarray([ph for _, ph in pairs]))
    folds = fold_frequencies(cubic, kappa, xi, b_amp,
                             float(s_values[0]), float(s_values[-1]))
    a_max = max((a.max() for a in amps if a.size), default=1.0)
    bb = backbone(cubic, kappa, np.linspace(1e-3, max(a_max, 1e-2), 200))
    return FrfBranch(s_values, amps, phases, folds, bb)


def _steady_amplitude(f, state, t0, t_drive, spec):
    """Integrate until the per-20-period amplitude settles within 0.1%."""
    amp_prev = None
    settled = 0
    t = t0
    for _ in range(60):          # at most 1200 drive periods
        block_peaks = []
        for _ in range(20):
            traj = integrate_rhs(f, state, replace(spec, t_end=t + t_drive),
                                 t0=t)
            block_peaks.append(0.5 * (traj.states[:, 0].max()
                                      - traj.states[:, 0].min()))
            state = tuple(traj.states[-1])
            t = float(traj.times[-1])
        amp = max(block_peaks)
        if amp_prev is not None and abs(amp - amp_prev) <= 1e-3 * max(amp, 1e-12):
            # one agreeing block can be a slow fly-by of a vanished branch;
            # ask for two in a row before declaring steady state
            settled += 1
            if settled >= 2:
                return amp, state, t
        else:
            settled = 0
        amp_prev = amp
    return amp_prev, state, t


def _cubic_rhs(cubic: CubicApprox, kappa: float, xi: float, b_amp: float,
               s: float, phase0: float = 0.0):
    eps = cubic.epsilon

    def f(t, x, v):
        return v, (-2.0 * xi * v - x - eps * x**3
                   + b_amp * math.sin(s * t + phase0)) / kappa

    return f


def sweep_hysteresis(system, s_lo: float, s_hi: float, n_steps: int,
                     direction_both: bool = True,
                     rel_tol: float = 1e-8) -> SweepResult:
    """Quasi-static frequency sweep with the attractor carried between steps.

    ``system`` is either a full :class:`~clickdyn.model.Params` (swept in
    the ratio s = Omega0 / Omega_n about its interior center) or a tuple
    ``(CubicApprox, kappa, xi, B)`` for the canonical cubic oscillator.
    Jumps are flagged where the amplitude increment exceeds 5x the sweep's
    median increment.
    """
    spec = IntegratorSpec(rel_tol=rel_tol, abs_tol=rel_tol * 1e-2)
    if isinstance(system, Params):
        rhs_for_s, x0 = _full_system_sweep_setup(system)
    else:
        cubic, kappa, xi, b_amp = system

        def rhs_for_s(s, phase0):
            return _cubic_rhs(cubic, kappa, xi, b_amp, s, phase0), s

        x0 = (0.0, 0.0)

    def run(s_values):
        state = x0
        phase0 = 0.0     # drive phase carried continuously across s steps
        amps = []
        for s in s_values:
            f, drive_freq = rhs_for_s(float(s), phase0)
            t_drive = 2.0 * math.pi / drive_freq
            amp, state, elapsed = _steady_amplitude(f, state, 0.0, t_drive,
                                                    spec)
            phase0 = math.fmod(phase0 + drive_freq * elapsed,
                               2.0 * math.pi)
            amps.append(amp)
        return np.asarray(amps)

    s_up = np.linspace(s_lo, s_hi, n_steps)
    up_amps = run(s_up)
    up_jumps = _detect_jumps(s_up, up_amps)
    if direction_both:
        s_down = s_up[::-1]
        down_amps = run(s_down)
        down_jumps = _detect_jumps(s_down, down_amps)
    else:
        s_down = np.empty(0)
        down_amps = np.empty(0)
        down_jumps = []
    return SweepResult(s_up, up_amps, s_down, down_amps, up_jumps, down_jumps)


def _full_system_sweep_setup(p: Params):
    centers = [e for e in equilibria_in_period(p) if e.kind == CENTER]
    if not centers:
        raise ValueError("no center equilibrium to sweep about")
    center = max(centers, key=lambda e: e.theta)
    omega_n = math.sqrt(center.k_local / p.kappa)

    def rhs_for_s(s, phase0):
        drive = s * omega_n
        return scalar_rhs(replace(p, omega_big0=drive, phi=phase0)), drive

    return rhs_for_s, (center.theta, 0.0)


def _detect_jumps(s_values, amps) -> list[float]:
    increments = np.abs(np.diff(amps))
    if increments.size == 0:
        return []
    ref = np.median(increments)
    if ref <= 0.0:
        ref = increments.mean() or 1.0
    jumps = []
    for i, inc in enumerate(increments):
        if inc > 5.0 * ref and inc > 1e-6:
            jumps.append(0.5 * (s_values[i] + s_values[i + 1]))
    return jumps
