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
from .integrate import (IntegratorSpec, StepUnderflow, _refine_crossing,
                        integrate_rhs)
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
    up_unsettled: list[float]      # s where no stable period-1 orbit was
    down_unsettled: list[float]    # found within the transient cap


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


# Newton shooting on the period map: at most _NEWTON_ITER iterates per
# attempt, a transient of _BLOCK periods between attempts, and at most about
# _MAX_PERIODS periods integrated per sweep point, shots included.
_NEWTON_ITER = 8
_BLOCK = 20
_MAX_PERIODS = 1200


def _period(f, x, one_period):
    """The period map P(x)."""
    return tuple(integrate_rhs(f, x, one_period).states[-1].tolist())


def _monodromy(period, x, px, delta):
    """Finite-difference Jacobian of P at x, row-major (a, b, c, d)."""
    pt = period((x[0] + delta, x[1]))
    po = period((x[0], x[1] + delta))
    return ((pt[0] - px[0]) / delta, (po[0] - px[0]) / delta,
            (pt[1] - px[1]) / delta, (po[1] - px[1]) / delta)


def _stable(m):
    """Both eigenvalues of the 2x2 matrix m inside the unit circle (Jury)."""
    det = m[0] * m[3] - m[1] * m[2]
    return abs(det) < 1.0 and abs(m[0] + m[3]) < 1.0 + det


def _shoot(period, x, px, rel_tol):
    """A point x* of the stable period-1 orbit near x, or None.

    Newton on P(x) = x from x and ``px = period(x)``, with a
    finite-difference monodromy; the tolerance and the difference step
    scale with the integrator's rel_tol.  An attempt is abandoned as
    soon as the residual fails to halve.  A converged orbit is accepted
    only if its Floquet multipliers (the eigenvalues of the monodromy at
    the last iterate) lie inside the unit circle, which rejects the
    unstable middle branch.
    """
    m = None
    res_prev = math.inf
    try:
        for _ in range(_NEWTON_ITER):
            scale = 1.0 + math.hypot(x[0], x[1])
            rt, ro = px[0] - x[0], px[1] - x[1]
            res = math.hypot(rt, ro)
            if res <= rel_tol * scale:
                if m is None:
                    m = _monodromy(period, x, px, math.sqrt(rel_tol) * scale)
                return x if _stable(m) else None
            if not res <= 0.5 * res_prev:
                return None
            res_prev = res
            m = _monodromy(period, x, px, math.sqrt(rel_tol) * scale)
            a, b, c, d = m[0] - 1.0, m[1], m[2], m[3] - 1.0
            det = a * d - b * c
            if det == 0.0:
                return None
            x = (x[0] - (d * rt - b * ro) / det,
                 x[1] - (a * ro - c * rt) / det)
            px = period(x)
    except (ArithmeticError, StepUnderflow):
        pass    # a Newton step far off the attractor escaped to infinity
    return None


def _orbit_amplitude(f, x, one_period):
    """Half the spread of theta over one period from x.

    The extremes are the turning points (zeros of omega), located on the
    dense output of the steps that hold them, so they do not depend on
    where the steps land.
    """
    turns = []

    def cb(ta, ya, tb, yb, dense):
        if ya[1] * yb[1] < 0.0:
            turns.append(_refine_crossing(dense, comp=1)[1])

    traj = integrate_rhs(f, x, one_period, step_cb=cb)
    thetas = traj.states[:, 0].tolist() + turns
    return 0.5 * (max(thetas) - min(thetas))


def _steady_amplitude(f, state, t_drive, spec):
    """Amplitude and state of the stable period-1 orbit reached from state.

    Shoots from the carried state; when that fails (past a fold the carried
    branch has vanished) it integrates a transient of _BLOCK periods and
    shoots again, until _MAX_PERIODS periods are spent.  Returns
    ``(amplitude, state, settled)``; ``settled`` is False when no stable
    orbit was found within the cap.
    """
    one_period = replace(spec, t_end=t_drive)
    spent = 0

    def period(x):
        nonlocal spent
        spent += 1
        return _period(f, x, one_period)

    px = period(state)
    while spent < _MAX_PERIODS:
        x = _shoot(period, state, px, spec.rel_tol)
        if x is not None:
            return _orbit_amplitude(f, x, one_period), x, True
        for _ in range(_BLOCK):
            state = px
            px = period(state)
    return _orbit_amplitude(f, state, one_period), px, False


def _cubic_rhs(cubic: CubicApprox, kappa: float, xi: float, b_amp: float,
               s: float):
    eps = cubic.epsilon
    neg_two_xi, sin = -2.0 * xi, math.sin

    def f(t, x, v):
        return v, (neg_two_xi * v - x - eps * x**3
                   + b_amp * sin(s * t)) / kappa

    return f


def sweep_hysteresis(system, s_lo: float, s_hi: float, n_steps: int,
                     direction_both: bool = True,
                     rel_tol: float = 1e-8) -> SweepResult:
    """Quasi-static frequency sweep with the attractor carried between steps.

    ``system`` is either a full :class:`~clickdyn.model.Params` (swept in
    the ratio s = Omega0 / Omega_n about its interior center) or a tuple
    ``(CubicApprox, kappa, xi, B)`` for the canonical cubic oscillator.
    The response at each s is the stable period-1 orbit found by Newton
    shooting from the previous one, with a transient fallback past a fold
    (:func:`_steady_amplitude`); its amplitude is half the spread of the
    refined turning angles.  Points where no stable orbit was found within
    the transient cap are listed in ``up_unsettled``/``down_unsettled``.
    Jumps are flagged where the amplitude increment between settled points
    exceeds 5x the sweep's median increment.
    """
    spec = IntegratorSpec(rel_tol=rel_tol, abs_tol=rel_tol * 1e-2)
    if isinstance(system, Params):
        rhs_for_s, x0 = _full_system_sweep_setup(system)
    else:
        cubic, kappa, xi, b_amp = system

        def rhs_for_s(s):
            return _cubic_rhs(cubic, kappa, xi, b_amp, s), s

        x0 = (0.0, 0.0)

    def run(s_values):
        # every s starts its drive at t = 0, in the state the last one ended
        state = x0
        amps, unsettled = [], []
        for s in s_values.tolist():
            f, drive_freq = rhs_for_s(s)
            amp, state, settled = _steady_amplitude(
                f, state, 2.0 * math.pi / drive_freq, spec)
            amps.append(amp)
            if not settled:
                unsettled.append(s)
        return np.asarray(amps), unsettled

    s_up = np.linspace(s_lo, s_hi, n_steps)
    up_amps, up_unsettled = run(s_up)
    s_down = s_up[::-1] if direction_both else np.empty(0)
    down_amps, down_unsettled = run(s_down)
    return SweepResult(s_up, up_amps, s_down, down_amps,
                       _detect_jumps(s_up, up_amps, up_unsettled),
                       _detect_jumps(s_down, down_amps, down_unsettled),
                       up_unsettled, down_unsettled)


def _full_system_sweep_setup(p: Params):
    centers = [e for e in equilibria_in_period(p) if e.kind == CENTER]
    if not centers:
        raise ValueError("no center equilibrium to sweep about")
    center = max(centers, key=lambda e: e.theta)
    omega_n = math.sqrt(center.k_local / p.kappa)

    def rhs_for_s(s):
        drive = s * omega_n
        return scalar_rhs(replace(p, omega_big0=drive)), drive

    return rhs_for_s, (center.theta, 0.0)


def _detect_jumps(s_values, amps, unsettled) -> list[float]:
    """Midpoints of the amplitude jumps of a sweep.

    An unsettled point holds no steady amplitude, so increments are taken
    between consecutive settled points; a jump is one above 5x their
    median (and 1e-6), placed midway between its two settled points.
    """
    settled = ~np.isin(s_values, unsettled)
    s_values, amps = s_values[settled], amps[settled]
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
