"""Time integration, event detection, Poincare sections, Lyapunov estimates.

A self-contained Dormand-Prince 5(4) adaptive integrator specialized to the
planar systems of this package.  Events (zero crossings of the angular
velocity, stroboscopic samples) are located on the accepted steps by cubic
Hermite interpolation refined with a secant iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .model import Params, hamiltonian, potential, scalar_rhs

__all__ = [
    "IntegratorSpec",
    "StepStats",
    "Trajectory",
    "PoincareMap",
    "FreeOscillation",
    "LyapunovEstimate",
    "integrate",
    "integrate_rhs",
    "measure_free_oscillation",
    "poincare_section",
    "largest_lyapunov",
]


@dataclass(frozen=True)
class IntegratorSpec:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    h_init: float = 1e-3
    h_min: float = 1e-12
    h_max: float = 1.0
    t_end: float = 100.0

    def __post_init__(self):
        # h_max may be inf; a NaN h_max fails the ordering below
        for name in ("rel_tol", "abs_tol", "h_min", "h_init", "t_end"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.rel_tol <= 0.0 or self.abs_tol <= 0.0 or self.h_min <= 0.0:
            raise ValueError("tolerances and h_min must be positive")
        if not self.h_min <= self.h_init <= self.h_max:
            raise ValueError("need h_min <= h_init <= h_max")


@dataclass
class StepStats:
    accepted: int = 0
    rejected: int = 0
    h_min_used: float = math.inf
    h_max_used: float = 0.0


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray            # shape (n, 2): columns theta, omega
    step_stats: StepStats
    energy_drift: float | None = None   # max |H(t) - H(0)|, conservative runs
    complete: bool = True         # False after step-size underflow


@dataclass
class PoincareMap:
    omega_big0: float
    points: np.ndarray            # shape (n, 2)
    discard: int


@dataclass
class FreeOscillation:
    amplitude: float
    period: float
    rotating: bool = False


@dataclass
class LyapunovEstimate:
    exponent: float               # mean over the whole horizon
    tail_exponent: float          # mean over the last quartile of segments
    segment_rates: np.ndarray = field(default_factory=lambda: np.empty(0))


class StepUnderflow(RuntimeError):
    """Adaptive step fell below h_min; a partial trajectory is attached."""

    def __init__(self, trajectory):
        super().__init__("step-size underflow")
        self.trajectory = trajectory


def _dp45(f, t0, y0, spec, step_cb=None):
    """Adaptive DP5(4) from t0 to spec.t_end.

    The state is carried as two Python floats: ``y0`` is converted once
    here, so a caller may resume from a row of ``Trajectory.states``
    (``numpy.float64`` scalars) without the whole loop running in the much
    slower numpy-scalar arithmetic.  ``f(t, theta, omega)`` receives floats;
    it should return floats too, or the state turns into numpy scalars
    after the first step.

    ``step_cb(ta, ya, fa, tb, yb, fb) -> bool`` runs on every accepted step;
    returning True stops the integration.  Returns (times, states, stats,
    complete).

    The textbook loop's float operations, in its order, to the bit; its
    ``min``/``max``/``abs`` are comparisons that pick the same operands.
    """
    # Dormand-Prince 5(4) coefficients, folded to constants when compiled
    c2, c3, c4, c5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
    a21 = 1 / 5
    a31, a32 = 3 / 40, 9 / 40
    a41, a42, a43 = 44 / 45, -56 / 15, 32 / 9
    a51, a52, a53, a54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
    a61, a62, a63, a64, a65 = (
        9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656,
    )
    b1, b3, b4, b5, b6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
    e1, e3, e4, e5, e6, e7 = (
        35 / 384 - 5179 / 57600,
        500 / 1113 - 7571 / 16695,
        125 / 192 - 393 / 640,
        -2187 / 6784 + 92097 / 339200,
        11 / 84 - 187 / 2100,
        -1 / 40,
    )
    sqrt = math.sqrt
    t = t0
    th, om = float(y0[0]), float(y0[1])
    k1t, k1o = f(t, th, om)
    abs_tol, rel_tol = spec.abs_tol, spec.rel_tol
    h_min, h_max, t_end = spec.h_min, spec.h_max, spec.t_end
    h = spec.h_init
    accepted = rejected = 0
    h_lo, h_hi = math.inf, 0.0
    times = [t]
    thetas = [th]
    omegas = [om]
    append_t, append_th = times.append, thetas.append
    append_om = omegas.append
    while t < t_end:
        rest = t_end - t
        if rest < h:
            h = rest
        ha = h * a21
        k2t, k2o = f(t + c2 * h, th + ha * k1t, om + ha * k1o)
        k3t, k3o = f(t + c3 * h,
                     th + h * (a31 * k1t + a32 * k2t),
                     om + h * (a31 * k1o + a32 * k2o))
        k4t, k4o = f(t + c4 * h,
                     th + h * (a41 * k1t + a42 * k2t + a43 * k3t),
                     om + h * (a41 * k1o + a42 * k2o + a43 * k3o))
        k5t, k5o = f(t + c5 * h,
                     th + h * (a51 * k1t + a52 * k2t + a53 * k3t + a54 * k4t),
                     om + h * (a51 * k1o + a52 * k2o + a53 * k3o + a54 * k4o))
        k6t, k6o = f(t + h,
                     th + h * (a61 * k1t + a62 * k2t + a63 * k3t + a64 * k4t
                               + a65 * k5t),
                     om + h * (a61 * k1o + a62 * k2o + a63 * k3o + a64 * k4o
                               + a65 * k5o))
        th_new = th + h * (b1 * k1t + b3 * k3t + b4 * k4t + b5 * k5t
                           + b6 * k6t)
        om_new = om + h * (b1 * k1o + b3 * k3o + b4 * k4o + b5 * k5o
                           + b6 * k6o)
        k7t, k7o = f(t + h, th_new, om_new)
        et = h * (e1 * k1t + e3 * k3t + e4 * k4t + e5 * k5t + e6 * k6t
                  + e7 * k7t)
        eo = h * (e1 * k1o + e3 * k3o + e4 * k4o + e5 * k5o + e6 * k6o
                  + e7 * k7o)
        # max(|y|, |y_new|) but for the sign of a zero or NaN, unseen here
        y_old = th if th >= 0.0 else -th
        y_new = th_new if th_new >= 0.0 else -th_new
        sc_t = abs_tol + rel_tol * (y_new if y_new > y_old else y_old)
        y_old = om if om >= 0.0 else -om
        y_new = om_new if om_new >= 0.0 else -om_new
        sc_o = abs_tol + rel_tol * (y_new if y_new > y_old else y_old)
        err = sqrt(0.5 * ((et / sc_t) ** 2 + (eo / sc_o) ** 2))
        if err <= 1.0:
            accepted += 1
            if h < h_lo:
                h_lo = h
            if h > h_hi:
                h_hi = h
            stop = False
            if step_cb is not None:
                stop = bool(step_cb(t, (th, om), (k1t, k1o), t + h,
                                    (th_new, om_new), (k7t, k7o)))
            t += h
            th, om = th_new, om_new
            k1t, k1o = k7t, k7o
            append_t(t)
            append_th(th)
            append_om(om)
            if stop:
                break
            # err <= 1: factor >= 0.9, only the cap of 5 can apply
            factor = 0.9 * err ** -0.2 if err != 0.0 else 5.0
            h_next = h * (factor if factor < 5.0 else 5.0)
        else:
            rejected += 1
            # err > 1: factor < 0.9, only the floor of 0.2 can apply; a NaN
            # error (the trial step overflowed) takes the floor too
            factor = 0.9 * err ** -0.2
            h_next = h * (factor if factor > 0.2 else 0.2)
            if h_next < h_min:
                stats = StepStats(accepted, rejected, h_lo, h_hi)
                raise StepUnderflow(_pack(times, thetas, omegas, stats,
                                          complete=False))
        h = h_min if h_min > h_next else h_next
        if h_max < h:
            h = h_max
    stats = StepStats(accepted, rejected, h_lo, h_hi)
    return times, thetas, omegas, stats, True


def _pack(times, thetas, omegas, stats, complete=True):
    return Trajectory(
        times=np.asarray(times),
        states=np.column_stack([thetas, omegas]),
        step_stats=stats,
        complete=complete,
    )


def _hermite(ya, fa, yb, fb, h, s):
    """Cubic Hermite value at fraction s of a step of width h."""
    d = yb - ya
    return (
        (1.0 - s) * ya + s * yb
        + s * (1.0 - s) * ((1.0 - s) * (h * fa - d) + s * (d - h * fb))
    )


def _refine_crossing(ta, ya, fa, tb, yb, fb, comp, target=0.0, tol=1e-10):
    """Time of g(t) = y[comp](t) - target = 0 inside an accepted step."""
    h = tb - ta

    def g(s):
        return _hermite(ya[comp], fa[comp], yb[comp], fb[comp], h, s) - target

    s0, s1 = 0.0, 1.0
    g0, g1 = g(s0), g(s1)
    for _ in range(80):
        if g1 == g0:
            break
        s2 = s1 - g1 * (s1 - s0) / (g1 - g0)
        s2 = min(1.0, max(0.0, s2))
        if abs(s2 - s1) * h < tol:
            s1 = s2
            break
        s0, g0 = s1, g1
        s1, g1 = s2, g(s2)
    t_cross = ta + s1 * h
    theta = _hermite(ya[0], fa[0], yb[0], fb[0], h, s1)
    omega = _hermite(ya[1], fa[1], yb[1], fb[1], h, s1)
    return t_cross, theta, omega


def integrate_rhs(f, state0, spec: IntegratorSpec, t0: float = 0.0,
                  step_cb=None) -> Trajectory:
    """Integrate a generic planar rhs ``f(t, theta, omega) -> (dth, dom)``."""
    times, thetas, omegas, stats, complete = _dp45(f, t0, state0, spec,
                                                   step_cb)
    return _pack(times, thetas, omegas, stats, complete)


def integrate(p: Params, state0, spec: IntegratorSpec | None = None) -> Trajectory:
    """Integrate the full system; reports energy drift on conservative runs."""
    spec = spec or IntegratorSpec()
    traj = integrate_rhs(scalar_rhs(p), state0, spec)
    if p.xi == 0.0 and p.m_big0 == 0.0:
        h0 = hamiltonian(p, traj.states[0])
        energies = (0.5 * p.kappa * traj.states[:, 1] ** 2
                    + potential(p, traj.states[:, 0]))
        traj.energy_drift = float(np.max(np.abs(energies - h0)))
    return traj


def measure_free_oscillation(p: Params, state0, t_max: float = 500.0,
                             spec: IntegratorSpec | None = None) -> FreeOscillation:
    """Amplitude and period of a conservative free oscillation.

    The period is taken between successive same-direction zero crossings of
    the angular velocity; the amplitude is half the spread of the turning
    angles.  A non-closed (rotating) orbit is measured by the time for the
    angle to advance by 2*pi and flagged.
    """
    if p.xi != 0.0 or p.m_big0 != 0.0:
        raise ValueError("free oscillation requires xi = 0 and M0 = 0")
    spec = replace(spec or IntegratorSpec(rel_tol=1e-11, abs_tol=1e-13),
                   t_end=t_max)
    f = scalar_rhs(p)
    crossings: list[tuple[float, float, int]] = []   # (time, theta, direction)
    theta0 = state0[0]
    wrap: list[tuple[float, float]] = []             # rotation: 2*pi advance

    def cb(ta, ya, fa, tb, yb, fb):
        if ya[1] == 0.0 and ta == 0.0:
            crossings.append((0.0, ya[0], 1 if fb[1] > 0 else -1))
        if ya[1] * yb[1] < 0.0:
            t_c, th_c, _ = _refine_crossing(ta, ya, fa, tb, yb, fb, comp=1)
            crossings.append((t_c, th_c, 1 if yb[1] > ya[1] else -1))
            if len(crossings) >= 4:
                return True
        for sign in (1.0, -1.0):
            target = theta0 + sign * 2.0 * math.pi
            if (ya[0] - target) * (yb[0] - target) < 0.0:
                t_c, _, om_c = _refine_crossing(ta, ya, fa, tb, yb, fb,
                                                comp=0, target=target)
                wrap.append((t_c, om_c))
                return True
        return False

    integrate_rhs(f, state0, spec, step_cb=cb)
    if len(crossings) >= 3:
        # same-direction crossings are two apart
        t1, th1, _ = crossings[0]
        t2, th2, _ = crossings[1]
        t3, _, _ = crossings[2]
        period = t3 - t1
        amplitude = 0.5 * abs(th2 - th1)
        return FreeOscillation(amplitude, period, rotating=False)
    if wrap:
        return FreeOscillation(math.pi, wrap[0][0], rotating=True)
    raise ValueError("no oscillation detected within t_max")


def poincare_section(p: Params, state0, n_points: int,
                     discard: int = 200,
                     spec: IntegratorSpec | None = None) -> PoincareMap:
    """Stroboscopic samples at the drive period, after a transient discard."""
    if p.m_big0 <= 0.0 or p.omega_big0 <= 0.0:
        raise ValueError("Poincare section requires M0 > 0 and Omega0 > 0")
    if discard < 0:
        raise ValueError("discard must be nonnegative")
    base = spec or IntegratorSpec(rel_tol=1e-9, abs_tol=1e-11)
    f = scalar_rhs(p)
    t_drive = 2.0 * math.pi / p.omega_big0
    state = tuple(state0)
    t = 0.0
    points = []
    for n in range(discard + n_points):
        traj = integrate_rhs(f, state, replace(base, t_end=t + t_drive), t0=t)
        state = tuple(traj.states[-1])
        t = float(traj.times[-1])
        if n >= discard:
            points.append(state)
    return PoincareMap(p.omega_big0, np.asarray(points), discard)


def largest_lyapunov(p: Params, state0, horizon: float = 2000.0,
                     renorm_interval: float = 5.0,
                     separation: float = 1e-8,
                     spec: IntegratorSpec | None = None) -> LyapunovEstimate:
    """Benettin two-trajectory estimate of the largest Lyapunov exponent.

    On divergence overflow the renormalization interval is halved and the
    run restarted, at most three times.
    """
    base = spec or IntegratorSpec(rel_tol=1e-9, abs_tol=1e-11)
    f = scalar_rhs(p)
    interval = renorm_interval
    for attempt in range(4):
        try:
            return _benettin(f, state0, horizon, interval, separation, base)
        except OverflowError:
            interval *= 0.5
    raise RuntimeError("Lyapunov estimate failed after 3 retries")


def _benettin(f, state0, horizon, interval, d0, base):
    n_seg = max(4, int(round(horizon / interval)))
    ya = tuple(state0)
    yb = (state0[0] + d0, state0[1])
    t = 0.0
    rates = []
    for _ in range(n_seg):
        seg = replace(base, t_end=t + interval)
        ya = tuple(integrate_rhs(f, ya, seg, t0=t).states[-1])
        yb = tuple(integrate_rhs(f, yb, seg, t0=t).states[-1])
        t += interval
        dth = yb[0] - ya[0]
        dom = yb[1] - ya[1]
        dist = math.hypot(dth, dom)
        if not math.isfinite(dist) or dist == 0.0:
            raise OverflowError("separation overflow or collapse")
        rates.append(math.log(dist / d0) / interval)
        scale = d0 / dist
        yb = (ya[0] + dth * scale, ya[1] + dom * scale)
    rates = np.asarray(rates)
    n_tail = max(1, len(rates) // 4)
    return LyapunovEstimate(
        exponent=float(rates.mean()),
        tail_exponent=float(rates[-n_tail:].mean()),
        segment_rates=rates,
    )
