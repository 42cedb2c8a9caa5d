"""Time integration, event detection, Poincare sections, Lyapunov estimates.

One adaptive step loop for the planar systems of this package: the
Dormand-Prince 8(5,3) pair DOP853 (Hairer, Norsett & Wanner, Solving ODEs I,
Secs. II.5-II.6), with the state in two Python floats and scipy's step
controller, so ``scipy.integrate.solve_ivp(method="DOP853")`` takes as many
steps, of the same sizes up to rounding.  Events (zero crossings of the
angular velocity, of an angle) are located inside an accepted step on the
pair's 7th-order dense output, built only for the steps a callback asks it
of, by Brent's method.  A Lyapunov tangent is carried by the derivatives of
the loop's steps, taken in array passes over the stage states it records.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from operator import mul

import numpy as np
from scipy.optimize import brentq

from .model import (InputError, Params, _jacobian_field, hamiltonian,
                    potential, scalar_rhs)

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


# Step bounds of every run.  A rejected step below _H_MIN raises
# StepUnderflow; _H_MAX caps the steps of an orbit that settles in a well,
# which would otherwise grow tenfold per step.
_H_MIN = 1e-12
_H_MAX = 1.0

# The longest time any run integrates: 10**6 Lyapunov intervals of the
# default length 5, and then some.  A run past it would not end in any
# useful time, so it is refused before the first step.
_T_MAX = 1e7

# The DOP853 tableau (Hairer, Norsett & Wanner, Solving ODEs I, Sec. II.5,
# stages counted from 0 as in scipy's ``dop853_coefficients``), read by the
# step loop into local names: the nodes c1-c10, the rows 1-11 of A without
# their zeros, the 8th-order weights (row 12) over the stages 0 and 5-11,
# the 5th-order error row over the same stages, and the 3rd-order error
# row's entries at stages 0, 8 and 11 (elsewhere it equals the weights).
_NODES = (0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
          0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
          0.6512820512820513, 0.6, 0.8571428571428571)
_ROWS = (
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.08876275643042054),
    (0.2413651341592667, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (0.03709200011850479, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996),
    (0.47766253643826434, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486,
     -0.020331201708508627),
    (-0.9371424300859873, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505,
     2.4936055526796523, -3.0467644718982196),
    (2.273310147516538, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235,
     -8.87285693353063, 12.360567175794303, 0.6433927460157636),
)
_WEIGHTS = (0.054293734116568765, 4.450312892752409, 1.8915178993145003,
            -5.801203960010585, 0.3111643669578199, -0.1521609496625161,
            0.20136540080403034, 0.04471061572777259)
_ERR5 = (0.01312004499419488, -1.2251564463762044, -0.4957589496572502,
         1.6643771824549864, -0.35032884874997366, 0.3341791187130175,
         0.08192320648511571, -0.022355307863886294)
_ERR3 = (-0.18980075407240762, -0.4226823213237919, 0.02265179219836082)
# The stages that each row of _ROWS, and then _WEIGHTS, runs over.
_COLUMNS = ((0,), (0, 1), (0, 2), (0, 2, 3),
            *((0, *range(3, i)) for i in range(5, 12)), (0, *range(5, 12)))
# The continuous extension of order 7 (Sec. II.6): the nodes and rows of
# the three extra stages 13-15, each row over the stages 0, 5-12 and the
# extra ones before it, and the rows of the coefficients 3-6 of the
# polynomial, over the stages 0, 5-15, in that order.
_EXTRA = (
    (0.1, (0.056167502283047954, 0.0, 0.25350021021662483,
           -0.2462390374708025, -0.12419142326381637, 0.15329179827876568,
           0.00820105229563469, 0.007567897660545699, -0.008298)),
    (0.2, (0.03183464816350214, 0.028300909672366776, 0.053541988307438566,
           -0.05492374857139099, 0.0, 0.0, -0.00010834732869724932,
           0.0003825710908356584, -0.00034046500868740456,
           0.1413124436746325)),
    (0.7777777777777778, (
        -0.42889630158379194, -4.697621415361164, 7.683421196062599,
        4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0,
        -0.0013990241651590145, 2.9475147891527724, -9.15095847217987)),
)
_D_ROWS = (
    (-8.428938276109013, 0.5667149535193777, -3.0689499459498917,
     2.38466765651207, 2.117034582445028, -0.871391583777973,
     2.2404374302607883, 0.6315787787694688, -0.08899033645133331,
     18.148505520854727, -9.194632392478356, -4.436036387594894),
    (10.427508642579134, 242.28349177525817, 165.20045171727028,
     -374.5467547226902, -22.113666853125306, 7.733432668472264,
     -30.674084731089398, -9.332130526430229, 15.697238121770845,
     -31.139403219565178, -9.35292435884448, 35.81684148639408),
    (19.985053242002433, -387.0373087493518, -189.17813819516758,
     527.8081592054236, -11.57390253995963, 6.8812326946963,
     -1.0006050966910838, 0.7777137798053443, -2.778205752353508,
     -60.19669523126412, 84.32040550667716, 11.99229113618279),
    (-25.69393346270375, -154.18974869023643, -231.5293791760455,
     357.6391179106141, 93.40532418362432, -37.45832313645163,
     104.0996495089623, 29.8402934266605, -43.53345659001114,
     96.32455395918828, -39.17726167561544, -149.72683625798564),
)


@dataclass(frozen=True)
class IntegratorSpec:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    h_init: float = 1e-3
    t_end: float = 100.0

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol", "h_init", "t_end"):
            if not math.isfinite(getattr(self, name)):
                raise InputError(f"{name} must be finite")
        if self.rel_tol <= 0.0 or self.abs_tol <= 0.0:
            raise InputError("tolerances must be positive")
        if not _H_MIN <= self.h_init <= _H_MAX:
            raise InputError(f"need {_H_MIN:g} <= h_init <= {_H_MAX:g}")
        if self.t_end > _T_MAX:
            raise InputError(f"need t_end <= {_T_MAX:g}, got {self.t_end!r}")


@dataclass
class StepStats:
    accepted: int = 0
    rejected: int = 0


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray            # shape (n, 2): columns theta, omega
    step_stats: StepStats
    energy_drift: float | None = None   # max |H(t) - H(0)|, conservative runs


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
    """Benettin estimate; ``stderr`` = std(segment_rates, ddof=1)/sqrt(n),
    the standard error of ``exponent`` if the segments are independent."""
    exponent: float               # mean over the whole horizon
    tail_exponent: float          # mean over the last quartile of segments
    stderr: float                 # standard error of exponent
    segment_rates: np.ndarray = field(default_factory=lambda: np.empty(0))


class StepUnderflow(RuntimeError):
    """Adaptive step fell below 1e-12; a partial trajectory is attached."""

    def __init__(self, trajectory):
        super().__init__("step-size underflow")
        self.trajectory = trajectory


def _dop853(f, t0, y0, spec, step_cb=None, stages=None):
    """Adaptive DOP853 from t0 to spec.t_end.

    The state is carried as two Python floats: ``y0`` is converted once
    here, so a caller may resume from a row of ``Trajectory.states``
    (``numpy.float64`` scalars) without the whole loop running in the much
    slower numpy-scalar arithmetic.  ``f(t, theta, omega)`` receives floats;
    it should return floats too, or the state turns into numpy scalars
    after the first step.

    ``step_cb(ta, ya, tb, yb, dense) -> bool`` runs on every accepted step,
    with ``dense`` the step's :class:`_DenseStep`; returning True stops the
    integration.  Returns (times, thetas, omegas, stats, h_next), with
    ``h_next`` the last proposed step before it was clipped to land on
    ``t_end``; a rejected step below ``_H_MIN`` (1e-12) raises
    :class:`StepUnderflow`.  A list ``stages`` gets, per accepted step,
    (h, theta, omega, theta_new, omega_new) and the states Y1-Y11 that
    ``f`` received at the stages 1-11, as theta, omega pairs: the record
    :func:`_step_jacobians` takes.

    Stage j of the tableau (counted from 0, see ``_NODES``) is ``kj``, at
    the state ``yj``; ``ai_j`` is its row i, column j.  The controller is scipy's:
    the error norm mixes the 5th- and 3rd-order estimates, the step factor
    0.9 * err**(-1/8) is clipped to [0.2, 10], and a step accepted after a
    rejection does not grow.
    """
    c1, c2, c3, c4, c5, c6, c7, c8, c9, c10 = _NODES
    ((a1_0,), (a2_0, a2_1), (a3_0, a3_2), (a4_0, a4_2, a4_3),
     (a5_0, a5_3, a5_4), (a6_0, a6_3, a6_4, a6_5),
     (a7_0, a7_3, a7_4, a7_5, a7_6), (a8_0, a8_3, a8_4, a8_5, a8_6, a8_7),
     (a9_0, a9_3, a9_4, a9_5, a9_6, a9_7, a9_8),
     (a10_0, a10_3, a10_4, a10_5, a10_6, a10_7, a10_8, a10_9),
     (a11_0, a11_3, a11_4, a11_5, a11_6, a11_7, a11_8, a11_9,
      a11_10)) = _ROWS
    b0, b5, b6, b7, b8, b9, b10, b11 = _WEIGHTS
    e5_0, e5_5, e5_6, e5_7, e5_8, e5_9, e5_10, e5_11 = _ERR5
    e3_0, e3_8, e3_11 = _ERR3
    sqrt = math.sqrt
    t = t0
    th, om = float(y0[0]), float(y0[1])
    k0t, k0o = f(t, th, om)
    abs_tol, rel_tol, t_end = spec.abs_tol, spec.rel_tol, spec.t_end
    h_min, h_max = _H_MIN, _H_MAX
    h = h_next = spec.h_init
    accepted = rejected = 0
    after_reject = False
    times = [t]
    thetas = [th]
    omegas = [om]
    append_t, append_th = times.append, thetas.append
    append_om = omegas.append
    while t < t_end:
        t_new = t + h
        h_next = h
        if t_new > t_end:
            t_new = t_end
            h = t_new - t
        y1t = th + h * a1_0 * k0t
        y1o = om + h * a1_0 * k0o
        k1t, k1o = f(t + c1 * h, y1t, y1o)
        y2t = th + h * (a2_0 * k0t + a2_1 * k1t)
        y2o = om + h * (a2_0 * k0o + a2_1 * k1o)
        k2t, k2o = f(t + c2 * h, y2t, y2o)
        y3t = th + h * (a3_0 * k0t + a3_2 * k2t)
        y3o = om + h * (a3_0 * k0o + a3_2 * k2o)
        k3t, k3o = f(t + c3 * h, y3t, y3o)
        y4t = th + h * (a4_0 * k0t + a4_2 * k2t + a4_3 * k3t)
        y4o = om + h * (a4_0 * k0o + a4_2 * k2o + a4_3 * k3o)
        k4t, k4o = f(t + c4 * h, y4t, y4o)
        y5t = th + h * (a5_0 * k0t + a5_3 * k3t + a5_4 * k4t)
        y5o = om + h * (a5_0 * k0o + a5_3 * k3o + a5_4 * k4o)
        k5t, k5o = f(t + c5 * h, y5t, y5o)
        y6t = th + h * (a6_0 * k0t + a6_3 * k3t + a6_4 * k4t + a6_5 * k5t)
        y6o = om + h * (a6_0 * k0o + a6_3 * k3o + a6_4 * k4o + a6_5 * k5o)
        k6t, k6o = f(t + c6 * h, y6t, y6o)
        y7t = th + h * (a7_0 * k0t + a7_3 * k3t + a7_4 * k4t + a7_5 * k5t
                        + a7_6 * k6t)
        y7o = om + h * (a7_0 * k0o + a7_3 * k3o + a7_4 * k4o + a7_5 * k5o
                        + a7_6 * k6o)
        k7t, k7o = f(t + c7 * h, y7t, y7o)
        y8t = th + h * (a8_0 * k0t + a8_3 * k3t + a8_4 * k4t + a8_5 * k5t
                        + a8_6 * k6t + a8_7 * k7t)
        y8o = om + h * (a8_0 * k0o + a8_3 * k3o + a8_4 * k4o + a8_5 * k5o
                        + a8_6 * k6o + a8_7 * k7o)
        k8t, k8o = f(t + c8 * h, y8t, y8o)
        y9t = th + h * (a9_0 * k0t + a9_3 * k3t + a9_4 * k4t + a9_5 * k5t
                        + a9_6 * k6t + a9_7 * k7t + a9_8 * k8t)
        y9o = om + h * (a9_0 * k0o + a9_3 * k3o + a9_4 * k4o + a9_5 * k5o
                        + a9_6 * k6o + a9_7 * k7o + a9_8 * k8o)
        k9t, k9o = f(t + c9 * h, y9t, y9o)
        y10t = th + h * (a10_0 * k0t + a10_3 * k3t + a10_4 * k4t
                         + a10_5 * k5t + a10_6 * k6t + a10_7 * k7t
                         + a10_8 * k8t + a10_9 * k9t)
        y10o = om + h * (a10_0 * k0o + a10_3 * k3o + a10_4 * k4o
                         + a10_5 * k5o + a10_6 * k6o + a10_7 * k7o
                         + a10_8 * k8o + a10_9 * k9o)
        k10t, k10o = f(t + c10 * h, y10t, y10o)
        y11t = th + h * (a11_0 * k0t + a11_3 * k3t + a11_4 * k4t
                         + a11_5 * k5t + a11_6 * k6t + a11_7 * k7t
                         + a11_8 * k8t + a11_9 * k9t + a11_10 * k10t)
        y11o = om + h * (a11_0 * k0o + a11_3 * k3o + a11_4 * k4o
                         + a11_5 * k5o + a11_6 * k6o + a11_7 * k7o
                         + a11_8 * k8o + a11_9 * k9o + a11_10 * k10o)
        k11t, k11o = f(t + h, y11t, y11o)
        th_new = th + h * (b0 * k0t + b5 * k5t + b6 * k6t + b7 * k7t
                           + b8 * k8t + b9 * k9t + b10 * k10t + b11 * k11t)
        om_new = om + h * (b0 * k0o + b5 * k5o + b6 * k6o + b7 * k7o
                           + b8 * k8o + b9 * k9o + b10 * k10o + b11 * k11o)
        # max(|y|, |y_new|) but for the sign of a zero or NaN, unseen here
        y_old = th if th >= 0.0 else -th
        y_new = th_new if th_new >= 0.0 else -th_new
        sc_t = abs_tol + rel_tol * (y_new if y_new > y_old else y_old)
        y_old = om if om >= 0.0 else -om
        y_new = om_new if om_new >= 0.0 else -om_new
        sc_o = abs_tol + rel_tol * (y_new if y_new > y_old else y_old)
        e5t = (e5_0 * k0t + e5_5 * k5t + e5_6 * k6t + e5_7 * k7t + e5_8 * k8t
               + e5_9 * k9t + e5_10 * k10t + e5_11 * k11t) / sc_t
        e5o = (e5_0 * k0o + e5_5 * k5o + e5_6 * k6o + e5_7 * k7o + e5_8 * k8o
               + e5_9 * k9o + e5_10 * k10o + e5_11 * k11o) / sc_o
        e3t = (e3_0 * k0t + b5 * k5t + b6 * k6t + b7 * k7t + e3_8 * k8t
               + b9 * k9t + b10 * k10t + e3_11 * k11t) / sc_t
        e3o = (e3_0 * k0o + b5 * k5o + b6 * k6o + b7 * k7o + e3_8 * k8o
               + b9 * k9o + b10 * k10o + e3_11 * k11o) / sc_o
        n5 = e5t * e5t + e5o * e5o
        n3 = e3t * e3t + e3o * e3o
        # n5 = 0 makes the error 0 whatever n3 is; with n3 tiny too (the
        # stages of a settled orbit underflow) the norm's sqrt would be 0
        err = h * n5 / sqrt(2.0 * (n5 + 0.01 * n3)) if n5 else 0.0
        if err < 1.0:
            k12t, k12o = f(t + h, th_new, om_new)
            accepted += 1
            stop = False
            if stages is not None:
                stages.append((h, th, om, th_new, om_new, y1t, y1o, y2t, y2o,
                               y3t, y3o, y4t, y4o, y5t, y5o, y6t, y6o, y7t,
                               y7o, y8t, y8o, y9t, y9o, y10t, y10o, y11t,
                               y11o))
            if step_cb is not None:
                ya, yb = (th, om), (th_new, om_new)
                stop = bool(step_cb(t, ya, t_new, yb, _DenseStep(
                    f, t, h, t_new, ya, yb,
                    (k0t, k0o, k5t, k5o, k6t, k6o, k7t, k7o, k8t, k8o, k9t,
                     k9o, k10t, k10o, k11t, k11o, k12t, k12o))))
            t = t_new
            th, om = th_new, om_new
            k0t, k0o = k12t, k12o
            append_t(t)
            append_th(th)
            append_om(om)
            if stop:
                break
            # err < 1: factor > 0.9, only the cap of 10 can apply
            factor = 0.9 * err ** -0.125 if err != 0.0 else 10.0
            if after_reject:
                factor = 1.0 if factor > 1.0 else factor
                after_reject = False
            h = h * (factor if factor < 10.0 else 10.0)
            if h < h_min:
                h = h_min
        else:
            rejected += 1
            after_reject = True
            # err >= 1: factor <= 0.9, only the floor of 0.2 can apply; a NaN
            # error (the trial step overflowed) takes the floor too
            factor = 0.9 * err ** -0.125
            h = h * (factor if factor > 0.2 else 0.2)
            if h < h_min:
                raise StepUnderflow(_pack(times, thetas, omegas,
                                          StepStats(accepted, rejected)))
        if h_max < h:
            h = h_max
    return times, thetas, omegas, StepStats(accepted, rejected), h_next


def _pack(times, thetas, omegas, stats):
    return Trajectory(
        times=np.asarray(times),
        states=np.column_stack([thetas, omegas]),
        step_stats=stats,
    )


def _dot(coeffs, values):
    return sum(map(mul, coeffs, values))


def _extension(f, ta, h, ya, yb, k):
    """Coefficients of DOP853's continuous extension of a step.

    The arguments are those of :class:`_DenseStep`: floats for one step, or
    arrays over many steps (``k`` then an array of 18 rows).  ``f`` takes
    the extra stages' arguments of the same kind.  The same operations run
    in the same order either way, so a step's coefficients come out to the
    bit whether it is built alone or among others.  Returns, per component,
    the seven coefficients that :func:`_horner` takes.
    """
    (th, om), (th_b, om_b) = ya, yb
    kt, ko = list(k[0::2]), list(k[1::2])
    for c, row in _EXTRA:
        st, so = f(ta + c * h, th + h * _dot(row, kt), om + h * _dot(row, ko))
        kt.append(st)
        ko.append(so)
    poly = []
    for y, y_b, kc in ((th, th_b, kt), (om, om_b, ko)):
        dy = y_b - y
        poly.append((dy, h * kc[0] - dy, 2.0 * dy - h * (kc[8] + kc[0]),
                     *(h * _dot(row, kc) for row in _D_ROWS)))
    return poly


def _horner(y, coeffs, x, u):
    """One component at the fraction x = 1 - u of a step, from its value y
    at the step's start and its seven :func:`_extension` coefficients;
    floats or arrays."""
    f0, f1, f2, f3, f4, f5, f6 = coeffs
    return y + x * (f0 + u * (f1 + x * (f2 + u * (f3 + x * (f4 + u * (
        f5 + x * f6))))))


class _DenseStep:
    """DOP853's 7th-order continuous extension of one accepted step.

    ``dense(t) -> (theta, omega)`` for ta <= t <= tb, the float path of the
    event searches (:func:`_refine_crossing`); a whole run is sampled at
    once by :func:`_sample_dense`.  The three extra stages and the
    polynomial are built on the first call only, so a step that holds no
    event costs one small object.  ``k`` holds the stages 0, 5-11 and 12
    (the rhs at tb), each as (theta', omega'); ``h`` is the width the
    stages were taken with.
    """

    __slots__ = ("f", "ta", "h", "tb", "ya", "yb", "k", "_poly")

    def __init__(self, f, ta, h, tb, ya, yb, k):
        self.f, self.ta, self.h, self.tb = f, ta, h, tb
        self.ya, self.yb, self.k = ya, yb, k
        self._poly = None

    def __call__(self, t):
        if self._poly is None:
            self._poly = _extension(self.f, self.ta, self.h, self.ya,
                                    self.yb, self.k)
        x = (t - self.ta) / (self.tb - self.ta)
        u = 1.0 - x
        return tuple(_horner(y, c, x, u) for y, c in zip(self.ya, self._poly))


def _sample_dense(steps, t):
    """(theta, omega) arrays at the times ``t`` on the continuous extension
    of ``steps``, the consecutive accepted steps of one run.

    Each time belongs to the first step whose tb is not below it, so a time
    equal to a step's tb is taken on that step, and every time must lie in
    [steps[0].ta, steps[-1].tb].  The extensions of the steps that hold a
    time are built in one array pass, with the rhs of the extra stages
    called one step at a time on Python floats; each value equals, to the
    bit, the step's own ``dense(time)``.
    """
    f = steps[0].f
    which = np.searchsorted([s.tb for s in steps], t)
    holds = np.zeros(len(steps), dtype=bool)
    holds[which] = True
    at = np.cumsum(holds)[which] - 1        # the index among the held steps
    held = [steps[i] for i in np.flatnonzero(holds).tolist()]
    rows = np.array([(s.ta, s.h, s.tb, *s.ya, *s.yb, *s.k) for s in held]).T
    ta, h, tb = rows[:3]
    ya, yb, k = rows[3:5], rows[5:7], rows[7:]

    def stepwise(t, th, om):
        return np.array([f(*args) for args in zip(
            t.tolist(), th.tolist(), om.tolist())]).T

    poly = np.array(_extension(stepwise, ta, h, ya, yb, k))
    x = (t - ta[at]) / (tb - ta)[at]
    u = 1.0 - x
    # gathered one component at a time, so that at most seven coefficient
    # arrays the size of t are alive at once
    return tuple(_horner(y[at], c[:, at], x, u) for y, c in zip(ya, poly))


def _refine_crossing(dense, comp, target=0.0):
    """(t, theta, omega) where y[comp] = target inside a step of ``dense``.

    The step's ends must bracket the crossing.  The search takes the end
    states as they are, which the polynomial meets only to rounding.
    """
    def g(t):
        return (dense.yb if t == dense.tb else dense(t))[comp] - target

    t_cross = brentq(g, dense.ta, dense.tb, xtol=1e-10)
    return (t_cross, *dense(t_cross))


def integrate_rhs(f, state0, spec: IntegratorSpec, t0: float = 0.0,
                  step_cb=None) -> Trajectory:
    """Integrate a generic planar rhs ``f(t, theta, omega) -> (dth, dom)``."""
    return _pack(*_dop853(f, t0, state0, spec, step_cb)[:4])


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


def measure_free_oscillation(p: Params, state0,
                             t_max: float = 500.0) -> FreeOscillation:
    """Amplitude and period of a conservative free oscillation.

    The period is taken between successive same-direction zero crossings of
    the angular velocity; the amplitude is half the spread of the turning
    angles.  A non-closed (rotating) orbit is measured by the time for the
    angle to advance by 2*pi and flagged.
    """
    if p.xi != 0.0 or p.m_big0 != 0.0:
        raise ValueError("free oscillation requires xi = 0 and M0 = 0")
    spec = IntegratorSpec(rel_tol=1e-11, abs_tol=1e-13, t_end=t_max)
    f = scalar_rhs(p)
    crossings: list[tuple[float, float]] = []        # (time, theta)
    theta0 = state0[0]
    wrap: list[float] = []                           # rotation: 2*pi advance

    def cb(ta, ya, tb, yb, dense):
        if ya[1] == 0.0 and ta == 0.0:
            crossings.append((0.0, ya[0]))
        if ya[1] * yb[1] < 0.0:
            crossings.append(_refine_crossing(dense, comp=1)[:2])
            if len(crossings) == 3:
                return True
        for sign in (1.0, -1.0):
            target = theta0 + sign * 2.0 * math.pi
            if (ya[0] - target) * (yb[0] - target) < 0.0:
                wrap.append(_refine_crossing(dense, comp=0, target=target)[0])
                return True
        return False

    integrate_rhs(f, state0, spec, step_cb=cb)
    if len(crossings) >= 3:
        # crossings alternate in direction: same-direction ones are two apart
        (t1, th1), (_, th2), (t3, _) = crossings[:3]
        return FreeOscillation(0.5 * abs(th2 - th1), t3 - t1, rotating=False)
    if wrap:
        return FreeOscillation(math.pi, wrap[0], rotating=True)
    raise ValueError("no oscillation detected within t_max")


def _strobe(f, state, t_step, n, spec, stages=None):
    """Yield the states at t = k * t_step, k = 1..n, from ``state`` at t = 0.

    Each segment starts with the step the last one would have taken next,
    so only the first climbs from ``spec.h_init``.  ``stages`` is passed
    on to :func:`_dop853`, so it holds the record of every segment so far
    when a state is yielded."""
    t, h = 0.0, spec.h_init
    for k in range(1, n + 1):
        t_end = k * t_step
        _, ths, oms, _, h = _dop853(
            f, t, state, replace(spec, h_init=h, t_end=t_end), stages=stages)
        t, state = t_end, (ths[-1], oms[-1])
        yield state


def poincare_section(p: Params, state0, n_points: int,
                     discard: int = 200) -> PoincareMap:
    """Stroboscopic samples at the drive period, after a transient discard.

    Raises InputError unless M0 > 0, Omega0 > 0, discard >= 0, n_points >= 1
    and the run's discard + n_points drive periods end by ``_T_MAX``."""
    if p.m_big0 <= 0.0 or p.omega_big0 <= 0.0:
        raise InputError("Poincare section requires M0 > 0 and Omega0 > 0")
    if discard < 0 or n_points < 1:
        raise InputError("need discard >= 0 and n_points >= 1")
    if (discard + n_points) * 2.0 * math.pi / p.omega_big0 > _T_MAX:
        raise InputError(f"need (discard + n_points) drive periods <= "
                         f"{_T_MAX:g}")
    states = list(_strobe(scalar_rhs(p), tuple(state0),
                          2.0 * math.pi / p.omega_big0, discard + n_points,
                          IntegratorSpec(rel_tol=1e-9, abs_tol=1e-11)))
    return PoincareMap(p.omega_big0, np.asarray(states[discard:]), discard)


def _step_jacobians(p: Params, stages):
    """The derivative of each recorded step's map y -> y_new, as a list of
    (phi_00, phi_01, phi_10, phi_11) floats.

    ``stages`` is a :func:`_dop853` record of a run of ``scalar_rhs(p)``.
    The step's width h is held fixed and the map differentiated through its
    stages (internal numerical differentiation; Bock, Springer Ser. Chem.
    Phys. 18, 1981): with J_i the Jacobian [[0, 1], [-(K + 2*xi*c'*omega),
    -2*xi*c]]/kappa at stage i (:func:`model._jacobian_field`), the stage
    derivatives are V_i = I + h*sum_j a_ij*J_j*V_j and the step's
    Phi = I + h*sum_i b_i*J_i*V_i, the DOP853 step of the linearised
    system, in one array pass over all steps.  On the cusp line alpha ==
    beta the moment jumps by 2*alpha at theta = 2*n*pi: a step whose ends
    lie on both sides of such a point, where sin(theta/2) changes sign, is
    followed by the saltation [[1, 0], [2*alpha/(kappa*|omega_new|), 1]]
    of a transversal crossing (Mueller, Chaos Solitons Fractals 5, 1995).
    """
    # rows: h, theta, omega, theta_new, omega_new, Y1-Y11; columns: steps
    rec = np.array(stages).T
    h = rec[0]
    thetas, omegas = rec[[1, *range(5, 27, 2)]], rec[[2, *range(6, 27, 2)]]
    k, c, dc = _jacobian_field(p, thetas)
    slope = -(k + 2.0 * p.xi * dc * omegas) / p.kappa
    damping = -2.0 * p.xi * c / p.kappa
    eye = np.eye(2)[:, :, None]

    def times_j(i, v):
        """J_i V for V of shape (2, 2, steps); J's first row is (0, 1)."""
        return np.stack((v[1], slope[i] * v[0] + damping[i] * v[1]))

    jv = [times_j(0, np.broadcast_to(eye, (2, 2, h.size)))]
    for i, (row, cols) in enumerate(zip(_ROWS, _COLUMNS), start=1):
        jv.append(times_j(i, eye + h * _dot(row, [jv[j] for j in cols])))
    phi = eye + h * _dot(_WEIGHTS, [jv[j] for j in _COLUMNS[-1]])
    if not p.smooth:
        cross = (np.sin(0.5 * rec[1]) < 0.0) != (np.sin(0.5 * rec[3]) < 0.0)
        kick = np.divide(2.0 * p.alpha, p.kappa * np.abs(rec[4]),
                         out=np.zeros(h.size), where=cross)
        phi[1] += kick * phi[0]
    return phi.reshape(4, -1).T.tolist()


# Steps of a Lyapunov run's stage record per :func:`_step_jacobians` pass:
# enough to spread numpy's per-call cost, few enough that the record (about
# 1 kB a step) stays small on a long run.  A run takes at most
# _MAX_INTERVALS renormalisation intervals, and ends by _T_MAX.
_LYAPUNOV_BLOCK = 512
_MAX_INTERVALS = 10**6


def largest_lyapunov(p: Params, state0, horizon: float = 2000.0,
                     renorm_interval: float = 5.0) -> LyapunovEstimate:
    """Largest Lyapunov exponent by the tangent-vector method.

    A tangent vector v starts as (1, 0) and follows the linearised system
    (Benettin et al., Meccanica 15, 1980).  The state runs in the plain
    step loop on :func:`model.scalar_rhs`, at rel_tol 1e-9, one
    :func:`_strobe` segment per interval, which records its stage states;
    v is carried through each accepted step by that step's derivative,
    from :func:`_step_jacobians` (with the saltation of each cusp-line
    crossing), in one array pass over every block of about
    ``_LYAPUNOV_BLOCK`` steps.  The run lasts
    max(4, round(horizon / renorm_interval)) intervals, so it can be longer
    than ``horizon``.  After each interval the rate log|v| /
    renorm_interval is recorded and v is scaled back to length 1; the
    exponent is the mean rate.  Raises InputError unless horizon and
    renorm_interval are positive and finite, horizon / renorm_interval
    is at most ``_MAX_INTERVALS`` and the run ends by ``_T_MAX``, and
    RuntimeError when |v| leaves the range of normal floats (inf, NaN,
    subnormal or 0) within an interval.
    """
    if not (0.0 < horizon < math.inf and 0.0 < renorm_interval < math.inf
            and horizon / renorm_interval <= _MAX_INTERVALS):
        raise InputError(f"need finite horizon, renorm_interval > 0 and "
                         f"horizon / renorm_interval <= {_MAX_INTERVALS:,}, "
                         f"got {horizon!r} / {renorm_interval!r}")
    n_seg = max(4, int(round(horizon / renorm_interval)))
    if n_seg * renorm_interval > _T_MAX:
        raise InputError(f"need {n_seg} intervals of {renorm_interval!r} "
                         f"<= {_T_MAX:g}")
    vt, vo = 1.0, 0.0
    stages, ends, rates = [], [], []
    run = _strobe(scalar_rhs(p), state0, renorm_interval, n_seg,
                  IntegratorSpec(rel_tol=1e-9, abs_tol=1e-11), stages)
    for k, _ in enumerate(run, start=1):
        ends.append(len(stages))    # the record's length at interval k's end
        if len(stages) < _LYAPUNOV_BLOCK and k < n_seg:
            continue
        maps = _step_jacobians(p, stages)
        for start, end in zip([0, *ends], ends):
            for p00, p01, p10, p11 in maps[start:end]:
                vt, vo = p00 * vt + p01 * vo, p10 * vt + p11 * vo
            norm = math.hypot(vt, vo)
            # below the normal floats |v| has lost digits; stuck at 5e-324
            # it would read a rate of log(5e-324) / interval whatever the
            # decay
            if not sys.float_info.min <= norm < math.inf:
                raise RuntimeError(f"tangent norm {norm} left the range of "
                                   f"normal floats by t = "
                                   f"{(len(rates) + 1) * renorm_interval:g}")
            rates.append(math.log(norm) / renorm_interval)
            vt, vo = vt / norm, vo / norm
        stages.clear()
        ends.clear()
    rates = np.asarray(rates)
    n_tail = max(1, len(rates) // 4)
    return LyapunovEstimate(
        exponent=float(rates.mean()),
        tail_exponent=float(rates[-n_tail:].mean()),
        stderr=float(rates.std(ddof=1) / math.sqrt(rates.size)),
        segment_rates=rates,
    )
