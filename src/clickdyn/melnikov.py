"""Chaos thresholds by the Melnikov method on three reduced systems.

The bistable system is mapped onto one of three topologically equivalent
reductions with known separatrix structure:

* ``duffing``: double-well cubic, homoclinic loop through the saddle at 0,
  interior roots at +-theta3;
* ``pendulum``: constant-coefficient pendulum with stiffness |K1| taken
  from the nonsmooth saddle; the saddle is moved to +-pi in the reduced
  frame so the heteroclinic pair has the textbook form;
* ``soft_cubic``: softening cubic with center at 0 and saddles pinned at
  +-pi, linear stiffness matched to the interior center.

The chaos threshold is the Melnikov threshold of the reduction,

    m0_crit = xi0 * D / F,   D = 2 * integral of omega(T)^2 dT,
                             F = |integral of omega(T) * exp(-i*Omega0*T) dT|,

with both orbit integrals in closed form (Guckenheimer & Holmes, *Nonlinear
Oscillations, Dynamical Systems, and Bifurcations of Vector Fields*, §4.5).
With w the rate of the orbit (:func:`_orbit_rate`) and A = sqrt(2)*theta3:

    duffing      D = 4*A^2*w/3     F = A*pi*Omega0/w * sech(pi*Omega0/(2w))
    pendulum     D = 16*w          F = 2*pi * sech(pi*Omega0/(2w))
    soft_cubic   D = 8*pi^2*w/3    F = pi^2*Omega0/w * csch(pi*Omega0/(2w))

The damping coefficient along the reduced orbits is the constant 2*xi0, not
the angle-dependent factor of the full system.  Commonly quoted closed-form
thresholds (cosh / coth / csch shapes) are evaluated verbatim as references
with an agreement report; they are not used as the threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .equilibria import interior_angle, stiffness_at_poles
from .integrate import (IntegratorSpec, _crossings, _sample_dense,
                        integrate_rhs)
from .model import InputError, Params, stiffness

__all__ = [
    "DUFFING",
    "PENDULUM",
    "SOFT_CUBIC",
    "ReducedSystem",
    "SeparatrixOrbit",
    "ThresholdGrid",
    "reduce_system",
    "separatrix",
    "threshold_numeric",
    "threshold_grid",
]

DUFFING = "duffing"
PENDULUM = "pendulum"
SOFT_CUBIC = "soft_cubic"

_VARIANTS = (DUFFING, PENDULUM, SOFT_CUBIC)
# shape of each variant's printed closed-form threshold
_PRINTED_FORM = {DUFFING: "cosh", PENDULUM: "coth", SOFT_CUBIC: "csch"}
_CONNECT_TOL = 1e-6
_CONNECT_TMAX = 50.0


@dataclass(frozen=True)
class ReducedSystem:
    variant: str
    kappa: float
    theta3: float = 0.0      # duffing interior root magnitude
    k1: float = 0.0          # pendulum stiffness (negative in the source)
    k_center: float = 0.0    # soft_cubic linear stiffness at the center
    char_angle: float = 0.0  # angle used by the printed reference forms
    decay_rate: float = 0.0  # exponential decay rate of the separatrix velocity

    def moment(self, theta):
        """Reduced restoring moment (reduced eq.: kappa*theta'' = -moment)."""
        if self.variant == DUFFING:
            return theta * (theta * theta - self.theta3**2)
        if self.variant == PENDULUM:
            return abs(self.k1) * np.sin(theta)
        c = self.k_center / math.pi**2
        return c * theta * (math.pi**2 - theta * theta)

    def potential(self, theta):
        th = np.asarray(theta, dtype=float)
        if self.variant == DUFFING:
            return 0.25 * th**4 - 0.5 * self.theta3**2 * th**2
        if self.variant == PENDULUM:
            return abs(self.k1) * (1.0 - np.cos(th))
        c = self.k_center / math.pi**2
        return c * (0.5 * math.pi**2 * th**2 - 0.25 * th**4)

    def rhs(self):
        """Float closure ``f(t, theta, omega)``; :meth:`moment` to the bit."""
        kap = self.kappa
        if self.variant == DUFFING:
            t3sq = self.theta3**2
            return lambda t, th, om: (om, -(th * (th * th - t3sq)) / kap)
        if self.variant == PENDULUM:
            k, sin = abs(self.k1), math.sin
            return lambda t, th, om: (om, -(k * sin(th)) / kap)
        c, pi2 = self.k_center / math.pi**2, math.pi**2
        return lambda t, th, om: (om, -(c * th * (pi2 - th * th)) / kap)


@dataclass
class SeparatrixOrbit:
    kind: str                     # "homoclinic" or "heteroclinic"
    source: str                   # "closed_form" or "continued"
    times: np.ndarray
    thetas: np.ndarray
    omegas: np.ndarray


@dataclass
class ThresholdGrid:
    """Thresholds over the (xi0, omega0) grids of :func:`threshold_grid`;
    rows follow its xi_grid, columns its omega_grid.

    ``m0_crit`` is xi0 * D / F from the closed-form orbit integrals.
    ``m0_printed`` is the printed closed form of shape ``printed_form``
    (cosh for duffing, coth for pendulum, csch for soft cubic), and
    ``printed_agrees`` says whether it is within 5 % of ``m0_crit``.
    """
    m0_crit: np.ndarray
    m0_printed: np.ndarray
    printed_form: str
    printed_agrees: np.ndarray


def reduce_system(p: Params, variant: str) -> ReducedSystem:
    """Map the full system onto one of the three reduced vector fields.

    Raises when the parameter point lacks the structure the reduction
    needs: all three require the double-well regime (negative stiffness at
    theta = 0 plus an interior center pair).
    """
    if variant not in _VARIANTS:
        raise InputError(f"unknown reduction variant {variant!r}")
    k1, _ = stiffness_at_poles(p)
    theta3 = interior_angle(p)
    if variant == PENDULUM:
        # alpha == beta gives k1 = -inf: a cusp, not a pendulum saddle
        if not -math.inf < k1 < 0.0:
            raise ValueError("pendulum reduction requires a finite "
                             "negative stiffness at theta = 0")
    elif theta3 is None or not k1 < 0.0:
        raise ValueError(
            f"{variant} reduction requires the double-well structure "
            "(interior center pair and a saddle at theta = 0)"
        )
    if variant == DUFFING:
        rate = theta3 / math.sqrt(p.kappa)
        return ReducedSystem(DUFFING, p.kappa, theta3=theta3,
                             char_angle=theta3, decay_rate=rate)
    if variant == PENDULUM:
        rate = math.sqrt(-k1 / p.kappa)
        char = theta3 if theta3 is not None else math.pi
        return ReducedSystem(PENDULUM, p.kappa, k1=k1, char_angle=char,
                             decay_rate=rate)
    k_center = float(stiffness(p, theta3))
    if k_center <= 0.0:
        raise ValueError("soft_cubic reduction requires a center at theta3")
    rate = 2.0 * math.sqrt(k_center / (2.0 * p.kappa))
    return ReducedSystem(SOFT_CUBIC, p.kappa, k_center=k_center,
                         char_angle=math.pi, decay_rate=rate)


def _orbit_rate(r: ReducedSystem) -> float:
    """The separatrix orbit's rate w: decay_rate, halved for soft_cubic."""
    return r.decay_rate / 2.0 if r.variant == SOFT_CUBIC else r.decay_rate


def _closed_form(r: ReducedSystem):
    """(kind, theta(T), omega(T), domega(T)) of the separatrix; domega, the
    angular acceleration, is there to check the orbit against the ODE."""
    w = _orbit_rate(r)
    if r.variant == DUFFING:
        amp = math.sqrt(2.0) * r.theta3

        def theta(t):
            return amp / np.cosh(w * t)

        def omega(t):
            return -amp * w * np.tanh(w * t) / np.cosh(w * t)

        def domega(t):
            s = 1.0 / np.cosh(w * t)
            return amp * w * w * (s - 2.0 * s**3)

        return "homoclinic", theta, omega, domega
    if r.variant == PENDULUM:
        def theta(t):
            return 2.0 * np.arctan(np.sinh(w * t))

        def omega(t):
            return 2.0 * w / np.cosh(w * t)

        def domega(t):
            return -2.0 * w * w * np.tanh(w * t) / np.cosh(w * t)

        return "heteroclinic", theta, omega, domega

    def theta(t):
        return math.pi * np.tanh(w * t)

    def omega(t):
        return math.pi * w / np.cosh(w * t) ** 2

    def domega(t):
        return -2.0 * math.pi * w * w * np.tanh(w * t) / np.cosh(w * t) ** 2

    return "heteroclinic", theta, omega, domega


def separatrix(r: ReducedSystem,
               source: str = "closed_form") -> SeparatrixOrbit:
    """Separatrix orbit of a reduced system on a symmetric time grid.

    ``closed_form`` evaluates the analytic orbit, with amplitudes fixed by
    energy matching to the reduced Hamiltonian.  ``continued`` shoots from
    the saddle along the unstable eigenvector (offset 1e-8), stops past
    the closest approach to the target saddle and errors out if it missed
    that saddle by more than 1e-6.  The grid times inside the shot are
    sampled on its dense output in one array pass over its steps, to the
    bit what each step's own dense output gives; the orbit sits on the
    saddles before and after the shot.
    """
    if source not in ("closed_form", "continued"):
        raise InputError("source must be 'closed_form' or 'continued'")
    # e^{-rate*T} must reach ~1e-14 at the truncation boundary
    span = max(40.0, 33.0 / r.decay_rate)
    times = np.linspace(-span, span, 2 * int(math.ceil(span / 0.005)) + 1)
    kind, theta, omega, _ = _closed_form(r)
    if source == "closed_form":
        return SeparatrixOrbit(kind, source, times, theta(times), omega(times))
    return _continued(r, kind, times)


def _continued(r: ReducedSystem, kind: str, times: np.ndarray) -> SeparatrixOrbit:
    if kind == "homoclinic":
        saddle = 0.0
        target = 0.0
    else:
        saddle = -math.pi
        target = math.pi
    # unstable eigenvector of the saddle is (1, +lambda), lambda the
    # saddle eigenvalue, which is the decay rate of every reduction
    lam = r.decay_rate
    offset = 1e-8
    state = (saddle + offset, offset * lam)
    # the shot leaves the saddle and returns to within the offset of it in
    # about 2*log(1/offset)/lam; cutting it off earlier misses the saddle
    t_end = max(_CONNECT_TMAX, 2.5 * math.log(1.0 / offset) / lam)
    spec = IntegratorSpec(rel_tol=1e-13, abs_tol=1e-15, t_end=t_end)
    # The apex is the velocity zero at the widest point of a homoclinic loop,
    # or the crossing of theta = 0 (maximal speed) of a heteroclinic orbit.
    # After it the shot approaches the target saddle; it stops once past
    # the closest approach, where it peels off the saddle and may escape to
    # infinity before t_end.
    apex_comp = 1 if kind == "homoclinic" else 0
    steps = []
    apex = None         # the step that holds the apex
    closest, end_t = math.inf, 0.0

    def on_step(ta, ya, tb, yb, dense):
        nonlocal apex, closest, end_t
        steps.append(dense)
        if apex is None:
            if ya[apex_comp] * yb[apex_comp] > 0.0:
                return False
            apex = dense
        dist = abs(yb[0] - target)
        if dist > closest:
            return True
        closest, end_t = dist, tb
        return False

    integrate_rhs(r.rhs(), state, spec, step_cb=on_step)
    if closest > _CONNECT_TOL:
        raise ValueError("continued orbit failed to connect to the target "
                         f"saddle (residual {closest:.2e})")
    apex_t = float(_crossings([apex], apex_comp)[0][0])
    # sample the dense output on [0, end_t]; before it the orbit sits on the
    # saddle, and past the closest approach the shot peels off the target
    # saddle exponentially, so the tail is clamped onto it
    shifted = times + apex_t
    inside = (shifted >= 0.0) & (shifted <= end_t)
    thetas = np.where(shifted < 0.0, saddle, target)
    omegas = np.zeros_like(shifted)
    thetas[inside], omegas[inside] = _sample_dense(steps, shifted[inside])
    return SeparatrixOrbit(kind, "continued", times, thetas, omegas)


def _m0_crit(r: ReducedSystem, omega_grid: np.ndarray,
             xi_grid: np.ndarray) -> np.ndarray:
    """xi0 * D / F of the module docstring; rows follow ``xi_grid``,
    columns ``omega_grid``.

    The one expression of every threshold, so a grid cell and the
    single-point threshold are the same bits.  Raises ValueError at an
    Omega where a threshold is not finite: sech(pi*Omega/(2w)) and
    csch(...) underflow as cosh and sinh overflow, past about 710.
    """
    if np.any(omega_grid <= 0.0) or np.any(xi_grid < 0.0):
        raise InputError("drive frequencies must be positive and xi0 "
                         "nonnegative")
    w = _orbit_rate(r)
    with np.errstate(all="ignore"):
        x = math.pi * omega_grid / (2.0 * w)
        if r.variant == DUFFING:
            a = math.sqrt(2.0) * r.theta3
            damping = 4.0 * a**2 * w / 3.0
            forcing = a * math.pi * omega_grid / w / np.cosh(x)
        elif r.variant == PENDULUM:
            damping = 16.0 * w
            forcing = 2.0 * math.pi / np.cosh(x)
        else:
            damping = 8.0 * math.pi**2 * w / 3.0
            forcing = math.pi**2 * omega_grid / w / np.sinh(x)
        m0 = xi_grid[:, None] * damping / forcing
    _refuse_overflow(omega_grid, np.isfinite(m0))
    return m0


def _refuse_overflow(omega_grid: np.ndarray, finite: np.ndarray) -> None:
    """Raise ValueError at the first Omega with a cell not finite."""
    bad = ~finite.all(axis=0)
    if bad.any():
        raise ValueError(
            f"threshold at Omega = {omega_grid[bad][0]:g} is not finite "
            "(cosh or sinh overflows); lower the drive frequency")


def threshold_numeric(r: ReducedSystem, xi0: float, omega0: float) -> float:
    """Critical forcing amplitude xi0 * D / F at one (xi0, omega0)."""
    return float(_m0_crit(r, np.array([omega0], dtype=float),
                          np.array([xi0], dtype=float))[0, 0])


def _printed(r: ReducedSystem, xi0: float, omega0: float) -> float:
    """Printed closed-form threshold of ``r``, of shape _PRINTED_FORM."""
    a = r.char_angle
    if r.variant == DUFFING:
        return (4.0 * a**3 * xi0 / (3.0 * math.sqrt(2.0) * math.pi * omega0)) \
            * math.cosh(math.pi * omega0 / (2.0 * a))
    if r.variant == PENDULUM:
        return (2.0 * a * xi0 / (3.0 * math.pi)) \
            / math.tanh(math.pi * omega0 / 2.0)
    return (2.0 * a**3 * xi0 / (3.0 * math.pi)) \
        / math.sinh(math.pi * omega0 / 2.0)


def threshold_grid(r: ReducedSystem, omega_grid, xi_grid) -> ThresholdGrid:
    """Closed-form and printed thresholds over (xi0, omega0) grids.

    Rows follow ``xi_grid``, columns follow ``omega_grid``; each
    ``m0_crit`` cell equals :func:`threshold_numeric` at it.  The printed
    expressions are internally inconsistent reference shapes, not
    thresholds; a cell's deviation is |printed - m0_crit| / m0_crit, taken
    as 0 at xi0 = 0.  An Omega at which a cell of either is not finite is
    refused with ValueError.
    """
    omega_grid = np.asarray(omega_grid, dtype=float)
    xi_grid = np.asarray(xi_grid, dtype=float)
    if omega_grid.size == 0 or xi_grid.size == 0:
        raise InputError("grids must be nonempty")
    m0 = _m0_crit(r, omega_grid, xi_grid)
    printed = np.empty(m0.shape)
    agrees = np.empty(m0.shape, dtype=bool)
    for i, xi in enumerate(xi_grid.tolist()):
        for j, (om, crit) in enumerate(zip(omega_grid.tolist(),
                                           m0[i].tolist())):
            try:
                value = _printed(r, xi, om)
            except OverflowError:
                value = math.inf
            printed[i, j] = value
            agrees[i, j] = xi == 0.0 or abs(value - crit) / crit <= 0.05
    _refuse_overflow(omega_grid, np.isfinite(printed))
    return ThresholdGrid(m0, printed, _PRINTED_FORM[r.variant], agrees)
