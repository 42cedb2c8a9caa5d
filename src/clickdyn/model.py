"""Dimensionless click-mechanism oscillator model.

Scalar fields (potential, moment, stiffness, Hamiltonian) and the first-order
vector fields of the forced, damped rotational snap-through oscillator

    kappa * theta'' + 2*xi*c(theta)*theta' + M(theta) = M0*sin(Omega0*T + phi)

where c(theta) is the geometry-dependent damping factor and M(theta) the
irrational restoring moment.  All quantities are dimensionless; the
conversion from SI parameters is :func:`nondimensionalize`.

With ``s = sin(theta/2)`` and ``d = alpha - beta``, every field reads the
radical D from ``D**2 = d*d + 4*alpha*beta*s*s``: a sum of nonnegative
terms, so D keeps its relative accuracy beside theta = 0, where the cos
form ``alpha**2 + beta**2 - 2*alpha*beta*cos(theta)`` cancels.  D vanishes
only on the cusp line ``alpha == beta`` at ``theta = 2*n*pi``, where the
moment is nonsmooth and the fields take their one-sided convention.  (On
that line ``s*s`` underflows for ``|sin(theta/2)|`` below about 1e-154,
where D loses its digits.)
"""

from __future__ import annotations

import functools
import math
import textwrap
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "InputError",
    "PhysicalParams",
    "Params",
    "nondimensionalize",
    "potential",
    "barrier_energies",
    "moment",
    "stiffness",
    "damping_factor",
    "hamiltonian",
    "scalar_rhs",
    "is_smooth_at",
]


class InputError(ValueError):
    """An argument outside the domain a function accepts: a refused input,
    as against a ValueError for a valid input that has no solution."""


def _check_finite(params) -> None:
    for f in fields(params):
        if not math.isfinite(getattr(params, f.name)):
            raise InputError(f"{f.name} must be finite")


@dataclass(frozen=True)
class PhysicalParams:
    """Dimensional parameters of the physical mechanism (SI units)."""

    m: float        # lumped mass of the wings, kg
    k: float        # linear spring stiffness, N/m
    c: float        # viscous damping, N*s/m
    a: float        # hinge offset OA, m
    b: float        # hinge offset OC, m
    l: float        # free spring length, m
    d: float        # radius of inertia, m
    m0: float = 0.0       # drive moment amplitude, N*m
    omega0: float = 0.0   # drive frequency, rad/s
    g: float = 9.81       # gravity, m/s^2

    def __post_init__(self):
        _check_finite(self)
        for name in ("m", "k", "a", "b", "l", "d"):
            if getattr(self, name) <= 0.0:
                raise InputError(f"{name} must be positive")
        for name in ("c", "m0", "omega0", "g"):
            if getattr(self, name) < 0.0:
                raise InputError(f"{name} must be nonnegative")


@dataclass(frozen=True)
class Params:
    """Dimensionless system parameters."""

    alpha: float          # a / l
    beta: float = 1.0     # b / l
    gamma: float = 0.0    # 2*m*g / (k*l^2)
    kappa: float = 1.0    # I / (m*l^2)
    xi: float = 0.0       # c / (2*sqrt(m*k))
    m_big0: float = 0.0   # m0 / (k*l^2)
    omega_big0: float = 0.0   # omega0 / omega_n
    phi: float = 0.0      # drive phase, rad

    def __post_init__(self):
        _check_finite(self)
        if self.alpha <= 0.0 or self.beta <= 0.0:
            raise InputError("alpha and beta must be positive")
        if self.kappa <= 0.0:
            raise InputError("kappa must be positive")
        for name in ("gamma", "xi", "m_big0", "omega_big0"):
            if getattr(self, name) < 0.0:
                raise InputError(f"{name} must be nonnegative")

    @property
    def smooth(self) -> bool:
        """False when alpha == beta, where the moment has cusps at 2*n*pi."""
        return self.alpha != self.beta


def nondimensionalize(p: PhysicalParams) -> tuple[Params, float]:
    """Convert SI parameters to the dimensionless set.

    Returns ``(params, omega_n)`` with ``omega_n = sqrt(k/m)`` the reference
    frequency used to scale time and the drive frequency.
    """
    omega_n = math.sqrt(p.k / p.m)
    inertia = 2.0 * p.m * p.d**2
    return (
        Params(
            alpha=p.a / p.l,
            beta=p.b / p.l,
            gamma=2.0 * p.m * p.g / (p.k * p.l**2),
            kappa=inertia / (p.m * p.l**2),
            xi=p.c / (2.0 * math.sqrt(p.m * p.k)),
            m_big0=p.m0 / (p.k * p.l**2),
            omega_big0=p.omega0 / omega_n,
        ),
        omega_n,
    )


def _radicand(alpha, beta, s):
    """D^2 = (alpha - beta)^2 + 4*alpha*beta*s^2 for s = sin(theta/2).

    Squares are products: ``** 2`` squares arrays exactly but calls libm's
    pow on scalars, which can be an ulp off, so one point and a whole mesh
    read the same D bits.  The arguments broadcast.

    On the cusp line ``alpha == beta`` only ``4*alpha*beta*s*s`` is left.
    For ``|theta - 2*n*pi|`` below about 3e-154, ``s*s`` is subnormal and D
    loses digits; below about 1e-162 it underflows to 0, and the fields
    take the D = 0 convention of the cusp itself.
    """
    d = alpha - beta
    return d * d + 4.0 * alpha * beta * (s * s)


def potential(p: Params, theta):
    """Dimensionless potential energy; even and 2*pi-periodic in theta.

    With ``s = sin(theta/2)`` the gravity term is ``2*gamma*s**2``, a
    nonnegative term like the radicand, so V keeps its relative accuracy
    near theta = 0.
    """
    s = np.sin(0.5 * np.asarray(theta, dtype=float))
    e = np.sqrt(_radicand(p.alpha, p.beta, s)) - 1.0
    return 0.5 * (e * e) + 2.0 * p.gamma * (s * s)


def barrier_energies(p: Params) -> tuple[float, float]:
    """Potential barriers at theta = 0 and theta = pi.

    For gamma = 0 these equal ``0.5*(1 - |alpha-beta|)**2`` and
    ``0.5*(1 - (alpha+beta))**2``; for gamma > 0 the potential is simply
    evaluated at the two poles.
    """
    return float(potential(p, 0.0)), float(potential(p, math.pi))


def is_smooth_at(p: Params, theta):
    """Whether the moment is smooth at theta, elementwise.

    False only on the alpha == beta cusps ``theta = 2*n*pi``.
    """
    return p.smooth | (np.sin(0.5 * np.asarray(theta, dtype=float)) != 0.0)


def _sin_ratio(p: Params, theta):
    """(sin(theta), D^2, alpha*beta*sin(theta)/D) elementwise, the ratio 0
    where D = 0."""
    theta = np.asarray(theta, dtype=float)
    st = np.sin(theta)
    d2 = _radicand(p.alpha, p.beta, np.sin(0.5 * theta))
    ratio = np.divide(p.alpha * p.beta * st, np.sqrt(d2),
                      out=np.zeros(d2.shape), where=d2 > 0.0)
    return st, d2, ratio


def moment(p: Params, theta):
    """Restoring moment (alpha*beta + gamma - alpha*beta/D)*sin(theta), the
    theta-gradient of :func:`potential`.

    Odd and 2*pi-periodic.  For ``alpha == beta`` the field is nonsmooth at
    ``theta = 2*n*pi``; beside it the same form gives the one-sided limit
    consistent with ``sign(sin(theta/2))``, and on it (D = 0) the moment is
    0.  Check :func:`is_smooth_at` when that matters.
    """
    st, _, ratio = _sin_ratio(p, theta)
    return ((p.alpha * p.beta + p.gamma) * st - ratio)[()]


def stiffness(p: Params, theta):
    """Gradient of the moment, d(moment)/d(theta).

    Raises ValueError on the nonsmooth points ``theta = 2*n*pi`` when
    ``alpha == beta``; the stiffness is not defined there.
    """
    if not (p.smooth or np.all(is_smooth_at(p, theta))):
        raise ValueError(
            "stiffness undefined at theta = 2*n*pi for alpha == beta")
    return _stiffness_field(p.alpha, p.beta, p.gamma, theta)


def _stiffness_field(alpha, beta, gamma, theta):
    """:func:`stiffness` over broadcastable arrays of its four arguments.

    K = (alpha*beta + gamma)*cos(theta) - :func:`_stiffness_ratio`.  No
    cusp check: NaN (an invalid-operation warning) where D = 0.
    """
    ab = alpha * beta
    s = np.sin(0.5 * theta)
    d2 = _radicand(alpha, beta, s)
    ct = np.cos(theta)
    return (ab + gamma) * ct - _stiffness_ratio(ab, alpha - beta, s, ct, d2,
                                                np.sqrt(d2))


def _stiffness_ratio(ab, d, s, ct, d2, dist):
    """alpha*beta*w/D^3 from ab = alpha*beta, d = alpha - beta, s =
    sin(theta/2), ct = cos(theta), d2 = D^2 and dist = D: w = d^2*ct -
    4*ab*s^4 is D^2*cos(theta) - alpha*beta*sin(theta)^2 without its
    cancellation.  Products, not ``** 2``, as in :func:`_radicand`."""
    w = d * d * ct - 4.0 * ab * (s * s) * (s * s)
    return ab * w / d2 / dist


def _curvature_field(alpha, beta, gamma, theta, third=True):
    """(M'', M''') over broadcastable arrays of its four arguments, closed
    form; NaN where D = 0.  With ``third`` False, M'' alone: M''' is not
    computed.

    With P = alpha*beta, c, s = cos, sin(theta), f = P + gamma - P/D,
    k3 = P^2/D^3 and x = P*s^2/D^2, differentiating M = f*s gives
    M'' = s*(3*k3*(c - x) - f) and
    M''' = k3*(3*c^2 - 4*s^2 - 18*c*x + 15*x^2) - f*c, with D^2 from
    :func:`_radicand`.  The terms cancel only where D is small and x is
    not, beside the cusp; at a center x = 0 (a pole) or D = P/(P + gamma)
    (a well).
    """
    ab = alpha * beta
    c, s = np.cos(theta), np.sin(theta)
    d2 = _radicand(alpha, beta, np.sin(0.5 * theta))
    d = np.sqrt(d2)
    f = ab + gamma - ab / d
    k3 = ab * ab / (d2 * d)
    x = ab * s * s / d2
    m2 = s * (3.0 * k3 * (c - x) - f)
    if not third:
        return m2
    return (m2, k3 * (3.0 * c * c - 4.0 * s * s - 18.0 * c * x + 15.0 * x * x)
            - f * c)


def damping_factor(p: Params, theta):
    """Geometry factor (alpha*beta*sin(theta))^2 / D^2 of the damping term.

    Where D = 0 (``alpha == beta``, ``theta = 2*n*pi``) it is alpha*beta,
    the continuous limit along the cusp line.
    """
    _, d2, ratio = _sin_ratio(p, theta)
    return np.where(d2 > 0.0, ratio * ratio, p.alpha * p.beta)[()]


def _jacobian_field(p: Params, theta):
    """(K, c, c') elementwise: the stiffness, the damping factor and its
    slope dc/dtheta, from which the Jacobian's second row is
    [-(K + 2*xi*c'*omega)/kappa, -2*xi*c/kappa].

    K takes the operations of :func:`_stiffness_field` and c those of
    :func:`damping_factor`, so both have their bits; with r and q the two
    ratios alpha*beta*sin(theta)/D and :func:`_stiffness_ratio`,
    c' = 2*r*q.  Where D = 0 they take their limits along the cusp line,
    K = alpha*beta + gamma, c = alpha*beta and c' = 0, with no division by
    0.
    """
    ab = p.alpha * p.beta
    theta = np.asarray(theta, dtype=float)
    st, ct, s = np.sin(theta), np.cos(theta), np.sin(0.5 * theta)
    d2 = _radicand(p.alpha, p.beta, s)
    smooth = d2 > 0.0
    d2 = np.where(smooth, d2, 1.0)          # any value; masked below
    dist = np.sqrt(d2)
    r = np.where(smooth, ab * st / dist, 0.0)
    q = np.where(smooth, _stiffness_ratio(ab, p.alpha - p.beta, s, ct, d2,
                                          dist), 0.0)
    return (ab + p.gamma) * ct - q, np.where(smooth, r * r, ab), 2.0 * r * q


def hamiltonian(p: Params, state) -> float:
    """Total energy 0.5*kappa*omega^2 + potential(theta)."""
    theta, omega = state
    return 0.5 * p.kappa * omega**2 + float(potential(p, theta))


# The full system's float kernel: the float arithmetic of moment,
# damping_factor and the drive at the time {t} and the state ({th}, {om}),
# ending in ``{out}theta', omega'``, over the constants named in
# _KERNEL_CONSTANTS.  With r = alpha*beta*sin(theta)/D,
# M = (alpha*beta + gamma)*sin(theta) - r and c = r*r; where D = 0 the
# fields' M = 0 and c = alpha*beta.  scalar_rhs compiles it as its
# closure's body, {out} a return; the integrator's step loop writes it in
# place of each rhs call, {out} an assignment.
_KERNEL = """\
st = sin({th})
s = sin(0.5 * {th})
d2 = dd + four_ab * (s * s)
if d2:
    r = ab * st / sqrt(d2)
    damp = r * r
else:
    r, damp = 0.0, ab
torque = neg_two_xi * damp * {om} - (abg * st - r)
if m0:
    torque += m0 * sin(om0 * {t} + phi)
{out}{om}, torque / kap
"""
_KERNEL_CONSTANTS = ("ab", "abg", "dd", "four_ab", "neg_two_xi", "kap", "m0",
                     "om0", "phi")


@functools.cache
def _closure_maker():
    """``make(*constants) -> f``, the maker of :func:`scalar_rhs`'s
    closures, compiled from ``_KERNEL`` on first use."""
    body = _KERNEL.format(t="t", th="theta", om="omega", out="return ")
    src = (f"def make({', '.join(_KERNEL_CONSTANTS)}):\n"
           f"    sin, sqrt = math.sin, math.sqrt\n"
           f"    def f(t, theta, omega):\n{textwrap.indent(body, ' ' * 8)}"
           f"    return f\n")
    names = {}
    exec(compile(src, "<clickdyn.model._KERNEL>", "exec"), {"math": math},
         names)
    return names["make"]


def scalar_rhs(p: Params):
    """Closure ``f(t, theta, omega) -> (theta', omega')`` of the full system.

    Its body is ``_KERNEL``, the float-arithmetic form of :func:`moment`,
    :func:`damping_factor` and the drive.  The closure carries the
    kernel's constants, in the order of ``_KERNEL_CONSTANTS``, as
    ``f.kernel_constants``: the integrator's step loop runs the kernel
    inline on them instead of calling ``f``.
    """
    a, b = p.alpha, p.beta
    ab = a * b
    constants = (ab, ab + p.gamma, (a - b) * (a - b), 4.0 * a * b,
                 -2.0 * p.xi, p.kappa, p.m_big0, p.omega_big0, p.phi)
    f = _closure_maker()(*constants)
    f.kernel_constants = constants
    return f
