"""Dimensionless click-mechanism oscillator model.

Scalar fields (potential, moment, stiffness, Hamiltonian) and the first-order
vector fields of the forced, damped rotational snap-through oscillator

    kappa * theta'' + 2*xi*c(theta)*theta' + M(theta) = M0*sin(Omega0*T + phi)

where c(theta) is the geometry-dependent damping factor and M(theta) the
irrational restoring moment.  All quantities are dimensionless; the
conversion from SI parameters is :func:`nondimensionalize`.

The radicand ``alpha**2 + beta**2 - 2*alpha*beta*cos(theta)`` is bounded
below by ``(alpha - beta)**2``, so the square root is always real.  For
``alpha == beta`` it vanishes at ``theta = 2*n*pi`` and the moment is
nonsmooth there; evaluation uses half-angle identities instead of dividing
near-zero quantities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "PhysicalParams",
    "Params",
    "nondimensionalize",
    "potential",
    "barrier_energies",
    "moment",
    "stiffness",
    "damping_factor",
    "hamiltonian",
    "scalar_potential",
    "scalar_rhs",
    "scalar_tangent_rhs",
    "is_smooth_at",
]

# Radicand values more negative than this, times alpha^2 + beta^2 where
# that exceeds 1, are treated as floating noise: the radicand rounds by a
# few ulps of alpha^2 + beta^2, so at alpha == beta >= sqrt(2) it can
# reach -2e-15 on the cusp when alpha**2 (libm pow) is an ulp low.
_RADICAND_GUARD = -1e-15


def _check_finite(params) -> None:
    for f in fields(params):
        if not math.isfinite(getattr(params, f.name)):
            raise ValueError(f"{f.name} must be finite")


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
                raise ValueError(f"{name} must be positive")
        for name in ("c", "m0", "omega0", "g"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be nonnegative")


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
            raise ValueError("alpha and beta must be positive")
        if self.kappa <= 0.0:
            raise ValueError("kappa must be positive")
        for name in ("gamma", "xi", "m_big0", "omega_big0"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be nonnegative")

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


def _radical(sq, ab, theta):
    """sqrt(sq - 2*ab*cos(theta)) for sq = alpha^2 + beta^2, ab = alpha*beta.

    Noise-guarded; the arguments broadcast.
    """
    r = sq - 2.0 * ab * np.cos(theta)
    guard = _RADICAND_GUARD * np.maximum(1.0, sq)
    return np.sqrt(np.where(r < 0.0, np.where(r > guard, 0.0, r), r))


def potential(p: Params, theta):
    """Dimensionless potential energy; even and 2*pi-periodic in theta.

    With ``s = sin(theta/2)`` the radicand is ``(alpha - beta)**2 +
    4*alpha*beta*s**2`` and the gravity term ``2*gamma*s**2``: sums of
    nonnegative terms, so V keeps its relative accuracy near theta = 0,
    where ``alpha**2 + beta**2 - 2*alpha*beta*cos(theta)`` cancels (to
    about 1e-12 in V beside the alpha == beta cusp).  Squares are
    products: ``** 2`` squares arrays exactly but calls libm's pow on
    scalars, which can be an ulp off.
    """
    d = p.alpha - p.beta
    s = np.sin(0.5 * np.asarray(theta, dtype=float))
    ss = s * s
    e = np.sqrt(d * d + 4.0 * p.alpha * p.beta * ss) - 1.0
    return 0.5 * (e * e) + 2.0 * p.gamma * ss


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


def moment(p: Params, theta):
    """Restoring moment, the theta-gradient of :func:`potential`.

    Odd and 2*pi-periodic.  For ``alpha == beta`` the field is nonsmooth at
    ``theta = 2*n*pi``; there the one-sided limit consistent with
    ``sign(sin(theta/2))`` is returned (0 exactly on the cusp).  Check
    :func:`is_smooth_at` when that matters.
    """
    if p.smooth:
        d = _radical(p.alpha**2 + p.beta**2, p.alpha * p.beta, theta)
        return (p.alpha * p.beta * (1.0 - 1.0 / d) + p.gamma) * np.sin(theta)
    # alpha == beta: D = 2*alpha*|sin(theta/2)|, and
    # alpha*beta*sin(theta)/D reduces to alpha*sign(sin(theta/2))*cos(theta/2).
    a = p.alpha
    half = 0.5 * np.asarray(theta, dtype=float)
    smooth_part = (a * a + p.gamma) * np.sin(theta)
    cusp_part = -a * np.sign(np.sin(half)) * np.cos(half)
    out = smooth_part + cusp_part
    if np.isscalar(theta):
        return float(out)
    return out


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

    Squares and the cube are products: numpy squares arrays exactly but
    calls libm's pow on scalars, so products give the same bits for one
    point and for a whole parameter mesh.  On the cusp line ``alpha ==
    beta``, where the two ~1/D terms cancel beside theta = 0, it is the
    half-angle form, as in :func:`moment`.  No cusp check.
    """
    ab = alpha * beta
    d = _radical(alpha * alpha + beta * beta, ab, theta)
    s = ab * np.sin(theta)
    cusp = alpha == beta
    if not np.any(cusp):
        return (ab + gamma - ab / d) * np.cos(theta) + s * s / (d * d * d)
    # the general form divides by D = 0 at the cusps theta = 2*n*pi, where
    # the half-angle form replaces it
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (ab + gamma - ab / d) * np.cos(theta) + s * s / (d * d * d)
    half = ((alpha * alpha + gamma) * np.cos(theta)
            + 0.5 * alpha * np.abs(np.sin(0.5 * theta)))
    return np.where(cusp, half, out)[()]


def _moment_curvature(p: Params, theta: float) -> tuple[float, float]:
    """(M'', M''') at one float theta, closed form.

    With P = alpha*beta, c, s = cos, sin(theta), f = P + gamma - P/D,
    k3 = P^2/D^3 and x = P*s^2/D^2, differentiating M = f*s gives
    M'' = s*(3*k3*(c - x) - f) and
    M''' = k3*(3*c^2 - 4*s^2 - 18*c*x + 15*x^2) - f*c.  D^2 is taken as
    (alpha - beta)^2 + 4*P*sin(theta/2)^2, which does not cancel beside
    theta = 0.  The terms cancel only where D is small and x is not, beside
    the cusp; at a center x = 0 (a pole) or D = P/(P + gamma) (a well).
    """
    ab = p.alpha * p.beta
    c, s, sh = math.cos(theta), math.sin(theta), math.sin(0.5 * theta)
    d2 = (p.alpha - p.beta) ** 2 + 4.0 * ab * sh * sh
    f = ab + p.gamma - ab / math.sqrt(d2)
    k3 = ab * ab / (d2 * math.sqrt(d2))
    x = ab * s * s / d2
    return (s * (3.0 * k3 * (c - x) - f),
            k3 * (3.0 * c * c - 4.0 * s * s - 18.0 * c * x + 15.0 * x * x)
            - f * c)


def damping_factor(p: Params, theta):
    """Geometry factor (alpha*beta*sin(theta))^2 / D^2 of the damping term.

    For ``alpha == beta`` the half-angle form ``alpha^2 * cos(theta/2)^2`` is
    used, which is the continuous limit at the cusps.
    """
    if p.smooth:
        d2 = p.alpha**2 + p.beta**2 - 2.0 * p.alpha * p.beta * np.cos(theta)
        return (p.alpha * p.beta * np.sin(theta)) ** 2 / d2
    return p.alpha**2 * np.cos(0.5 * np.asarray(theta, dtype=float)) ** 2


def hamiltonian(p: Params, state) -> float:
    """Total energy 0.5*kappa*omega^2 + potential(theta)."""
    theta, omega = state
    return 0.5 * p.kappa * omega**2 + float(potential(p, theta))


def scalar_potential(p: Params):
    """Closure ``V(theta)`` of :func:`potential` for one Python float.

    Same operations in the same order as :func:`potential`, so it returns
    the same bits, without the cost of numpy-scalar arithmetic.
    """
    d = p.alpha - p.beta
    d2 = d * d
    four_ab = 4.0 * p.alpha * p.beta
    two_g = 2.0 * p.gamma
    sin, sqrt = math.sin, math.sqrt

    def v(theta):
        s = sin(0.5 * theta)
        ss = s * s
        e = sqrt(d2 + four_ab * ss) - 1.0
        return 0.5 * (e * e) + two_g * ss

    return v


def scalar_rhs(p: Params):
    """Closure ``f(t, theta, omega) -> (theta', omega')`` of the full system.

    The float-arithmetic form of :func:`moment`, :func:`damping_factor` and
    the drive, for the integrator's inner loop; one closure on the cusp
    line alpha == beta, one off it, each with only float operations.
    """
    a, b, g = p.alpha, p.beta, p.gamma
    kap, m0, om0, phi = p.kappa, p.m_big0, p.omega_big0, p.phi
    ab = a * b
    abg = ab + g
    sq = a * a + b * b
    two_ab = 2.0 * ab
    neg_two_xi = -2.0 * p.xi
    cos, sin, sqrt, copysign = math.cos, math.sin, math.sqrt, math.copysign

    if a == b:
        def f(t, theta, omega):
            st = sin(theta)
            half = 0.5 * theta
            sh, ch = sin(half), cos(half)
            mom = abg * st - a * copysign(1.0, sh) * ch if sh != 0.0 \
                else abg * st
            torque = neg_two_xi * (ab * ch * ch) * omega - mom
            if m0:
                torque += m0 * sin(om0 * t + phi)
            return omega, torque / kap

        return f

    def f(t, theta, omega):
        st = sin(theta)
        d2 = sq - two_ab * cos(theta)
        try:
            mom = (ab * (1.0 - 1.0 / sqrt(d2)) + g) * st
            damp = (ab * st) ** 2 / d2
        except (ValueError, ZeroDivisionError):
            # beside the cusp line, near theta = 0, the radicand rounds to
            # 0 or below: take the fields' guarded values
            with np.errstate(divide="ignore", invalid="ignore"):
                mom = float(moment(p, theta))
                damp = float(damping_factor(p, theta))
        torque = neg_two_xi * damp * omega - mom
        if m0:
            torque += m0 * sin(om0 * t + phi)
        return omega, torque / kap

    return f


def scalar_tangent_rhs(p: Params):
    """Closure ``f(t, theta, omega, v_theta, v_omega)`` of the system and
    one tangent vector, returning the four derivatives.

    The first two are :func:`scalar_rhs`'s, by the same operations (the
    near-cusp guard included), so they have the same bits.  The tangent
    obeys the linearised system v' = J v with the closed-form Jacobian
    [[0, 1], [-(K + 2*xi*c'*omega)/kappa, -2*xi*c/kappa]]: K is the
    :func:`stiffness`, c the :func:`damping_factor` and c' its derivative,
    2*alpha*beta*(alpha*beta*sin(theta))*(cos(theta) - c/(alpha*beta))/D^2
    off the cusp line and -alpha^2*cos(theta/2)*sin(theta/2) on it.  On the
    cusp line J is continuous but the moment jumps by 2*alpha at
    theta = 2*n*pi; the integrator adds that jump's saltation.
    """
    a, b, g = p.alpha, p.beta, p.gamma
    kap, m0, om0, phi = p.kappa, p.m_big0, p.omega_big0, p.phi
    ab = a * b
    abg = ab + g
    sq = a * a + b * b
    two_ab = 2.0 * ab
    neg_two_xi = -2.0 * p.xi
    cos, sin, sqrt, copysign = math.cos, math.sin, math.sqrt, math.copysign
    # slope = kappa * d(omega')/d(theta) = -(K + 2*xi*c'*omega) and
    # damping = kappa * d(omega')/d(omega) = -2*xi*c

    if a == b:
        half_a = 0.5 * a
        two_xi_ab = -neg_two_xi * ab

        def f(t, theta, omega, v_theta, v_omega):
            st = sin(theta)
            half = 0.5 * theta
            sh, ch = sin(half), cos(half)
            mom = abg * st - a * copysign(1.0, sh) * ch if sh != 0.0 \
                else abg * st
            damping = neg_two_xi * (ab * ch * ch)
            torque = damping * omega - mom
            if m0:
                torque += m0 * sin(om0 * t + phi)
            slope = (two_xi_ab * ch * sh * omega - abg * cos(theta)
                     - half_a * abs(sh))
            return (omega, torque / kap, v_omega,
                    (slope * v_theta + damping * v_omega) / kap)

        return f

    neg_four_xi = 2.0 * neg_two_xi

    def f(t, theta, omega, v_theta, v_omega):
        st = sin(theta)
        ct = cos(theta)
        d2 = sq - two_ab * ct
        try:
            inv_d = 1.0 / sqrt(d2)
            spring = ab * (1.0 - inv_d) + g
            abst = ab * st
            damp = abst ** 2 / d2
        except (ValueError, ZeroDivisionError):
            # as in scalar_rhs; the 1/D terms of the Jacobian have no
            # value where the radicand rounded to 0 or below
            with np.errstate(divide="ignore", invalid="ignore"):
                mom = float(moment(p, theta))
                damp = float(damping_factor(p, theta))
            slope = math.nan
        else:
            mom = spring * st
            slope = (neg_four_xi * abst / d2 * (ab * ct - damp) * omega
                     - spring * ct - damp * inv_d)
        damping = neg_two_xi * damp
        torque = damping * omega - mom
        if m0:
            torque += m0 * sin(om0 * t + phi)
        return (omega, torque / kap, v_omega,
                (slope * v_theta + damping * v_omega) / kap)

    return f
