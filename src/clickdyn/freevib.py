"""Exact free-vibration analysis of the conservative system.

Turning angles, period quadrature and the amplitude-frequency branches
AF1..AF5.  The turning angles, roots of potential(theta) = H, are bisected
between the critical points of the potential.  The period follows from the
Hamiltonian,

    T = sqrt(kappa/2) * closed-loop integral of d(theta)/sqrt(H - PEN(theta)),

which carries the inertia ratio kappa that the bare energy integral omits.
Square-root endpoint singularities at the turning angles are removed by the
substitution theta = turning_point -+ s**2 before quadrature.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from .equilibria import CENTER, equilibria_in_period, interior_angle
from .model import (InputError, Params, barrier_energies, potential,
                    scalar_potential)

__all__ = [
    "FreeVibPoint",
    "level_angles",
    "period_of_energy",
    "amplitude_frequency_curve",
    "energy_bands",
]

_BARRIER_TOL = 1e-12
_QUAD_ABS = 1e-10


@dataclass(frozen=True)
class FreeVibPoint:
    energy: float
    theta_ini: float | None
    theta_fin: float | None
    amplitude: float
    period: float
    frequency: float


def level_angles(p: Params, h: float) -> list[float]:
    """Roots of potential(theta) = h on (0, pi), ascending.

    On (0, pi) the moment vanishes only at the interior angle theta_c, so
    V is monotone on [0, theta_c] and [theta_c, pi] (on [0, pi] without
    theta_c) and each piece holds at most one root.  A piece whose ends
    straddle h strictly is bisected until its ends are adjacent floats.
    """
    v = scalar_potential(p)
    theta_c = interior_angle(p)
    ends = [0.0, math.pi] if theta_c is None else [0.0, theta_c, math.pi]
    roots = []
    for lo, hi in zip(ends, ends[1:]):
        gap_lo = v(lo) - h
        if not gap_lo * (v(hi) - h) < 0.0:
            continue
        lo_above = gap_lo > 0.0
        while True:
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            if (v(mid) > h) == lo_above:
                lo = mid
            else:
                hi = mid
        roots.append(mid)
    return roots


def _quad_segment(p: Params, energy: float, a: float, b: float,
                  singular_a: bool, singular_b: bool) -> float:
    """integral of d(theta)/sqrt(H - PEN) over [a, b] with endpoint care."""

    v = scalar_potential(p)

    def integrand(theta):
        # rounding can put V at or above H right beside a turning angle,
        # where the exact integrand is finite after the substitution
        gap = energy - v(theta)
        return 1.0 / math.sqrt(gap) if gap > 0.0 else 0.0

    total = 0.0
    if singular_a and singular_b:
        mid = 0.5 * (a + b)
        total += _quad_segment(p, energy, a, mid, True, False)
        total += _quad_segment(p, energy, mid, b, False, True)
        return total
    with warnings.catch_warnings():
        # near a barrier the period diverges logarithmically; the slow-
        # convergence warning is expected there and the value still usable
        warnings.simplefilter("ignore", IntegrationWarning)
        if singular_a:
            s_max = math.sqrt(b - a)
            val, _ = quad(lambda s: 2.0 * s * integrand(a + s * s), 0.0, s_max,
                          epsabs=_QUAD_ABS, epsrel=1e-11, limit=200)
        elif singular_b:
            s_max = math.sqrt(b - a)
            val, _ = quad(lambda s: 2.0 * s * integrand(b - s * s), 0.0, s_max,
                          epsabs=_QUAD_ABS, epsrel=1e-11, limit=200)
        else:
            val, _ = quad(integrand, a, b, epsabs=_QUAD_ABS, epsrel=1e-11,
                          limit=200)
    return val


def period_of_energy(p: Params, energy: float) -> float:
    """Exact period of the closed orbit at total energy H.

    Handles all orbit bands: intra-well libration, inter-well libration
    around the theta = 0 barrier, libration around theta = pi, and full
    rotation.  Raises for energies within 1e-12 of a barrier, where the
    period diverges.
    """
    return _orbit(p, energy)[0]


def _orbit(p: Params,
           energy: float) -> tuple[float, float | None, float | None]:
    """``(period, theta_ini, theta_fin)`` of the closed orbit at energy H.

    The turning angles come from one :func:`level_angles` solve; they are
    None for a rotation.  Raises as :func:`period_of_energy` does.
    """
    if energy <= 0.0:
        raise ValueError("energy must be positive")
    h1, h2 = barrier_energies(p)
    for barrier in (h1, h2):
        if abs(energy - barrier) <= _BARRIER_TOL:
            raise ValueError("energy at a barrier: infinite period")
    scale = math.sqrt(0.5 * p.kappa)
    roots = level_angles(p, energy)
    if len(roots) == 2:
        # libration inside one well on (0, pi)
        return 2.0 * scale * _quad_segment(p, energy, roots[0], roots[1],
                                           True, True), roots[0], roots[1]
    if len(roots) == 1:
        r = roots[0]
        if energy > h1:
            # symmetric orbit across theta = 0: (-r, r)
            return 4.0 * scale * _quad_segment(p, energy, 0.0, r,
                                               False, True), -r, r
        # orbit around theta = pi: (r, 2*pi - r), symmetric about pi
        return 4.0 * scale * _quad_segment(p, energy, r, math.pi,
                                           True, False), r, 2.0 * math.pi - r
    if energy > max(h1, h2):
        # rotation: one full revolution
        return 2.0 * scale * _quad_segment(p, energy, 0.0, math.pi,
                                           False, False), None, None
    raise ValueError("no closed orbit at this energy")


def energy_bands(p: Params) -> dict[str, tuple[float, float]]:
    """Energy bands of the AF branches for the current parameter region.

    Region IV (double well): AF3 intra-well (0, H1), AF4 inter-well
    (H1, H2), AF5 rotation (H2, inf).  Single-well parameters: AF1
    libration (well bottom, barrier), AF2 rotation (barrier, inf).
    """
    h1, h2 = barrier_energies(p)
    eqs = equilibria_in_period(p)
    centers = [e for e in eqs if e.kind == CENTER]
    interior = [e for e in centers if e.branch_id in ("theta3", "theta4")]
    if interior:
        v_min = float(potential(p, interior[0].theta))
        b_lo, b_hi = min(h1, h2), max(h1, h2)
        return {
            "AF3": (v_min, b_lo),
            "AF4": (b_lo, b_hi),
            "AF5": (b_hi, math.inf),
        }
    if not centers:
        raise ValueError("no center equilibrium: no free-vibration bands")
    v_min = min(float(potential(p, e.theta)) for e in centers)
    barrier = max(h1, h2)
    return {"AF1": (v_min, barrier), "AF2": (barrier, math.inf)}


def amplitude_frequency_curve(p: Params, branch: str,
                              n_samples: int = 30) -> list[FreeVibPoint]:
    """Sampled (amplitude, frequency) points of one AF branch.

    Energies are log-spaced toward the band edges, where the period
    diverges (separatrix) or the orbit shrinks onto the center.  A branch
    whose band these parameters lack raises InputError.
    """
    bands = energy_bands(p)
    if branch not in bands:
        raise InputError(
            f"branch {branch!r} not available; have {sorted(bands)}")
    lo, hi = bands[branch]
    if math.isinf(hi):
        fractions = np.geomspace(1e-3, 30.0, n_samples)
        energies = lo * (1.0 + fractions) if lo > 0 else fractions
    else:
        fractions = np.geomspace(1e-4, 0.999, n_samples)
        energies = lo + (hi - lo) * fractions
    points = []
    for h in energies:
        try:
            period, t_ini, t_fin = _orbit(p, float(h))
        except ValueError:
            continue
        amplitude = math.pi if t_ini is None else 0.5 * abs(t_fin - t_ini)
        points.append(
            FreeVibPoint(
                energy=float(h),
                theta_ini=t_ini,
                theta_fin=t_fin,
                amplitude=amplitude,
                period=period,
                frequency=2.0 * math.pi / period,
            )
        )
    return points
