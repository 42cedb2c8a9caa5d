"""Exact free-vibration analysis of the conservative system.

Turning angles, period quadrature and the amplitude-frequency branches
AF1..AF5.  The turning angles, roots of potential(theta) = H, lie between
the critical points of the potential; the potential is a quadratic in the
chord, so each is closed form, and all of a call's energies take them in
one array pass.  A ``freevib`` run makes one call for all its bands: their
energies are sampled together and share one turning-angle pass and one
period pass.  The period follows from the Hamiltonian,

    T = sqrt(kappa/2) * closed-loop integral of d(theta)/sqrt(H - PEN(theta)),

which carries the inertia ratio kappa that the bare energy integral omits.
It is taken by one fixed 96-node Gauss-Legendre rule for every energy of a
call, in one array pass.  Each half of an orbit's angle range is mapped
from its end: theta = turning_point -+ s**2 removes the square-root
singularity at a turning angle, and theta = pole +- s**4 grades the nodes
toward a pole, where the period diverges logarithmically as H nears that
pole's barrier.  The gap H - PEN is taken in a difference form measured
from the end, so it keeps its digits near a well bottom.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .equilibria import CENTER, equilibria_in_period, interior_angle
from .model import (InputError, Params, _radicand, barrier_energies,
                    potential)

__all__ = [
    "level_angles",
    "period_of_energy",
    "amplitude_frequency_curve",
    "energy_bands",
]

_BARRIER_TOL = 1e-12
_NODES = 96
_NO_ORBIT = ("energy must be positive", "energy at a barrier: infinite period",
             "no closed orbit at this energy")


def level_angles(p: Params, levels) -> tuple[np.ndarray, np.ndarray]:
    """Roots of potential(theta) = h on (0, pi) for an array of levels h,
    as (level, angle) arrays: by level in the order given, ascending
    within a level.

    V is monotone on [0, theta_c] and [theta_c, pi] (on [0, pi] without
    the interior angle theta_c), so a piece whose ends straddle h strictly
    holds one root, inside it even where it rounds to an end.  In the chord
    D (D**2 = d**2 + 4*P*sin(theta/2)**2, d = |alpha - beta|, P =
    alpha*beta) V is V* + (D - D*)**2/(2*D*), D* = P/(P + gamma), so from
    the chord c of the piece end nearer h in energy D = c - q/((c - D*) +-
    sqrt((c - D*)**2 - q)), q = 2*(V(c) - h)*D*, the sign the piece's side
    of D*.  Its angle 2*atan2(sqrt(D**2 - d**2), sqrt((alpha + beta)**2 -
    D**2)) takes both factors from the distances D - d and alpha + beta -
    D, which keep their digits beside 0 and pi.
    """
    levels = np.asarray(levels, dtype=float)
    theta_c = interior_angle(p)
    ab, top, d = p.alpha * p.beta, p.alpha + p.beta, abs(p.alpha - p.beta)
    d_star = ab / (ab + p.gamma)
    ends = np.array([0.0, math.pi] if theta_c is None
                    else [0.0, theta_c, math.pi])
    chords = np.array([d, top] if theta_c is None else [d, d_star, top])
    gap = potential(p, ends) - levels[:, None]
    pos, neg = gap > 0.0, gap < 0.0
    j, i = np.nonzero(pos[:, :-1] & neg[:, 1:] | neg[:, :-1] & pos[:, 1:])
    end = np.where(np.abs(gap[j, i]) <= np.abs(gap[j, i + 1]), i, i + 1)
    c, q = chords[end], 2.0 * d_star * gap[j, end]
    u = c - d_star
    side = chords[i] + chords[i + 1] - 2.0 * d_star
    with np.errstate(divide="ignore"):   # c = D*, radicand rounded below 0
        step = -q / (u + np.copysign(np.sqrt(np.maximum(u * u - q, 0.0)),
                                     side))
    chord = np.clip(c + step, chords[i], chords[i + 1])
    rise = np.maximum((c - d) + step, 0.0) * (chord + d)
    room = np.maximum((top - c) - step, 0.0) * (top + chord)
    roots = 2.0 * np.arctan2(np.sqrt(rise), np.sqrt(room))
    return levels[j], np.clip(roots, np.nextafter(ends[i], math.pi),
                              np.nextafter(ends[i + 1], 0.0))


def period_of_energy(p: Params, energy: float) -> float:
    """Exact period of the closed orbit at total energy H.

    Handles all orbit bands: intra-well libration, inter-well libration
    around the theta = 0 barrier, libration around theta = pi, and full
    rotation.  Raises for energies within 1e-12 of a barrier, where the
    period diverges.  The same pass as :func:`amplitude_frequency_curve`,
    with one energy, so both give the same bits.
    """
    period, _, _, why = _orbits(p, np.array([float(energy)]))
    if why[0] >= 0:
        raise ValueError(_NO_ORBIT[why[0]])
    return float(period[0])


@functools.cache
def _rule() -> tuple[np.ndarray, np.ndarray]:
    """The period rule on x in (0, 1): Gauss-Legendre nodes under the maps
    theta = anchor +- width*x**q, q = 2 at a turning angle and q = 4 at a
    pole.  Rows q = 2 and q = 4 of x**q and of weight*q*x**(q - 1)."""
    x, weight = np.polynomial.legendre.leggauss(_NODES)
    x, weight = 0.5 * (x + 1.0), 0.5 * weight
    x2 = x * x
    return (np.array([x2, x2 * x2]),
            np.array([2.0 * x * weight, 4.0 * x2 * x * weight]))


def _drop(p: Params, anchor, sign, delta):
    """V(anchor) - V(theta) at theta = anchor + sign*delta, elementwise, with
    no difference of nearly equal energies taken.

    dc = cos(theta) - cos(anchor) is taken as the product of sines
    -2*sign*sin(anchor + sign*delta/2)*sin(delta/2).  The radical D then
    has D**2 = D_a**2 - 2*alpha*beta*dc, so D_a - D = 2*alpha*beta*dc/(D_a
    + D) and V(anchor) - V(theta) = dc*(alpha*beta*(D_a + D - 2)/(D_a + D)
    + gamma).  D_a**2 - 2*alpha*beta*dc cancels only where D << D_a,
    which a point at most halfway across its orbit from the anchor is not.
    """
    d2_a = _radicand(p.alpha, p.beta, np.sin(0.5 * anchor))
    dcos = ((-2.0 * sign) * np.sin(anchor + sign * (0.5 * delta))
            * np.sin(0.5 * delta))
    ab = p.alpha * p.beta
    total = np.sqrt(d2_a) + np.sqrt(d2_a - 2.0 * ab * dcos)
    return dcos * (ab * (total - 2.0) / total + p.gamma)


def _orbits(p: Params, energies: np.ndarray):
    """``(period, theta_ini, theta_fin, why)`` of the closed orbits at an
    array of energies, the periods in one array pass.  Its fixed cost, some
    hundred small numpy calls, is paid once per call: once per ``freevib``
    run, whose bands share one :func:`amplitude_frequency_curve` call, but
    once per energy where :func:`period_of_energy` is called energy by
    energy.

    The turning angles are the roots of one :func:`level_angles` call over
    the distinct energies; both are NaN for a rotation.  Where no period
    exists, ``why`` indexes the reason in ``_NO_ORBIT`` and the period is
    NaN; elsewhere it is -1.

    Each orbit's angle range [a, b] is split at its middle, and each half
    is taken by :func:`_rule` from its end, with the gap H - V(theta) as
    offset + V(end) - V(theta) by :func:`_drop`.  The offset is 0 at a
    turning angle, so no H - V(theta_t) rounding term enters, and H -
    V(pole) at a pole.
    """
    h1, h2 = barrier_energies(p)
    levels, inverse = np.unique(energies, return_inverse=True)
    at, roots = level_angles(p, levels)
    first = np.searchsorted(at, levels)[inverse]
    n_roots = np.searchsorted(at, levels, side="right")[inverse] - first
    k = np.arange(2)[:, None]     # rows r0 and r1, NaN past a level's roots
    r0, r1 = np.where(k < n_roots, np.append(roots, [math.nan] * 2)[first + k],
                      math.nan)
    why = np.select(
        [energies <= 0.0,
         (np.abs(energies - h1) <= _BARRIER_TOL)
         | (np.abs(energies - h2) <= _BARRIER_TOL),
         (n_roots == 0) & ~(energies > max(h1, h2))], [0, 1, 2], -1)
    across_0 = (n_roots == 1) & (energies > h1)    # orbit (-r, r)
    theta_ini = np.where(across_0, -r0, r0)
    theta_fin = np.where(n_roots == 2, r1,
                         np.where(across_0, r0, 2.0 * math.pi - r0))
    ok = why < 0
    h, n, across_0 = energies[ok], n_roots[ok], across_0[ok]
    rotation = n == 0
    pole_a, pole_b = across_0 | rotation, (n == 1) & ~across_0 | rotation
    a = np.where(pole_a, 0.0, r0[ok])
    b = np.where(n == 2, r1[ok], np.where(across_0, r0[ok], math.pi))
    anchor = np.concatenate([a, b])
    sign = np.repeat([1.0, -1.0], h.size)
    at_pole = np.concatenate([pole_a, pole_b])
    width = 0.5 * np.concatenate([b - a, b - a])
    offset = np.where(at_pole, np.concatenate([h - h1, h - h2]), 0.0)
    powers, weights = _rule()
    q = at_pole.astype(int)
    gap = offset[:, None] + _drop(p, anchor[:, None], sign[:, None],
                                  width[:, None] * powers[q])
    halves = np.sum(width[:, None] * weights[q] / np.sqrt(gap), axis=-1)
    period = np.full(energies.size, math.nan)
    period[ok] = (np.where(n == 1, 4.0, 2.0) * math.sqrt(0.5 * p.kappa)
                  * (halves[:h.size] + halves[h.size:]))
    return period, theta_ini, theta_fin, why


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


def amplitude_frequency_curve(p: Params, bands: dict, branches: list[str],
                              n_samples: int) -> list[np.ndarray]:
    """Rows (energy, theta_ini, theta_fin, amplitude, period, frequency) of
    each AF branch named, given the ``energy_bands(p)``, from one
    :func:`_orbits` pass over the energies of all of them.

    Energies are log-spaced toward the band edges, where the period
    diverges (separatrix) or the orbit shrinks onto the center.  A sampled
    energy with no period (see :func:`period_of_energy`) gives no row.  A
    rotation's turning angles are NaN and its amplitude is pi.  A branch
    whose band these parameters lack raises InputError.  Each turning
    angle and each period is computed on its own, so a branch's rows do not
    depend on the others.
    """
    sampled = []
    for branch in branches:
        if branch not in bands:
            raise InputError(
                f"branch {branch!r} not available; have {sorted(bands)}")
        lo, hi = bands[branch]
        if math.isinf(hi):
            fractions = np.geomspace(1e-3, 30.0, n_samples)
            sampled.append(lo * (1.0 + fractions) if lo > 0 else fractions)
        else:
            fractions = np.geomspace(1e-4, 0.999, n_samples)
            sampled.append(lo + (hi - lo) * fractions)
    energies = np.concatenate(sampled)
    period, theta_ini, theta_fin, why = _orbits(p, energies)
    amplitude = np.where(np.isnan(theta_ini), math.pi,
                         0.5 * np.abs(theta_fin - theta_ini))
    rows = np.column_stack([energies, theta_ini, theta_fin, amplitude,
                            period, 2.0 * math.pi / period])
    ok = (why < 0).reshape(len(branches), n_samples)
    return [band[keep] for band, keep in zip(
        rows.reshape(len(branches), n_samples, 6), ok)]
