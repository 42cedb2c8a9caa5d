"""Equilibria, linearized stability and bifurcation sets.

Equilibria are defined as roots of the restoring moment on (-pi, pi]: the
poles theta = 0 and theta = pi always qualify, and a symmetric pair of
interior roots appears when the radical can reach ``alpha*beta/(alpha*beta +
gamma)``; their angle follows in closed form from that radical.

Only saddles and centers occur: the conservative Jacobian is trace-free, so
the generic node/focus classes of a full singular-point taxonomy have no
reachable instance here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import (Params, _curvature_field, _radicand, _stiffness_field,
                    stiffness)

__all__ = [
    "Equilibrium",
    "BifurcationCurve",
    "SADDLE",
    "CENTER",
    "DEGENERATE",
    "equilibria_in_period",
    "working_center",
    "stiffness_at_poles",
    "classify_region",
    "bifurcation_set",
    "zero_stiffness_set",
    "REGION_DOUBLE_WELL",
    "REGION_SINGLE_WELL_SOFT",
    "REGION_SINGLE_WELL_HARD",
    "REGION_BOUNDARY",
    "REGION_DEGENERATE",
]

SADDLE = "saddle"
CENTER = "center"
DEGENERATE = "degenerate"

REGION_DOUBLE_WELL = "double_well"
REGION_SINGLE_WELL_SOFT = "single_well_soft"
REGION_SINGLE_WELL_HARD = "single_well_hard"
REGION_BOUNDARY = "boundary"
REGION_DEGENERATE = "degenerate"

# Stiffness below this magnitude counts as degenerate.
_KIND_TOL = 1e-9
# Residual tolerance that puts a parameter point on a bifurcation set.
_BOUNDARY_TOL = 1e-9


@dataclass(frozen=True)
class Equilibrium:
    theta: float
    k_local: float
    kind: str
    eigenvalues: tuple[complex, complex]
    branch_id: str  # "theta1".."theta4"


@dataclass
class BifurcationCurve:
    columns: tuple[str, ...]
    samples: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))


def _kind_of(k_local: float) -> str:
    if k_local < -_KIND_TOL:
        return SADDLE
    if k_local > _KIND_TOL:
        return CENTER
    return DEGENERATE


def _make_equilibrium(p: Params, theta: float, branch_id: str) -> Equilibrium:
    try:
        k_local = float(stiffness(p, theta))
    except ValueError:
        # alpha == beta cusp at theta = 0: not linearizable.
        return Equilibrium(theta, -math.inf, DEGENERATE, (complex("nan"),) * 2,
                           branch_id)
    kind = _kind_of(k_local)
    if kind == DEGENERATE:
        eig = (0j, 0j)
    else:
        eig = _eigenpair(k_local, p.kappa)
    return Equilibrium(theta, k_local, kind, eig, branch_id)


def _eigenpair(k_local: float, kappa: float) -> tuple[complex, complex]:
    if k_local < 0.0:
        lam = math.sqrt(-k_local / kappa)
        return complex(lam), complex(-lam)
    lam = math.sqrt(k_local / kappa)
    return complex(0.0, lam), complex(0.0, -lam)


def interior_angle(p: Params) -> float | None:
    """Positive interior root of the moment on (0, pi), or None.

    The root solves ``alpha*beta*(1 - 1/D(theta)) + gamma = 0``, i.e.
    ``D = D* = alpha*beta/(alpha*beta + gamma)``.  With
    ``D^2 = (alpha - beta)^2 + 4*alpha*beta*sin(theta/2)^2`` that is
    ``sin(theta/2)^2 = (D* - |alpha - beta|)*(D* + |alpha - beta|) /
    (4*alpha*beta)``, a product with no cancellation where the interior
    centers are born at theta = 0 (an arccos of the cos form loses digits
    there).  This holds for alpha == beta too, where D vanishes only at the
    cusp.
    """
    ab = p.alpha * p.beta
    d_star = ab / (ab + p.gamma)
    d = abs(p.alpha - p.beta)
    ss = (d_star - d) * (d_star + d) / (4.0 * ab)
    if not 0.0 < ss < 1.0:
        return None
    return 2.0 * math.asin(math.sqrt(ss))


def interior_angle_closed_form(p: Params) -> float | None:
    """gamma = 0 closed form arccos((alpha^2+beta^2-1)/(2*alpha*beta))."""
    if p.gamma != 0.0:
        raise ValueError("closed form valid only for gamma = 0")
    c = (p.alpha**2 + p.beta**2 - 1.0) / (2.0 * p.alpha * p.beta)
    if not -1.0 < c < 1.0:
        return None
    return math.acos(c)


def _chord_angle(chord, d, ab):
    """The angle in [0, pi] of the chord D over arrays, clipped to D's range
    [d, alpha + beta] (d = |alpha - beta|, ab = alpha*beta), as in
    :func:`interior_angle`."""
    ss = (chord - d) * (chord + d) / (4.0 * ab)
    return 2.0 * np.arcsin(np.sqrt(np.clip(ss, 0.0, 1.0)))


def equilibria_in_period(p: Params) -> list[Equilibrium]:
    """All equilibria on (-pi, pi], annotated with stiffness and kind."""
    out = [
        _make_equilibrium(p, 0.0, "theta1"),
        _make_equilibrium(p, math.pi, "theta2"),
    ]
    theta_star = interior_angle(p)
    if theta_star is not None:
        out.append(_make_equilibrium(p, theta_star, "theta3"))
        out.append(_make_equilibrium(p, -theta_star, "theta4"))
    return out


def working_center(p: Params) -> Equilibrium:
    """The center with the largest theta, about which the forced response
    (cubic fit and full-system sweep) is taken."""
    centers = [e for e in equilibria_in_period(p) if e.kind == CENTER]
    if not centers:
        raise ValueError("no center equilibrium for this parameter point")
    return max(centers, key=lambda e: e.theta)


def stiffness_at_poles(p: Params) -> tuple[float, float]:
    """Closed-form stiffness (K1, K2) at theta = 0 and theta = pi.

    For alpha == beta the pole at 0 is a nonsmooth cusp and K1 is reported
    as -inf rather than a linearizable stiffness.
    """
    ab = p.alpha * p.beta
    k2 = -(ab + p.gamma - ab / (p.alpha + p.beta))
    if p.alpha == p.beta:
        return -math.inf, k2
    k1 = ab + p.gamma - ab / abs(p.alpha - p.beta)
    return k1, k2


def classify_region(p: Params) -> str:
    """Coarse parameter-plane label from pole stiffness and interior centers.

    The three soft single-well sub-regions of the parameter plane share one
    label; their mutual boundaries are the B1 curve (K1 = 0) and the B2
    curve (K2 = 0), which :func:`bifurcation_set` gives in closed form.
    """
    if p.alpha == p.beta:
        return REGION_DEGENERATE
    k1, k2 = stiffness_at_poles(p)
    if abs(k1) < _BOUNDARY_TOL or abs(k2) < _BOUNDARY_TOL:
        return REGION_BOUNDARY
    if k1 < 0.0 and interior_angle(p) is not None:
        return REGION_DOUBLE_WELL
    if k1 > 0.0:
        return REGION_SINGLE_WELL_HARD
    return REGION_SINGLE_WELL_SOFT


# _refine and _newton_start: Newton steps and their stopping size in ulps;
# _refine's ladder rungs w*4**k, and which probes (est - rungs, est,
# est + rungs) may narrow the low and the high end.
_NEWTON_STEPS = 8
_NEWTON_ULPS = 64
_LADDER = 8
_RUNGS = 4.0 ** np.arange(_LADDER)
_BELOW = np.arange(2 * _LADDER + 1) <= _LADDER
_ABOVE = np.arange(2 * _LADDER + 1) >= _LADDER


def _refine(f, slope, r, lo, hi, lo_above, est):
    """The zero of ``f(x, r)`` in each bracket [lo, hi] from the start est,
    over arrays of brackets; f > 0 holds at lo where lo_above, and at hi
    where not.  Each root is 0.5*(lo + hi) of an adjacent-float pair across
    which f > 0 changes, and depends on its own bracket's arguments only.

    Safeguarded Newton steps (``rtsafe``, Press et al., *Numerical Recipes*
    sec. 9.4) with ``slope(x, r)`` = df/dx narrow each bracket by the
    predicate at every point evaluated; a point outside the closed bracket
    or not finite, and a start where the slope is not finite, becomes the
    midpoint (with no usable slope, plain bisection).  A bracket stops when
    its step is within _NEWTON_ULPS ulps, or after _NEWTON_STEPS steps.
    One call of f on probes at w*4**k on each side of the estimate (w its
    last step plus 2 ulps, k < _LADDER), which reach past rounding noise
    over many ulps, keeps on each side the innermost probe that agrees with
    that side.  Bisection closes the brackets still open to adjacent
    floats.  A wrong slope costs steps, not the contract.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        d = slope(est, r)
        ok = np.isfinite(d) & (lo <= est) & (est <= hi)
        if not ok.all():
            est = np.where(ok, est, 0.5 * (lo + hi))
            d = slope(est, r)
        est, step = np.array(est, dtype=float), np.zeros(lo.size)
        live = np.arange(lo.size)
        for n in range(1, _NEWTON_STEPS + 1):
            x, rl, a, b = est[live], r[live], lo[live], hi[live]
            fx = f(x, rl)
            to_lo = (fx > 0.0) == lo_above[live]
            a, b = np.where(to_lo, x, a), np.where(to_lo, b, x)
            lo[live], hi[live] = a, b
            new = x - fx / d
            new = np.where((a <= new) & (new <= b), new, 0.5 * (a + b))
            dx = np.abs(new - x)
            est[live], step[live] = new, dx
            live = live[dx > _NEWTON_ULPS * np.spacing(new)]
            if n == _NEWTON_STEPS or not live.size:
                break
            d = slope(est[live], r[live])
        rungs = (step + 2.0 * np.spacing(est))[:, None] * _RUNGS
        probes = np.concatenate([est[:, None] - rungs, est[:, None],
                                 est[:, None] + rungs], axis=1)
        agree = (f(probes, r[:, None]) > 0.0) == lo_above[:, None]
        lo = np.maximum(lo, np.where(agree & _BELOW, probes, -np.inf)
                        .max(axis=1))
        hi = np.minimum(hi, np.where(~agree & _ABOVE, probes, np.inf)
                        .min(axis=1))
        live = np.arange(lo.size)
        while True:
            a, b = lo[live], hi[live]
            mid = 0.5 * (a + b)
            open_ = (mid != a) & (mid != b)
            live, mid = live[open_], mid[open_]
            if not live.size:
                return 0.5 * (lo + hi)
            to_lo = (f(mid, r[live]) > 0.0) == lo_above[live]
            lo[live[to_lo]] = mid[to_lo]
            hi[live[~to_lo]] = mid[~to_lo]


def _newton_start(f, lo, hi, lo_above, est):
    """A start for :func:`_refine` in each bracket [lo, hi], over arrays:
    ``f(x)`` returns (f, df/dx), and f > 0 holds at lo where lo_above, and
    at hi where not.

    Safeguarded Newton steps from est narrow each bracket by the sign of f
    at each iterate; a step that leaves the closed bracket, or is not
    finite, is a bisection step.  They stop once every step is within
    _NEWTON_ULPS ulps, or after _NEWTON_STEPS steps.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_NEWTON_STEPS):
            fx, slope = f(est)
            to_lo = (fx > 0.0) == lo_above
            lo, hi = np.where(to_lo, est, lo), np.where(to_lo, hi, est)
            new = est - fx / slope
            new = np.where((lo <= new) & (new <= hi), new, 0.5 * (lo + hi))
            done = np.all(np.abs(new - est) <= _NEWTON_ULPS * np.spacing(new))
            est = new
            if done:
                break
    return est


def bifurcation_set(variant: str, gamma: float, alpha_grid,
                    beta_grid) -> BifurcationCurve:
    """Zero set of the B1 or B2 residual: for each beta in order, its roots
    in [min alpha_grid, max alpha_grid], ascending.

    B1 is K1 = 0 and B2 is K2 = 0 (:func:`stiffness_at_poles`).  Cleared of
    its denominator, each is a quadratic beta*alpha^2 + b*alpha + k*beta in
    alpha, k = -gamma for B1 (one quadratic per side of the cusp line) and
    k = gamma for B2.  Its roots are k*beta/q and q/beta, q = -(b +
    sign(b)*sqrt(b^2 - 4*k*beta^2))/2: the stable formula, with no
    iteration.  They multiply to k, so B1 has at most one positive root on
    each side, and B2 none or two; B2 has none for gamma > 1/16, the
    largest alpha*beta*(1 - alpha - beta)/(alpha + beta) takes.
    """
    if variant not in ("B1", "B2"):
        raise ValueError("variant must be 'B1' or 'B2'")
    alpha_grid = np.asarray(alpha_grid, dtype=float)
    beta = np.asarray(beta_grid, dtype=float)[:, None, None]
    # B1 below the cusp line, then above it; B2
    if variant == "B1":
        b, k = np.concatenate([gamma + beta * (1.0 - beta),
                               gamma - beta * beta - beta], axis=1), -gamma
    else:
        b, k = beta * (beta - 1.0) + gamma, gamma
    with np.errstate(divide="ignore", invalid="ignore"):   # 0/0 at gamma = 0
        q = -0.5 * (b + np.copysign(np.sqrt(b * b - 4.0 * k * beta * beta),
                                    b))
        roots = np.concatenate([k * beta / q, q / beta], axis=2)
        keep = ((0.0 < roots) & (alpha_grid.min() <= roots)
                & (roots <= alpha_grid.max()))
    if variant == "B1":   # each B1 root on its own side of the cusp line
        keep &= (roots > beta) == np.array([False, True])[:, None]
    j, i, r = np.nonzero(keep)
    samples = np.column_stack(np.broadcast_arrays(roots[j, i, r],
                                                  beta[j, 0, 0], gamma))
    return BifurcationCurve(("alpha", "beta", "gamma"), samples)


def zero_stiffness_set(beta: float, gamma: float,
                       alpha_grid) -> BifurcationCurve:
    """Zero set of the stiffness: for each alpha in order, its angles in
    [1e-9, pi - 1e-9], ascending (the set is even in theta).

    With P = alpha*beta, L = P + gamma, S = alpha^2 + beta^2 and d = alpha
    - beta, 4*P*K*D^3 is the quintic p(D) = D^3*q(D) - P*d^2*(alpha +
    beta)^2 in the chord D, q(D) = D*(P - 2*L*D) + 2*L*S; D rises with
    theta from |d| to alpha + beta.  Its slope p'(D) = D^2*(-10*L*D^2 +
    4*P*D + 6*L*S) has one positive root, D* = (2*P + sqrt(4*P^2 +
    60*L^2*S))/(10*L), so K has at most one zero on each side of D*'s
    angle (mapped as in :func:`interior_angle`; an end of the range where
    D* lies outside (|d|, alpha + beta)).  Each of the two brackets whose
    ends have strictly opposite signs of K holds one zero.  Safeguarded
    Newton steps on p (:func:`_newton_start`) start where p rises from the
    chord at which its constant term balances the rest, cbrt(P*d^2*(alpha
    + beta)^2 / q) with q at the bracket's low end, and where p falls from
    the root of q.  The angle of the chord they reach starts
    :func:`_refine` (slope dK/dtheta = M'').
    """
    lo, hi = 1e-9, math.pi - 1e-9
    a = np.asarray(alpha_grid, dtype=float)
    p, d = a * beta, np.abs(a - beta)
    lead, s2 = p + gamma, a * a + beta * beta
    peak = (2.0 * p + np.sqrt(4.0 * p * p + 60.0 * lead * lead * s2)) / (
        10.0 * lead)
    ends = np.column_stack([np.full(a.size, lo),
                            np.clip(_chord_angle(peak, d, p), lo, hi),
                            np.full(a.size, hi)])
    vals = _stiffness_field(a[:, None], beta, gamma, ends)
    pos, neg = vals > 0.0, vals < 0.0
    j, i = np.nonzero(pos[:, :-1] & neg[:, 1:] | neg[:, :-1] & pos[:, 1:])
    th_lo, th_hi, lo_above = ends[j, i], ends[j, i + 1], pos[j, i]
    a, p, d, lead, s2 = a[j], p[j], d[j], lead[j], s2[j]
    rest = p * (d * (a + beta)) ** 2
    chord_lo, chord_hi = (np.sqrt(_radicand(a, beta, np.sin(0.5 * th)))
                          for th in (th_lo, th_hi))

    def q(chord):
        return chord * (p - 2.0 * lead * chord) + 2.0 * lead * s2

    with np.errstate(divide="ignore"):
        start = np.where(lo_above, (p + np.sqrt(p * p + 16.0 * lead * lead
                                                * s2)) / (4.0 * lead),
                         np.cbrt(rest / q(chord_lo)))
    chord = _newton_start(
        lambda x: (x * x * x * q(x) - rest,
                   x * x * (x * (4.0 * p - 10.0 * lead * x) + 6.0 * lead
                            * s2)),
        chord_lo, chord_hi, lo_above, np.clip(start, chord_lo, chord_hi))
    roots = _refine(lambda th, r: _stiffness_field(r, beta, gamma, th),
                    lambda th, r: _curvature_field(r, beta, gamma, th,
                                                   third=False),
                    a, th_lo, th_hi, lo_above, _chord_angle(chord, d, p))
    samples = np.column_stack(np.broadcast_arrays(roots, a, beta, gamma))
    return BifurcationCurve(("theta", "alpha", "beta", "gamma"), samples)
