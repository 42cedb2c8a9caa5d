"""Single-term harmonic balance of the cubic approximation.

The forced response is analyzed on the canonical cubic oscillator

    kappa * x'' + 2*xi * x' + x + eps * x^3 = B * sin(s * T)

whose single-harmonic balance gives the amplitude relationship

    ((1 - kappa*s^2 + 0.75*eps*A^2)^2 + (2*xi*s)^2) * A^2 = B^2.

The drive amplitude is normalized so that the static (s -> 0, eps = 0)
response equals B, i.e. B = M0 / K in physical terms.  The cubic fit about
a center takes the moment's Taylor coefficients in closed form; about an
asymmetric center its quadratic term enters eps as the effective cubic
coefficient, and is reported alongside.  The relation is a cubic in
u = A^2 whose discriminant gives both the root count and the folds.

The swept response comes from direct integration instead: continuation of
the period-1 orbits of the cubic oscillator or of the full system, by
Newton shooting on the period map and pseudo-arclength steps around its
folds.  The sweeps read their orbits off the stable segments of the
branches they settle on, and a jump is a change of segment.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace

import numpy as np

from .equilibria import (CENTER, Equilibrium, _bracketed_newton, _refine,
                         working_center)
from .integrate import (IntegratorSpec, StepUnderflow, _refine_crossing,
                        _strobe, integrate_rhs)
from .model import InputError, Params, _curvature_field, scalar_rhs

__all__ = [
    "CubicApprox",
    "SweepResult",
    "fit_cubic",
    "frf_amplitudes",
    "fold_frequencies",
    "backbone",
    "sweep_hysteresis",
]


@dataclass(frozen=True)
class CubicApprox:
    omega_n: float        # linearized frequency at the expansion center
    epsilon: float        # effective cubic coefficient, normalized by k
    origin_theta: float   # expansion center
    quad_coeff: float = 0.0     # quadratic Taylor coefficient of the moment

    def __post_init__(self):
        if self.omega_n <= 0.0:
            raise InputError("omega_n must be positive")


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
    periods: int                   # drive periods integrated, in all


def fit_cubic(p: Params, eq: Equilibrium) -> CubicApprox:
    """Cubic approximation of the system moment about a center equilibrium.

    The Taylor coefficients are closed form, k with ``eq.k_local``'s bits.
    The quadratic term q = M''/(2k) of an asymmetric well shifts the
    frequency at the order of the cubic one, so ``epsilon`` is the
    effective M'''/(6k) - (10/9)*q^2 (Nayfeh & Mook, *Nonlinear
    Oscillations*, sec. 4.1).
    """
    if eq.kind != CENTER:
        raise ValueError(f"cubic fit requires a center, got {eq.kind}")
    k = eq.k_local
    m2, m3 = map(float, _curvature_field(p.alpha, p.beta, p.gamma, eq.theta))
    q = m2 / (2.0 * k)
    return CubicApprox(omega_n=math.sqrt(k / p.kappa),
                       epsilon=m3 / (6.0 * k) - (10.0 / 9.0) * q * q,
                       origin_theta=eq.theta, quad_coeff=0.5 * m2)


def _coefficients(s, eps, kappa, xi, b_amp):
    """(c3, c2, c1, c0) of the amplitude cubic c3*u^3 + c2*u^2 + c1*u + c0
    in u = A^2, and lin = 1 - kappa*s^2."""
    lin = 1.0 - kappa * s * s
    return (0.5625 * eps * eps, 1.5 * eps * lin,
            lin * lin + (2.0 * xi * s) ** 2, -(b_amp * b_amp), lin)


def _discriminant(s, eps, kappa, xi, b_amp):
    """Discriminant of the amplitude cubic c3*u^3 + c2*u^2 + c1*u + c0.

    The cubic in u = A^2 has no root u <= 0: three positive roots where
    this is positive, one where it is negative.  s may be an array.
    """
    c3, c2, c1, c0, _ = _coefficients(s, eps, kappa, xi, b_amp)
    return (18.0 * c3 * c2 * c1 * c0 - 4.0 * c2**3 * c0 + c2 * c2 * c1 * c1
            - 4.0 * c3 * c1**3 - 27.0 * c3 * c3 * c0 * c0)


def _discriminant_slope(s, eps, kappa, xi, b_amp):
    """d/ds of :func:`_discriminant` by the chain rule through c2 and c1,
    with dc2/ds = -3*eps*kappa*s and dc1/ds = 4*s*(2*xi^2 - kappa*lin)."""
    c3, c2, c1, c0, lin = _coefficients(s, eps, kappa, xi, b_amp)
    by_c2 = 18.0 * c3 * c1 * c0 - 12.0 * c2 * c2 * c0 + 2.0 * c2 * c1 * c1
    by_c1 = 18.0 * c3 * c2 * c0 + 2.0 * c2 * c2 * c1 - 12.0 * c3 * c1 * c1
    return (by_c2 * (-3.0 * eps * kappa * s)
            + by_c1 * (4.0 * s * (2.0 * xi * xi - kappa * lin)))


def frf_amplitudes(cubic: CubicApprox, kappa: float, xi: float,
                   b_amp: float, s) -> tuple[np.ndarray, np.ndarray]:
    """All positive-amplitude HBM roots at a 1-D array of frequency ratios
    s, as arrays (A, phi) of one row per s, each row ascending in A with
    NaN past its roots.

    In w = 0.75*eps*u, u = A^2, the amplitude relation is the monic cubic
    w^3 + 2*lin*w^2 + (lin^2 + d2)*w = 0.75*eps*B^2.  After the shift
    w = t - 2*lin/3 it has three roots in trigonometric form where
    :func:`_discriminant` is positive, one by Cardano where it is
    negative.  A Newton step on the residual polishes each root; it is
    kept only where it lowers the residual, which beside a double root it
    need not.  Each row is computed on its own, so it does not depend on
    the other s of the call.
    """
    s_arr = np.asarray(s, dtype=float)
    if s_arr.ndim != 1 or not np.all((s_arr > 0.0) & (s_arr < math.inf)):
        raise InputError("frequency ratios s must be a 1-D array of finite "
                         "positive values")
    if b_amp < 0.0:
        raise InputError("drive amplitude must be nonnegative")
    eps = cubic.epsilon
    lin = (1.0 - kappa * s_arr * s_arr)[:, None]
    damp2 = ((2.0 * xi * s_arr) ** 2)[:, None]

    def residual(u):
        g = lin + 0.75 * eps * u
        return (g * g + damp2) * u - b_amp**2

    if eps == 0.0 or b_amp == 0.0:
        u = b_amp**2 / (lin * lin + damp2)
    else:
        p = damp2 - lin * lin / 3.0
        q = (-(2.0 / 27.0) * lin * lin * lin - (2.0 / 3.0) * lin * damp2
             - 0.75 * eps * b_amp**2)
        with np.errstate(divide="ignore", invalid="ignore"):
            # three: 2m*cos(angle/3 - 2*pi*k/3), k = 0, 1, 2 (p < 0 there)
            m = np.sqrt(np.maximum(-p / 3.0, 0.0))
            angle = np.arccos(np.clip(-q / (2.0 * m * m * m), -1.0, 1.0))
            trig = 2.0 * m * np.cos(angle / 3.0 - (2.0 * math.pi / 3.0)
                                    * np.arange(3))
            # one: Cardano, its cube root taken without cancellation
            c = -np.copysign(np.cbrt(0.5 * np.abs(q) + np.sqrt(
                np.maximum(0.25 * q * q + p * p * p / 27.0, 0.0))), q)
            one = np.where(c == 0.0, 0.0, c - p / (3.0 * c))
            three = _discriminant(s_arr, eps, kappa, xi, b_amp) > 0.0
            t = np.where(three[:, None], trig,
                         np.where(np.arange(3) == 0, one, np.nan))
            u = (t - (2.0 / 3.0) * lin) / (0.75 * eps)
            g = lin + 0.75 * eps * u
            newton = u - residual(u) / (g * g + damp2 + 1.5 * eps * g * u)
            u = np.where(np.abs(residual(newton)) < np.abs(residual(u)),
                         newton, u)
    u = np.sort(np.where(u > 0.0, u, np.nan), axis=1)
    return np.sqrt(u), np.arctan2(2.0 * xi * s_arr[:, None],
                                  lin + 0.75 * eps * u)


def _locus_cuts(e, c, u_max):
    """The u in [0, u_max], ascending, between which B^2 and s^2 are
    monotone along each branch of the double-root locus (as in
    :func:`fold_frequencies`): the ends, where the branches meet
    (4*e^2*u^2 - 8*c*e*u + c^2 - 4*c = 0), the cusp ((3/4)*e^2*u^2 -
    (3/2)*c*e*u - c = 0, where s^2 turns too) and y = c/2 (u = (c/4 -
    1)/(2*e))."""
    meet, cusp = math.sqrt(3.0 * c * c + 4.0 * c), math.sqrt(c * c + c / 0.75)
    cuts = [0.0, u_max, (0.25 * c - 1.0) / (2.0 * e), (c - cusp) / e,
            (c + cusp) / e, (2.0 * c - meet) / (2.0 * e),
            (2.0 * c + meet) / (2.0 * e)]
    return np.unique(np.clip(cuts, 0.0, u_max))


def fold_frequencies(cubic: CubicApprox, kappa: float, xi: float,
                     b_amp: float, s_lo: float, s_hi: float) -> np.ndarray:
    """Frequencies in [s_lo, s_hi] where the HBM root count changes (fold
    points), ascending.

    A fold is a double root u = A^2 of the amplitude cubic.  With e =
    0.75*eps, c = 4*xi^2/kappa and y = 1 - kappa*s^2 + e*u, d/du of the
    amplitude relation gives y^2 + (2*e*u - c)*y + c*(1 + e*u) = 0, whose
    two roots y(u) are the branches of the double-root locus; on them
    s^2 = (1 + e*u - y)/kappa and B^2 = -2*e*u^2*y.  No fold at s <= s_hi
    has u beyond kappa*s_hi^2/e (hardening) or 1/|e| (softening).  Between
    the points of :func:`_locus_cuts` both are monotone along each branch,
    so a piece holds a fold at this drive only where B^2(u) - B^2 has
    strictly opposite signs at its ends, and one in [s_lo, s_hi] only
    where its s^2 range meets [s_lo^2, s_hi^2].
    :func:`~clickdyn.equilibria._bracketed_newton` in u estimates each,
    from the secant's root on cbrt(B^2), on which a power of u is a line.
    The estimates' s, ascending, are closed on :func:`_discriminant` by
    :func:`_refine` (slope :func:`_discriminant_slope`), each in the
    bracket about it as wide as the nearest of the midpoints to its
    neighbours, s_lo and s_hi, and its piece's s range, where the
    discriminant has strictly opposite signs at its ends.  Far from a fold
    its rounded sign can be noise (at xi = 0 and large s), so the bracket
    is as local as the neighbours let it be.  Without a cubic term or a
    drive there is no fold.  Refuses, with InputError, a range other than
    finite 0 < s_lo < s_hi, kappa <= 0 and xi < 0.
    """
    if not (0.0 < s_lo < s_hi < math.inf and kappa > 0.0 and xi >= 0.0):
        raise InputError("need finite 0 < s_lo < s_hi, kappa > 0, xi >= 0")
    eps = cubic.epsilon
    if eps == 0.0 or b_amp == 0.0:
        return np.empty(0)
    e, c, bb = 0.75 * eps, 4.0 * xi * xi / kappa, b_amp * b_amp
    u = _locus_cuts(e, c, (kappa * s_hi * s_hi if e > 0.0 else 1.0) / abs(e))

    def locus(u, sign):
        """y = (c - 2*e*u + sign*root)/2 on the branch of the sign, B^2,
        s^2, and root, that of the quadratic's discriminant (0 where the
        branches meet).  y is the root of larger magnitude by the stable
        formula, or the other from their product c*(1 + e*u)."""
        b = 2.0 * e * u - c
        root = np.sqrt(np.maximum(b * b - 4.0 * c * (1.0 + e * u), 0.0))
        big = -0.5 * (b + np.copysign(root, b))
        y = np.where(sign * np.copysign(1.0, b) < 0.0, big,
                     c * (1.0 + e * u) / np.where(big == 0.0, 1.0, big))
        return y, -2.0 * e * u * u * y, (1.0 + e * u - y) / kappa, root

    def gap(u, sign):
        """B^2(u) - B^2 and its slope; dy/du = -e*(2*y + c)/(sign*root)."""
        y, b2, _, root = locus(u, sign)
        return b2 - bb, -2.0 * e * u * (2.0 * y - e * u * (2.0 * y + c)
                                        / (sign * root))

    branch = np.array([[1.0], [-1.0]])
    _, b2, x2, _ = locus(u, branch)
    pos, neg = b2 > bb, b2 < bb
    mid = 0.5 * (u[:-1] + u[1:])
    k, i = np.nonzero((pos[:, :-1] & neg[:, 1:] | neg[:, :-1] & pos[:, 1:])
                      & ((2.0 * e * mid - c) ** 2 > 4.0 * c * (1.0 + e * mid))
                      & (np.maximum(x2[:, :-1], x2[:, 1:]) >= s_lo * s_lo)
                      & (np.minimum(x2[:, :-1], x2[:, 1:]) <= s_hi * s_hi))
    if not k.size:      # no piece holds a fold in [s_lo, s_hi]
        return np.empty(0)
    sign, cb = branch[k, 0], np.cbrt(bb)
    h0, h1 = np.cbrt(b2[k, i]) - cb, np.cbrt(b2[k, i + 1]) - cb
    root_u = _bracketed_newton(gap, sign, u[i], u[i + 1], pos[k, i],
                               u[i] + (u[i + 1] - u[i]) * (h0 / (h0 - h1)))[0]
    # the estimates' s, ascending, each with the s of its piece's ends
    x2 = np.vstack([locus(root_u, sign)[2], x2[k, i], x2[k, i + 1]])
    x2 = x2[:, x2[0] > 0.0]
    est, s_a, s_b = np.sqrt(x2[:, np.argsort(x2[0])].clip(0.0))
    edges = np.clip(np.concatenate([[s_lo], 0.5 * (est[:-1] + est[1:]),
                                    [s_hi]]), s_lo, s_hi)
    half = np.minimum(est - np.maximum(edges[:-1], np.minimum(s_a, s_b)),
                      np.minimum(edges[1:], np.maximum(s_a, s_b)) - est)
    lo, hi = est - half, est + half
    f_lo, f_hi = (_discriminant(x, eps, kappa, xi, b_amp) for x in (lo, hi))
    i = np.flatnonzero((np.sign(f_lo) * np.sign(f_hi) < 0.0) & (half > 0.0))
    return _refine(lambda s, b: _discriminant(s, eps, kappa, xi, b),
                   lambda s, b: _discriminant_slope(s, eps, kappa, xi, b),
                   np.full(i.size, b_amp), lo[i], hi[i], f_lo[i] > 0.0,
                   est[i])


def backbone(cubic: CubicApprox, kappa: float, a_grid) -> np.ndarray:
    """Backbone samples (a, s_kappa, s_squared_unit).

    ``s_kappa = sqrt((1 + 0.75*eps*a^2) / kappa)`` is consistent with the
    amplitude relationship; ``s_squared_unit = 1 + 0.75*eps*a^2`` is the
    commonly plotted kappa = 1 form.  Entries with negative radicand are
    dropped.
    """
    a = np.asarray(a_grid, dtype=float).reshape(-1)
    if np.any(a <= 0.0):
        raise InputError("backbone amplitudes must be positive")
    val = 1.0 + 0.75 * cubic.epsilon * a * a
    a, val = a[~(val < 0.0)], val[~(val < 0.0)]
    return np.column_stack((a, np.sqrt(val / kappa), val))


# Newton on the period map: at most _NEWTON_ITER iterates per attempt.  A
# transient runs in blocks of _BLOCK periods between attempts, at most about
# _MAX_PERIODS periods per point; a trace of a branch stops once it has
# spent _MAX_PERIODS periods per grid point.
_NEWTON_ITER = 8
_BLOCK = 20
_MAX_PERIODS = 1200


def _monodromy(period, x, px, delta):
    """Finite-difference Jacobian of P at x, row-major (a, b, c, d)."""
    pt = period((x[0] + delta, x[1]))
    po = period((x[0], x[1] + delta))
    return ((pt[0] - px[0]) / delta, (po[0] - px[0]) / delta,
            (pt[1] - px[1]) / delta, (po[1] - px[1]) / delta)


def _s_column(period_at, x, s, px, rel_tol):
    """Forward-difference dP/ds at x, with px = P(x; s)."""
    s_d = s + math.sqrt(rel_tol) * s
    pd = period_at(s_d)(x)
    return ((pd[0] - px[0]) / (s_d - s), (pd[1] - px[1]) / (s_d - s))


def _stable(m):
    """Both eigenvalues of the 2x2 matrix m inside the unit circle (Jury)."""
    det = m[0] * m[3] - m[1] * m[2]
    return abs(det) < 1.0 and abs(m[0] + m[3]) < 1.0 + det


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _newton(period_at, x, s, px, rel_tol, border=None):
    """A fixed point P(x; s) = x of the period map near (x, s), or None.

    ``period_at(s)`` is the map x -> P(x; s); ``px`` is P(x; s), or None
    to compute it.  Without ``border`` s stays fixed.  With
    ``border = (t, d)`` s is an unknown too, held by the linear condition
    t . (x, s) = d: the corrector of a pseudo-arclength step, whose extra
    Jacobian column dP/ds is a forward difference.  The tolerance and the
    difference steps scale with the integrator's rel_tol.  An attempt is
    abandoned as soon as the residual fails to halve, or when an iterate
    escapes.  Returns ``(x, s, P(x; s), m)``, m the finite-difference
    monodromy at the last iterate.
    """
    period = period_at(s)
    m = None
    res_prev = math.inf
    try:
        if px is None:
            px = period(x)
        for _ in range(_NEWTON_ITER):
            scale = 1.0 + math.hypot(x[0], x[1])
            rt, ro = px[0] - x[0], px[1] - x[1]
            res = math.hypot(rt, ro)
            if res <= rel_tol * scale:
                if m is None:
                    m = _monodromy(period, x, px, math.sqrt(rel_tol) * scale)
                return x, s, px, m
            if not res <= 0.5 * res_prev:
                return None
            res_prev = res
            m = _monodromy(period, x, px, math.sqrt(rel_tol) * scale)
            if border is None:
                ps, row, rc = (0.0, 0.0), (0.0, 0.0, 1.0), 0.0
            else:
                ps = _s_column(period_at, x, s, px, rel_tol)
                row, d = border
                rc = row[0] * x[0] + row[1] * x[1] + row[2] * s - d
            # the bordered Jacobian's inverse, column by column (Cramer)
            r1, r2 = (m[0] - 1.0, m[1], ps[0]), (m[2], m[3] - 1.0, ps[1])
            c1, c2, c3 = _cross(r2, row), _cross(row, r1), _cross(r1, r2)
            det = r1[0] * c1[0] + r1[1] * c1[1] + r1[2] * c1[2]
            if det == 0.0:
                return None
            dy = [(rt * a + ro * b + rc * c) / det
                  for a, b, c in zip(c1, c2, c3)]
            x = (x[0] - dy[0], x[1] - dy[1])
            if border is not None:
                s -= dy[2]
                if not s > 0.0:
                    return None
                period = period_at(s)
            px = period(x)
    except (ArithmeticError, StepUnderflow):
        pass    # a Newton step far off the attractor escaped to infinity
    return None


def _shoot(period, x, px, rel_tol):
    """The stable period-1 orbit near x: ``(x*, P(x*), monodromy)``, or None.

    :func:`_newton` at fixed s from x and ``px = period(x)`` (None to
    compute it).  A converged orbit is accepted only if its Floquet
    multipliers (the eigenvalues of the monodromy at the last iterate) lie
    inside the unit circle, which rejects the unstable middle branch.
    """
    got = _newton(lambda s: period, x, None, px, rel_tol)
    if got is None or not _stable(got[3]):
        return None
    return got[0], got[2], got[3]


def _tangent(m, ps, ref):
    """Unit tangent (dx, ds) of the branch P(x; s) = x, pointing along ref.

    The cross product of the rows of [M - I | dP/ds]; its s-component is
    det(M - I), which changes sign at a fold.
    """
    n = _cross((m[0] - 1.0, m[1], ps[0]), (m[2], m[3] - 1.0, ps[1]))
    norm = math.copysign(math.sqrt(n[0] * n[0] + n[1] * n[1] + n[2] * n[2]),
                         n[0] * ref[0] + n[1] * ref[1] + n[2] * ref[2])
    return (n[0] / norm, n[1] / norm, n[2] / norm)


def _trace(maps, grid, x, k, sigma):
    """Stable segments of the period-1 branch through the orbit x at grid[k].

    Continuation of P(x; s) = x in (x, s) from s = grid[k], s moving in the
    direction sigma = +1 or -1 (Seydel, *Practical Bifurcation and
    Stability Analysis*, ch. 4).  From a stable orbit, the next grid value
    of its segment is taken by a Newton shot at that s from the tangent
    predictor.  A shot counts only if it finds a stable orbit whose
    tangent, oriented along the secant from the last orbit, still points
    the same way in s; a reversal means that it jumped to another branch
    across a fold.  Where the shot fails, or the grid value is out of reach
    of the step, a pseudo-arclength step is taken, halved until its
    corrector converges within the step of its predictor.  Such steps carry
    the curve around a fold, where the tangent's s-component changes sign,
    and along an unstable branch.  The trace ends where the curve leaves
    [grid[0], grid[-1]], where the step falls below the difference step,
    or once it has spent _MAX_PERIODS periods per grid point, counted from
    its entry (settles elsewhere in the sweep do not draw on it).
    Returns the stable segments in the order of the curve, each a dict
    from grid index to the orbit's state at that s, the first holding x.
    """
    rel_tol = maps.spec.rel_tol
    n = len(grid)
    if not 0 <= k + sigma < n:
        return [{k: x}]
    budget = maps.periods + _MAX_PERIODS * n

    def tangent(x, s, px, m, ref):
        return _tangent(m, _s_column(maps.at, x, s, px, rel_tol), ref)

    x, s, px, m = _newton(maps.at, x, grid[k], None, rel_tol)
    t = tangent(x, s, px, m, (0.0, 0.0, sigma))
    segments = [{k: x}]
    k, step, stable, s_prev = k + sigma, math.inf, True, s
    while maps.periods < budget:
        sigma = 1 if t[2] > 0.0 else -1
        if (s >= grid[-1]) if sigma > 0 else (s <= grid[0]):
            break
        if k is None:
            # a new segment: its fold lies beyond this orbit and the last
            # unstable one, so the grid values from the nearer one on are
            # on it
            k = (bisect_left(grid, min(s, s_prev)) if sigma > 0
                 else bisect_right(grid, max(s, s_prev)) - 1)
        ahead = sigma * (grid[k] - s) if stable and 0 <= k < n else None
        if ahead is not None and t[2] and ahead <= abs(t[2]) * step:
            g = grid[k]
            lam = (g - s) / t[2]
            shot = _shoot(maps.at(g), (x[0] + lam * t[0], x[1] + lam * t[1]),
                          None, rel_tol)
            if shot is not None:
                xg, pg, mg = shot
                # the tangent there, oriented along the secant in the
                # direction of travel
                d = math.copysign(1.0, lam)
                t_shot = tangent(xg, g, pg, mg, (
                    d * (xg[0] - x[0]), d * (xg[1] - x[1]), d * (g - s)))
                if t_shot[2] * t[2] > 0.0:
                    segments[-1][k] = xg
                    k += sigma
                    x, s, px, m, t = xg, g, pg, mg, t_shot
                    continue
            if ahead <= 0.0:
                k += sigma      # passed without a shot: left uncovered
            else:
                step = 0.5 * abs(lam)
            continue
        floor = math.sqrt(rel_tol) * (1.0 + math.hypot(x[0], x[1]))
        if not floor <= step < math.inf:
            break
        pred = (x[0] + step * t[0], x[1] + step * t[1], s + step * t[2])
        got = _newton(maps.at, pred[:2], pred[2], None, rel_tol,
                      (t, t[0] * pred[0] + t[1] * pred[1] + t[2] * pred[2]))
        if got is None or math.dist(got[0] + got[1:2], pred) > step:
            step *= 0.5
            continue
        s_prev = s
        x, s, px, m = got
        t = tangent(x, s, px, m, t)
        was_stable, stable = stable, _stable(m)
        if stable and not was_stable:
            segments.append({})
            k = None
        step *= 2.0
    return segments


class _PeriodMaps:
    """The period maps P(x; s) of one sweep of ``system`` (as in
    :func:`sweep_hysteresis`) from its state ``rest``, with a count of the
    drive periods integrated."""

    def __init__(self, system, spec):
        full = isinstance(system, Params)
        if not (system.xi if full else system[2]) > 0.0:
            raise InputError("a sweep needs damping: xi > 0")
        self.system, self.spec, self.periods = system, spec, 0
        self.omega_n, self.rest = 1.0, (0.0, 0.0)
        if full:
            center = working_center(system)
            self.omega_n = math.sqrt(center.k_local / system.kappa)
            self.rest = (center.theta, 0.0)

    def _setup(self, s):
        """The rhs at s and the spec of one drive period."""
        drive = s * self.omega_n
        f = (scalar_rhs(replace(self.system, omega_big0=drive))
             if isinstance(self.system, Params)
             else _cubic_rhs(*self.system, s))
        return f, replace(self.spec, t_end=2.0 * math.pi / drive)

    def _map(self, f, one_period):
        def period(x):
            self.periods += 1
            return tuple(integrate_rhs(f, x, one_period).states[-1].tolist())

        return period

    def at(self, s):
        """The period map x -> P(x; s)."""
        return self._map(*self._setup(s))

    def amplitude(self, f, one_period, x):
        """Half the spread of theta over one period from x (f, one_period
        as from :meth:`_setup`).  The extremes are the turning points (zeros
        of omega), located on the dense output of the steps that hold them,
        so they do not depend on where the steps land."""
        turns = []

        def cb(ta, ya, tb, yb, dense):
            if ya[1] * yb[1] < 0.0:
                turns.append(_refine_crossing(dense, comp=1)[1])

        self.periods += 1
        traj = integrate_rhs(f, x, one_period, step_cb=cb)
        thetas = traj.states[:, 0].tolist() + turns
        return 0.5 * (max(thetas) - min(thetas))

    def settle(self, s, state):
        """``(amplitude, state, settled)`` of the stable period-1 orbit
        reached from state at s.  Shoots from the state; when that fails it
        integrates a transient of _BLOCK periods, which carries its step
        from period to period, and shoots again, until _MAX_PERIODS periods
        are spent (then ``settled`` is False).  A transient that escapes
        raises RuntimeError naming s."""
        f, one_period = self._setup(s)
        period = self._map(f, one_period)
        budget = self.periods + _MAX_PERIODS
        try:
            px = period(state)
            while self.periods < budget:
                shot = _shoot(period, state, px, self.spec.rel_tol)
                if shot is not None:
                    return (self.amplitude(f, one_period, shot[0]), shot[0],
                            True)
                *_, state, px = _strobe(f, px, one_period.t_end, _BLOCK,
                                        self.spec)
                self.periods += _BLOCK
            return self.amplitude(f, one_period, state), px, False
        except (ArithmeticError, StepUnderflow) as e:
            raise RuntimeError(f"orbit escaped at s = {s:.12g}") from e


def _cubic_rhs(cubic: CubicApprox, kappa: float, xi: float, b_amp: float,
               s: float):
    eps = cubic.epsilon
    neg_two_xi, sin = -2.0 * xi, math.sin

    def f(t, x, v):
        return v, (neg_two_xi * v - x - eps * x**3
                   + b_amp * sin(s * t)) / kappa

    return f


def sweep_hysteresis(system, s_lo: float, s_hi: float,
                     n_steps: int) -> SweepResult:
    """Up and down frequency sweeps on the stable segments of the traced
    period-1 branches they settle on.

    ``system`` is a full :class:`~clickdyn.model.Params` (swept in the ratio
    s = Omega0 / Omega_n about its interior center) or a tuple
    ``(CubicApprox, kappa, xi, B)`` for the canonical cubic oscillator.  A
    sweep keeps to its stable segment while it covers the next grid s, then
    takes the one that covers s, the nearest in the order of the traces.
    Where none does, from rest (the center) at the start and after an
    unsettled point, it settles an orbit from its last state
    (:meth:`_PeriodMaps.settle`).  The segment that holds that orbit to
    within the difference step takes it, or :func:`_trace` traces its
    branch both ways; a segment traced twice is merged.  The down sweep
    starts where the up sweep ended.  A jump is a change of segment between
    settled points (:func:`_jumps`).  Points where no stable orbit settles
    within _MAX_PERIODS periods are listed in ``up_unsettled`` /
    ``down_unsettled``.  Amplitudes are half the spread of the refined
    turning angles; ``periods`` counts every drive period integrated.  A
    transient that escapes raises RuntimeError naming its s; xi <= 0 raises
    InputError, as no orbit of an area-preserving map is asymptotically
    stable.
    """
    maps = _PeriodMaps(system, IntegratorSpec(rel_tol=1e-8, abs_tol=1e-10))
    grid = np.linspace(s_lo, s_hi, n_steps).tolist()
    segments, amplitudes = [], {}

    def held(new):
        """The first segment holding an orbit of new, to the difference step."""
        return next((i for i, sg in enumerate(segments) if any(
            k in sg and math.dist(sg[k], x)
            <= math.sqrt(maps.spec.rel_tol) * (1.0 + math.hypot(*x))
            for k, x in new.items())), None)

    def add(new):
        """Index of new, merged into a segment that holds one of its orbits."""
        i = held(new)
        if i is None:
            segments.append(new)
            return len(segments) - 1
        segments[i] = new | segments[i]
        return i

    def land(k, state):
        """(segment, amplitude, orbit) settled from state at grid[k], the
        segment None if unsettled; an orbit no segment held is traced."""
        amp, x, settled = maps.settle(grid[k], state)
        if not settled:
            return None, amp, x
        seg = held({k: x})
        if seg is None:
            back, ahead = (_trace(maps, grid, x, k, sigma)
                           for sigma in (-1, 1))
            seg = [add(new) for new in back[:0:-1] + [back[0] | ahead[0]]
                   + ahead[1:]][len(back) - 1]
        return seg, amplitudes.setdefault((seg, k), amp), segments[seg][k]

    def walk(order, seg, state):
        """(s, amplitude, segment) rows of order, from state on segment seg."""
        rows = []
        for k in order:
            near = [i for i, sg in enumerate(segments) if k in sg]
            if seg is None or not near:
                seg, amp, state = land(k, state)
            else:
                seg = min(near, key=lambda i: abs(i - seg))
                state = segments[seg][k]
                if (seg, k) not in amplitudes:
                    amplitudes[seg, k] = maps.amplitude(*maps._setup(grid[k]),
                                                        state)
                amp = amplitudes[seg, k]
            rows.append((grid[k], amp, seg))
        return rows, seg, state

    up, seg, state = walk(range(n_steps), None, maps.rest)
    down = up[-1:] + walk(range(n_steps - 2, -1, -1), seg, state)[0]
    up_s, up_a, down_s, down_a = (np.array(column) for rows in (up, down)
                                  for column in list(zip(*rows))[:2])
    return SweepResult(up_s, up_a, down_s, down_a, _jumps(up), _jumps(down),
                       *([s for s, _, seg in rows if seg is None]
                         for rows in (up, down)), maps.periods)


def _jumps(rows) -> list[float]:
    """Midpoints between consecutive settled points of a sweep's rows
    (s, amplitude, segment) on different segments; unsettled points
    (segment None) are skipped, so a jump across them is read once."""
    settled = [(s, seg) for s, _, seg in rows if seg is not None]
    return [0.5 * (s0 + s1) for (s0, g0), (s1, g1)
            in zip(settled, settled[1:]) if g0 != g1]
