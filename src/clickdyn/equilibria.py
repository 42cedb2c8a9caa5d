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

from .model import Params, _stiffness_field, stiffness

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
    variant: str                 # "B0", "B1" or "B2"
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


def _b1_residual(alpha, beta, gamma):
    """-inf on the cusp line alpha == beta, its limit from both sides."""
    return np.where(alpha == beta, -math.inf,
                    alpha * beta + gamma - alpha * beta / np.abs(alpha - beta))


def _b2_residual(alpha, beta, gamma):
    return alpha * beta - alpha * beta / (alpha + beta) - gamma


def classify_region(p: Params) -> str:
    """Coarse parameter-plane label from pole stiffness and interior centers.

    The three soft single-well sub-regions of the parameter plane share one
    label; their mutual boundaries are not analytic and are published as the
    B1/B2 curves instead.
    """
    if p.alpha == p.beta:
        return REGION_DEGENERATE
    if (
        abs(_b1_residual(p.alpha, p.beta, p.gamma)) < _BOUNDARY_TOL
        or abs(_b2_residual(p.alpha, p.beta, p.gamma)) < _BOUNDARY_TOL
    ):
        return REGION_BOUNDARY
    k1, _ = stiffness_at_poles(p)
    if k1 < 0.0 and interior_angle(p) is not None:
        return REGION_DOUBLE_WELL
    if k1 > 0.0:
        return REGION_SINGLE_WELL_HARD
    return REGION_SINGLE_WELL_SOFT


def _grid_zeros(f, x, r):
    """Zeros of ``f(x, r)`` along the grid x, for each r in order.

    f is sampled on the whole (r, x) mesh at once.  A sample that is 0 is
    a zero; all intervals whose ends have strictly opposite signs (NaN has
    none) are bisected together to adjacent floats, as in
    ``freevib.level_angles``.  Returns (r, zero) pairs as two arrays.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = f(x, r[:, None])
        sign = np.sign(vals)
        zero_j, zero_i = np.nonzero(vals == 0.0)
        j, i = np.nonzero(sign[:, :-1] * sign[:, 1:] < 0.0)
        lo, hi = x[i], x[i + 1]
        lo_above = sign[j, i] > 0.0
        while True:
            mid = 0.5 * (lo + hi)
            open_ = (mid != lo) & (mid != hi)
            if not open_.any():
                break
            to_lo = open_ & ((f(mid, r[j]) > 0.0) == lo_above)
            lo = np.where(to_lo, mid, lo)
            hi = np.where(open_ & ~to_lo, mid, hi)
    # an exact zero at grid point i comes before the interval (i, i+1)
    rows = np.concatenate([zero_j, j])
    order = np.lexsort((np.concatenate([2 * zero_i, 2 * i + 1]), rows))
    return r[rows[order]], np.concatenate([x[zero_i], mid])[order]


def bifurcation_set(variant: str, gamma: float, alpha_grid,
                    beta_grid) -> BifurcationCurve:
    """Sampled zero set of the B1 or B2 residual over an (alpha, beta) grid.

    For each beta the residual is sign-scanned over alpha_grid and every
    bracket bisected to adjacent floats; a curve may contribute several
    alpha roots per beta.
    """
    if variant not in ("B1", "B2"):
        raise ValueError("variant must be 'B1' or 'B2'")
    residual = _b1_residual if variant == "B1" else _b2_residual
    betas, roots = _grid_zeros(lambda a, b: residual(a, b, gamma),
                               np.asarray(alpha_grid, dtype=float),
                               np.asarray(beta_grid, dtype=float))
    samples = np.column_stack(np.broadcast_arrays(roots, betas, gamma))
    return BifurcationCurve(variant, ("alpha", "beta", "gamma"), samples)


def zero_stiffness_set(beta: float, gamma: float,
                       alpha_grid) -> BifurcationCurve:
    """Numerically continued zero set of the stiffness over (theta, alpha).

    No closed form exists; for each alpha the stiffness is sign-scanned on
    400 angles of (0, pi) and each bracket bisected to adjacent floats.  The
    set is symmetric under theta -> -theta: only the positive half is emitted.
    """
    alphas, roots = _grid_zeros(
        lambda th, a: _stiffness_field(a, beta, gamma, th),
        np.linspace(1e-9, math.pi - 1e-9, 400),
        np.asarray(alpha_grid, dtype=float))
    samples = np.column_stack(np.broadcast_arrays(roots, alphas, beta, gamma))
    return BifurcationCurve("B0", ("theta", "alpha", "beta", "gamma"), samples)
