import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from clickdyn.equilibria import (CENTER, SADDLE, bifurcation_set,
                                 classify_region, equilibria_in_period,
                                 interior_angle, interior_angle_closed_form,
                                 equilibria_in_period as _eq,
                                 stiffness_at_poles, zero_stiffness_set)
from clickdyn.model import Params, moment, stiffness


def _random_double_well(rng):
    # |alpha - beta| < 1 < alpha + beta
    while True:
        a, b = rng.uniform(0.1, 3.0, 2)
        if abs(a - b) < 1.0 - 1e-3 and a + b > 1.0 + 1e-3 \
                and abs(a - b) > 1e-3:
            return a, b


def test_double_well_structure_and_closed_form():
    rng = np.random.default_rng(11)
    for _ in range(200):
        a, b = _random_double_well(rng)
        p = Params(alpha=a, beta=b)
        eqs = equilibria_in_period(p)
        assert len(eqs) == 4
        kinds = sorted(e.kind for e in eqs)
        assert kinds == [CENTER, CENTER, SADDLE, SADDLE]
        theta3 = next(e.theta for e in eqs if e.branch_id == "theta3")
        closed = interior_angle_closed_form(p)
        assert abs(math.cos(theta3) - math.cos(closed)) <= 1e-10
        assert abs(theta3 - closed) <= 1e-10


def test_interior_root_is_moment_zero():
    p = Params(alpha=1.5, beta=1.0, gamma=0.1)
    th = interior_angle(p)
    assert th is not None
    assert abs(float(moment(p, th))) <= 1e-12


@settings(max_examples=300, deadline=None)
@given(st.floats(0.1, 3.0), st.floats(0.1, 3.0), st.booleans(),
       st.floats(0.0, 0.5))
def test_interior_angle_is_a_moment_root_and_a_center(a, b, cusp, gamma):
    p = Params(alpha=a, beta=a if cusp else b, gamma=gamma)
    k1, k2 = stiffness_at_poles(p)
    # on the bifurcation sets the interior pair merges into a pole
    assume(min(abs(k1), abs(k2)) > 1e-9)
    th = interior_angle(p)
    # the moment has a root between the poles when both are saddles
    assert (th is not None) == (k1 < 0.0 and k2 < 0.0)
    if th is None:
        return
    assert 0.0 < th < math.pi
    assert abs(float(moment(p, th))) <= 1e-12
    assert float(stiffness(p, th)) > 0.0


def test_interior_angle_alpha_beta_symmetry():
    pa = Params(alpha=1.4, beta=0.9)
    pb = Params(alpha=0.9, beta=1.4)
    assert interior_angle(pa) == pytest.approx(interior_angle(pb), abs=1e-12)


@pytest.mark.parametrize("a, b", [(1.9999999, 1.0), (0.5, 1.4999)])
def test_interior_angle_where_the_centers_are_born(a, b):
    # beside the B1 set the interior centers are born at theta = 0, where
    # an arccos of the cos form was 1.1e-9 and 3.5e-13 off
    with mpmath.workdps(50):
        ma, mb = mpmath.mpf(a), mpmath.mpf(b)
        ref = float(mpmath.acos((ma * ma + mb * mb - 1) / (2 * ma * mb)))
    th = interior_angle(Params(alpha=a, beta=b))
    assert abs(th - ref) <= 1e-15 * ref


def test_eigenvalues_match_jacobian():
    rng = np.random.default_rng(12)
    for _ in range(50):
        a, b = _random_double_well(rng)
        kappa = rng.uniform(0.5, 3.0)
        p = Params(alpha=a, beta=b, kappa=kappa)
        for e in equilibria_in_period(p):
            jac = np.array([[0.0, 1.0], [-e.k_local / kappa, 0.0]])
            expect = sorted(np.linalg.eigvals(jac), key=lambda z: (z.real,
                                                                   z.imag))
            got = sorted(e.eigenvalues, key=lambda z: (z.real, z.imag))
            np.testing.assert_allclose(got, expect, atol=1e-12)
            # (1, lambda) is the eigenvector of each eigenvalue
            for lam in e.eigenvalues:
                vec = np.array([1.0, lam])
                assert np.max(np.abs(jac @ vec - lam * vec)) <= 1e-12


def test_saddle_center_pattern_region_iv():
    p = Params(alpha=1.5, beta=1.0)
    by_branch = {e.branch_id: e for e in equilibria_in_period(p)}
    assert by_branch["theta1"].kind == SADDLE
    assert by_branch["theta2"].kind == SADDLE
    assert by_branch["theta3"].kind == CENTER
    assert by_branch["theta4"].kind == CENTER
    assert by_branch["theta3"].theta == -by_branch["theta4"].theta


def test_stiffness_at_poles_closed_forms():
    p = Params(alpha=1.5, beta=1.0, gamma=0.1)
    k1, k2 = stiffness_at_poles(p)
    ab = 1.5
    assert k1 == pytest.approx(ab + 0.1 - ab / 0.5, rel=1e-14)
    assert k2 == pytest.approx(-(ab + 0.1 - ab / 2.5), rel=1e-14)
    # consistent with the pointwise stiffness
    assert k1 == pytest.approx(float(stiffness(p, 0.0)), rel=1e-12)
    assert k2 == pytest.approx(float(stiffness(p, math.pi)), rel=1e-12)


def test_stiffness_at_poles_degenerate():
    k1, k2 = stiffness_at_poles(Params(alpha=1.0, beta=1.0))
    assert k1 == -math.inf
    assert math.isfinite(k2)


def test_classify_region():
    assert classify_region(Params(alpha=1.5, beta=1.0)) == "double_well"
    assert classify_region(Params(alpha=0.5, beta=1.0)) == "double_well"
    assert classify_region(Params(alpha=2.5, beta=1.0)) == "single_well_hard"
    assert classify_region(Params(alpha=0.3, beta=0.4)) == "single_well_soft"
    assert classify_region(Params(alpha=0.4, beta=0.6)) == "boundary"
    assert classify_region(Params(alpha=1.0, beta=1.0)) == "degenerate"


def test_bifurcation_set_residual_zero():
    a_grid = np.linspace(0.1, 3.0, 300)
    b_grid = np.linspace(0.2, 2.0, 10)
    for variant in ("B1", "B2"):
        curve = bifurcation_set(variant, 0.1, a_grid, b_grid)
        assert curve.samples.shape[0] > 0
        for a, b, g in curve.samples:
            if variant == "B1":
                resid = a * b + g - a * b / abs(a - b)
            else:
                resid = a * b - a * b / (a + b) - g
            assert abs(resid) <= 1e-10


def test_bifurcation_b2_gamma_zero_is_alpha_plus_beta_one():
    a_grid = np.linspace(0.05, 1.5, 400)
    b_grid = np.linspace(0.1, 0.9, 9)
    curve = bifurcation_set("B2", 0.0, a_grid, b_grid)
    for a, b, _g in curve.samples:
        assert a + b == pytest.approx(1.0, abs=1e-10)


def test_zero_stiffness_set():
    curve = zero_stiffness_set(1.0, 0.0, np.linspace(1.1, 2.0, 10))
    assert curve.samples.shape[0] > 0
    for th, a, b, g in curve.samples:
        p = Params(alpha=a, beta=b, gamma=g)
        assert abs(float(stiffness(p, th))) <= 1e-10


# The bifurcation-set subcommand's default alpha and beta grids, and the
# angles zero_stiffness_set scans.
_CLI_GRID = np.linspace(0.05, 3.0, 201)
_B0_THETAS = np.linspace(1e-9, math.pi - 1e-9, 400)


def _residual(variant, gamma, other):
    """The variant's residual along its grid at one beta (B1, B2) or alpha
    (B0), one scalar point at a time."""
    if variant == "B0":
        p = Params(alpha=other, beta=1.0, gamma=gamma)
        return lambda th: float(stiffness(p, th))
    if variant == "B1":   # -inf on alpha == beta, its limit from both sides
        return lambda a: (-math.inf if a == other
                          else a * other + gamma - a * other / abs(a - other))
    return lambda a: a * other - a * other / (a + other) - gamma


def _curve(variant, gamma):
    if variant == "B0":
        return zero_stiffness_set(1.0, gamma, _CLI_GRID)
    return bifurcation_set(variant, gamma, _CLI_GRID, _CLI_GRID)


_VARIANT_GAMMAS = [("B0", 0.0), ("B0", 0.0627), ("B1", 0.0), ("B1", 0.1),
                   ("B1", 0.3), ("B2", 0.0), ("B2", 0.1)]


def _exact_b0_zero():
    """(theta, alpha) with theta on the scan grid and stiffness exactly 0.

    At each grid angle alpha is bisected to adjacent floats between 1.05
    and 3, where the stiffness at beta = 1 changes sign; some of those
    ends give 0 exactly.
    """
    for th in _B0_THETAS:
        k = lambda a: float(stiffness(Params(alpha=a, beta=1.0), th))
        lo, hi = 1.05, 3.0
        if not k(lo) * k(hi) < 0.0:
            continue
        lo_above = k(lo) > 0.0
        while (mid := 0.5 * (lo + hi)) not in (lo, hi):
            if (k(mid) > 0.0) == lo_above:
                lo = mid
            else:
                hi = mid
        for a in (lo, hi):
            if k(a) == 0.0:
                return float(th), a
    raise AssertionError("no exact zero of the stiffness on the scan grid")


@pytest.mark.parametrize("variant", ["B0", "B1", "B2"])
def test_exact_grid_zero_is_emitted_once(variant):
    # a root on a grid point ends both intervals beside it; it is one root
    if variant == "B0":
        th, a = _exact_b0_zero()
        samples = zero_stiffness_set(1.0, 0.0, [a]).samples
        assert samples[:, 0].tolist().count(th) == 1
        assert np.unique(samples[:, 0]).size == len(samples)
        return
    # at gamma = 0, B1 is |alpha - beta| = 1 and B2 is alpha + beta = 1
    grid, beta, root = (([1.5, 2.0, 2.5], 1.0, 2.0) if variant == "B1"
                        else ([0.25, 0.5, 0.75], 0.5, 0.5))
    samples = bifurcation_set(variant, 0.0, grid, [beta]).samples
    assert samples.tolist() == [[root, beta, 0.0]]


@pytest.mark.parametrize("variant, gamma", _VARIANT_GAMMAS)
def test_bifurcation_roots_are_sign_changes_at_adjacent_floats(variant,
                                                               gamma):
    samples = _curve(variant, gamma).samples
    assert len(samples) > 0
    for row in samples:
        f = _residual(variant, gamma, row[1])
        x = row[0]
        # f(x) is 0, or one neighbouring float has the other sign or 0
        sign = np.sign(f(x))
        assert sign == 0.0 or any(
            sign * np.sign(f(np.nextafter(x, to))) <= 0.0
            for to in (-math.inf, math.inf))


def test_b1_roots_beside_the_cusp_line_are_kept():
    # the residual tends to -inf on alpha == beta: at beta = 0.06475, a
    # grid point, the interval below it holds a root a NaN sample hid
    beta = _CLI_GRID[1]
    roots = bifurcation_set("B1", 0.3, _CLI_GRID, [beta]).samples[:, 0]
    a = np.linspace(0.05, 3.0, 200_001)
    a = a[a != beta]
    vals = a * beta + 0.3 - a * beta / np.abs(a - beta)
    i = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0.0)[0]
    assert len(roots) == len(i) == 2
    assert np.all((a[i] <= roots) & (roots <= a[i + 1]))


def _brentq_rows(variant, gamma):
    """The scan-and-brentq reference: an exact grid zero once, each strict
    sign change of the sampled residual refined by brentq to xtol 1e-14."""
    grid = _B0_THETAS if variant == "B0" else _CLI_GRID
    rows = []
    for other in _CLI_GRID.tolist():
        f = _residual(variant, gamma, other)
        if variant == "B0":   # the stiffness scan is one array call
            vals = stiffness(Params(alpha=other, beta=1.0, gamma=gamma),
                             grid).tolist()
        else:
            vals = [f(x) for x in grid.tolist()]
        for i, x in enumerate(grid.tolist()):
            if vals[i] == 0.0:
                rows.append((x, other))
            elif i + 1 < len(grid) and vals[i] * vals[i + 1] < 0.0:
                root = brentq(f, x, grid[i + 1], xtol=1e-14, maxiter=200)
                rows.append((root, other))
    return rows


@pytest.mark.parametrize("variant, gamma", _VARIANT_GAMMAS)
def test_bifurcation_rows_match_per_bracket_brentq(variant, gamma):
    samples = _curve(variant, gamma).samples
    ref = np.array(_brentq_rows(variant, gamma))
    assert samples.shape[0] == ref.shape[0]
    np.testing.assert_array_equal(samples[:, 1], ref[:, 1])
    assert np.max(np.abs(samples[:, 0] - ref[:, 0])) <= 1e-10
