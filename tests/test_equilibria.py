import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from clickdyn.equilibria import (CENTER, SADDLE, _refine,
                                 bifurcation_set, classify_region,
                                 equilibria_in_period, interior_angle,
                                 interior_angle_closed_form,
                                 equilibria_in_period as _eq,
                                 stiffness_at_poles, zero_stiffness_set)
from clickdyn.hbm import _discriminant
from clickdyn.model import (Params, _curvature_field, _stiffness_field,
                            moment, stiffness)


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
    # B1 is K1 = 0 and B2 is K2 = 0; B2 has no point at gamma > 1/16
    a_grid = np.linspace(0.1, 3.0, 300)
    b_grid = np.linspace(0.2, 2.0, 10)
    for variant, gamma in (("B1", 0.1), ("B2", 0.03)):
        curve = bifurcation_set(variant, gamma, a_grid, b_grid)
        assert curve.samples.shape[0] > 0
        for a, b, g in curve.samples:
            k1, k2 = stiffness_at_poles(Params(alpha=a, beta=b, gamma=g))
            assert abs(k1 if variant == "B1" else k2) <= 1e-10


def test_b2_is_where_the_portrait_changes():
    # at beta = 0.25, gamma = 0.03 K2 = 0 at alpha = 0.05189 and 0.57811:
    # the interior pair merges into theta = pi there, so the region
    # changes; where the residual K2 + 2*gamma vanishes (alpha = 0.90321)
    # nothing does
    roots = bifurcation_set("B2", 0.03, [0.01, 3.0], [0.25]).samples[:, 0]
    assert roots == pytest.approx([0.05189, 0.57811], abs=1e-5)
    for root in roots:
        kinds = {classify_region(Params(alpha=root * f, beta=0.25,
                                        gamma=0.03)) for f in (0.99, 1.01)}
        assert kinds == {"double_well", "single_well_soft"}
    assert classify_region(Params(alpha=roots[1], beta=0.25,
                                  gamma=0.03)) == "boundary"
    assert {classify_region(Params(alpha=0.90321 * f, beta=0.25, gamma=0.03))
            for f in (0.99, 1.0, 1.01)} == {"double_well"}


def test_b2_has_no_point_above_one_sixteenth():
    # on K2 = 0, gamma = alpha*beta*(1 - alpha - beta)/(alpha + beta), at
    # most 1/16 (at alpha = beta = 1/4)
    grid = np.linspace(0.001, 3.0, 3001)
    for gamma in (0.0627, 0.1, 1.0):
        assert bifurcation_set("B2", gamma, grid, grid).samples.size == 0
    below = bifurcation_set("B2", 0.0624, grid, [0.25]).samples[:, 0]
    assert len(below) == 2 and below[0] < 0.25 < below[1]


def test_bifurcation_b2_gamma_zero_is_alpha_plus_beta_one():
    a_grid = np.linspace(0.05, 1.5, 400)
    b_grid = np.linspace(0.1, 0.9, 9)
    curve = bifurcation_set("B2", 0.0, a_grid, b_grid)
    for a, b, _g in curve.samples:
        assert a + b == pytest.approx(1.0, abs=1e-10)


def test_bifurcation_b1_gamma_zero_is_alpha_minus_beta_one():
    # at gamma = 0, B1 is |alpha - beta| = 1: alpha = beta + 1, and
    # alpha = beta - 1 where beta > 1.  Each root takes three roundings:
    # within 1 ulp on the subcommand's default grid, 1.5 beyond it
    wide = np.linspace(0.01, 10.0, 2001)
    for betas, ulps in ((_CLI_GRID, 1.0), (wide, 1.5)):
        samples = bifurcation_set("B1", 0.0, [0.001, 20.0], betas).samples
        assert len(samples) == len(betas) + np.sum(betas - 1.0 >= 0.001)
        for a, b, _g in samples:
            ref = Fraction(b) + (1 if a > b else -1)
            assert abs(Fraction(a) - ref) <= ulps * np.spacing(a)


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
    return lambda a: -(a * other + gamma - a * other / (a + other))


def _curve(variant, gamma):
    if variant == "B0":
        return zero_stiffness_set(1.0, gamma, _CLI_GRID)
    return bifurcation_set(variant, gamma, _CLI_GRID, _CLI_GRID)


_VARIANT_GAMMAS = [("B0", 0.0), ("B0", 0.0627), ("B1", 0.0), ("B1", 0.1),
                   ("B1", 0.3), ("B2", 0.0), ("B2", 0.01), ("B2", 0.03),
                   ("B2", 0.06), ("B2", 0.1)]


def _exact_b0_zero():
    """(theta, alpha) with theta inside (1e-9, pi - 1e-9), the stiffness
    exactly 0 there and not 0 at the floats beside it.

    At each inner grid angle alpha is bisected to adjacent floats between
    1.05 and 3, where the stiffness at beta = 1 changes sign; some of those
    ends give 0 exactly.
    """
    for th in _B0_THETAS[1:-1]:
        k = lambda a, t=th: float(stiffness(Params(alpha=a, beta=1.0), t))
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
            beside = (k(a, math.nextafter(th, to)) for to in (0.0, 4.0))
            if k(a) == 0.0 and 0.0 not in beside:
                return float(th), a
    raise AssertionError("no exact zero of the stiffness inside the range")


@pytest.mark.parametrize("variant", ["B0", "B1", "B2"])
def test_exact_grid_zero_is_emitted_once(variant):
    # a root where the residual is exactly 0 is one root
    if variant == "B0":
        th, a = _exact_b0_zero()
        samples = zero_stiffness_set(1.0, 0.0, [a]).samples
        near = np.abs(samples[:, 0] - th) <= np.spacing(th)
        assert near.sum() == 1
        assert np.unique(samples[:, 0]).size == len(samples)
        return
    # at gamma = 0, B1 is |alpha - beta| = 1 and B2 is alpha + beta = 1
    grid, beta, root = (([1.5, 2.0, 2.5], 1.0, 2.0) if variant == "B1"
                        else ([0.25, 0.5, 0.75], 0.5, 0.5))
    samples = bifurcation_set(variant, 0.0, grid, [beta]).samples
    assert samples.tolist() == [[root, beta, 0.0]]


@pytest.mark.parametrize("variant, gamma",
                         [c for c in _VARIANT_GAMMAS if c[0] == "B0"])
def test_bifurcation_roots_are_sign_changes_at_adjacent_floats(variant,
                                                               gamma):
    # B0 only: a B1 or B2 root is the quadratic's, by the stable formula
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


@pytest.mark.parametrize("beta", [0.3, 1.6])
@pytest.mark.parametrize("gamma", [0.0, 0.0627])
def test_a_b0_row_depends_on_its_own_alpha_only(beta, gamma):
    # each alpha's angles, bit for bit, whatever other alphas share the call
    samples = zero_stiffness_set(beta, gamma, _CLI_GRID).samples
    for a in _CLI_GRID:
        alone = zero_stiffness_set(beta, gamma, [a]).samples
        assert samples[samples[:, 1] == a].tobytes() == alone.tobytes(), a


def test_b1_roots_beside_the_cusp_line_are_kept():
    # the residual tends to -inf on alpha == beta: at beta = 0.06475, a
    # grid point, one root lies on each side of the cusp line, the one
    # below it within one grid step
    beta = _CLI_GRID[1]
    roots = bifurcation_set("B1", 0.3, _CLI_GRID, [beta]).samples[:, 0]
    a = np.linspace(0.05, 3.0, 200_001)
    a = a[a != beta]
    vals = a * beta + 0.3 - a * beta / np.abs(a - beta)
    i = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0.0)[0]
    assert len(roots) == len(i) == 2
    assert np.all((a[i] <= roots) & (roots <= a[i + 1]))


def _quintic_terms(alpha, beta, gamma, chord):
    """The terms of 4*P*K*D^3 as a quintic in the chord D."""
    p, s, d, t = alpha * beta, alpha**2 + beta**2, alpha - beta, alpha + beta
    return (-2.0 * (p + gamma) * chord**5, p * chord**4,
            2.0 * (p + gamma) * s * chord**3, -p * d * d * t * t)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.1, 3.0), st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
       st.lists(st.floats(0.05, 3.0), min_size=1, max_size=4),
       st.booleans())
def test_b0_loses_no_root(beta, gamma, alphas, cusp):
    # every strict sign change of K on a dense grid holds exactly one row,
    # and each row's chord is a root of the quintic to rounding
    alphas = np.unique(alphas + [beta] * cusp)
    samples = zero_stiffness_set(beta, gamma, alphas).samples
    theta = np.linspace(1e-9, math.pi - 1e-9, 20_001)
    for a in alphas:
        roots = samples[samples[:, 1] == a, 0]
        vals = _stiffness_field(a, beta, gamma, theta)
        for i in np.nonzero(vals[:-1] * vals[1:] < 0.0)[0]:
            assert np.sum((theta[i] <= roots) & (roots <= theta[i + 1])) == 1
        chord = np.sqrt((a - beta) ** 2 + 4.0 * a * beta
                        * np.sin(0.5 * roots) ** 2)
        terms = _quintic_terms(a, beta, gamma, chord)
        assert np.all(np.abs(sum(terms)) <= 16.0 * np.finfo(float).eps
                      * sum(map(np.abs, terms)))


@settings(max_examples=60, deadline=None)
@given(st.floats(0.05, 3.0), st.floats(0.05, 3.0),
       st.one_of(st.just(0.0), st.floats(0.0, 2.0)))
def test_stiffness_changes_sign_at_most_once_beside_the_critical_chord(
        alpha, beta, gamma):
    # 4*P*K*D^3 is a quintic in the chord D whose slope has one positive
    # root D*: on a dense grid K changes sign at most once on each side of
    # D*'s angle, so at most twice in (0, pi)
    p, lead, s2 = alpha * beta, alpha * beta + gamma, alpha**2 + beta**2
    peak = (2.0 * p + math.sqrt(4.0 * p * p + 60.0 * lead * lead * s2)) / (
        10.0 * lead)
    d = abs(alpha - beta)
    ss = (peak - d) * (peak + d) / (4.0 * p)
    split = 2.0 * math.asin(math.sqrt(min(max(ss, 0.0), 1.0)))
    theta = np.linspace(1e-9, math.pi - 1e-9, 20_001)
    vals = _stiffness_field(alpha, beta, gamma, theta)
    theta, vals = theta[vals != 0.0], vals[vals != 0.0]
    change = theta[1:][vals[:-1] * vals[1:] < 0.0]
    assert np.sum(change <= split) <= 1 and np.sum(change > split) <= 1


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
    return np.reshape(rows, (-1, 2))


@pytest.mark.parametrize("variant, gamma", _VARIANT_GAMMAS)
def test_bifurcation_rows_match_per_bracket_brentq(variant, gamma):
    samples = _curve(variant, gamma).samples
    ref = _brentq_rows(variant, gamma)
    assert samples.shape[0] == ref.shape[0]
    np.testing.assert_array_equal(samples[:, 1], ref[:, 1])
    assert np.all(np.abs(samples[:, 0] - ref[:, 0]) <= 1e-10)


def _scan_zeros(f, slope, x, r):
    """Zeros of ``f(x, r)`` along the ascending grid x at one parameter r:
    each sample that is 0, and the root of each interval whose ends have
    strictly opposite signs, closed by _refine from the linear
    interpolation of its two samples."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        vals = f(x, r)
        pos, neg = vals > 0.0, vals < 0.0
        i = np.flatnonzero(pos[:-1] & neg[1:] | neg[:-1] & pos[1:])
        x0, x1, f0, f1 = x[i], x[i + 1], vals[i], vals[i + 1]
        roots = _refine(f, slope, np.full(i.size, r), x0, x1, pos[i],
                        x0 + (x1 - x0) * (f0 / (f0 - f1)))
    return np.sort(np.concatenate([x[vals == 0.0], roots]))


def _bisection_zeros(f, x, r):
    """The whole-mesh scan with plain bisection to adjacent floats, the
    oracle of _scan_zeros without a usable slope."""
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
    rows = np.concatenate([zero_j, j])
    order = np.lexsort((np.concatenate([2 * zero_i, 2 * i + 1]), rows))
    return r[rows[order]], np.concatenate([x[zero_i], mid])[order]


# fold_frequencies cases of tests/test_hbm.py: (eps, kappa, xi, B, s_lo,
# s_hi), the second with a fold on a scan point, the third with three folds
_FOLD_CASES = [
    (-0.01, 1.0, 0.015, 0.1, 0.9, 1.0),
    (-0.010632020785712019, 1.0, 0.010880235353209176, 0.05497346246006739,
     0.9693228975247328, 0.9782562734510281),
    (-0.014884142476537928, 1.4529764684064155, 0.002380237425780928,
     0.011983769044454876, 0.24888112678865743, 1.6592075119243828),
]


def _scan(case):
    """(f, x, r) of the scan of a (variant, gamma) case on the CLI grids,
    or of a fold case on a 2001-point grid."""
    if len(case) == 6:
        eps, kappa, xi, b, s_lo, s_hi = case
        return (lambda s, bb: _discriminant(s, eps, kappa, xi, bb),
                np.linspace(s_lo, s_hi, 2001), np.array([b]))
    variant, gamma = case
    if variant == "B0":
        return (lambda th, a: _stiffness_field(a, 1.0, gamma, th),
                _B0_THETAS, _CLI_GRID)
    if variant == "B1":   # -inf on alpha == beta, its limit from both sides
        return (lambda a, b: np.where(
            a == b, -np.inf, a * b + gamma - a * b / np.abs(a - b)),
                _CLI_GRID, _CLI_GRID)
    return (lambda a, b: -(a * b + gamma - a * b / (a + b)), _CLI_GRID,
            _CLI_GRID)


# the cases with a sign change to bisect: K2 = 0 has no root at gamma = 0.1
_BISECTED = [c for c in _VARIANT_GAMMAS if c != ("B2", 0.1)]


@pytest.mark.parametrize("case", _BISECTED + _FOLD_CASES, ids=[
    f"{v}-{g}" for v, g in _BISECTED] + ["folds-0.9", "folds-on-scan",
                                         "folds-three"])
def test_without_a_slope_the_refinement_is_plain_bisection(case):
    # a NaN slope makes every point a midpoint: the bisection's rows, bit
    # for bit, including those where the rounded residual changes sign
    # more than once near a root
    f, x, r = _scan(case)
    roots = [_scan_zeros(f, lambda x, r: np.full(np.broadcast(x, r).shape,
                                                 np.nan), x, rr)
             for rr in r.tolist()]
    got = np.repeat(r, list(map(len, roots))), np.concatenate(roots)
    ref = _bisection_zeros(f, x, r)
    assert len(ref[0]) > 0
    assert [a.tobytes() for a in got] == [a.tobytes() for a in ref]


# (alpha, beta, gamma) ranges of the four statics regions: double well,
# hard single well, soft single well, and the cusp line beta = alpha
_REGIONS = [((1.2, 1.8), (0.9, 1.1), (0.0, 0.05)),
            ((2.3, 2.8), (1.0, 1.0), (0.0, 0.1)),
            ((0.25, 0.35), (0.45, 0.55), (0.0, 0.0)),
            ((0.8, 1.2), None, (0.0, 0.05))]


def _region_points(seed, n):
    """n seeded (alpha, beta, gamma) points, the four regions in turn."""
    rng = np.random.default_rng(seed)
    for k in range(n):
        a_range, b_range, g_range = _REGIONS[k % 4]
        a = rng.uniform(*a_range)
        yield (a, a if b_range is None else rng.uniform(*b_range),
               rng.uniform(*g_range)), rng


def _mp_stiffness(a, b, g):
    """K(theta) at the working precision, and the sum of the magnitudes of
    its terms."""
    a, b, g = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(g)
    ab = a * b

    def terms(t):
        s, c = mpmath.sin(t / 2), mpmath.cos(t)
        d2 = (a - b) ** 2 + 4 * ab * s * s
        return ((ab + g) * c, -ab * (a - b) ** 2 * c / d2 ** 1.5,
                4 * ab * ab * s ** 4 / d2 ** 1.5)

    return (lambda t: mpmath.fsum(terms(t)),
            lambda t: mpmath.fsum(map(abs, terms(t))))


@pytest.mark.parametrize("variant", ["B0"])
def test_each_slope_is_the_derivative_of_its_residual(variant):
    # dK/dtheta, to 1e-12 of the sum of the magnitudes of the slope's terms
    with mpmath.workdps(40):
        for (a, b, g), rng in _region_points(29, 200):
            th = rng.uniform(0.0, math.pi)
            ref = mpmath.diff(_mp_stiffness(a, b, g)[0], th)
            got = float(_curvature_field(a, b, g, th, third=False))
            assert got == float(_curvature_field(a, b, g, th)[0])
            s, c = math.sin(th), math.cos(th)
            d2 = a * a + b * b - 2.0 * a * b * c
            k3, x = (a * b) ** 2 / d2 ** 1.5, a * b * s * s / d2
            scale = abs(s) * (3.0 * k3 * (abs(c) + x) + a * b + g
                              + a * b / math.sqrt(d2))
            assert abs(got - ref) <= 1e-12 * scale


# |root - ref|*|slope|/(eps*S), S the sum of the magnitudes of the
# residual's terms at the root: the measured worst over _VARIANT_GAMMAS is
# 3.59 (B0), 1.77 (B1) and 0.49 (B2); the gates were set at about ten
# times the mesh scan's 3.59, 1.36 and 0.50
_ROUNDING_GATES = {"B0": 40.0, "B1": 15.0, "B2": 5.0}


def _b_reference(variant, gamma, beta, root):
    """The 40-digit root of the B1 or B2 quadratic in alpha at beta nearest
    root, and the residual and the sum of its terms' magnitudes there."""
    B, G = mpmath.mpf(beta), mpmath.mpf(gamma)
    if variant == "B1":
        # (alpha*beta + gamma)*|alpha - beta| = alpha*beta, on each side
        refs = [r for r in mpmath.polyroots([B, G - B * B - B, -G * B])
                if mpmath.im(r) == 0 and mpmath.re(r) > B] + [
            r for r in mpmath.polyroots([B, G + B - B * B, -G * B])
            if mpmath.im(r) == 0 and 0 < mpmath.re(r) < B]
        f = lambda t: t * B + G - t * B / abs(t - B)
        scale = lambda t: t * B + G + t * B / abs(t - B)
    else:
        # K2 = 0: (alpha*beta + gamma)*(alpha + beta) = alpha*beta
        refs = [r for r in mpmath.polyroots([B, B * B - B + G, G * B])
                if mpmath.im(r) == 0 and mpmath.re(r) > 0]
        f = lambda t: -(t * B + G - t * B / (t + B))
        scale = lambda t: t * B + G + t * B / (t + B)
    ref = min((mpmath.re(r) for r in refs), key=lambda r: abs(r - root))
    return ref, f, scale


@pytest.mark.parametrize("variant, gamma", _VARIANT_GAMMAS)
def test_bifurcation_roots_match_40_digit_references(variant, gamma):
    # B1 and B2: the roots of the quadratics in alpha the residuals become
    # at each beta; B0: mpmath.findroot on K(theta) from the root, inside
    # its bracket
    worst = 0.0
    with mpmath.workdps(40):
        for row in _curve(variant, gamma).samples:
            root, other = row[0], row[1]
            if variant == "B0":
                f, scale = _mp_stiffness(other, 1.0, gamma)
                ref = mpmath.findroot(f, mpmath.mpf(root))
            else:
                ref, f, scale = _b_reference(variant, gamma, other, root)
            worst = max(worst, float(abs(root - ref) * abs(mpmath.diff(f, ref))
                                     / (np.finfo(float).eps * scale(ref))))
    assert worst <= _ROUNDING_GATES[variant]


@pytest.mark.parametrize("beta", [0.5, 0.8, 1.25, 2.0])
@pytest.mark.parametrize("gamma", [0.0, 1.0])
def test_b0_roots_off_beta_1_match_40_digit_references(beta, gamma):
    # the measure above with theta's own rounding |K'|*theta*eps/2 added to
    # eps*S: where K's terms are small against K' (gamma = 1 beside
    # theta = pi/2; beta = 0.8, alpha = 0.05 reads 134 on eps*S alone),
    # a correctly rounded root is no closer than that rounding
    eps = np.finfo(float).eps
    worst = 0.0
    with mpmath.workdps(40):
        for root, alpha, _b, _g in zero_stiffness_set(beta, gamma,
                                                      _CLI_GRID).samples:
            f, scale = _mp_stiffness(alpha, beta, gamma)
            ref = mpmath.findroot(f, mpmath.mpf(root))
            slope = abs(mpmath.diff(f, ref))
            worst = max(worst, float(abs(root - ref) * slope / (
                eps * scale(ref) + slope * ref * eps / 2)))
    assert worst <= _ROUNDING_GATES["B0"]
