import json
import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import clickdyn.hbm as hbm
from clickdyn.cli import main
from clickdyn.equilibria import (CENTER, equilibria_in_period,
                                 working_center)
from clickdyn.freevib import _orbits
from clickdyn.hbm import (CubicApprox, backbone, fit_cubic, fold_frequencies,
                          frf_amplitudes, sweep_hysteresis)
from clickdyn.integrate import IntegratorSpec, _crossings, integrate_rhs
from clickdyn.model import InputError, Params, potential


P_IV = Params(alpha=1.5, beta=1.0)


def _center(p):
    return next(e for e in equilibria_in_period(p)
                if e.kind == CENTER and e.theta > 0)


def _residual(cubic, kappa, xi, b, s, a):
    g = 1.0 - kappa * s * s + 0.75 * cubic.epsilon * a * a
    return (g * g + (2.0 * xi * s) ** 2) * a * a - b * b


def _root_counts(amplitude):
    """Roots per s of an frf_amplitudes row array (NaN past the roots)."""
    return np.count_nonzero(~np.isnan(amplitude), axis=-1)


def test_fit_cubic_softening_well():
    center = _center(P_IV)
    cubic = fit_cubic(P_IV, center)
    assert cubic.epsilon < 0.0
    assert cubic.omega_n == math.sqrt(center.k_local / P_IV.kappa)


@pytest.mark.parametrize("alpha, beta, gamma", [
    (1.5, 1.0, 0.0),            # double well
    (1.5, 1.0, 0.2),            # double well, gravity
    (1.789, 0.848, 0.0627),     # the cubic term alone has the wrong sign
    (1.0, 1.0, 0.02),           # cusp line alpha == beta
])
def test_backbone_matches_the_exact_free_vibration(alpha, beta, gamma):
    # omega/omega_n - 1 = (3/8)*eps*A^2 + O(A^4) with the effective eps;
    # the exact period is taken at A = 0.01, half the turning-angle spread
    p = Params(alpha=alpha, beta=beta, gamma=gamma)
    center = working_center(p)
    cubic = fit_cubic(p, center)
    assert cubic.quad_coeff != 0.0
    energy = float(potential(p, center.theta)) + 0.5 * center.k_local * 1e-4
    (period,), (lo,), (hi,), _ = _orbits(p, np.array([energy]))
    amp = 0.5 * (hi - lo)
    exact = (2.0 * math.pi / period / cubic.omega_n - 1.0) / amp**2
    (_a, _s, s2), = backbone(cubic, p.kappa, [amp])
    assert (s2 - 1.0) / amp**2 == pytest.approx(0.75 * cubic.epsilon)
    assert 0.375 * cubic.epsilon == pytest.approx(exact, rel=0.01)


def test_fit_cubic_rejects_saddle():
    saddle = next(e for e in equilibria_in_period(P_IV) if e.kind != CENTER)
    with pytest.raises(ValueError):
        fit_cubic(P_IV, saddle)


def test_linear_reduction_matches_closed_form():
    cubic = CubicApprox(omega_n=1.0, epsilon=0.0, origin_theta=0.0)
    kappa, xi, b = 1.3, 0.07, 0.4
    s_values = np.linspace(0.05, 2.5, 100)
    amplitude, phase = frf_amplitudes(cubic, kappa, xi, b, s_values)
    assert np.all(_root_counts(amplitude) == 1)
    for s, a, phi in zip(s_values.tolist(), amplitude[:, 0].tolist(),
                         phase[:, 0].tolist()):
        lin = 1.0 - kappa * s * s
        expect = b / math.hypot(lin, 2.0 * xi * s)
        assert a == pytest.approx(expect, rel=1e-12)
        assert phi == pytest.approx(math.atan2(2.0 * xi * s, lin), abs=1e-12)


def test_linear_resonance_point():
    cubic = CubicApprox(omega_n=1.0, epsilon=0.0, origin_theta=0.0)
    amplitude, phase = frf_amplitudes(cubic, 1.0, 0.1, 1.0, [1.0])
    assert _root_counts(amplitude).tolist() == [1]
    assert amplitude[0, 0] == pytest.approx(5.0, rel=1e-14)
    assert phase[0, 0] == pytest.approx(math.pi / 2.0, abs=1e-14)


def test_static_limit():
    cubic = CubicApprox(omega_n=1.0, epsilon=0.0, origin_theta=0.0)
    amplitude, _ = frf_amplitudes(cubic, 1.0, 0.1, 0.3, [1e-6])
    assert amplitude[0, 0] == pytest.approx(0.3, rel=1e-6)


def test_roots_satisfy_residual_and_unsquared_pair():
    cubic = CubicApprox(omega_n=1.0, epsilon=-0.05, origin_theta=0.0)
    kappa, xi, b = 1.0, 0.05, 0.3
    s_values = np.linspace(0.2, 1.5, 120)
    a, phi = frf_amplitudes(cubic, kappa, xi, b, s_values)
    root = ~np.isnan(a)
    s = s_values[:, None]
    assert np.all(np.abs(_residual(cubic, kappa, xi, b, s, a))[root]
                  <= 1e-10)
    g = 1.0 - kappa * s * s + 0.75 * cubic.epsilon * a * a
    # the two balance equations before squaring
    assert np.all(np.abs(g * a - b * np.cos(phi))[root] <= 1e-8)
    assert np.all(np.abs(2.0 * xi * s * a - b * np.sin(phi))[root] <= 1e-8)


def test_root_count_parity():
    cubic = CubicApprox(omega_n=1.0, epsilon=-0.05, origin_theta=0.0)
    amplitude, _ = frf_amplitudes(cubic, 1.0, 0.05, 0.3,
                                  np.linspace(0.2, 1.5, 200))
    assert set(_root_counts(amplitude).tolist()) <= {1, 3}


def test_softening_three_root_band_below_linear_resonance():
    kappa = 1.0
    cubic = CubicApprox(omega_n=1.0, epsilon=-0.05, origin_theta=0.0)
    s_values = np.linspace(0.2, 1.5, 200)
    amplitude, _ = frf_amplitudes(cubic, kappa, 0.05, 0.3, s_values)
    band = s_values[_root_counts(amplitude) == 3]
    assert band.size
    assert band.max() < 1.0 / math.sqrt(kappa)


def test_phase_in_range():
    cubic = CubicApprox(omega_n=1.0, epsilon=-0.05, origin_theta=0.0)
    amplitude, phase = frf_amplitudes(cubic, 1.0, 0.05, 0.3,
                                      np.linspace(0.2, 1.5, 50))
    phi = phase[~np.isnan(amplitude)]
    assert np.all((0.0 < phi) & (phi < math.pi))


def test_backbone():
    kappa = 1.3
    cubic = CubicApprox(omega_n=1.0, epsilon=-0.05, origin_theta=0.0)
    a_grid = np.linspace(1e-4, 3.0, 50)
    bb = backbone(cubic, kappa, a_grid)
    assert bb.shape[1] == 3
    # a -> 0 recovers the linear resonance ratio
    assert bb[0, 1] == pytest.approx(1.0 / math.sqrt(kappa), rel=1e-4)
    # softening bends to lower s, monotone in amplitude
    assert np.all(np.diff(bb[:, 1]) < 0.0)
    with pytest.raises(ValueError):
        backbone(cubic, kappa, [-1.0])


def test_backbone_drops_negative_radicand():
    cubic = CubicApprox(omega_n=1.0, epsilon=-0.5, origin_theta=0.0)
    bb = backbone(cubic, 1.0, [0.5, 10.0])
    assert bb.shape[0] == 1


def test_backbone_tracks_low_damping_peak():
    cubic = CubicApprox(omega_n=1.0, epsilon=-0.05, origin_theta=0.0)
    s_grid = np.linspace(0.5, 1.2, 1401)
    amplitude, _ = frf_amplitudes(cubic, 1.0, 0.01, 0.05, s_grid)
    k, root = np.unravel_index(np.nanargmax(amplitude), amplitude.shape)
    best_s, best_a = s_grid[k], amplitude[k, root]
    s_bb = math.sqrt(1.0 + 0.75 * cubic.epsilon * best_a**2)
    assert abs(best_s - s_bb) <= 0.01


def test_fold_frequencies_bound_three_root_band():
    cubic = CubicApprox(omega_n=1.0, epsilon=-0.01, origin_theta=0.0)
    folds = fold_frequencies(cubic, 1.0, 0.015, 0.1, 0.9, 1.0)
    assert len(folds) == 2
    lo, hi = folds
    amplitude, _ = frf_amplitudes(cubic, 1.0, 0.015, 0.1,
                                  [0.5 * (lo + hi), lo - 0.01, hi + 0.01])
    assert _root_counts(amplitude).tolist() == [3, 1, 1]


def test_fold_on_a_scan_point_is_reported_once():
    # point 500 of a 2001-point grid of the range lands on the lower fold;
    # the discriminant there is +6.1e-28, so the count is 3, with a double
    # root
    cubic = CubicApprox(omega_n=1.0, epsilon=-0.010632020785712019,
                        origin_theta=0.0)
    args = (cubic, 1.0, 0.010880235353209176, 0.05497346246006739)
    s_lo, s_hi = 0.9693228975247328, 0.9782562734510281
    on_fold = float(np.linspace(s_lo, s_hi, 2001)[500])
    folds = fold_frequencies(*args, s_lo, s_hi)
    assert len(folds) == 2
    lo, hi = folds
    amplitude, _ = frf_amplitudes(*args, [on_fold, 0.5 * (lo + hi)])
    assert _root_counts(amplitude).tolist() == [3, 3]


def test_a_linear_response_has_no_fold():
    # with eps = 0 the discriminant is 0 at every s, yet each s has one root
    cubic = CubicApprox(omega_n=1.0, epsilon=0.0, origin_theta=0.0)
    assert fold_frequencies(cubic, 1.0, 0.05, 0.05, 0.1, 2.0).size == 0
    amplitude, _ = frf_amplitudes(cubic, 1.0, 0.05, 0.05,
                                  np.linspace(0.1, 2.0, 2001))
    assert set(_root_counts(amplitude).tolist()) == {1}


def test_two_folds_closer_than_a_scan_step_are_found():
    # the pair is 1.5e-4 apart, under the 9.5e-4 step of a 2001-point scan
    # of [0.1, 2], which saw no sign change of the discriminant
    cubic = CubicApprox(omega_n=1.0, epsilon=0.163, origin_theta=0.0)
    args = (cubic, 2.586, 0.0433, 0.0488)
    folds = fold_frequencies(*args, 0.1, 2.0)
    assert folds == pytest.approx([0.6524212, 0.6525692], abs=1e-7)
    amplitude, _ = frf_amplitudes(*args, [folds[0] - 1e-6, folds.mean(),
                                          folds[1] + 1e-6])
    assert _root_counts(amplitude).tolist() == [1, 3, 1]
    for fold in folds:
        here, *beside = _root_counts(frf_amplitudes(*args, [
            fold, np.nextafter(fold, -math.inf),
            np.nextafter(fold, math.inf)])[0]).tolist()
        assert set(beside) - {here}


@pytest.mark.parametrize("case", [
    (-0.01, 1.0, 0.015, 0.1, 0.9, 1.0),
    (0.163, 2.586, 0.0433, 0.0488, 0.1, 2.0),
    (-0.014884142476537928, 1.4529764684064155, 0.002380237425780928,
     0.011983769044454876, 0.24888112678865743, 1.6592075119243828)])
def test_folds_match_40_digit_double_roots(case):
    # the reference is the zero of the discriminant at 40 digits (where the
    # amplitude cubic has a double root) inside 1e-9 of the fold; the
    # measure is |fold - ref| over the discriminant's rounding band there,
    # eps*S/|dDisc/ds| with S the sum of its terms' magnitudes: the worst
    # measured is 2.09 (0.29 on the first two cases), and the gate is ten
    # times that
    eps, kappa, xi, b, s_lo, s_hi = case
    cubic = CubicApprox(omega_n=1.0, epsilon=eps, origin_theta=0.0)
    folds = fold_frequencies(cubic, kappa, xi, b, s_lo, s_hi)
    assert len(folds) >= 2
    with mpmath.workdps(40):
        args = [mpmath.mpf(x) for x in (eps, kappa, xi, b)]
        disc = lambda t: hbm._discriminant(t, *args)
        worst = 0.0
        for fold in folds:
            ref = mpmath.findroot(disc, (fold * (1 - 1e-9), fold * (1 + 1e-9)),
                                  solver="illinois")
            c3, c2, c1, c0, _ = hbm._coefficients(ref, *args)
            scale = (18 * abs(c3 * c2 * c1 * c0) + 4 * abs(c2**3 * c0)
                     + c2 * c2 * c1 * c1 + 4 * abs(c3 * c1**3)
                     + 27 * c3 * c3 * c0 * c0)
            band = np.finfo(float).eps * scale / abs(mpmath.diff(disc, ref))
            worst = max(worst, float(abs(fold - ref) / band))
    assert worst <= 20.0


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([-1.0, 1.0]), st.floats(0.005, 1.0),
       st.floats(0.0, 0.2), st.floats(0.5, 2.0))
# c = 4*xi^2/kappa is subnormal
@example(-1.0, 1.0, 7.881022062892101e-159, 1.0)
@example(1.0, 0.5, 1e-160, 1.0)
def test_the_fold_locus_turns_only_at_its_cuts(sign, eps, xi, kappa):
    # on a dense u grid along each branch of the double-root locus, every
    # extremum of B^2 = -2*e*u^2*y lies within a grid step of a cut, and
    # every extremum of s^2 = (1 + e*u - y)/kappa at a cusp.  On the small
    # root y = c*(1 + e*u)/big the extrema of B^2 are read from B^2/c,
    # which turns where B^2 does and keeps its digits where c is subnormal
    e, c = 0.75 * sign * eps, 4.0 * xi * xi / kappa
    top = 4.0 / eps
    cuts = hbm._locus_cuts(e, c, top)
    meet = (2.0 * c + math.copysign(math.sqrt(3.0 * c * c + 4.0 * c),
                                    e)) / (2.0 * e)
    cusps = [(c + r) / e for r in (math.sqrt(c * c + c / 0.75),
                                   -math.sqrt(c * c + c / 0.75))]
    u = np.linspace(max(meet, 0.0), top, 200_001)[1:]
    step = u[1] - u[0]
    b = 2.0 * e * u - c
    root = np.sqrt(np.maximum(b * b - 4.0 * c * (1.0 + e * u), 0.0))
    big = -0.5 * (b + np.copysign(root, b))   # the stable formula
    for branch in (1.0, -1.0):
        on_big = branch * np.sign(b) < 0.0
        y = np.where(on_big, big, c * (1.0 + e * u) / big)
        b2 = -2.0 * e * u * u * np.where(on_big, big, (1.0 + e * u) / big)
        for values, at in ((b2, cuts), ((1.0 + e * u - y) / kappa, cusps)):
            turn = np.diff(np.sign(np.diff(values))) != 0
            for x in u[1:-1][turn]:
                assert min(abs(x - t) for t in at) <= 2.0 * step
    if c < np.finfo(float).tiny:    # the folds are those of xi = 0
        cubic = CubicApprox(omega_n=1.0, epsilon=sign * eps, origin_theta=0.0)
        assert (fold_frequencies(cubic, kappa, xi, 0.05, 0.2, 3.0).tolist()
                == fold_frequencies(cubic, kappa, 0.0, 0.05, 0.2,
                                    3.0).tolist())


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([-1.0, 1.0]), st.floats(1e-5, 1.0),
       st.floats(0.2, 5.0), st.floats(1e-4, 0.5), st.floats(0.05, 1.0),
       st.floats(1.1, 30.0))
# the fold lies below the range, where a scan read 591 sign changes
@example(-1.0, 0.01704588104963387, 4.437673276121547,
         0.00019850254013396179, 0.6530988149086717, 23.741)
# the discriminant at the range's top is noise of the wrong sign
@example(-1.0, 2.673625652360741e-05, 3.136403738674363,
         0.012253967204467996, 0.36862053769784664, 29.022)
def test_an_undamped_response_has_its_one_closed_form_fold(sign, eps, kappa,
                                                           b, s_lo, ratio):
    # at xi = 0 the locus is y = -2*e*u: one fold, at u = cbrt(B^2/(4e^2))
    # and s^2 = (1 + 3*e*u)/kappa.  Away from it the rounded discriminant
    # is noise at large s, and no fold is read there
    e, s_hi = 0.75 * sign * eps, s_lo * ratio
    x2 = (1.0 + 3.0 * e * np.cbrt(b * b / (4.0 * e * e))) / kappa
    ref = [math.sqrt(x2)] if x2 > 0.0 else []
    assume(all(abs(r / edge - 1.0) > 1e-9 for r in ref for edge in (s_lo,
                                                                     s_hi)))
    ref = [r for r in ref if s_lo < r < s_hi]
    cubic = CubicApprox(omega_n=1.0, epsilon=sign * eps, origin_theta=0.0)
    folds = fold_frequencies(cubic, kappa, 0.0, b, s_lo, s_hi)
    assert folds.tolist() == pytest.approx(ref, rel=1e-12)


def _check_folds_separate(cubic, kappa, xi, b, s_lo, s_hi):
    folds = fold_frequencies(cubic, kappa, xi, b, s_lo, s_hi)
    for fold in folds:
        for ds in (1e-7 * fold, 1e-10 * fold):
            amplitude, _ = frf_amplitudes(cubic, kappa, xi, b,
                                          [fold - ds, fold + ds])
            assert sorted(_root_counts(amplitude).tolist()) == [1, 3]
    return folds


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([-1.0, 1.0]), st.floats(0.005, 0.5),
       st.floats(0.005, 0.05), st.floats(2.0, 6.0), st.floats(0.5, 2.0))
# two folds 2.3e-4 apart, where the discriminant is rounding noise: its
# sign at each s must not depend on whether B comes as an array
@example(1.0, 0.07018154070664764, 0.05, 4.450312892752409, 0.625)
def test_each_fold_is_a_root_count_change_at_adjacent_floats(sign, eps, xi,
                                                              q, kappa):
    # a fold is bisected to adjacent floats: it and one of its float
    # neighbours lie on the two sides of the root-count change
    b = 2.0 * xi * math.sqrt(q * 2.0 * xi / (0.75 * eps))
    cubic = CubicApprox(omega_n=1.0, epsilon=sign * eps, origin_theta=0.0)
    args = (cubic, kappa, xi, b)
    for fold in fold_frequencies(*args, 0.5 / math.sqrt(kappa),
                                 1.5 / math.sqrt(kappa)):
        here, *beside = _root_counts(frf_amplitudes(*args, [
            fold, np.nextafter(fold, -math.inf),
            np.nextafter(fold, math.inf)])[0]).tolist()
        assert set(beside) - {here}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([-1.0, 1.0]), st.floats(0.005, 0.5),
       st.floats(0.005, 0.05), st.floats(2.0, 6.0), st.floats(0.5, 2.0))
def test_folds_separate_one_and_three_roots(sign, eps, xi, q, kappa):
    # drive from the bistability measure q = 0.75*|eps|*a_pk^2/(2*xi),
    # a_pk = B/(2*xi), so that most draws have folds in the scanned range
    b = 2.0 * xi * math.sqrt(q * 2.0 * xi / (0.75 * eps))
    cubic = CubicApprox(omega_n=1.0, epsilon=sign * eps, origin_theta=0.0)
    _check_folds_separate(cubic, kappa, xi, b, 0.5 / math.sqrt(kappa),
                          1.5 / math.sqrt(kappa))


def test_root_count_beside_a_fold_follows_the_discriminant():
    # 1e-10 below the lowest fold there are 3 roots; np.roots with a 1e-9
    # cut on the imaginary part counted 1 on both sides
    cubic = CubicApprox(omega_n=1.0, epsilon=-0.014884142476537928,
                        origin_theta=0.0)
    folds = _check_folds_separate(
        cubic, 1.4529764684064155, 0.002380237425780928,
        0.011983769044454876, 0.24888112678865743, 1.6592075119243828)
    assert len(folds) == 3


def test_discriminant_slope_is_its_s_derivative():
    # at the cubic fits of seeded points of the four statics regions
    # (double well, hard and soft single well, cusp line), with the hbm
    # job's drive ranges; the terms of the slope cancel (1.7e-12 of it
    # seen), so the gate is 1e-12 of the sum of their magnitudes
    rng = np.random.default_rng(29)
    regions = [((1.2, 1.8), (0.9, 1.1), (0.0, 0.05)),
               ((2.3, 2.8), (1.0, 1.0), (0.0, 0.1)),
               ((0.25, 0.35), (0.45, 0.55), (0.0, 0.0)),
               ((0.8, 1.2), None, (0.0, 0.05))]
    with mpmath.workdps(40):
        for k in range(200):
            a_range, b_range, g_range = regions[k % 4]
            a = rng.uniform(*a_range)
            p = Params(alpha=a, beta=a if b_range is None
                       else rng.uniform(*b_range), gamma=rng.uniform(*g_range))
            eps = fit_cubic(p, working_center(p)).epsilon
            kappa, xi, b = (rng.uniform(0.5, 2.0), rng.uniform(0.03, 0.08),
                            rng.uniform(0.005, 0.02))
            s = rng.uniform(0.1, 2.0)
            ref = mpmath.diff(lambda t: hbm._discriminant(
                t, *map(mpmath.mpf, (eps, kappa, xi, b))), s)
            got = hbm._discriminant_slope(s, eps, kappa, xi, b)
            lin = 1.0 - kappa * s * s
            c3, c2, c1, c0 = (0.5625 * eps * eps, 1.5 * eps * lin,
                              lin * lin + (2.0 * xi * s) ** 2, -b * b)
            scale = ((18.0 * abs(c3 * c1 * c0) + 12.0 * c2 * c2 * abs(c0)
                      + 2.0 * abs(c2) * c1 * c1) * 3.0 * abs(eps) * kappa * s
                     + (18.0 * abs(c3 * c2 * c0) + 2.0 * c2 * c2 * c1
                        + 12.0 * c3 * c1 * c1)
                     * 4.0 * s * (2.0 * xi * xi + kappa * abs(lin)))
            assert abs(got - ref) <= 1e-12 * scale


@settings(max_examples=100, deadline=None)
@given(st.floats(0.01, 0.5), st.sampled_from([-1.0, 1.0]),
       st.floats(0.005, 0.1), st.floats(0.01, 0.5), st.floats(0.5, 2.0))
def test_array_call_matches_the_companion_matrix_roots(eps, sign, xi, b,
                                                       kappa):
    cubic = CubicApprox(omega_n=1.0, epsilon=sign * eps, origin_theta=0.0)
    s_values = np.linspace(0.3, 1.7, 57) / math.sqrt(kappa)
    amplitude, phase = frf_amplitudes(cubic, kappa, xi, b, s_values)
    assert len(amplitude) == s_values.size
    for k, s in enumerate(s_values.tolist()):
        # a row does not depend on the other s of its call
        one = frf_amplitudes(cubic, kappa, xi, b, [s])
        np.testing.assert_array_equal(one[0][0], amplitude[k])
        np.testing.assert_array_equal(one[1][0], phase[k])
        a = amplitude[k][~np.isnan(amplitude[k])]
        lin = 1.0 - kappa * s * s
        ref = np.roots([0.5625 * eps * eps, 1.5 * sign * eps * lin,
                        lin * lin + (2.0 * xi * s) ** 2, -b * b])
        real = np.sort(ref.real[np.abs(ref.imag) <= 1e-6 * np.abs(ref)])
        if len(real) != a.size:
            continue    # a near-double root: the reference cannot tell
        np.testing.assert_allclose(a * a, real, rtol=1e-9)


def test_frf_roots_folds_and_backbone():
    cubic = CubicApprox(omega_n=1.0, epsilon=-0.01, origin_theta=0.0)
    amplitude, _ = frf_amplitudes(cubic, 1.0, 0.015, 0.1,
                                  np.linspace(0.9, 1.0, 21))
    assert len(amplitude) == 21
    assert len(fold_frequencies(cubic, 1.0, 0.015, 0.1, 0.9, 1.0)) == 2
    a_max = np.nanmax(amplitude)
    assert backbone(cubic, 1.0, np.linspace(1e-3, a_max, 200)).shape[0] > 0


def test_frf_input_validation():
    cubic = CubicApprox(omega_n=1.0, epsilon=0.0, origin_theta=0.0)
    with pytest.raises(ValueError):
        frf_amplitudes(cubic, 1.0, 0.1, 0.3, [0.0])
    with pytest.raises(ValueError):
        frf_amplitudes(cubic, 1.0, 0.1, -0.3, [1.0])
    with pytest.raises(ValueError):
        CubicApprox(omega_n=0.0, epsilon=0.0, origin_theta=0.0)
    # no drive, no positive amplitude
    for eps in (0.0, -0.3):
        amplitude, _ = frf_amplitudes(replace(cubic, epsilon=eps), 1.0, 0.1,
                                      0.0, [0.5, 1.0])
        assert _root_counts(amplitude).tolist() == [0, 0]


# (kappa, xi, B, s_lo, s_hi) of fold_frequencies at eps = -0.01, each
# outside the domain in one argument
_FOLD_REFUSALS = {
    "s_lo negative": (1.0, 0.015, 0.1, -1.0, 1.0),
    "s_lo zero": (1.0, 0.015, 0.1, 0.0, 1.0),
    "s_hi at s_lo": (1.0, 0.015, 0.1, 1.0, 1.0),
    "s_hi below s_lo": (1.0, 0.015, 0.1, 1.0, 0.9),
    "s_hi nan": (1.0, 0.015, 0.1, 0.1, math.nan),
    "s_hi inf": (1.0, 0.015, 0.1, 0.1, math.inf),
    "s_lo nan": (1.0, 0.015, 0.1, math.nan, 1.0),
    "kappa negative": (-1.0, 0.015, 0.1, 0.1, 1.0),
    "kappa zero": (0.0, 0.015, 0.1, 0.1, 1.0),
    "xi negative": (1.0, -0.015, 0.1, 0.1, 1.0),
    # these returned [] (xi = inf after numpy RuntimeWarnings)
    "xi inf": (1.0, math.inf, 0.1, 0.1, 1.0),
    "B nan": (1.0, 0.015, math.nan, 0.1, 1.0),
    "B inf": (1.0, 0.015, math.inf, 0.1, 1.0),
    # this returned the folds of B = 0.1, which frf_amplitudes refuses
    "B negative": (1.0, 0.015, -0.1, 0.1, 1.0),
}


@pytest.mark.parametrize("kappa, xi, b, s_lo, s_hi", _FOLD_REFUSALS.values(),
                         ids=list(_FOLD_REFUSALS))
def test_fold_frequencies_refuses_out_of_domain_input(kappa, xi, b, s_lo,
                                                      s_hi):
    # [-1, 1] once returned no fold, though [0.1, 1] holds three
    cubic = CubicApprox(omega_n=1.0, epsilon=-0.01, origin_theta=0.0)
    np.testing.assert_allclose(
        fold_frequencies(cubic, 1.0, 0.015, 0.1, 0.1, 1.0),
        [0.30291, 0.95169, 0.96396], atol=5e-6)
    with pytest.raises(InputError):
        fold_frequencies(cubic, kappa, xi, b, s_lo, s_hi)


_FRF_REFUSALS = {
    "s zero": [0.0],
    "s negative": [1.0, -0.5],
    "s nan": [1.0, math.nan],
    "s inf": [math.inf],
    "s scalar": 1.0,
    "s 2-D": [[0.9, 1.0]],
}


@pytest.mark.parametrize("s", _FRF_REFUSALS.values(),
                         ids=list(_FRF_REFUSALS))
def test_frf_amplitudes_refuses_s_outside_its_domain(s):
    cubic = CubicApprox(omega_n=1.0, epsilon=-0.01, origin_theta=0.0)
    with pytest.raises(InputError):
        frf_amplitudes(cubic, 1.0, 0.015, 0.1, s)


# (kappa, xi, B) of frf_amplitudes at eps = -0.01, s = 1, each outside
# the domain in one argument; each once returned rows (kappa = -1: A =
# 0.05; xi = -0.015: A = 2.16 with phi < 0; B = inf: A = inf; NaN: NaN)
_FRF_DRIVE_REFUSALS = {
    "kappa negative": (-1.0, 0.015, 0.1),
    "kappa zero": (0.0, 0.015, 0.1),
    "kappa inf": (math.inf, 0.015, 0.1),
    "kappa nan": (math.nan, 0.015, 0.1),
    "xi negative": (1.0, -0.015, 0.1),
    "xi inf": (1.0, math.inf, 0.1),
    "xi nan": (1.0, math.nan, 0.1),
    "B negative": (1.0, 0.015, -0.1),
    "B inf": (1.0, 0.015, math.inf),
    "B nan": (1.0, 0.015, math.nan),
}


@pytest.mark.parametrize("kappa, xi, b", _FRF_DRIVE_REFUSALS.values(),
                         ids=list(_FRF_DRIVE_REFUSALS))
def test_frf_amplitudes_refuses_a_drive_outside_its_domain(kappa, xi, b):
    cubic = CubicApprox(omega_n=1.0, epsilon=-0.01, origin_theta=0.0)
    with pytest.raises(InputError):
        frf_amplitudes(cubic, kappa, xi, b, [1.0])


@pytest.mark.parametrize("omega_n, epsilon", [
    (0.0, 0.0), (-1.0, 0.0), (math.inf, 0.0), (math.nan, 0.0),
    (1.0, math.inf), (1.0, -math.inf), (1.0, math.nan)])
def test_cubic_approx_refuses_a_non_finite_or_nonpositive_fit(omega_n,
                                                              epsilon):
    with pytest.raises(InputError):
        CubicApprox(omega_n=omega_n, epsilon=epsilon, origin_theta=0.0)


def test_linear_sweep_no_hysteresis():
    cubic = CubicApprox(omega_n=1.0, epsilon=0.0, origin_theta=0.0)
    res = sweep_hysteresis((cubic, 1.0, 0.1, 0.1), 0.8, 1.2, 9)
    assert res.up_jumps == []
    assert res.down_jumps == []
    # both sweeps read the same orbits off one branch
    np.testing.assert_array_equal(res.up_amplitude, res.down_amplitude[::-1])
    one = sweep_hysteresis((cubic, 1.0, 0.1, 0.1), 0.8, 1.2, 1)
    assert one.up_amplitude.tolist() == one.down_amplitude.tolist() == [
        res.up_amplitude[0]]


def test_a_sweep_off_the_traced_branch_keeps_to_its_own_orbit():
    # The branch folds near s = 0.91 and its unstable middle part leaves
    # the range through s_min, so the trace from s_min never reaches the
    # upper branch: the up sweep reaches it by a transient at s = 0.925
    # and traces it both ways, and the down sweep stays on it down to
    # s_min, where the upper orbit (amplitude 0.41) still exists.
    p = Params(alpha=1.66, beta=1.0, xi=0.0345, m_big0=0.0193)
    res = sweep_hysteresis(p, 0.75, 1.1, 5)
    assert res.up_amplitude[1] < 0.1 and res.down_amplitude[3] > 0.3
    assert res.up_jumps == [pytest.approx(0.88125)] and res.down_jumps == []
    assert res.down_amplitude[4] > 0.3


def test_a_sweep_without_hysteresis_has_no_jumps():
    # one stable branch over the whole range: the up and down sweeps read
    # the same orbits, however much the amplitude changes between them
    p = Params(alpha=1.5, beta=1.0, xi=0.05, m_big0=0.015)
    res = sweep_hysteresis(p, 0.5, 1.5, 60)
    assert res.up_jumps == [] and res.down_jumps == []
    np.testing.assert_array_equal(res.up_amplitude, res.down_amplitude[::-1])


def test_the_down_sweep_keeps_the_upper_branch_to_its_fold():
    # the upper branch of this softening well holds from s = 1.05 down to
    # its fold between 0.7 and 0.75; the lower one up to its fold between
    # 0.9 and 0.95
    p = Params(alpha=1.5, beta=1.0, xi=0.01, m_big0=0.016)
    res = sweep_hysteresis(p, 0.5, 1.05, 12)
    assert res.up_jumps == [pytest.approx(0.925)]
    assert res.down_jumps == [pytest.approx(0.725)]
    assert float(res.down_s[6]) == pytest.approx(0.75)
    assert res.down_amplitude[6] > 0.5


def test_an_escaping_orbit_names_its_frequency(tmp_path, capsys):
    # a softening cubic driven over its barrier at x = sqrt(2)
    assert main(["sweep", "--alpha", "1", "--xi", "0.01", "--epsilon", "-0.5",
                 "--drive", "0.5", "--n", "4", "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err == (
        "error:numeric: orbit escaped at s = 0.5\n")


@pytest.mark.parametrize("system", [
    Params(alpha=1.5, beta=1.0, m_big0=0.01),
    (CubicApprox(omega_n=1.0, epsilon=-0.01, origin_theta=0.0), 1.0, 0.0,
     0.05),
])
def test_an_undamped_sweep_is_refused(system, monkeypatch):
    # xi = 0: the period map preserves area, so no orbit is asymptotically
    # stable and the stability verdict would rest on rounding; refused
    # before a period is integrated
    def integrated(*args, **kwargs):
        raise AssertionError("a period was integrated")

    monkeypatch.setattr(hbm, "integrate_rhs", integrated)
    with pytest.raises(ValueError, match="xi > 0"):
        sweep_hysteresis(system, 0.9, 1.0, 3)


def test_sweep_counts_every_drive_period_it_integrates(monkeypatch,
                                                        tmp_path):
    # one drive period per integrate_rhs run (period maps, amplitudes),
    # n per _strobe transient
    runs = []
    one_run, strobe = hbm.integrate_rhs, hbm._strobe
    monkeypatch.setattr(hbm, "integrate_rhs",
                        lambda *a, **k: runs.append(1) or one_run(*a, **k))
    monkeypatch.setattr(hbm, "_strobe",
                        lambda *a: runs.append(a[3]) or strobe(*a))
    monkeypatch.setattr(hbm, "_MAX_PERIODS", 60)
    # a traced branch with two folds, and cross-well chaos (transients)
    for system, s_lo, s_hi, n in ((CUBIC08, 0.96, 0.99, 7),
                                  (Params(alpha=1.5, beta=1.0, xi=0.1,
                                          m_big0=0.25), 0.8, 0.81, 2)):
        runs.clear()
        assert sweep_hysteresis(system, s_lo, s_hi, n).periods == sum(runs)
    monkeypatch.undo()
    res = sweep_hysteresis(CUBIC08, 0.96, 0.99, 7)
    for out in ("a", "b"):
        assert main(["sweep", "--alpha", "1", "--xi", "0.01", "--drive",
                     "0.05", "--epsilon", "-0.01", "--s-min", "0.96",
                     "--s-max", "0.99", "--n", "7",
                     "--out", str(tmp_path / out)]) == 0
        files = json.loads((tmp_path / out / "manifest.json").read_text())
        assert files["files"]["sweep_jumps"]["metadata"] == {
            "periods": res.periods}


# Newton shooting on the period map (hbm._PeriodMaps.settle).  The cubic of
# acceptance check 08: folds at s = 0.97395 and 0.97798.
CUBIC08 = (CubicApprox(omega_n=1.0, epsilon=-0.01, origin_theta=0.0),
           1.0, 0.01, 0.05)
SPEC = IntegratorSpec(rel_tol=1e-8, abs_tol=1e-10)


def _period_map(s):
    """The period maps of a sweep of CUBIC08, and its map at s."""
    maps = hbm._PeriodMaps(CUBIC08, SPEC)
    return maps, maps.at(s)


def _hbm_state(s, root):
    """State at t = 0 of the HBM orbit A*sin(s*t - phi) of the given root."""
    amplitude, phase = frf_amplitudes(*CUBIC08, [s])
    a, phi = float(amplitude[0, root]), float(phase[0, root])
    return (-a * math.sin(phi), a * s * math.cos(phi))


def test_a_trace_spends_only_its_own_budget():
    # The periods the sweep spent before a trace (settles across chaos)
    # must not cut it short: with the counter far past _MAX_PERIODS per
    # grid point, the trace from a settled orbit still carries the branch
    # around both folds, as from a fresh counter.
    grid = np.linspace(0.96, 0.99, 7).tolist()
    traced = []
    for spent in (0, 10**6):
        maps = hbm._PeriodMaps(CUBIC08, SPEC)
        _, x, settled = maps.settle(grid[0], maps.rest)
        assert settled
        maps.periods += spent
        traced.append(hbm._trace(maps, grid, x, 0, 1))
    assert traced[0] == traced[1]
    assert [sorted(sg) for sg in traced[1]] == [[0, 1, 2, 3], [3, 4, 5, 6]]


@pytest.fixture(scope="module")
def sweep08():
    return sweep_hysteresis(CUBIC08, 0.960, 0.990, 7)


@pytest.mark.parametrize("s, root", [(0.968, 0), (0.976, 0), (0.976, 2)])
def test_accepted_orbit_is_a_stable_fixed_point_of_the_period_map(s, root):
    maps, period = _period_map(s)
    swing, x, settled = maps.settle(s, _hbm_state(s, root))
    (amp,) = hbm._amplitudes([swing])
    assert settled
    px = period(x)
    scale = 1.0 + math.hypot(*x)
    assert math.hypot(px[0] - x[0], px[1] - x[1]) <= SPEC.rel_tol * scale
    m = hbm._monodromy(period, x, px, math.sqrt(SPEC.rel_tol) * scale)
    assert np.all(np.abs(np.linalg.eigvals(np.reshape(m, (2, 2)))) < 1.0)
    # the low and the high branch of the three-root band
    assert amp == pytest.approx(frf_amplitudes(*CUBIC08, [s])[0][0, root],
                                rel=0.05)


def test_unstable_middle_branch_is_rejected(monkeypatch):
    s = 0.976
    maps, period = _period_map(s)
    x = _hbm_state(s, 1)
    # Newton converges on the middle branch, a saddle of P ...
    verdicts = []
    stable = hbm._stable
    monkeypatch.setattr(hbm, "_stable",
                        lambda m: verdicts.append(stable(m)) or verdicts[-1])
    assert hbm._shoot(period, x, period(x), SPEC.rel_tol) is None
    assert verdicts == [False]
    monkeypatch.undo()
    # ... so the sweep leaves it for one of the stable branches
    swing, _, settled = maps.settle(s, x)
    (amp,) = hbm._amplitudes([swing])
    low, mid, high = frf_amplitudes(*CUBIC08, [s])[0][0]
    assert settled
    assert min(abs(amp - low), abs(amp - high)) < 0.05 * mid


def _transient_amplitude(s, periods=1000):
    """Half-spread of the refined turning angles over the last period of
    one uninterrupted run of ``periods`` drive periods from rest."""
    f = hbm._cubic_rhs(*CUBIC08, s)
    t_drive = 2.0 * math.pi / s
    turns = []

    def cb(ta, ya, tb, yb, dense):
        if ta >= (periods - 1) * t_drive and ya[1] * yb[1] < 0.0:
            turns.append(dense)

    integrate_rhs(f, (0.0, 0.0),
                  IntegratorSpec(rel_tol=1e-9, abs_tol=1e-11,
                                 t_end=periods * t_drive), step_cb=cb)
    thetas = _crossings(turns, 1)[1]
    return 0.5 * float(thetas.max() - thetas.min())


def test_sweeps_keep_their_branch_up_to_each_fold(sweep08):
    # folds at 0.97395 and 0.97798: the grid value 0.975 between them lies
    # on the low branch going up and on the high branch coming down
    assert sweep08.up_jumps == [pytest.approx(0.9775)]
    assert sweep08.down_jumps == [pytest.approx(0.9725)]
    s = float(sweep08.down_s[3])
    assert s == pytest.approx(0.975)
    high = frf_amplitudes(*CUBIC08, [s])[0][0, -1]
    assert sweep08.down_amplitude[3] == pytest.approx(high, rel=0.05)


@pytest.mark.parametrize("k", [1, 2, 5])
def test_sweep_amplitude_matches_a_long_transient(sweep08, k):
    # off the folds; the parent's 0.1 % settle rule missed this by ~1e-4
    s = float(sweep08.up_s[k])
    assert sweep08.up_amplitude[k] == pytest.approx(_transient_amplitude(s),
                                                    rel=1e-6)


def test_shot_past_a_fold_falls_back_to_the_remaining_branch(monkeypatch):
    # the high branch at s = 0.9745 ends at the lower fold 0.97395; the
    # first grid point past it has only the low branch
    maps, _ = _period_map(0.9745)
    swing, x, _ = maps.settle(0.9745, _hbm_state(0.9745, 2))
    (high,) = hbm._amplitudes([swing])
    s = 0.9735
    maps, period = _period_map(s)
    px = period(x)
    calls = []
    assert hbm._shoot(lambda y: calls.append(y) or period(y), x, px,
                      SPEC.rel_tol) is None
    # the first Newton step does not halve the residual: the attempt ends
    # there, after the two monodromy columns and one period map
    assert len(calls) == 3
    shots = []
    shoot = hbm._shoot
    monkeypatch.setattr(hbm, "_shoot",
                        lambda *a: shots.append(shoot(*a)) or shots[-1])
    swing, _, settled = maps.settle(s, x)
    (amp,) = hbm._amplitudes([swing])
    assert settled and len(shots) > 1 and shots[0] is None
    low, *more = frf_amplitudes(*CUBIC08, [s])[0][0]
    assert np.isnan(more).all()
    assert amp == pytest.approx(low, rel=0.05)
    assert amp < 0.5 * high


def test_up_and_down_sweeps_agree_outside_the_hysteresis_band(sweep08):
    lo, hi = fold_frequencies(*CUBIC08, 0.960, 0.990)
    down = dict(zip(sweep08.down_s.tolist(),
                    sweep08.down_amplitude.tolist()))
    outside = [(s, a) for s, a in zip(sweep08.up_s.tolist(),
                                      sweep08.up_amplitude.tolist())
               if not lo <= s <= hi]
    assert len(outside) == 6
    for s, a in outside:
        assert a == pytest.approx(down[s], rel=1e-6)
    assert sweep08.up_unsettled == [] and sweep08.down_unsettled == []


def test_a_branch_traced_twice_is_one_segment(sweep08, monkeypatch):
    # The first trace leaves s = 0.965 uncovered, so the up sweep settles
    # an orbit there and traces its branch again.  Its segments hold the
    # orbits of the first trace's, so they merge into them: the sweep
    # keeps its jumps and amplitudes, at the cost of the second trace.
    trace, starts = hbm._trace, []

    def gapped(maps, grid, x, k, sigma):
        segments = trace(maps, grid, x, k, sigma)
        if (k, sigma) == (0, 1):
            del segments[0][1]
        starts.append(k)
        return segments

    monkeypatch.setattr(hbm, "_trace", gapped)
    res = sweep_hysteresis(CUBIC08, 0.960, 0.990, 7)
    assert starts == [0, 0, 1, 1]
    assert res.up_jumps == sweep08.up_jumps
    assert res.down_jumps == sweep08.down_jumps
    for got, want in ((res.up_amplitude, sweep08.up_amplitude),
                      (res.down_amplitude, sweep08.down_amplitude)):
        np.testing.assert_allclose(got, want, rtol=1e-6)
    assert res.periods > sweep08.periods


def test_unsettled_points_are_flagged(monkeypatch, tmp_path):
    # Cross-well chaos (largest Lyapunov exponent about +0.08): no stable
    # period-1 orbit, so no shot is accepted however long the transient.
    monkeypatch.setattr(hbm, "_MAX_PERIODS", 60)
    p = Params(alpha=1.5, beta=1.0, xi=0.1, m_big0=0.25)
    res = sweep_hysteresis(p, 0.8, 0.81, 2)
    assert res.up_unsettled == res.up_s.tolist()
    assert res.down_unsettled == res.down_s.tolist()
    assert np.all(np.isfinite(res.up_amplitude))
    assert main(["sweep", "--alpha", "1.5", "--beta", "1", "--xi", "0.1",
                 "--m0", "0.25", "--s-min", "0.8", "--s-max", "0.81",
                 "--n", "2", "--out", str(tmp_path)]) == 0
    files = json.loads((tmp_path / "manifest.json").read_text())["files"]
    assert files["sweep_up"]["metadata"] == {"unsettled": 2}
    assert files["sweep_down"]["metadata"] == {"unsettled": 2}


def test_a_jump_is_read_between_the_settled_points_beside_it():
    # the sweep changes segment across the unsettled point 0.95: one jump,
    # midway between its settled neighbours; no settled point, no jump
    s = np.linspace(0.9, 1.0, 11).tolist()

    def rows(segs):
        return [(sk, 1.0, seg) for sk, seg in zip(s, segs)]

    assert hbm._jumps(rows([0] * 5 + [None] + [2] * 5)) == [
        0.5 * (s[4] + s[6])]
    assert hbm._jumps(rows([0] * 5 + [None] + [0] * 5)) == []
    assert hbm._jumps(rows([None] * 11)) == []


def test_full_system_sweep_drives_with_the_configured_phase(tmp_path):
    # The drive phase enters the rhs; it moves only the stroboscopic
    # section, so the settled amplitudes keep to the shooting tolerance.
    p = Params(alpha=1.5, beta=1.0, xi=0.05, m_big0=0.015)

    def accel_at_t0(phi):
        f, _ = hbm._PeriodMaps(replace(p, phi=phi), SPEC)._setup(0.9)
        return f(0.0, 0.5, 0.0)[1]

    assert accel_at_t0(1.3) - accel_at_t0(0.0) == pytest.approx(
        0.015 * math.sin(1.3), rel=1e-12)
    tables = []
    for phi in ("0", "1.3"):
        out = tmp_path / phi
        assert main(["sweep", "--alpha", "1.5", "--beta", "1", "--xi", "0.05",
                     "--m0", "0.015", "--s-min", "0.8", "--s-max", "1.05",
                     "--n", "4", "--phi", phi, "--out", str(out)]) == 0
        tables.append([np.loadtxt(out / f"sweep_{d}.csv", delimiter=",",
                                  skiprows=1) for d in ("up", "down")])
    for base, moved in zip(*tables):
        assert not np.array_equal(moved, base)
        np.testing.assert_array_equal(moved[:, 0], base[:, 0])
        np.testing.assert_allclose(moved[:, 1], base[:, 1], rtol=1e-6)
