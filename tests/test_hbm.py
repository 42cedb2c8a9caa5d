import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clickdyn.equilibria import CENTER, equilibria_in_period
from clickdyn.hbm import (CubicApprox, backbone, fit_cubic,
                          fit_cubic_from_function, fold_frequencies,
                          frf_amplitudes, frf_curve, sweep_hysteresis)
from clickdyn.model import Params


P_IV = Params(alpha=1.5, beta=1.0)


def _center(p):
    return next(e for e in equilibria_in_period(p)
                if e.kind == CENTER and e.theta > 0)


def _residual(cubic, kappa, xi, b, s, a):
    g = 1.0 - kappa * s * s + 0.75 * cubic.epsilon * a * a
    return (g * g + (2.0 * xi * s) ** 2) * a * a - b * b


def test_fit_cubic_polynomial_oracle():
    # exactly cubic moment: coefficients recovered to FD accuracy
    k, c2, c3 = 1.7, 0.4, -0.9
    cubic = fit_cubic_from_function(
        lambda x: k * x + c2 * x * x + c3 * x**3, 0.0, kappa=2.0)
    assert cubic.epsilon == pytest.approx(c3 / k, abs=1e-6)
    assert cubic.k_linear == pytest.approx(k, abs=1e-8)
    assert cubic.quad_coeff == pytest.approx(c2, abs=1e-6)
    assert cubic.omega_n == pytest.approx(math.sqrt(k / 2.0), rel=1e-8)


def test_fit_cubic_linear_moment_gives_zero_epsilon():
    cubic = fit_cubic_from_function(lambda x: 2.0 * x, 0.0, kappa=1.0)
    assert abs(cubic.epsilon) <= 1e-9


def test_fit_cubic_softening_well():
    cubic = fit_cubic(P_IV, _center(P_IV))
    assert cubic.epsilon < 0.0
    assert cubic.omega_n == pytest.approx(
        math.sqrt(_center(P_IV).k_local), rel=1e-6)


def test_fit_cubic_rejects_saddle():
    saddle = next(e for e in equilibria_in_period(P_IV) if e.kind != CENTER)
    with pytest.raises(ValueError):
        fit_cubic(P_IV, saddle)


def test_linear_reduction_matches_closed_form():
    cubic = CubicApprox(omega_n=1.0, epsilon=0.0, origin_theta=0.0)
    kappa, xi, b = 1.3, 0.07, 0.4
    for s in np.linspace(0.05, 2.5, 100):
        roots = frf_amplitudes(cubic, kappa, xi, b, float(s))
        assert len(roots) == 1
        a, phi = roots[0]
        lin = 1.0 - kappa * s * s
        expect = b / math.hypot(lin, 2.0 * xi * s)
        assert a == pytest.approx(expect, rel=1e-12)
        assert phi == pytest.approx(math.atan2(2.0 * xi * s, lin), abs=1e-12)


def test_linear_resonance_point():
    cubic = CubicApprox(omega_n=1.0, epsilon=0.0, origin_theta=0.0)
    roots = frf_amplitudes(cubic, 1.0, 0.1, 1.0, 1.0)
    assert len(roots) == 1
    assert roots[0][0] == pytest.approx(5.0, rel=1e-14)
    assert roots[0][1] == pytest.approx(math.pi / 2.0, abs=1e-14)


def test_static_limit():
    cubic = CubicApprox(omega_n=1.0, epsilon=0.0, origin_theta=0.0)
    a, _ = frf_amplitudes(cubic, 1.0, 0.1, 0.3, 1e-6)[0]
    assert a == pytest.approx(0.3, rel=1e-6)


def test_roots_satisfy_residual_and_unsquared_pair():
    cubic = CubicApprox(omega_n=1.0, epsilon=-0.05, origin_theta=0.0)
    kappa, xi, b = 1.0, 0.05, 0.3
    for s in np.linspace(0.2, 1.5, 120):
        for a, phi in frf_amplitudes(cubic, kappa, xi, b, float(s)):
            assert abs(_residual(cubic, kappa, xi, b, float(s), a)) <= 1e-10
            g = 1.0 - kappa * s * s + 0.75 * cubic.epsilon * a * a
            # the two balance equations before squaring
            assert abs(g * a - b * math.cos(phi)) <= 1e-8
            assert abs(2.0 * xi * s * a - b * math.sin(phi)) <= 1e-8


def test_root_count_parity():
    cubic = CubicApprox(omega_n=1.0, epsilon=-0.05, origin_theta=0.0)
    for s in np.linspace(0.2, 1.5, 200):
        n = len(frf_amplitudes(cubic, 1.0, 0.05, 0.3, float(s)))
        assert n in (1, 2, 3)   # 2 only exactly at a fold


def test_softening_three_root_band_below_linear_resonance():
    kappa = 1.0
    cubic = CubicApprox(omega_n=1.0, epsilon=-0.05, origin_theta=0.0)
    counts = {float(s): len(frf_amplitudes(cubic, kappa, 0.05, 0.3, float(s)))
              for s in np.linspace(0.2, 1.5, 200)}
    band = [s for s, n in counts.items() if n == 3]
    assert band
    assert max(band) < 1.0 / math.sqrt(kappa)


def test_phase_in_range():
    cubic = CubicApprox(omega_n=1.0, epsilon=-0.05, origin_theta=0.0)
    for s in np.linspace(0.2, 1.5, 50):
        for _a, phi in frf_amplitudes(cubic, 1.0, 0.05, 0.3, float(s)):
            assert 0.0 < phi < math.pi


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
    best_s, best_a = 0.0, 0.0
    for s in s_grid:
        for a, _ in frf_amplitudes(cubic, 1.0, 0.01, 0.05, float(s)):
            if a > best_a:
                best_s, best_a = float(s), a
    s_bb = math.sqrt(1.0 + 0.75 * cubic.epsilon * best_a**2)
    assert abs(best_s - s_bb) <= 0.01


def test_fold_frequencies_bound_three_root_band():
    cubic = CubicApprox(omega_n=1.0, epsilon=-0.01, origin_theta=0.0)
    folds = fold_frequencies(cubic, 1.0, 0.015, 0.1, 0.9, 1.0)
    assert len(folds) == 2
    lo, hi = folds
    assert len(frf_amplitudes(cubic, 1.0, 0.015, 0.1, 0.5 * (lo + hi))) == 3
    assert len(frf_amplitudes(cubic, 1.0, 0.015, 0.1, lo - 0.01)) == 1
    assert len(frf_amplitudes(cubic, 1.0, 0.015, 0.1, hi + 0.01)) == 1


def test_fold_on_a_scan_point_is_reported_once():
    # point 500 of the default 2001-point scan lands on the lower fold,
    # where the double root splits and the root count reads 2 between the
    # 1- and 3-root branches
    cubic = CubicApprox(omega_n=1.0, epsilon=-0.010632020785712019,
                        origin_theta=0.0)
    args = (cubic, 1.0, 0.010880235353209176, 0.05497346246006739)
    s_lo, s_hi = 0.9693228975247328, 0.9782562734510281
    on_fold = float(np.linspace(s_lo, s_hi, 2001)[500])
    assert len(frf_amplitudes(*args, on_fold)) == 2
    folds = fold_frequencies(*args, s_lo, s_hi)
    assert len(folds) == 2
    lo, hi = folds
    assert len(frf_amplitudes(*args, 0.5 * (lo + hi))) == 3


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([-1.0, 1.0]), st.floats(0.005, 0.5),
       st.floats(0.005, 0.05), st.floats(2.0, 6.0), st.floats(0.5, 2.0))
def test_folds_separate_one_and_three_roots(sign, eps, xi, q, kappa):
    # drive from the bistability measure q = 0.75*|eps|*a_pk^2/(2*xi),
    # a_pk = B/(2*xi), so that most draws have folds in the scanned range
    b = 2.0 * xi * math.sqrt(q * 2.0 * xi / (0.75 * eps))
    cubic = CubicApprox(omega_n=1.0, epsilon=sign * eps, origin_theta=0.0)
    s_lo, s_hi = 0.5 / math.sqrt(kappa), 1.5 / math.sqrt(kappa)
    folds = fold_frequencies(cubic, kappa, xi, b, s_lo, s_hi)
    for fold in folds:
        ds = 1e-7 * fold
        counts = [len(frf_amplitudes(cubic, kappa, xi, b, s))
                  for s in (fold - ds, fold + ds)]
        assert sorted(counts) == [1, 3]


def test_frf_curve_bundles_everything():
    cubic = CubicApprox(omega_n=1.0, epsilon=-0.01, origin_theta=0.0)
    branch = frf_curve(cubic, 1.0, 0.015, 0.1, np.linspace(0.9, 1.0, 21))
    assert len(branch.amplitudes) == 21
    assert len(branch.folds) == 2
    assert branch.backbone.shape[0] > 0


def test_frf_input_validation():
    cubic = CubicApprox(omega_n=1.0, epsilon=0.0, origin_theta=0.0)
    with pytest.raises(ValueError):
        frf_amplitudes(cubic, 1.0, 0.1, 0.3, 0.0)
    with pytest.raises(ValueError):
        frf_amplitudes(cubic, 1.0, 0.1, -0.3, 1.0)
    with pytest.raises(ValueError):
        CubicApprox(omega_n=0.0, epsilon=0.0, origin_theta=0.0)


def test_linear_sweep_no_hysteresis():
    cubic = CubicApprox(omega_n=1.0, epsilon=0.0, origin_theta=0.0)
    res = sweep_hysteresis((cubic, 1.0, 0.1, 0.1), 0.8, 1.2, 9,
                           rel_tol=1e-7)
    assert res.up_jumps == []
    assert res.down_jumps == []
    np.testing.assert_allclose(res.up_amplitude, res.down_amplitude[::-1],
                               rtol=1e-2)
