import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from clickdyn.equilibria import (CENTER, REGION_DEGENERATE,
                                 REGION_DOUBLE_WELL, REGION_SINGLE_WELL_HARD,
                                 REGION_SINGLE_WELL_SOFT, classify_region,
                                 equilibria_in_period, interior_angle)
from clickdyn.freevib import (amplitude_frequency_curve, energy_bands,
                              level_angles, period_of_energy)
from clickdyn.hbm import fit_cubic
from clickdyn.integrate import measure_free_oscillation
from clickdyn.model import InputError, Params, potential


P_IV = Params(alpha=1.5, beta=1.0)


def _center(p):
    return next(e for e in equilibria_in_period(p)
                if e.kind == CENTER and e.theta > 0)


def _linear_period(p):
    return 2.0 * math.pi / math.sqrt(_center(p).k_local / p.kappa)


def test_turning_angles_match_root_finding():
    for h in (0.01, 0.05, 0.1, 0.12):
        lo, hi = level_angles(P_IV, h)
        theta3 = _center(P_IV).theta
        lo_rf = brentq(lambda t: float(potential(P_IV, t)) - h, 1e-12, theta3,
                       xtol=1e-14)
        hi_rf = brentq(lambda t: float(potential(P_IV, t)) - h, theta3,
                       math.pi - 1e-12, xtol=1e-14)
        assert lo == pytest.approx(lo_rf, abs=1e-10)
        assert hi == pytest.approx(hi_rf, abs=1e-10)
        # both sit on the level set
        assert float(potential(P_IV, lo)) == pytest.approx(h, abs=1e-13)
        assert float(potential(P_IV, hi)) == pytest.approx(h, abs=1e-13)


def test_turning_angles_reference_point():
    lo, hi = level_angles(P_IV, 0.1)
    assert lo == pytest.approx(0.19277834578761, abs=1e-11)
    assert hi == pytest.approx(1.17538161167872, abs=1e-11)


def test_turning_angle_approaches_saddle():
    h1 = float(potential(P_IV, 0.0))
    lo, _ = level_angles(P_IV, h1 - 1e-12)
    assert lo <= 1e-5


def test_turning_angles_barrier_crossed():
    # above the barrier only the outer turning angle is left in (0, pi)
    h1 = float(potential(P_IV, 0.0))   # 0.125
    assert len(level_angles(P_IV, h1 + 0.01)) == 1
    assert level_angles(P_IV, -0.1) == []


def test_turning_angles_gamma_positive():
    p = Params(alpha=1.5, beta=1.0, gamma=0.1)
    lo, hi = level_angles(p, 0.05)
    assert float(potential(p, lo)) == pytest.approx(0.05, abs=1e-12)
    assert float(potential(p, hi)) == pytest.approx(0.05, abs=1e-12)
    assert lo < hi


def test_energy_bands_region_iv():
    bands = energy_bands(P_IV)
    assert set(bands) == {"AF3", "AF4", "AF5"}
    assert bands["AF3"] == (pytest.approx(0.0, abs=1e-15),
                            pytest.approx(0.125, abs=1e-15))
    assert bands["AF4"][1] == pytest.approx(1.125, abs=1e-15)
    assert math.isinf(bands["AF5"][1])


def test_energy_bands_single_well():
    bands = energy_bands(Params(alpha=2.5, beta=1.0))
    assert set(bands) == {"AF1", "AF2"}


def test_natural_frequency():
    # the small-amplitude frequency sqrt(K/kappa), as the cubic fit has it
    for p in (P_IV, Params(alpha=1.5, beta=1.0, kappa=4.0)):
        center = _center(p)
        f = fit_cubic(p, center).omega_n
        assert f == pytest.approx(math.sqrt(center.k_local / p.kappa),
                                  rel=1e-12)
    saddle = next(e for e in equilibria_in_period(P_IV) if e.kind != CENTER)
    with pytest.raises(ValueError):
        fit_cubic(P_IV, saddle)


def test_small_amplitude_period_is_linear_limit():
    v_min = float(potential(P_IV, _center(P_IV).theta))
    t_lin = _linear_period(P_IV)
    t = period_of_energy(P_IV, v_min + 1e-10)
    assert t == pytest.approx(t_lin, rel=1e-4)


def test_period_matches_integration_all_bands():
    for h in (0.05, 0.5, 2.0):     # intra-well, inter-well, rotation
        t_quad = period_of_energy(P_IV, h)
        if h < 0.125:
            _, theta0 = level_angles(P_IV, h)
            state0 = (theta0, 0.0)
        else:
            omega0 = math.sqrt(2.0 * (h - float(potential(P_IV, 0.0))))
            state0 = (0.0, omega0)
        osc = measure_free_oscillation(P_IV, state0)
        assert t_quad == pytest.approx(osc.period, rel=1e-6)


def test_period_diverges_at_barrier():
    h1 = 0.125
    assert period_of_energy(P_IV, h1 - 1e-8) > period_of_energy(P_IV,
                                                                h1 - 1e-4)
    with pytest.raises(ValueError):
        period_of_energy(P_IV, h1)


def test_period_monotone_toward_separatrix():
    ts = [period_of_energy(P_IV, h) for h in (0.10, 0.12, 0.124, 0.1249)]
    assert all(t1 < t2 for t1, t2 in zip(ts, ts[1:]))


@pytest.mark.parametrize("a, b, g", [
    (0.2573830370747897, 0.5821867643481072, 0.1611860110213216),
    (2.3049477567586685, 1.4890532884643026, 0.26000887867925593),
])
def test_periods_near_a_well_bottom_stay_finite(a, b, g):
    # rounding puts V at or above H at quadrature nodes right beside a
    # turning angle; an integrand clamped to 1/sqrt(1e-300) there once gave
    # periods of 1e136
    p = Params(alpha=a, beta=b, gamma=g)
    t_lin = _linear_period(p)
    for pt in amplitude_frequency_curve(p, "AF3")[:10]:
        assert pt.period == pytest.approx(t_lin, rel=1e-3)


def test_kappa_scaling():
    p2 = Params(alpha=1.5, beta=1.0, kappa=4.0)
    assert period_of_energy(p2, 0.05) == pytest.approx(
        2.0 * period_of_energy(P_IV, 0.05), rel=1e-10)


def test_amplitude_frequency_curve():
    pts = amplitude_frequency_curve(P_IV, "AF3", n_samples=12)
    assert len(pts) > 0
    for pt in pts:
        assert pt.frequency == pytest.approx(2.0 * math.pi / pt.period,
                                             rel=1e-14)
        assert 0.0 < pt.amplitude < math.pi
    # rotation branch reports amplitude pi and no turning pair
    rot = amplitude_frequency_curve(P_IV, "AF5", n_samples=6)
    assert all(pt.theta_ini is None and pt.amplitude == math.pi
               for pt in rot)
    # a branch these parameters lack is refused
    with pytest.raises(InputError, match="'AF1' not available"):
        amplitude_frequency_curve(P_IV, "AF1")


# (alpha, beta, gamma) ranges inside each statics region; beta None means
# beta = alpha
_REGION_DRAWS = {
    REGION_DOUBLE_WELL: ((1.2, 1.8), (0.9, 1.1), (0.0, 0.05)),
    REGION_SINGLE_WELL_HARD: ((2.3, 2.8), (0.9, 1.1), (0.0, 0.1)),
    REGION_SINGLE_WELL_SOFT: ((0.2, 0.4), (0.4, 0.6), (0.0, 0.05)),
    REGION_DEGENERATE: ((0.5, 1.5), None, (0.0, 0.1)),
}
_SCAN = 20_000


@st.composite
def _level_case(draw):
    """(params, h, potential on a dense grid of [0, pi]), h in [min, max]."""
    region = draw(st.sampled_from(sorted(_REGION_DRAWS)))
    alphas, betas, gammas = _REGION_DRAWS[region]
    a = draw(st.floats(*alphas))
    b = a if betas is None else draw(st.floats(*betas))
    p = Params(alpha=a, beta=b, gamma=draw(st.floats(*gammas)))
    assume(classify_region(p) == region)
    v = np.asarray(potential(p, np.linspace(0.0, math.pi, _SCAN + 1)))
    return p, draw(st.floats(float(v.min()), float(v.max()))), v


@settings(max_examples=200, deadline=None)
@given(_level_case())
def test_level_angles_are_every_crossing(case):
    p, h, v = case
    roots = level_angles(p, h)
    assert roots == sorted(roots)
    assert all(0.0 < r < math.pi for r in roots)

    def above(theta):
        return float(potential(p, theta)) > h

    for r in roots:
        # V - h changes sign between r and a neighbouring float
        assert (above(r) != above(math.nextafter(r, 0.0))
                or above(r) != above(math.nextafter(r, math.pi)))
    # a dense scan counts the same crossings, unless one lies within a
    # scan step of a critical point, where it can miss or add a pair
    scan_above = v > h
    cells = np.nonzero(scan_above[1:] != scan_above[:-1])[0]
    step = math.pi / _SCAN
    theta_c = interior_angle(p)
    critical = [0.0, math.pi] + ([] if theta_c is None else [theta_c])
    assume(all(abs(x - c) > step for x in [*roots, *(cells * step)]
               for c in critical))
    assert len(roots) == cells.size
