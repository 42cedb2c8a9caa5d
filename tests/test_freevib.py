import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings
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
from clickdyn.model import InputError, Params, barrier_energies, potential


P_IV = Params(alpha=1.5, beta=1.0)


def _center(p):
    return next(e for e in equilibria_in_period(p)
                if e.kind == CENTER and e.theta > 0)


def _linear_period(p):
    return 2.0 * math.pi / math.sqrt(_center(p).k_local / p.kappa)


def test_turning_angles_match_root_finding():
    levels = [0.01, 0.05, 0.1, 0.12]
    at, roots = level_angles(P_IV, levels)
    assert at.tolist() == sorted(levels + levels)
    for h, (lo, hi) in zip(levels, roots.reshape(-1, 2).tolist()):
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
    _, (lo, hi) = level_angles(P_IV, [0.1])
    assert lo == pytest.approx(0.19277834578761, abs=1e-11)
    assert hi == pytest.approx(1.17538161167872, abs=1e-11)


def test_turning_angle_approaches_saddle():
    h1 = float(potential(P_IV, 0.0))
    _, (lo, _) = level_angles(P_IV, [h1 - 1e-12])
    assert lo <= 1e-5


def test_turning_angles_barrier_crossed():
    # above the barrier only the outer turning angle is left in (0, pi);
    # a level equal to V at a piece end, V(0), V(theta_c) or V(pi), does
    # not straddle that piece strictly, so it has no root at that end
    theta_c = interior_angle(P_IV)
    h1, v_c, h2 = potential(P_IV, [0.0, theta_c, math.pi]).tolist()
    at, roots = level_angles(P_IV, [h1 + 0.01, -0.1, h1, v_c, h2])
    assert at.tolist() == [h1 + 0.01, h1]
    assert all(theta_c < r < math.pi for r in roots)


def test_turning_angles_gamma_positive():
    p = Params(alpha=1.5, beta=1.0, gamma=0.1)
    _, (lo, hi) = level_angles(p, [0.05])
    assert float(potential(p, lo)) == pytest.approx(0.05, abs=1e-12)
    assert float(potential(p, hi)) == pytest.approx(0.05, abs=1e-12)
    assert lo < hi
    # the piece ends' levels, as in the double well without gravity; at
    # V(theta_c) there is no orbit, not a one-root one
    theta_c = interior_angle(p)
    v_0, v_c, v_pi = potential(p, [0.0, theta_c, math.pi]).tolist()
    at, roots = level_angles(p, [v_c, v_0, v_pi])
    assert at.tolist() == [v_0] and theta_c < roots[0] < math.pi
    with pytest.raises(ValueError, match="no closed orbit"):
        period_of_energy(p, v_c)


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
            _, (_, theta0) = level_angles(P_IV, [h])
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
    (rows,) = amplitude_frequency_curve(p, energy_bands(p), ["AF3"], 30)
    for period in rows[:10, 4].tolist():
        assert period == pytest.approx(t_lin, rel=1e-3)


def test_kappa_scaling():
    p2 = Params(alpha=1.5, beta=1.0, kappa=4.0)
    assert period_of_energy(p2, 0.05) == pytest.approx(
        2.0 * period_of_energy(P_IV, 0.05), rel=1e-10)


def test_amplitude_frequency_curve():
    bands = energy_bands(P_IV)
    (rows,) = amplitude_frequency_curve(P_IV, bands, ["AF3"], 12)
    assert len(rows) > 0
    for _h, _ini, _fin, amplitude, period, frequency in rows.tolist():
        assert frequency == pytest.approx(2.0 * math.pi / period, rel=1e-14)
        assert 0.0 < amplitude < math.pi
    # rotation branch reports amplitude pi and no turning pair (NaN)
    (rot,) = amplitude_frequency_curve(P_IV, bands, ["AF5"], 6)
    assert all(math.isnan(theta_ini) and amplitude == math.pi
               for _h, theta_ini, _fin, amplitude, _t, _f in rot.tolist())
    # a branch these parameters lack is refused
    with pytest.raises(InputError, match="'AF1' not available"):
        amplitude_frequency_curve(P_IV, bands, ["AF1"], 30)


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
def _region_params(draw):
    """Params inside one of the four statics regions."""
    region = draw(st.sampled_from(sorted(_REGION_DRAWS)))
    alphas, betas, gammas = _REGION_DRAWS[region]
    a = draw(st.floats(*alphas))
    b = a if betas is None else draw(st.floats(*betas))
    p = Params(alpha=a, beta=b, gamma=draw(st.floats(*gammas)))
    assume(classify_region(p) == region)
    return p


@st.composite
def _level_case(draw):
    """(params, distinct levels in [min, max], potential on a dense grid
    of [0, pi])."""
    p = draw(_region_params())
    v = np.asarray(potential(p, np.linspace(0.0, math.pi, _SCAN + 1)))
    levels = draw(st.lists(st.floats(float(v.min()), float(v.max())),
                           min_size=1, max_size=8, unique=True))
    return p, levels, v


@settings(max_examples=200, deadline=None)
@given(_level_case())
def test_level_angles_are_every_crossing(case):
    # all levels in one call: each level's roots are its own crossings
    p, levels, v = case
    at, all_roots = level_angles(p, levels)
    counts = [int(np.count_nonzero(at == h)) for h in levels]
    assert at.tolist() == [h for h, n in zip(levels, counts)
                           for _ in range(n)]
    step = math.pi / _SCAN
    theta_c = interior_angle(p)
    critical = [0.0, math.pi] + ([] if theta_c is None else [theta_c])
    for h in levels:
        roots = all_roots[at == h].tolist()
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
        if all(abs(x - c) > step for x in [*roots, *(cells * step)]
               for c in critical):
            assert len(roots) == cells.size


def _sampled_energies(lo, hi, n):
    """The energies amplitude_frequency_curve samples in the band (lo, hi)."""
    if math.isinf(hi):
        fractions = np.geomspace(1e-3, 30.0, n)
        return (lo * (1.0 + fractions) if lo > 0 else fractions).tolist()
    return (lo + (hi - lo) * np.geomspace(1e-4, 0.999, n)).tolist()


@settings(max_examples=50, deadline=None)
@given(_region_params(), st.integers(1, 16))
# AF3's band (0, 5e-13) lies within the barrier tolerance: all 30 dropped
@example(Params(alpha=1.5, beta=0.500001), 30)
def test_curves_are_the_one_energy_pass_point_by_point(p, n):
    # a period does not depend on which energies share its pass, the
    # turning angles are level_angles' floats, and the points missing are
    # exactly the energies where period_of_energy raises
    try:
        bands = energy_bands(p)
    except ValueError:              # a cusp point with no center
        reject()
    h1, _ = barrier_energies(p)
    for branch, (lo, hi) in bands.items():
        (curve,) = amplitude_frequency_curve(p, bands, [branch], n)
        points = iter(curve.tolist())
        dropped = 0
        for h in _sampled_energies(lo, hi, n):
            try:
                period = period_of_energy(p, h)
            except ValueError:
                dropped += 1
                continue
            energy, theta_ini, theta_fin, _a, row_period, _f = next(points)
            assert (energy, row_period) == (h, period)
            roots = level_angles(p, [h])[1].tolist()
            if len(roots) == 2:
                expected = tuple(roots)
            elif len(roots) == 1:
                r = roots[0]
                expected = (-r, r) if h > h1 else (r, 2.0 * math.pi - r)
            else:       # a rotation: no turning angles
                assert math.isnan(theta_ini) and math.isnan(theta_fin)
                continue
            assert (theta_ini, theta_fin) == expected
        assert next(points, None) is None
        assert n - len(curve) == dropped


def _mp_period(p, h):
    """40-digit period at energy h, the quadrature's reference.

    Turning angles come from ``mp.findroot`` started at level_angles'; a
    libration over (lo, hi) is integrated under theta = m + r*sin(phi),
    which removes the square-root ends, with a breakpoint where it crosses
    a pole.  Returns (period, error estimate of mp.quad).
    """
    h1, _ = barrier_energies(p)
    roots = level_angles(p, [h])[1].tolist()
    with mp.workdps(40):
        a, b, g, big_h = (mp.mpf(x) for x in (p.alpha, p.beta, p.gamma, h))

        def v(t):
            s = mp.sin(t / 2)
            return ((mp.sqrt((a - b) ** 2 + 4 * a * b * s * s) - 1) ** 2 / 2
                    + 2 * g * s * s)

        def inverse_speed(t):
            gap = big_h - v(t)
            return 1 / mp.sqrt(gap) if gap > 0 else mp.mpf(0)

        scale = 2 * mp.sqrt(mp.mpf(p.kappa) / 2)
        if not roots:
            theta_c = interior_angle(p)
            points = [mp.mpf(0), *([] if theta_c is None else [theta_c]),
                      mp.pi]
            value, err = mp.quad(inverse_speed, points, maxdegree=6,
                                 error=True)
            return scale * value, scale * err
        if len(roots) == 2:
            ends = roots
        else:
            r = roots[0]
            ends = [-r, r] if h > h1 else [r, 2.0 * math.pi - r]
        lo, hi = (mp.findroot(lambda t: v(t) - big_h, mp.mpf(x))
                  for x in ends)
        m, r = (lo + hi) / 2, (hi - lo) / 2
        points = [-mp.pi / 2,
                  *(mp.asin((pole - m) / r) for pole in (mp.mpf(0), mp.pi)
                    if lo < pole < hi),
                  mp.pi / 2]
        value, err = mp.quad(
            lambda phi: r * mp.cos(phi) * inverse_speed(m + r * mp.sin(phi)),
            points, maxdegree=6, error=True)
        return scale * value, scale * err


@pytest.mark.parametrize("abg, branch", [
    ((1.789, 0.848, 0.0627), "AF3"), ((1.789, 0.848, 0.0627), "AF4"),
    ((1.789, 0.848, 0.0627), "AF5"),
    ((1.0, 1.0, 0.02), "AF3"), ((1.0, 1.0, 0.02), "AF4"),
    ((1.0, 1.0, 0.02), "AF5"),
    ((0.3, 0.5, 0.0), "AF1"),                       # libration about pi
    ((2.5, 1.0, 0.05), "AF1"), ((2.5, 1.0, 0.05), "AF2"),
])
def test_period_matches_a_40_digit_reference(abg, branch):
    # 1e-10 near a well bottom, mid-band and 1e-4 of the band from a
    # barrier; 1e-9 at 1e-8 from a barrier, where the period diverges
    p = Params(*abg)
    lo, hi = energy_bands(p)[branch]
    cases = [(0.5 * (lo + hi) if math.isfinite(hi) else 2.0 * lo, 1e-10)]
    if branch in ("AF1", "AF3"):              # lo is a well bottom
        cases += [(lo + d, 1e-10) for d in (1e-4, 1e-6, 1e-9, 1e-11)]
    else:
        step = 1e-4 * lo if math.isinf(hi) else 1e-4 * (hi - lo)
        cases += [(lo + step, 1e-10), (lo + 1e-8, 1e-9)]
    if math.isfinite(hi):
        cases += [(hi - 1e-4 * (hi - lo), 1e-10), (hi - 1e-8, 1e-9)]
    for h, gate in cases:
        reference, err = _mp_period(p, h)
        assert err < 1e-15 * reference
        assert abs(period_of_energy(p, h) - reference) <= gate * reference, h
