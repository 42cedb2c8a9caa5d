import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from clickdyn.melnikov import (DUFFING, PENDULUM, SOFT_CUBIC, ReducedSystem,
                               SeparatrixOrbit, _closed_form, reduce_system,
                               separatrix, threshold_grid, threshold_numeric)
from clickdyn.model import Params


P_IV = Params(alpha=1.5, beta=1.0, xi=0.1)


def _unit_pendulum():
    # kappa = 1, |K1| = 1 reference pendulum
    return ReducedSystem(PENDULUM, kappa=1.0, k1=-1.0, char_angle=math.pi,
                         decay_rate=1.0)


def test_reduce_duffing_roots():
    r = reduce_system(P_IV, DUFFING)
    assert r.theta3 == pytest.approx(0.7227342478, abs=1e-9)
    # reduced moment vanishes at 0 and +-theta3
    for th in (0.0, r.theta3, -r.theta3):
        assert abs(float(r.moment(th))) <= 1e-14


def test_reduce_pendulum_coefficient():
    r = reduce_system(P_IV, PENDULUM)
    from clickdyn.equilibria import stiffness_at_poles
    k1, _ = stiffness_at_poles(P_IV)
    assert r.k1 == pytest.approx(k1, rel=1e-14)
    assert k1 < 0.0


def test_reduce_soft_cubic_roots():
    r = reduce_system(P_IV, SOFT_CUBIC)
    for th in (0.0, math.pi, -math.pi):
        assert abs(float(r.moment(th))) <= 1e-12
    # linear stiffness at the origin matches the interior-center stiffness
    h = 1e-6
    k0 = (float(r.moment(h)) - float(r.moment(-h))) / (2.0 * h)
    assert k0 == pytest.approx(r.k_center, rel=1e-9)


def test_reduce_rejects_single_well():
    p = Params(alpha=2.5, beta=1.0)
    for variant in (DUFFING, PENDULUM, SOFT_CUBIC):
        with pytest.raises(ValueError):
            reduce_system(p, variant)
    with pytest.raises(ValueError):
        reduce_system(P_IV, "quintic")


def test_pendulum_reduction_rejects_the_cusp():
    # alpha == beta: k1 = -inf, so there is no pendulum stiffness
    with pytest.raises(ValueError, match="finite"):
        reduce_system(Params(alpha=1.0, beta=1.0), PENDULUM)


def test_pendulum_closed_form_orbit_exact():
    # theta = 2*arctan(sinh T), omega = 2*sech T solves the unit pendulum
    _, theta, omega, domega = _closed_form(_unit_pendulum())
    ts = np.linspace(-5.0, 5.0, 101)
    np.testing.assert_allclose(theta(ts), 2.0 * np.arctan(np.sinh(ts)),
                               atol=1e-14)
    np.testing.assert_allclose(omega(ts), 2.0 / np.cosh(ts), atol=1e-14)
    # residuals of the reduced ODE at the closed form
    np.testing.assert_allclose(domega(ts), -np.sin(theta(ts)), atol=1e-8)


def test_closed_form_orbits_satisfy_ode_and_hamiltonian():
    for variant in (DUFFING, PENDULUM, SOFT_CUBIC):
        r = reduce_system(P_IV, variant)
        orbit = separatrix(r, "closed_form")
        _, theta, omega, domega = _closed_form(r)
        ts = orbit.times
        resid = r.kappa * domega(ts) + np.asarray(
            [float(r.moment(th)) for th in theta(ts)])
        assert np.max(np.abs(resid)) <= 1e-8
        # omega is the time derivative of theta
        h = 1e-6
        mid = ts[np.abs(ts) < 10.0]
        fd = (theta(mid + h) - theta(mid - h)) / (2.0 * h)
        np.testing.assert_allclose(fd, omega(mid), atol=1e-7)
        # constant reduced Hamiltonian along the orbit
        ham = 0.5 * r.kappa * orbit.omegas**2 + np.asarray(
            r.potential(orbit.thetas))
        assert np.max(ham) - np.min(ham) <= 1e-9
        # endpoints approach saddles
        assert abs(orbit.omegas[0]) <= 1e-9
        assert abs(orbit.omegas[-1]) <= 1e-9


def test_duffing_apex_velocity_energy_matching():
    r = reduce_system(P_IV, DUFFING)
    orbit = separatrix(r, "closed_form")
    # at the apex the Hamiltonian equals the saddle level (0 here)
    apex = math.sqrt(2.0) * r.theta3
    v_apex = -2.0 * float(r.potential(apex)) / r.kappa
    assert float(r.potential(apex)) == pytest.approx(0.0, abs=1e-14)
    assert np.max(orbit.thetas) == pytest.approx(apex, rel=1e-12)


def test_continued_matches_closed_form():
    for variant in (DUFFING, PENDULUM, SOFT_CUBIC):
        r = reduce_system(P_IV, variant)
        cf = separatrix(r, "closed_form")
        co = separatrix(r, "continued")
        assert np.max(np.abs(cf.thetas - co.thetas)) <= 1e-6
        assert np.max(np.abs(cf.omegas - co.omegas)) <= 1e-6


@pytest.mark.parametrize("variant, alpha", [(DUFFING, 1.7), (DUFFING, 1.8),
                                            (PENDULUM, 1.8)])
def test_continued_reconnects_at_slow_decay(variant, alpha):
    # at a small decay rate the round trip out of and back into the saddle
    # takes longer than the flat 50 time units the shot used to be given
    r = reduce_system(Params(alpha=alpha, beta=1.0), variant)
    cf = separatrix(r, "closed_form")
    co = separatrix(r, "continued")
    assert np.max(np.abs(cf.thetas - co.thetas)) <= 1e-6
    assert np.max(np.abs(cf.omegas - co.omegas)) <= 1e-6


@pytest.mark.parametrize("variant, alpha", [(SOFT_CUBIC, 1.6),
                                            (SOFT_CUBIC, 1.62),
                                            (DUFFING, 1.5), (PENDULUM, 1.5)])
def test_continued_shot_stops_at_the_target_saddle(monkeypatch, variant,
                                                   alpha):
    # Past its closest approach the shot peels off the target saddle, to
    # either side; beyond pi the soft cubic's moment drives it to infinity,
    # which can raise StepUnderflow before t_end.  The shot must end at the
    # saddle, however late an escape would come.
    import clickdyn.melnikov as mk

    shots = []
    integrate = mk.integrate_rhs
    monkeypatch.setattr(mk, "integrate_rhs",
                        lambda *a, **k: shots.append(integrate(*a, **k))
                        or shots[-1])
    r = reduce_system(Params(alpha=alpha, beta=1.0), variant)
    co = separatrix(r, "continued")
    cf = separatrix(r, "closed_form")
    assert np.max(np.abs(cf.thetas - co.thetas)) <= 1e-6
    assert np.max(np.abs(cf.omegas - co.omegas)) <= 1e-6
    target = 0.0 if variant == DUFFING else math.pi
    (shot,) = shots
    assert abs(shot.states[-1, 0] - target) <= 1e-6


@pytest.mark.parametrize("variant", [DUFFING, PENDULUM, SOFT_CUBIC])
def test_continued_orbit_sits_on_the_saddles_outside_the_shot(monkeypatch,
                                                              variant):
    # Only the times inside the shot, from its start to its closest
    # approach, are sampled on the dense output; the orbit sits exactly on
    # the saddle it left before them and on the target saddle after them.
    import clickdyn.melnikov as mk

    apexes, sampled = [], []
    refine, sample = mk._refine_crossing, mk._sample_dense
    monkeypatch.setattr(mk, "_refine_crossing", lambda *a, **k: apexes.append(
        refine(*a, **k)) or apexes[-1])
    monkeypatch.setattr(mk, "_sample_dense", lambda steps, t: sampled.append(
        t) or sample(steps, t))
    co = separatrix(reduce_system(P_IV, variant), "continued")
    ((apex_t, _, _),), (t,) = apexes, sampled
    shifted = co.times + apex_t
    before, after = shifted < 0.0, shifted > t[-1]
    assert np.array_equal(t, shifted[~before & ~after])
    assert before.any() and after.any()
    saddle, target = (0.0, 0.0) if variant == DUFFING else (-math.pi, math.pi)
    assert np.all(co.thetas[before] == saddle)
    assert np.all(co.thetas[after] == target)
    assert np.all(co.omegas[before | after] == 0.0)


def _trapezoid_integrals(orbit, omega0):
    """(2 * integral of omega^2 dT, |integral of omega*exp(-i*omega0*T) dT|)
    along an orbit by the trapezoid rule on its time grid."""
    t, om = orbit.times, orbit.omegas
    return (2.0 * float(np.trapezoid(om * om, t)),
            float(abs(np.trapezoid(om * np.exp(-1j * omega0 * t), t))))


def test_pendulum_forcing_kernel_quadrature():
    # |FT of 2 sech T at 1| = 2*pi*sech(pi/2)
    orbit = separatrix(_unit_pendulum(), "closed_form")
    _damping, forcing = _trapezoid_integrals(orbit, 1.0)
    assert forcing == pytest.approx(2.0 * math.pi / math.cosh(math.pi / 2.0),
                                    rel=1e-12)


@pytest.mark.parametrize("omega0", [0.2, 0.8, 3.0])
def test_duffing_and_soft_cubic_forcing_kernel_quadrature(omega0):
    # |FT| of the duffing velocity is sqrt(2)*theta3*pi*W/w*sech(pi*W/2w)
    # with w = theta3/sqrt(kappa); of the soft cubic's, pi^2*W/w*csch(pi*W/2w)
    # with w = sqrt(k_center/(2*kappa))
    r = reduce_system(P_IV, DUFFING)
    w = r.theta3 / math.sqrt(r.kappa)
    expect = (math.sqrt(2.0) * r.theta3 * math.pi * omega0 / w
              / math.cosh(math.pi * omega0 / (2.0 * w)))
    _damping, forcing = _trapezoid_integrals(separatrix(r), omega0)
    assert forcing == pytest.approx(expect, rel=1e-12)
    r = reduce_system(P_IV, SOFT_CUBIC)
    w = math.sqrt(r.k_center / (2.0 * r.kappa))
    expect = (math.pi**2 * omega0 / w
              / math.sinh(math.pi * omega0 / (2.0 * w)))
    _damping, forcing = _trapezoid_integrals(separatrix(r), omega0)
    assert forcing == pytest.approx(expect, rel=1e-12)


def test_pendulum_damping_integral():
    # 2 * int (2 sech T)^2 dT = 16
    orbit = separatrix(_unit_pendulum(), "closed_form")
    damping, _ = _trapezoid_integrals(orbit, 1.0)
    assert damping == pytest.approx(16.0, rel=1e-12)


def test_time_shift_invariance():
    r = _unit_pendulum()
    orbit = separatrix(r, "closed_form")
    _, theta, omega, _ = _closed_form(r)
    base = _trapezoid_integrals(orbit, 1.3)
    for shift in (-5.0, -1.7, 2.4, 5.0):
        ts = orbit.times
        shifted = SeparatrixOrbit(orbit.kind, "closed_form", ts,
                                  theta(ts - shift), omega(ts - shift))
        got = _trapezoid_integrals(shifted, 1.3)
        assert got[0] == pytest.approx(base[0], abs=1e-10)
        assert got[1] == pytest.approx(base[1], abs=1e-10)


# the drive frequencies of `clickdyn melnikov` by default
_CLI_OMEGAS = np.linspace(0.2, 3.0, 30).tolist()
_XI_GRID = [0.1, 0.2, 0.4]


def _reference(r, xi0, omega0):
    """xi0 * D / F of the module docstring's table in 40 digits, from the
    rate of the orbit and theta3 as stored."""
    with mp.workdps(40):
        xi0, om = mp.mpf(xi0), mp.mpf(omega0)
        w = mp.mpf(r.decay_rate) / (2 if r.variant == SOFT_CUBIC else 1)
        x = mp.pi * om / (2 * w)
        if r.variant == DUFFING:
            a = mp.sqrt(2) * mp.mpf(r.theta3)
            damping = 4 * a**2 * w / 3
            forcing = a * mp.pi * om / w * mp.sech(x)
        elif r.variant == PENDULUM:
            damping, forcing = 16 * w, 2 * mp.pi * mp.sech(x)
        else:
            damping = 8 * mp.pi**2 * w / 3
            forcing = mp.pi**2 * om / w * mp.csch(x)
        return xi0 * damping / forcing


@pytest.mark.parametrize("variant", [DUFFING, PENDULUM, SOFT_CUBIC])
def test_grid_thresholds_match_mpmath(variant):
    # Measured worst over these points: 2.1e-15 (duffing at alpha = 1.9),
    # 1.2e-15 (pendulum) and 1.3e-15 (soft cubic); the relative error
    # grows with pi*Omega/(2w), the condition number of sech and csch.
    worst = 0.0
    for alpha in (1.05, 1.2, 1.5, 1.9):
        r = reduce_system(Params(alpha=alpha), variant)
        grid = threshold_grid(r, _CLI_OMEGAS, _XI_GRID)
        for i, xi0 in enumerate(_XI_GRID):
            for j, om in enumerate(_CLI_OMEGAS):
                got = grid.m0_crit[i, j]
                assert got == threshold_numeric(r, xi0, om)
                ref = _reference(r, xi0, om)
                worst = max(worst, abs(float((got - ref) / ref)))
    assert worst <= 2e-14


@pytest.mark.parametrize("source", ["closed_form", "continued"])
@pytest.mark.parametrize("variant", [DUFFING, PENDULUM, SOFT_CUBIC])
def test_thresholds_match_the_trapezoid_on_the_orbit(variant, source):
    # The trapezoid rule on an orbit's time grid is an independent
    # reference: on the closed-form orbit (worst measured 1.1e-13, duffing
    # at gamma = 0.05) and on the DOP853 continued orbit (worst measured
    # 4.6e-7, soft cubic at alpha = 1.2), whose own error it carries.
    if source == "closed_form":
        points, gate = [Params(alpha=alpha) for alpha in (1.05, 1.2, 1.5)] \
            + [Params(alpha=1.5, beta=1.0, gamma=0.05)], 1e-12
    else:
        points, gate = [Params(alpha=alpha) for alpha in (1.2, 1.5)], 5e-6
    worst = 0.0
    for p in points:
        r = reduce_system(p, variant)
        orbit = separatrix(r, source)
        grid = threshold_grid(r, _CLI_OMEGAS, [0.1])
        for om, got in zip(_CLI_OMEGAS, grid.m0_crit[0].tolist()):
            damping, forcing = _trapezoid_integrals(orbit, om)
            worst = max(worst, abs(0.1 * damping / forcing - got) / got)
    assert worst <= gate


def test_acceptance_10_threshold_keeps_its_bits():
    # Acceptance 10's chaotic run counts its Poincare points at 1.5 times
    # this threshold, and a shift of 2 ulps takes the count to its gate.
    r = reduce_system(P_IV, DUFFING)
    assert threshold_numeric(r, 0.1, 0.8) == 0.08307104396260899


@pytest.mark.parametrize("variant, omega0", [
    (DUFFING, 20.0), (DUFFING, 30.0), (DUFFING, 60.0), (SOFT_CUBIC, 20.0),
    (SOFT_CUBIC, 30.0), (SOFT_CUBIC, 60.0), (PENDULUM, 30.0),
    (PENDULUM, 60.0)])
def test_a_threshold_once_lost_to_rounding_is_kept(variant, omega0):
    # A transform on the orbit's time grid cancelled down to its rounding
    # at these drive frequencies (alpha = 1.5) and had to be refused; the
    # closed forms cancel nothing.  Measured worst against 40-digit mpmath:
    # 2.0e-14 (duffing at Omega = 60, where pi*Omega/(2w) is about 130).
    r = reduce_system(P_IV, variant)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = threshold_numeric(r, 0.1, omega0)
        grid = threshold_grid(r, [1.0, omega0], [0.1])
    assert grid.m0_crit[0, 1] == got
    ref = _reference(r, 0.1, omega0)
    assert abs(float((got - ref) / ref)) <= 2e-13


@pytest.mark.parametrize("variant, below, above", [
    (DUFFING, 326.89, 326.9), (PENDULUM, 553.95, 553.96),
    (SOFT_CUBIC, 317.31, 317.32)])
def test_a_threshold_past_overflow_is_refused(variant, below, above):
    # At alpha = 1.5 cosh (duffing, pendulum) or sinh (soft cubic) of
    # pi*Omega/(2w) overflows between these drive frequencies; the
    # threshold beyond would be infinite.  No overflow warning escapes.
    r = reduce_system(P_IV, variant)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isfinite(threshold_numeric(r, 0.1, below))
        grid = threshold_grid(r, [1.0, below], [0.0, 0.1])
        assert np.all(np.isfinite(grid.m0_crit))
        assert np.all(np.isfinite(grid.m0_printed))
        with pytest.raises(ValueError, match=f"Omega = {above:g} "):
            threshold_numeric(r, 0.1, above)
        with pytest.raises(ValueError, match=f"Omega = {above:g} "):
            threshold_grid(r, [1.0, above], [0.0, 0.1])


def test_a_printed_form_that_overflows_refuses_the_grid():
    # The soft cubic's printed form takes sinh(pi*Omega/2), which overflows
    # from Omega of about 452 whatever the parameters; at kappa = 0.25 the
    # threshold itself stays finite to Omega of about 635.
    r = reduce_system(Params(alpha=1.5, kappa=0.25), SOFT_CUBIC)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isfinite(threshold_numeric(r, 0.1, 460.0))
        with pytest.raises(ValueError, match="Omega = 460 "):
            threshold_grid(r, [1.0, 460.0], [0.1])


def test_pendulum_threshold_closed_form_oracle():
    # xi0 * 16*w0 / (2*pi*sech(pi*W/(2*w0))) for general |K1|, kappa
    r = reduce_system(P_IV, PENDULUM)
    w0 = math.sqrt(-r.k1 / r.kappa)
    for omega0 in (0.2, 0.5, 1.0, 2.0, 3.0):
        for xi0 in (0.1, 0.4):
            expect = (8.0 * w0 * xi0 / math.pi) * math.cosh(
                math.pi * omega0 / (2.0 * w0))
            got = threshold_numeric(r, xi0, omega0)
            assert got == pytest.approx(expect, rel=1e-10)


def test_threshold_linear_in_xi0():
    r = reduce_system(P_IV, DUFFING)
    t1 = threshold_numeric(r, 0.1, 1.0)
    t2 = threshold_numeric(r, 0.2, 1.0)
    assert t2 == pytest.approx(2.0 * t1, rel=1e-12)
    assert threshold_numeric(r, 0.0, 1.0) == 0.0


def test_threshold_grows_with_frequency():
    for variant in (DUFFING, PENDULUM, SOFT_CUBIC):
        r = reduce_system(P_IV, variant)
        assert threshold_numeric(r, 0.1, 10.0) > \
            10.0 * threshold_numeric(r, 0.1, 1.0)


def test_non_decaying_orbit_rejected():
    # a separatrix with rate 0 never decays: D and F are both 0
    r = ReducedSystem(PENDULUM, kappa=1.0, k1=0.0, char_angle=math.pi,
                      decay_rate=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="Omega = 1 "):
            threshold_numeric(r, 0.1, 1.0)


def test_printed_reference_forms():
    for variant, label in ((DUFFING, "cosh"), (PENDULUM, "coth"),
                           (SOFT_CUBIC, "csch")):
        r = reduce_system(P_IV, variant)
        grid = threshold_grid(r, [1.0], [0.0, 0.1, 0.2])
        assert grid.printed_form == label
        zero, printed, doubled = grid.m0_printed[:, 0]
        assert printed >= 0.0
        # linear in xi0
        assert doubled == pytest.approx(2.0 * printed, rel=1e-12)
        assert zero == 0.0
        # at xi0 = 0 both thresholds are 0 and agree
        assert grid.printed_agrees[0, 0]


def test_threshold_grid():
    r = reduce_system(P_IV, DUFFING)
    omega_grid = np.linspace(0.5, 2.0, 5)
    xi_grid = np.asarray([0.1, 0.2, 0.4])
    grid = threshold_grid(r, omega_grid, xi_grid)
    for table in (grid.m0_crit, grid.m0_printed, grid.printed_agrees):
        assert table.shape == (3, 5)
    assert np.all(grid.m0_crit >= 0.0)
    assert grid.printed_form == "cosh"
    # rows scale linearly in xi0
    np.testing.assert_allclose(grid.m0_crit[1], 2.0 * grid.m0_crit[0],
                               rtol=1e-12)
    np.testing.assert_allclose(grid.m0_crit[2], 4.0 * grid.m0_crit[0],
                               rtol=1e-12)
    with pytest.raises(ValueError):
        threshold_grid(r, [], xi_grid)
    with pytest.raises(ValueError):
        threshold_grid(r, omega_grid, [-0.1])


def _printed_form(r, xi0, omega0):
    """The printed closed-form threshold of each reduction, written out."""
    a = r.char_angle
    if r.variant == DUFFING:
        return (4.0 * a**3 * xi0 / (3.0 * math.sqrt(2.0) * math.pi * omega0)
                * math.cosh(math.pi * omega0 / (2.0 * a)))
    if r.variant == PENDULUM:
        return 2.0 * a * xi0 / (3.0 * math.pi * math.tanh(math.pi * omega0
                                                          / 2.0))
    return 2.0 * a**3 * xi0 / (3.0 * math.pi * math.sinh(math.pi * omega0
                                                         / 2.0))


@pytest.mark.parametrize("variant", [DUFFING, PENDULUM, SOFT_CUBIC])
def test_grid_cells_equal_the_single_point_thresholds(variant):
    # A grid cell is, bit for bit, what the single-point threshold gives.
    # xi0 = 0 agrees by definition; soft_cubic's printed form is within
    # 5 % only for omega0 in about (0.7296, 0.7634), so 0.728 and 0.765
    # sit just outside.
    r = reduce_system(P_IV, variant)
    omega_grid = [0.2, 0.728, 0.745, 0.765, 1.6, 3.0]
    xi_grid = [0.0, 0.1, 0.37]
    grid = threshold_grid(r, omega_grid, xi_grid)
    for i, xi0 in enumerate(xi_grid):
        for j, om in enumerate(omega_grid):
            crit = threshold_numeric(r, xi0, om)
            printed = _printed_form(r, xi0, om)
            assert grid.m0_crit[i, j] == crit
            assert grid.m0_printed[i, j] == pytest.approx(printed,
                                                          rel=1e-14)
            assert grid.printed_agrees[i, j] == (
                xi0 == 0.0 or abs(printed - crit) <= 0.05 * crit)
    if variant == SOFT_CUBIC:
        assert grid.printed_agrees[1:].tolist() == [
            [False, False, True, False, False, False]] * 2
