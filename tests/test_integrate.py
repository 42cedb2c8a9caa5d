import math

import numpy as np
import pytest

from clickdyn.integrate import (IntegratorSpec, StepUnderflow, integrate,
                                integrate_rhs, largest_lyapunov,
                                measure_free_oscillation, poincare_section,
                                StepStats)
from clickdyn.model import Params, hamiltonian, scalar_rhs


def test_spec_validation():
    with pytest.raises(ValueError):
        IntegratorSpec(rel_tol=0.0)
    with pytest.raises(ValueError):
        IntegratorSpec(h_init=2.0, h_max=1.0)
    assert IntegratorSpec(h_max=math.inf).h_max == math.inf


@pytest.mark.parametrize("field, value", [
    ("rel_tol", math.nan), ("abs_tol", math.nan), ("abs_tol", math.inf),
    ("h_min", 0.0), ("h_min", -1.0), ("h_min", math.nan),
    ("h_init", math.nan), ("h_max", math.nan), ("t_end", math.nan),
    ("t_end", math.inf),
])
def test_spec_rejects_a_bad_field(field, value):
    # with h_min = 0 a NaN rhs shrank the step to 0 and never returned
    with pytest.raises(ValueError):
        IntegratorSpec(**{field: value})


def test_h_max_is_honoured():
    p = Params(alpha=1.5, beta=1.0)
    traj = integrate(p, (0.9, 0.0), IntegratorSpec(h_max=0.01, t_end=5.0))
    assert traj.step_stats.h_max_used <= 0.01
    # differences of accumulated times carry rounding of order 1e-16
    assert np.diff(traj.times).max() <= 0.01 + 1e-12


def test_underflow_keeps_only_accurate_steps():
    spec = IntegratorSpec(h_init=0.5, h_min=0.5, rel_tol=1e-12,
                          abs_tol=1e-14, t_end=2.0)
    with pytest.raises(StepUnderflow) as info:
        integrate_rhs(lambda t, x, v: (v, -x), (1.0, 0.0), spec)
    traj = info.value.trajectory
    assert not traj.complete
    assert traj.times.tolist() == [0.0]


def test_nan_rhs_raises_underflow():
    # a step whose error is NaN shrinks until it underflows
    def f(t, x, v):
        return v, (math.nan if t > 0.5 else -x)

    with pytest.raises(StepUnderflow) as info:
        integrate_rhs(f, (1.0, 0.0), IntegratorSpec(t_end=2.0))
    assert np.all(np.isfinite(info.value.trajectory.states))
    assert info.value.trajectory.times[-1] <= 0.5


def test_energy_conservation():
    p = Params(alpha=1.5, beta=1.0)
    rng = np.random.default_rng(31)
    for _ in range(10):
        state0 = (rng.uniform(-1.0, 1.0), rng.uniform(-0.5, 0.5))
        traj = integrate(p, state0)
        assert traj.complete
        assert traj.energy_drift is not None
        assert traj.energy_drift <= 1e-8


def test_energy_drift_not_reported_when_forced():
    p = Params(alpha=1.5, beta=1.0, xi=0.1, m_big0=0.1, omega_big0=1.0)
    traj = integrate(p, (0.7, 0.0), IntegratorSpec(t_end=10.0))
    assert traj.energy_drift is None


def test_linear_oscillator_exact():
    # theta'' = -theta: closed-form cosine
    spec = IntegratorSpec(t_end=20.0)
    traj = integrate_rhs(lambda t, x, v: (v, -x), (1.0, 0.0), spec)
    expect = np.cos(traj.times)
    assert np.max(np.abs(traj.states[:, 0] - expect)) <= 1e-8


def test_time_reversal():
    p = Params(alpha=1.5, beta=1.0)
    spec = IntegratorSpec(t_end=20.0)
    fwd = integrate(p, (0.3, 0.4), spec)
    back = integrate(p, (fwd.states[-1, 0], -fwd.states[-1, 1]), spec)
    assert back.states[-1, 0] == pytest.approx(0.3, abs=1e-6)
    assert -back.states[-1, 1] == pytest.approx(0.4, abs=1e-6)


def test_measure_free_oscillation_libration():
    p = Params(alpha=1.5, beta=1.0)
    # start at a turning point inside the right-hand well
    osc = measure_free_oscillation(p, (1.1, 0.0))
    assert not osc.rotating
    assert osc.period > 0.0
    # amplitude = half the spread between the two turning angles
    h = hamiltonian(p, (1.1, 0.0))
    from clickdyn.freevib import turning_angles
    lo, hi = turning_angles(p, h)
    assert osc.amplitude == pytest.approx(0.5 * (hi - lo), abs=1e-6)


def test_measure_free_oscillation_rotation():
    p = Params(alpha=1.5, beta=1.0)
    state0 = (0.0, 2.5)   # H well above both barriers
    osc = measure_free_oscillation(p, state0)
    assert osc.rotating
    from clickdyn.freevib import period_of_energy
    t_quad = period_of_energy(p, hamiltonian(p, state0))
    assert osc.period == pytest.approx(t_quad, rel=1e-8)


def test_measure_free_oscillation_rejects_forced():
    p = Params(alpha=1.5, beta=1.0, m_big0=0.1, omega_big0=1.0)
    with pytest.raises(ValueError):
        measure_free_oscillation(p, (0.5, 0.0))


def test_poincare_requires_forcing():
    with pytest.raises(ValueError):
        poincare_section(Params(alpha=1.5, beta=1.0), (0.5, 0.0), 10)


def test_poincare_periodic_attractor_is_a_point():
    p = Params(alpha=1.5, beta=1.0, xi=0.1, m_big0=0.02, omega_big0=0.8)
    pm = poincare_section(p, (0.7227, 0.0), 20, discard=150)
    assert pm.points.shape == (20, 2)
    spread = np.max(np.ptp(pm.points, axis=0))
    assert spread <= 1e-4


def test_lyapunov_negative_for_damped_periodic():
    p = Params(alpha=1.5, beta=1.0, xi=0.1, m_big0=0.02, omega_big0=0.8)
    est = largest_lyapunov(p, (0.7227, 0.0), horizon=400.0)
    assert est.exponent < 0.0
    assert est.segment_rates.size >= 4


def _recording(make_rhs, seen):
    """Wrap an rhs factory so every call records its state's types."""

    def make(*args, **kwargs):
        f = make_rhs(*args, **kwargs)

        def g(t, theta, omega):
            seen.add((type(theta), type(omega)))
            return f(t, theta, omega)

        return g

    return make


def test_segmented_runs_keep_the_state_in_python_floats(monkeypatch):
    # Segments resume from rows of Trajectory.states (numpy.float64).  The
    # integrator must hand the rhs Python floats all the same: numpy
    # scalars make the stepping loop several times slower.  np.float64
    # subclasses float, so only an exact type check catches the leak.
    import clickdyn.hbm as hbm
    import clickdyn.integrate as integ
    from clickdyn.hbm import CubicApprox, sweep_hysteresis

    seen = set()
    monkeypatch.setattr(integ, "scalar_rhs",
                        _recording(integ.scalar_rhs, seen))
    monkeypatch.setattr(hbm, "scalar_rhs", _recording(hbm.scalar_rhs, seen))
    monkeypatch.setattr(hbm, "_cubic_rhs", _recording(hbm._cubic_rhs, seen))
    p = Params(alpha=1.5, beta=1.0, xi=0.1, m_big0=0.02, omega_big0=0.8)
    cubic = CubicApprox(omega_n=1.0, epsilon=0.1, origin_theta=0.0)
    runs = [
        lambda: poincare_section(p, (0.7227, 0.0), 3, discard=2),
        lambda: largest_lyapunov(p, (0.7227, 0.0), horizon=20.0),
        lambda: sweep_hysteresis(p, 0.8, 0.9, 2, direction_both=False),
        lambda: sweep_hysteresis((cubic, 1.0, 0.1, 0.1), 0.8, 0.9, 2,
                                 direction_both=False),
    ]
    for run in runs:
        seen.clear()
        run()
        assert seen == {(float, float)}


# The textbook DP5(4) loop with the builtins, as the integrator had it
# before its step loop was tuned: the reference its bits are pinned to.
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = (
    9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656,
)
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (
    35 / 384 - 5179 / 57600,
    500 / 1113 - 7571 / 16695,
    125 / 192 - 393 / 640,
    -2187 / 6784 + 92097 / 339200,
    11 / 84 - 187 / 2100,
    -1 / 40,
)


def _reference_dp45(f, y0, spec):
    """(times, thetas, omegas, StepStats, complete) from t = 0."""
    t = 0.0
    th, om = float(y0[0]), float(y0[1])
    k1t, k1o = f(t, th, om)
    h = spec.h_init
    accepted = rejected = 0
    h_lo, h_hi = math.inf, 0.0
    times, thetas, omegas = [t], [th], [om]
    while t < spec.t_end:
        h = min(h, spec.t_end - t)
        k2t, k2o = f(t + _C2 * h, th + h * _A21 * k1t, om + h * _A21 * k1o)
        k3t, k3o = f(t + _C3 * h,
                     th + h * (_A31 * k1t + _A32 * k2t),
                     om + h * (_A31 * k1o + _A32 * k2o))
        k4t, k4o = f(t + _C4 * h,
                     th + h * (_A41 * k1t + _A42 * k2t + _A43 * k3t),
                     om + h * (_A41 * k1o + _A42 * k2o + _A43 * k3o))
        k5t, k5o = f(t + _C5 * h,
                     th + h * (_A51 * k1t + _A52 * k2t + _A53 * k3t
                               + _A54 * k4t),
                     om + h * (_A51 * k1o + _A52 * k2o + _A53 * k3o
                               + _A54 * k4o))
        k6t, k6o = f(t + h,
                     th + h * (_A61 * k1t + _A62 * k2t + _A63 * k3t
                               + _A64 * k4t + _A65 * k5t),
                     om + h * (_A61 * k1o + _A62 * k2o + _A63 * k3o
                               + _A64 * k4o + _A65 * k5o))
        th_new = th + h * (_B1 * k1t + _B3 * k3t + _B4 * k4t + _B5 * k5t
                           + _B6 * k6t)
        om_new = om + h * (_B1 * k1o + _B3 * k3o + _B4 * k4o + _B5 * k5o
                           + _B6 * k6o)
        k7t, k7o = f(t + h, th_new, om_new)
        et = h * (_E1 * k1t + _E3 * k3t + _E4 * k4t + _E5 * k5t + _E6 * k6t
                  + _E7 * k7t)
        eo = h * (_E1 * k1o + _E3 * k3o + _E4 * k4o + _E5 * k5o + _E6 * k6o
                  + _E7 * k7o)
        sc_t = spec.abs_tol + spec.rel_tol * max(abs(th), abs(th_new))
        sc_o = spec.abs_tol + spec.rel_tol * max(abs(om), abs(om_new))
        err = math.sqrt(0.5 * ((et / sc_t) ** 2 + (eo / sc_o) ** 2))
        if err <= 1.0:
            accepted += 1
            h_lo, h_hi = min(h_lo, h), max(h_hi, h)
            t += h
            th, om = th_new, om_new
            k1t, k1o = k7t, k7o
            times.append(t)
            thetas.append(th)
            omegas.append(om)
        else:
            rejected += 1
        factor = 0.9 * err ** -0.2 if err != 0.0 else 5.0
        h_next = h * min(5.0, max(0.2, factor))
        if h_next < spec.h_min and t < spec.t_end and not err <= 1.0:
            return (times, thetas, omegas,
                    StepStats(accepted, rejected, h_lo, h_hi), False)
        h = min(max(h_next, spec.h_min), spec.h_max)
    return times, thetas, omegas, StepStats(accepted, rejected, h_lo, h_hi), True


def _nan_after_half(t, x, v):
    return v, (math.nan if t > 0.5 else -x)


@pytest.mark.parametrize("f, state0, spec", [
    (scalar_rhs(Params(alpha=1.5, xi=0.1, m_big0=0.3, omega_big0=0.8)),
     (0.7227, 0.0), IntegratorSpec(rel_tol=1e-9, abs_tol=1e-11, t_end=60.0)),
    (scalar_rhs(Params(alpha=1.5)), (1.2, -0.3), IntegratorSpec(t_end=40.0)),
    (scalar_rhs(Params(alpha=1.3, beta=1.3, xi=0.05, m_big0=0.2,
                       omega_big0=1.1)),
     (0.4, 0.0), IntegratorSpec(h_max=0.01, t_end=5.0)),
    (_nan_after_half, (1.0, 0.0), IntegratorSpec(t_end=2.0)),
], ids=["forced", "conservative", "h_max_capped", "nan_underflow"])
def test_step_loop_matches_the_textbook_loop_bit_for_bit(f, state0, spec):
    times, thetas, omegas, stats, complete = _reference_dp45(f, state0, spec)
    try:
        traj = integrate_rhs(f, state0, spec)
    except StepUnderflow as e:
        traj = e.trajectory
    assert traj.complete == complete
    assert traj.step_stats == stats
    assert traj.times.tolist() == times
    assert traj.states[:, 0].tolist() == thetas
    assert traj.states[:, 1].tolist() == omegas
