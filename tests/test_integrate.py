import math

import numpy as np
import pytest

from clickdyn.integrate import (IntegratorSpec, StepUnderflow, integrate,
                                integrate_rhs, largest_lyapunov,
                                measure_free_oscillation, poincare_section)
from clickdyn.model import Params, hamiltonian


def test_spec_validation():
    with pytest.raises(ValueError):
        IntegratorSpec(rel_tol=0.0)
    with pytest.raises(ValueError):
        IntegratorSpec(h_init=2.0, h_max=1.0)


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
