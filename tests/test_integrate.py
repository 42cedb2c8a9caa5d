import math
from dataclasses import replace

import numpy as np
import pytest

from scipy.integrate import DOP853, solve_ivp

import clickdyn.integrate as integ
from clickdyn import melnikov
from clickdyn.integrate import (IntegratorSpec, StepUnderflow,
                                _refine_crossing, _sample_dense, _strobe,
                                integrate, integrate_rhs, largest_lyapunov,
                                measure_free_oscillation, poincare_section)
from clickdyn.model import Params, hamiltonian, scalar_rhs


def test_spec_validation():
    with pytest.raises(ValueError):
        IntegratorSpec(rel_tol=0.0)
    with pytest.raises(ValueError):
        IntegratorSpec(h_init=2.0)      # above the fixed step cap of 1.0
    assert IntegratorSpec(h_init=1.0).h_init == 1.0
    assert IntegratorSpec(h_init=1e-12).h_init == 1e-12


@pytest.mark.parametrize("field, value", [
    ("rel_tol", math.nan), ("abs_tol", math.nan), ("abs_tol", math.inf),
    ("h_init", math.nan), ("h_init", 0.0), ("h_init", 1e-13),
    ("h_init", 1.5), ("t_end", math.nan), ("t_end", math.inf),
    ("t_end", math.nextafter(integ._T_MAX, math.inf)), ("t_end", 1e300),
])
def test_spec_rejects_a_bad_field(field, value):
    with pytest.raises(ValueError):
        IntegratorSpec(**{field: value})


def test_h_max_is_honoured():
    # theta'' = -theta at rel_tol 1e-6 would take steps above 1.0; the
    # fixed cap holds them at 1.0
    traj = integrate_rhs(lambda t, x, v: (v, -x), (1.0, 0.0),
                         IntegratorSpec(rel_tol=1e-6, abs_tol=1e-8,
                                        t_end=40.0))
    widths = np.diff(traj.times)
    # differences of accumulated times carry rounding of order 1e-16
    assert widths.max() <= 1.0 + 1e-12
    assert np.sum(widths > 1.0 - 1e-12) >= 20


def test_underflow_keeps_only_accurate_steps():
    # a NaN rhs after t = 0 rejects every first step until it underflows
    def f(t, x, v):
        return v, (math.nan if t > 0.0 else -x)

    with pytest.raises(StepUnderflow) as info:
        integrate_rhs(f, (1.0, 0.0), IntegratorSpec(t_end=2.0))
    assert info.value.trajectory.times.tolist() == [0.0]


def test_nan_rhs_raises_underflow():
    # a step whose error is NaN shrinks until it underflows
    def f(t, x, v):
        return v, (math.nan if t > 0.5 else -x)

    with pytest.raises(StepUnderflow) as info:
        integrate_rhs(f, (1.0, 0.0), IntegratorSpec(t_end=2.0))
    assert np.all(np.isfinite(info.value.trajectory.states))
    assert info.value.trajectory.times[-1] <= 0.5


def test_a_settled_damped_orbit_runs_to_the_end():
    # theta'' = -theta - 2*theta': omega is about 6e-155 by t = 400, then
    # the stages underflow and both error norms vanish, where the step
    # loop took the square root of 0 as a divisor
    traj = integrate_rhs(lambda t, x, v: (v, -x - 2.0 * v), (1.0, 0.0),
                         IntegratorSpec(t_end=1000.0))
    assert traj.times[-1] == 1000.0
    assert np.all(np.abs(traj.states[-1]) < 1e-300)
    # the error estimate is 0 there, so only the fixed cap bounds the step
    assert np.diff(traj.times).max() <= 1.0 + 1e-12


def test_energy_conservation():
    p = Params(alpha=1.5, beta=1.0)
    rng = np.random.default_rng(31)
    for _ in range(10):
        state0 = (rng.uniform(-1.0, 1.0), rng.uniform(-0.5, 0.5))
        traj = integrate(p, state0)
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
    from clickdyn.freevib import level_angles
    _, (lo, hi) = level_angles(p, [h])
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


_PERIODIC = Params(alpha=1.5, beta=1.0, xi=0.1, m_big0=0.02, omega_big0=0.8)


def test_section_matches_fresh_restarts_each_period():
    # The carried step changes where the steps land, not the section: on a
    # periodic attractor it agrees with a restart from h_init every period.
    pm = poincare_section(_PERIODIC, (0.7227, 0.0), 20, discard=150)
    f, t_drive = scalar_rhs(_PERIODIC), 2.0 * math.pi / _PERIODIC.omega_big0
    state, ref = (0.7227, 0.0), []
    for k in range(1, 171):
        spec = IntegratorSpec(rel_tol=1e-9, abs_tol=1e-11, t_end=k * t_drive)
        state = integrate_rhs(f, state, spec, t0=(k - 1) * t_drive).states[-1]
        if k > 150:
            ref.append(state)
    np.testing.assert_allclose(pm.points, ref, rtol=0.0, atol=1e-8)


def _counting_dop853(monkeypatch):
    """Wrap the step loop; returns the list of its (accepted, h_next)."""
    calls, loop = [], integ._dop853

    def counted(*args, **kwargs):
        out = loop(*args, **kwargs)
        calls.append((out[3].accepted, out[4]))
        return out

    monkeypatch.setattr(integ, "_dop853", counted)
    return calls


@pytest.mark.parametrize("m0", [0.02, 0.125, 0.3])
def test_segments_take_at_most_one_clipped_step_more(monkeypatch, m0):
    # Without the carried step each of the n segments climbs from h_init
    # by x10 steps again, about 3 extra steps per segment.
    p = Params(alpha=1.5, beta=1.0, xi=0.1, m_big0=m0, omega_big0=0.8)
    n, t_drive = 50, 2.0 * math.pi / p.omega_big0
    calls = _counting_dop853(monkeypatch)
    poincare_section(p, (0.7227, 0.0), n, discard=0)
    segmented = sum(a for a, _ in calls)
    assert len(calls) == n
    calls.clear()
    integrate_rhs(scalar_rhs(p), (0.7227, 0.0),
                  IntegratorSpec(rel_tol=1e-9, abs_tol=1e-11,
                                 t_end=n * t_drive))
    assert segmented <= calls[0][0] + n


def test_carried_step_is_a_valid_h_init(monkeypatch):
    from clickdyn.hbm import CubicApprox, sweep_hysteresis
    calls = _counting_dop853(monkeypatch)
    damped = lambda t, x, v: (v, -x - 0.2 * v)      # noqa: E731
    spec = IntegratorSpec()
    list(_strobe(damped, (1.0, 0.0), 50.0, 4, spec))    # settles: h = 1.0
    list(_strobe(damped, (1.0, 0.0), 1e-9, 3, spec))    # clipped to 1e-9
    poincare_section(_PERIODIC, (0.7227, 0.0), 3, discard=2)
    largest_lyapunov(_PERIODIC, (0.7227, 0.0), horizon=20.0)
    sweep_hysteresis((CubicApprox(1.0, 0.1, 0.0), 1.0, 0.1, 0.1),
                     0.8, 0.9, 2)
    steps = [h for _, h in calls]
    assert 1.0 in steps and spec.h_init in steps
    for h in steps:
        assert 1e-12 <= h <= 1.0
        IntegratorSpec(h_init=h)


@pytest.mark.parametrize("kwargs", [
    {"renorm_interval": -5.0}, {"renorm_interval": 0.0},
    {"renorm_interval": math.nan}, {"renorm_interval": math.inf},
    {"horizon": 0.0}, {"horizon": -10.0}, {"horizon": math.nan},
    {"horizon": math.inf},
    {"horizon": 1e300, "renorm_interval": 1e-300},  # too many intervals
    {"horizon": 1.0, "renorm_interval": 1e-300},
    {"horizon": 1e6 + 1.0, "renorm_interval": 1.0},
    {"horizon": 1e-3, "renorm_interval": 1e-3 / (1e6 + 1.0)},
    # past integrate._T_MAX: four intervals at least, or a long horizon
    {"renorm_interval": 1e300},
    {"renorm_interval": 2.5e6 + 1.0},
    {"horizon": 1e300, "renorm_interval": 1e295},
])
def test_lyapunov_rejects_a_bad_run_length(kwargs, monkeypatch):
    # refused before the first step: with a step loop that raises, a run
    # that is not refused fails fast instead of running for ever
    def integrated(*args, **kwargs):
        raise AssertionError("the step loop ran")

    monkeypatch.setattr(integ, "_dop853", integrated)
    with pytest.raises(ValueError):
        largest_lyapunov(_PERIODIC, (0.7227, 0.0), **kwargs)


@pytest.mark.parametrize("n_points", [0, -3])
def test_poincare_rejects_an_empty_section(n_points):
    with pytest.raises(ValueError):
        poincare_section(_PERIODIC, (0.7227, 0.0), n_points)


@pytest.mark.parametrize("omega, n_points, discard", [
    (1e-300, 1, 0), (2.0 * math.pi * 299 / 1e7, 100, 200)])
def test_poincare_rejects_a_run_past_the_time_bound(omega, n_points, discard,
                                                    monkeypatch):
    def integrated(*args, **kwargs):
        raise AssertionError("the step loop ran")

    monkeypatch.setattr(integ, "_dop853", integrated)
    with pytest.raises(ValueError, match="1e\\+07"):
        poincare_section(replace(_PERIODIC, omega_big0=omega), (0.7227, 0.0),
                         n_points, discard)


def test_lyapunov_stderr_is_the_standard_error_of_the_segments():
    est = largest_lyapunov(_PERIODIC, (0.7227, 0.0), horizon=100.0)
    rates = est.segment_rates
    assert rates.size == 20
    assert est.stderr == pytest.approx(
        np.std(rates, ddof=1) / math.sqrt(rates.size), rel=1e-12)
    assert est.stderr > 0.0


def _recording(make_rhs, seen):
    """Wrap an rhs factory so every call records its state's types."""

    def make(*args, **kwargs):
        f = make_rhs(*args, **kwargs)

        def g(t, *state):
            seen.add(tuple(map(type, state)))
            return f(t, *state)

        return g

    return make


def test_segmented_runs_keep_the_state_in_python_floats(monkeypatch):
    # Sections, Lyapunov segments and sweep transients resume from the step
    # loop's states, Newton shots from rows of Trajectory.states
    # (numpy.float64).  The integrator must hand the rhs Python floats all
    # the same: numpy scalars make the stepping loop several times slower.
    # np.float64 subclasses float, so only an exact type check catches the
    # leak.
    import clickdyn.hbm as hbm
    from clickdyn.hbm import CubicApprox, sweep_hysteresis

    seen = set()
    for mod, name in ((integ, "scalar_rhs"), (hbm, "scalar_rhs"),
                      (hbm, "_cubic_rhs")):
        monkeypatch.setattr(mod, name, _recording(getattr(mod, name), seen))
    p = Params(alpha=1.5, beta=1.0, xi=0.1, m_big0=0.02, omega_big0=0.8)
    cubic = CubicApprox(omega_n=1.0, epsilon=0.1, origin_theta=0.0)
    state = (float, float)
    runs = [
        (lambda: poincare_section(p, (0.7227, 0.0), 3, discard=2), state),
        # from numpy floats
        (lambda: largest_lyapunov(p, np.array([0.7227, 0.0]), horizon=20.0),
         state),
        (lambda: sweep_hysteresis(p, 0.8, 0.9, 2), state),
        (lambda: sweep_hysteresis((cubic, 1.0, 0.1, 0.1), 0.8, 0.9, 2),
         state),
    ]
    for run, types in runs:
        seen.clear()
        run()
        assert seen == {types}
    # A sweep's rhs factories get s and the drive as Python floats, also
    # where continuation solves for s: numpy's slow scalar arithmetic would
    # reach every rhs call through the closures.
    made = set()
    cubic_rhs, full_rhs = hbm._cubic_rhs, hbm.scalar_rhs
    monkeypatch.setattr(hbm, "_cubic_rhs", lambda *a: made.add(
        ("s", type(a[-1]))) or cubic_rhs(*a))
    monkeypatch.setattr(hbm, "scalar_rhs", lambda q: made.add(
        ("omega_big0", type(q.omega_big0))) or full_rhs(q))
    # both trace their branch past a fold or a sharp resonance with
    # pseudo-arclength steps
    sweep_hysteresis((CubicApprox(1.0, -0.01, 0.0), 1.0, 0.01, 0.05),
                     0.96, 0.99, 7)
    sweep_hysteresis(replace(p, xi=0.0316, m_big0=0.0146), 0.75, 1.1, 5)
    assert made == {("s", float), ("omega_big0", float)}


def _nan_after_half(t, x, v):
    return v, (math.nan if t > 0.5 else -x)


CASES = [
    (scalar_rhs(Params(alpha=1.5, xi=0.1, m_big0=0.3, omega_big0=0.8)),
     (0.7227, 0.0), IntegratorSpec(rel_tol=1e-9, abs_tol=1e-11, t_end=60.0)),
    (scalar_rhs(Params(alpha=1.5)), (1.2, -0.3), IntegratorSpec(t_end=40.0)),
    (lambda t, x, v: (v, -x), (1.0, 0.0),
     IntegratorSpec(rel_tol=1e-6, abs_tol=1e-8, t_end=40.0)),
]
CASE_IDS = ["forced", "conservative", "h_max_capped"]


@pytest.mark.parametrize("f, state0, spec", CASES, ids=CASE_IDS)
def test_step_loop_takes_the_steps_of_scipys_dop853(f, state0, spec):
    traj = integrate_rhs(f, state0, spec)
    sol = solve_ivp(lambda t, y: f(t, *y), (0.0, spec.t_end), state0,
                    method="DOP853", rtol=spec.rel_tol, atol=spec.abs_tol,
                    first_step=spec.h_init, max_step=1.0)
    assert sol.status == 0
    # scipy evaluates the rhs once at t0 and 12 times per step tried
    assert traj.step_stats.accepted == sol.t.size - 1
    assert traj.step_stats.rejected == (sol.nfev - 1) // 12 - (sol.t.size - 1)
    # The error estimate is a sum that cancels to ~1e-10 of its terms, so
    # the summation order (numpy's dot against the loop's) moves each step
    # size by ~1e-8 relative; the runs agree to that, not to the bit.
    np.testing.assert_allclose(traj.times, sol.t, rtol=1e-7, atol=0.0)
    np.testing.assert_allclose(traj.states, sol.y.T, rtol=0.0, atol=1e-6)


@pytest.mark.parametrize("f, state0, spec",
                         [*CASES, (_nan_after_half, (1.0, 0.0),
                                   IntegratorSpec(t_end=2.0))],
                         ids=[*CASE_IDS, "nan_underflow"])
def test_every_step_and_its_dense_output_are_scipys(f, state0, spec):
    # Each accepted step, redone by scipy from the same state and with the
    # same width (a tolerance so loose that scipy accepts it at once), lands
    # on the same state, and the dense outputs agree inside the step.
    steps = []
    try:
        integrate_rhs(f, state0, spec,
                      step_cb=lambda *step: steps.append(step))
    except StepUnderflow as e:
        assert f is _nan_after_half
        assert e.trajectory.times[-1] <= 0.5
    fractions = (0.1, 0.3, 0.5, 0.7, 0.9)
    for ta, ya, tb, yb, dense in steps:
        solver = DOP853(lambda t, y: np.asarray(f(t, *y)), ta, ya, tb,
                        first_step=tb - ta, rtol=1e3, atol=1e3)
        solver.step()
        assert solver.t == tb
        np.testing.assert_allclose(solver.y, yb, rtol=0.0, atol=1e-12)
        ref = solver.dense_output()
        for x in fractions:
            t = ta + x * (tb - ta)
            np.testing.assert_allclose(dense(t), ref(t), rtol=0.0,
                                       atol=1e-12)
        assert dense(ta) == ya
    assert len(steps) >= 30


def test_dense_output_has_the_order_of_the_pair():
    # Steps of ~0.6 on theta'' = -theta: a cubic Hermite interpolant is off
    # by ~h^4/384 = 3e-4 mid-step; the 7th-order extension follows the
    # exact flow from the step's start to the step's own error, ~rel_tol.
    dev, widths = [], []

    def cb(ta, ya, tb, yb, dense):
        widths.append(tb - ta)
        for x in (0.25, 0.5, 0.75):
            dt = x * (tb - ta)
            exact = (ya[0] * math.cos(dt) + ya[1] * math.sin(dt),
                     ya[1] * math.cos(dt) - ya[0] * math.sin(dt))
            dev.append(max(abs(a - b) for a, b in zip(dense(ta + dt), exact)))

    integrate_rhs(lambda t, x, v: (v, -x), (1.0, 0.0),
                  IntegratorSpec(rel_tol=1e-8, abs_tol=1e-10, t_end=20.0),
                  step_cb=cb)
    assert max(widths) > 0.5
    assert max(dev) <= 5e-8


def _sample_step_by_step(steps, t):
    # The reference: each step in turn evaluates the sorted times up to its
    # tb on its own dense output, so a time equal to a step's tb is taken
    # on that step, not at the start of the next.
    thetas, omegas = np.empty_like(t), np.empty_like(t)
    lo = 0
    for step, hi in zip(steps, np.searchsorted(
            t, [s.tb for s in steps], side="right").tolist()):
        if hi > lo:
            thetas[lo:hi], omegas[lo:hi] = step(t[lo:hi])
            lo = hi
    return thetas, omegas


def _assert_sampled_step_by_step(steps, t):
    # the times, the first step's ta and every step's tb, the last of them
    # the run's end
    t = np.sort(np.concatenate([t, [steps[0].ta], [s.tb for s in steps]]))
    got = _sample_dense(steps, t)
    want = _sample_step_by_step(steps, t)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_a_run_is_sampled_as_step_by_step():
    steps, stage_times = [], []

    def f(t, x, v):
        stage_times.append(t)
        return v, -x

    integrate_rhs(f, (1.0, 0.0),
                  IntegratorSpec(rel_tol=1e-8, abs_tol=1e-10, t_end=20.0),
                  step_cb=lambda *step: steps.append(step[-1]))
    _assert_sampled_step_by_step(steps, np.linspace(0.0, 20.0, 2001))
    # The polynomials of two steps meet at their common end to the bit, so
    # the values cannot tell which one a time at that end was taken on; the
    # extra stages of the extension built for it can.
    stage_times.clear()
    _sample_dense(steps, np.array([steps[0].tb]))
    assert len(stage_times) == 3
    assert steps[0].ta < min(stage_times) and max(stage_times) < steps[0].tb


@pytest.mark.parametrize("alpha", [1.5, 1.8])
@pytest.mark.parametrize("variant", ["duffing", "pendulum", "soft_cubic"])
def test_a_continued_shot_is_sampled_as_step_by_step(monkeypatch, variant,
                                                     alpha):
    runs = []
    monkeypatch.setattr(melnikov, "_sample_dense", lambda steps, t: (
        runs.append((steps, t)) or _sample_dense(steps, t)))
    melnikov.separatrix(melnikov.reduce_system(Params(alpha=alpha), variant),
                        "continued")
    ((steps, t),) = runs
    _assert_sampled_step_by_step(steps, t)


def test_turning_points_are_refined_on_the_dense_output():
    # omega = -sin t vanishes at k*pi; the residual there is the global
    # error of the run (~1e-8 at rel_tol 1e-8), not an interpolation error
    turns = []

    def cb(ta, ya, tb, yb, dense):
        if ya[1] * yb[1] < 0.0:
            turns.append(_refine_crossing(dense, comp=1))

    integrate_rhs(lambda t, x, v: (v, -x), (1.0, 0.0),
                  IntegratorSpec(rel_tol=1e-8, abs_tol=1e-10, t_end=20.0),
                  step_cb=cb)
    assert len(turns) == 6
    for k, (t, theta, omega) in enumerate(turns, start=1):
        assert t == pytest.approx(k * math.pi, abs=1e-7)
        assert theta == pytest.approx((-1) ** k, abs=1e-7)
        assert abs(omega) <= 1e-10


# Cusp-line cases (alpha == beta) whose runs cross theta = 0, where the
# moment jumps by 2*alpha: the second is the Lyapunov case below.
_CUSP = Params(alpha=1.3, beta=1.3, xi=0.05, m_big0=0.2, omega_big0=1.1)
_CUSP_LYAP = Params(alpha=1.2, beta=1.2, xi=0.1, m_big0=0.5, omega_big0=1.0)


def _cusp_crossings(thetas):
    return sum((math.sin(0.5 * a) < 0.0) != (math.sin(0.5 * b) < 0.0)
               for a, b in zip(thetas, thetas[1:]))


@pytest.mark.parametrize("p, state0, spec", [
    (Params(alpha=1.5, xi=0.1, m_big0=0.3, omega_big0=0.8), (0.7227, 0.0),
     IntegratorSpec(rel_tol=1e-9, abs_tol=1e-11, t_end=60.0)),
    (_CUSP, (0.4, 0.0), IntegratorSpec(t_end=60.0)),
    (_CUSP_LYAP, (0.4, 0.0),
     IntegratorSpec(rel_tol=1e-9, abs_tol=1e-11, t_end=200.0)),
], ids=["forced", "cusp", "cusp_lyapunov"])
def test_stage_record_holds_the_states_the_rhs_received(p, state0, spec):
    # Recording the stages leaves the run as it is, to the bit.
    calls, f = [], scalar_rhs(p)

    def recording(t, theta, omega):
        calls.append((theta, omega))
        return f(t, theta, omega)

    plain = integ._dop853(f, 0.0, state0, spec)
    stages = []
    times, thetas, omegas, stats, h_next = integ._dop853(
        recording, 0.0, state0, spec, stages=stages)
    assert (times, thetas, omegas, h_next) == (*plain[:3], plain[4])
    assert stats == plain[3]
    assert len(stages) == stats.accepted
    assert p.smooth or _cusp_crossings(thetas) >= 3
    # After the call at the start, every step tried calls f at the stages
    # 1-11, and an accepted one at its end too; a rejected one takes no
    # more calls.
    pos = 1
    for n, rec in enumerate(stages):
        assert rec[1:5] == (thetas[n], omegas[n], thetas[n + 1],
                            omegas[n + 1])
        want = np.array(list(zip(rec[5::2], rec[6::2]))).tobytes()
        while np.array(calls[pos:pos + 11]).tobytes() != want:
            pos += 11
            assert pos < len(calls)
        assert calls[pos + 11] == rec[3:5]
        pos += 12
    assert pos == len(calls)


def _fold(p, stages, v):
    for p00, p01, p10, p11 in integ._step_jacobians(p, stages):
        v = (p00 * v[0] + p01 * v[1], p10 * v[0] + p11 * v[1])
    return np.array(v)


@pytest.mark.parametrize("p, state0", [
    (Params(alpha=1.5, xi=0.1, m_big0=0.3, omega_big0=0.8), (0.7227, 0.0)),
    (_CUSP_LYAP, (0.4, -1.0)),     # crosses theta = 0 downwards
    (_CUSP_LYAP, (-0.3, 0.8)),     # and upwards
])
@pytest.mark.parametrize("v0", [(1.0, 0.0), (0.0, 1.0)])
def test_tangent_is_the_derivative_of_the_flow(p, state0, v0):
    # Over one interval the product of the steps' derivatives is the flow
    # map's; on the cusp line only with the saltation of each crossing.
    spec = IntegratorSpec(rel_tol=1e-11, abs_tol=1e-13, t_end=5.0)
    stages = []
    _, thetas, _, _, _ = integ._dop853(scalar_rhs(p), 0.0, state0, spec,
                                       stages=stages)
    v = _fold(p, stages, v0)
    delta, ends = 1e-5, []
    for sign in (1.0, -1.0):
        y0 = (state0[0] + sign * delta * v0[0],
              state0[1] + sign * delta * v0[1])
        ends.append(integrate_rhs(scalar_rhs(p), y0, spec).states[-1])
    fd = (ends[0] - ends[1]) / (2.0 * delta)
    assert math.hypot(*(v - fd)) <= 1e-5 * math.hypot(*fd)
    assert _cusp_crossings(thetas) == (0 if p.smooth else 1)


def test_lyapunov_passes_blocks_of_bounded_length(monkeypatch):
    # The stage record goes to the pass after the interval that brings it
    # to _LYAPUNOV_BLOCK steps, so a block holds fewer than that plus one
    # interval's steps, whatever the horizon.
    segments = _counting_dop853(monkeypatch)
    blocks, jacobians = [], integ._step_jacobians
    monkeypatch.setattr(integ, "_step_jacobians", lambda p, stages: (
        blocks.append(len(stages)) or jacobians(p, stages)))
    est = largest_lyapunov(_PERIODIC, (0.7227, 0.0), horizon=7000.0)
    assert est.segment_rates.size == len(segments) == 1400
    steps = [a for a, _ in segments]
    assert sum(blocks) == sum(steps) and len(blocks) > 1
    assert min(blocks[:-1]) >= integ._LYAPUNOV_BLOCK
    assert max(blocks) < integ._LYAPUNOV_BLOCK + max(steps)


def _two_trajectory_lyapunov(p, state0, horizon, interval, d0=1e-8):
    """Rates of a partner orbit d0 off, rescaled to d0 after each interval;
    each orbit carries its step across the intervals."""
    f, rates = scalar_rhs(p), []
    ya, yb = state0, (state0[0] + d0, state0[1])
    ha = hb = 1e-3
    for k in range(1, int(round(horizon / interval)) + 1):
        spec = IntegratorSpec(rel_tol=1e-9, abs_tol=1e-11, t_end=k * interval)
        t = (k - 1) * interval
        _, tha, oma, _, ha = integ._dop853(f, t, ya, replace(spec, h_init=ha))
        _, thb, omb, _, hb = integ._dop853(f, t, yb, replace(spec, h_init=hb))
        ya, dth, dom = (tha[-1], oma[-1]), thb[-1] - tha[-1], omb[-1] - oma[-1]
        dist = math.hypot(dth, dom)
        rates.append(math.log(dist / d0) / interval)
        yb = (ya[0] + dth * d0 / dist, ya[1] + dom * d0 / dist)
    return np.asarray(rates)


@pytest.mark.parametrize("m0", [0.02, 0.125])
def test_lyapunov_matches_two_nearby_trajectories(m0):
    # periodic below the Melnikov threshold (about 0.083), chaotic above
    p = replace(_PERIODIC, m_big0=m0)
    est = largest_lyapunov(p, (0.7227, 0.0), horizon=200.0)
    ref = _two_trajectory_lyapunov(p, (0.7227, 0.0), 200.0, 5.0)
    assert abs(est.exponent - ref.mean()) <= 1e-5
    np.testing.assert_allclose(est.segment_rates, ref, rtol=0.0, atol=1e-4)


def test_lyapunov_on_the_cusp_line():
    # Two trajectories 1e-8 apart at rel_tol 1e-9 gave -0.067 here: the
    # separation was within about 10x of the local error at each theta = 0
    # crossing.  The estimate converges to -0.1017 with tighter tolerances.
    est = largest_lyapunov(_CUSP_LYAP, (0.4, 0.0), horizon=1000.0)
    assert est.exponent == pytest.approx(-0.1017, abs=1e-3)


def test_lyapunov_run_length_is_at_least_four_intervals():
    # horizon 10 with interval 5 runs four intervals, 20 time units
    est = largest_lyapunov(_PERIODIC, (0.7227, 0.0), horizon=10.0,
                           renorm_interval=5.0)
    assert est.segment_rates.size == 4

