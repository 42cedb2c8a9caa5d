import math
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from clickdyn.model import (Params, PhysicalParams, barrier_energies,
                            damping_factor, hamiltonian, is_smooth_at, moment,
                            nondimensionalize, potential, scalar_potential,
                            scalar_rhs, scalar_tangent_rhs, stiffness)
from clickdyn.equilibria import (REGION_DEGENERATE, REGION_DOUBLE_WELL,
                                 REGION_SINGLE_WELL_HARD,
                                 REGION_SINGLE_WELL_SOFT, classify_region,
                                 working_center)
from clickdyn.model import _moment_curvature, _stiffness_field


def _central(f, x, h=1e-5):
    return (f(x + h) - f(x - h)) / (2.0 * h)


# Random-draw domain for finite-difference consistency checks.  The FD
# truncation error grows like |alpha - beta|**-4 near the cusp line, so the
# draws keep a minimum separation to stay within the stated tolerance.
def _fd_draw(rng):
    while True:
        a, b = rng.uniform(0.3, 1.7, 2)
        if abs(a - b) >= 0.35:
            return a, b


def test_moment_is_potential_gradient():
    rng = np.random.default_rng(7)
    for _ in range(300):
        a, b = _fd_draw(rng)
        g = rng.uniform(0.0, 0.5)
        th = rng.uniform(-math.pi, math.pi)
        p = Params(alpha=a, beta=b, gamma=g)
        dpen = _central(lambda x: float(potential(p, x)), th)
        assert abs(dpen - float(moment(p, th))) <= 1e-8


def test_stiffness_is_moment_gradient():
    rng = np.random.default_rng(8)
    for _ in range(300):
        a, b = _fd_draw(rng)
        g = rng.uniform(0.0, 0.5)
        th = rng.uniform(-math.pi, math.pi)
        p = Params(alpha=a, beta=b, gamma=g)
        dmom = _central(lambda x: float(moment(p, x)), th)
        assert abs(dmom - float(stiffness(p, th))) <= 1e-8


def test_potential_even_and_periodic():
    p = Params(alpha=1.5, beta=1.0, gamma=0.2)
    th = np.linspace(-math.pi, math.pi, 101)
    np.testing.assert_allclose(potential(p, th), potential(p, -th), atol=1e-15)
    np.testing.assert_allclose(potential(p, th),
                               potential(p, th + 2.0 * math.pi), atol=1e-13)


def test_moment_odd():
    p = Params(alpha=1.5, beta=1.0, gamma=0.2)
    th = np.linspace(-math.pi, math.pi, 101)
    np.testing.assert_allclose(moment(p, th), -np.asarray(moment(p, -th)),
                               atol=1e-14)


def test_barrier_closed_forms():
    for a, b in [(0.5, 1.0), (1.5, 1.0), (0.7, 0.9)]:
        p = Params(alpha=a, beta=b)
        h1, h2 = barrier_energies(p)
        assert h1 == pytest.approx(0.5 * (1.0 - abs(a - b)) ** 2, abs=1e-15)
        assert h2 == pytest.approx(0.5 * (1.0 - (a + b)) ** 2, abs=1e-15)


def test_cusp_barrier_when_the_radicand_rounds_below_zero():
    # alpha**2 (libm pow) is an ulp below alpha*alpha here, so on the cusp
    # the radicand rounds to -1.8e-15, which once made V(0) nan
    a = 2.044789837252913
    p = Params(alpha=a, beta=a)
    assert barrier_energies(p)[0] == 0.5 == scalar_potential(p)(0.0)


def test_nonsmooth_moment_cusp():
    # alpha == beta: the moment jumps by 2*alpha across theta = 0
    p = Params(alpha=1.2, beta=1.2)
    assert not p.smooth
    assert not is_smooth_at(p, 0.0)
    assert is_smooth_at(p, 0.5)
    eps = 1e-9
    jump = float(moment(p, eps)) - float(moment(p, -eps))
    assert jump == pytest.approx(-2.0 * 1.2, abs=1e-6)
    assert float(moment(p, 0.0)) == 0.0


def test_nonsmooth_moment_matches_smooth_limit():
    th = np.linspace(0.3, math.pi, 50)
    p_eq = Params(alpha=1.2, beta=1.2)
    p_near = Params(alpha=1.2, beta=1.2 * (1.0 + 1e-12))
    np.testing.assert_allclose(moment(p_eq, th), moment(p_near, th),
                               rtol=0, atol=1e-9)


def test_stiffness_raises_on_cusp():
    p = Params(alpha=1.0, beta=1.0)
    with pytest.raises(ValueError):
        stiffness(p, 0.0)
    # well-defined away from the cusp
    assert math.isfinite(float(stiffness(p, 1.0)))


def test_cusp_line_stiffness_beside_theta_zero():
    # the general formula's two ~1/D terms cancel here: it was 1.1e-9 off
    p = Params(alpha=0.99918, beta=0.99918, gamma=0.00157)
    th = 1.57e-3
    dmom = _central(lambda x: float(moment(p, x)), th)
    assert abs(float(stiffness(p, th)) - dmom) <= 1e-10 * abs(dmom)
    # a mesh that crosses the cusp line takes the half-angle form on it
    field = _stiffness_field(np.array([0.99918, 1.2]), 0.99918, 0.00157, th)
    assert field[0] == stiffness(p, th)
    assert field[1] == stiffness(replace(p, alpha=1.2), th)


def test_cusp_line_stiffness_field_does_not_warn():
    # The general form is evaluated beside the half-angle one and then
    # discarded on the cusp line, where it divides by D = 0: no warning.
    # Checked at a point whose radicand rounds to 0 and on the mesh of the
    # zero-stiffness set (B0) over an alpha grid that crosses beta.
    thetas = np.linspace(1e-9, math.pi - 1e-9, 400)
    alphas = np.array([0.5, 0.99, 1.0, 1.01, 1.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        point = _stiffness_field(1.0, 1.0, 0.0, np.array([1e-9, 0.5]))
        mesh = _stiffness_field(alphas[:, None], 1.0, 0.1, thetas)
        rows = [_stiffness_field(a, 1.0, 0.1, thetas) for a in alphas]
    np.testing.assert_array_equal(
        point, [float(stiffness(Params(alpha=1.0, beta=1.0), t))
                for t in (1e-9, 0.5)])
    # off the cusp line a mesh row has the bits of its own call
    np.testing.assert_array_equal(mesh, rows)
    assert np.all(np.isfinite(mesh))


def test_damping_factor_limit_at_cusp():
    # smooth formula tends to alpha^2 * cos(theta/2)^2 as theta -> 0
    p = Params(alpha=1.3, beta=1.3)
    assert float(damping_factor(p, 0.0)) == pytest.approx(1.3**2, abs=1e-15)
    p_near = Params(alpha=1.3, beta=1.3 + 1e-8)
    for k in (2, 3, 4):
        th = 10.0**-k
        expect = 1.3**2 * math.cos(0.5 * th) ** 2
        assert float(damping_factor(p_near, th)) == pytest.approx(
            expect, rel=1e-4)


def test_damping_factor_smooth_branch():
    p = Params(alpha=1.5, beta=1.0)
    th = 0.8
    d2 = 1.5**2 + 1.0 - 2.0 * 1.5 * math.cos(th)
    assert float(damping_factor(p, th)) == pytest.approx(
        (1.5 * math.sin(th)) ** 2 / d2, rel=1e-14)


def test_hamiltonian():
    p = Params(alpha=1.5, beta=1.0, kappa=2.0)
    h = hamiltonian(p, (0.3, 0.5))
    assert h == pytest.approx(0.5 * 2.0 * 0.25 + float(potential(p, 0.3)),
                              abs=1e-15)


@st.composite
def _field_point(draw):
    """(alpha, beta, gamma, theta): a smooth point, one on the cusp line, or
    one beside it near theta = 0.

    Smooth points keep |alpha - beta| >= 1e-3: closer to the cusp line the
    radicand near theta = 0 is all rounding noise, which is why alpha ==
    beta has its own half-angle form.  The third kind,
    beta = alpha*(1 + 1e-12*u) with |theta| < 1e-6, lands in that noise.
    """
    a = draw(st.floats(0.1, 3.0))
    kind = draw(st.sampled_from(["smooth", "cusp", "near_cusp"]))
    if kind == "near_cusp":
        return (a, a * (1.0 + 1e-12 * draw(st.floats(-1.0, 1.0))),
                draw(st.floats(0.0, 0.5)), draw(st.floats(-1e-6, 1e-6)))
    b = a if kind == "cusp" else draw(st.floats(0.1, 3.0))
    assume(a == b or abs(a - b) >= 1e-3)
    return (a, b, draw(st.floats(0.0, 0.5)),
            draw(st.floats(-2.0 * math.pi, 2.0 * math.pi)))


@settings(max_examples=300, deadline=None)
@given(_field_point(), st.floats(-1e3, 1e3))
# one closure for alpha == beta and one off it; each is also run forced below
@example((1.3, 1.3, 0.1, 0.7), 2.5)
@example((1.5, 1.0, 0.1, -0.7), 2.5)
def test_scalar_kernels_match_the_fields(point, t):
    a, b, g, theta = point
    p = Params(alpha=a, beta=b, gamma=g, kappa=1.0)
    with np.errstate(divide="ignore", invalid="ignore"):   # beside the cusp
        ref_m = float(moment(p, theta))
        ref_c = float(damping_factor(p, theta))
        ref_v = float(potential(p, theta))
    # xi = 0 leaves omega' = -M exactly.  At omega = 2**600 the xi = 1/2
    # rhs is -c(theta) * 2**600 exactly: the moment lies below its last bit.
    mom = -scalar_rhs(p)(t, theta, 0.0)[1]
    damp = -scalar_rhs(replace(p, xi=0.5))(t, theta, 2.0**600)[1] * 2.0**-600
    v = scalar_potential(p)(theta)
    # both are nan where the radicand rounds below its guard
    assert (abs(v - ref_v) <= 2 * math.ulp(ref_v)
            or math.isnan(v) and math.isnan(ref_v))
    if a == b:
        # the same operations, except that c(theta) rounds
        # alpha^2 * cos(theta/2)^2 with libm squares against three products
        assert abs(mom - ref_m) <= 2 * math.ulp(ref_m)
        assert abs(damp - ref_c) <= 4 * math.ulp(ref_c)
    else:
        # the same operations, except that the radicand squares alpha and
        # beta as alpha * alpha where the fields call libm's pow, which is
        # an ulp off for about 0.1 % of inputs; that ulp of the radicand D^2
        # enters M through 1/D and c through 1/D^2
        sq = a * a + b * b
        d2 = sq - 2.0 * a * b * math.cos(theta)
        if d2 <= 0.0:
            # beside the cusp line the kernel's radicand rounded to 0 or
            # below: it returns the fields' guarded values (inf or nan)
            for xi, omega in ((0.0, 0.0), (0.5, -0.7)):
                got = scalar_rhs(replace(p, xi=xi))(t, theta, omega)[1]
                want = -2.0 * xi * ref_c * omega - ref_m
                assert got == want or math.isnan(got) and math.isnan(want)
            return
        # the fields' radicand may round to 0 where the kernel's does not
        assume(math.isfinite(ref_m) and math.isfinite(ref_c))
        slack = 2.0 * math.ulp(sq) / d2
        assert abs(mom - ref_m) <= 2 * math.ulp(ref_m) + 0.5 * slack * abs(
            a * b * math.sin(theta)) / math.sqrt(d2)
        assert abs(damp - ref_c) <= 2 * math.ulp(ref_c) + slack * ref_c
    # the drive adds M0*sin(Omega0*t + phi) to the torque
    forced = replace(p, xi=0.3, kappa=1.7, m_big0=0.2, omega_big0=1.3,
                     phi=0.4)
    free_torque = scalar_rhs(replace(forced, m_big0=0.0, kappa=1.0))(
        t, theta, -0.7)[1]
    assert scalar_rhs(forced)(t, theta, -0.7) == (
        -0.7, (free_torque + 0.2 * math.sin(1.3 * t + 0.4)) / 1.7)


@settings(max_examples=300, deadline=None)
@given(_field_point(),
       st.lists(st.floats(-2.0 * math.pi, 2.0 * math.pi), max_size=7))
def test_scalar_and_array_stiffness_are_bit_equal(point, more):
    a, b, g, theta = point
    p = Params(alpha=a, beta=b, gamma=g)
    thetas = [t for t in [theta, *more] if is_smooth_at(p, t)]
    with np.errstate(divide="ignore", invalid="ignore"):   # beside the cusp
        array = stiffness(p, np.array(thetas, dtype=float))
        scalar = [float(stiffness(p, t)) for t in thetas]
    np.testing.assert_array_equal(array, scalar)   # NaN matches NaN


@settings(max_examples=300, deadline=None)
@given(_field_point(), st.floats(-1e3, 1e3), st.floats(-3.0, 3.0),
       st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
@example((1.3, 1.3, 0.1, 0.7), 2.5, -0.7, 1.0, 0.5)
@example((1.5, 1.0, 0.1, -0.7), 2.5, -0.7, 1.0, 0.5)
def test_tangent_kernel_state_part_is_scalar_rhs(point, t, omega, v_theta,
                                                 v_omega):
    a, b, g, theta = point
    free = Params(alpha=a, beta=b, gamma=g)
    forced = replace(free, xi=0.3, kappa=1.7, m_big0=0.2, omega_big0=1.3,
                     phi=0.4)
    for p in (free, forced):
        with np.errstate(divide="ignore", invalid="ignore"):  # near cusp
            got = scalar_tangent_rhs(p)(t, theta, omega, v_theta, v_omega)
            want = scalar_rhs(p)(t, theta, omega)
        # bit for bit, NaN payloads and the signs of zeros included
        assert np.array(got[:2]).tobytes() == np.array(want).tobytes()
        assert got[2] == v_omega


def _kernel_radicand(a, b, theta):
    return a * a + b * b - 2.0 * a * b * math.cos(theta)


@settings(max_examples=300, deadline=None)
@given(_field_point())
@example((1.3, 1.3, 0.1, 0.7))
@example((1.5, 1.0, 0.1, -0.7))
def test_tangent_kernel_stiffness_is_the_fields(point):
    a, b, g, theta = point
    p = Params(alpha=a, beta=b, gamma=g, xi=0.3)
    assume(is_smooth_at(p, theta))
    # at omega = 0 and v = (1, 0), v_omega' = -K/kappa exactly
    k = -scalar_tangent_rhs(p)(0.0, theta, 0.0, 1.0, 0.0)[3]
    with np.errstate(divide="ignore", invalid="ignore"):   # near cusp
        ref = float(stiffness(p, theta))
    if a == b:
        scale = (a * a + g) + 0.5 * a
        assert abs(k - ref) <= 4 * math.ulp(scale)
        return
    d2 = _kernel_radicand(a, b, theta)
    if d2 <= 0.0:
        # the radicand rounded to 0 or below: the Jacobian's 1/D terms
        # have no value
        assert math.isnan(k)
        return
    assume(math.isfinite(ref))
    # K = f*cos(theta) + c/D with f = alpha*beta + gamma - alpha*beta/D;
    # both sides round each term, and their radicands may differ by the
    # last bits of cos(theta), which move 1/D and 1/D^3
    ab, d = a * b, math.sqrt(d2)
    c_over_d = (ab * math.sin(theta)) ** 2 / (d2 * d)
    scale = (ab + g + ab / d) * abs(math.cos(theta)) + c_over_d
    slack = 4.0 * math.ulp(2.0 * ab) / d2
    assert abs(k - ref) <= 8 * math.ulp(scale) + slack * (ab / d + c_over_d)


@settings(max_examples=300, deadline=None)
@given(_field_point())
@example((1.3, 1.3, 0.1, 0.7))
@example((1.5, 1.0, 0.1, -0.7))
def test_tangent_kernel_damping_slope_is_the_fields(point):
    a, b, g, theta = point
    assume(a == b or abs(a - b) >= 1e-3)    # not the near-cusp noise
    p = Params(alpha=a, beta=b, gamma=g, xi=0.5)
    # v_omega' = -(K + c'*omega)*v_theta at xi = 1/2 and v = (1, 0); at
    # omega = 2**600 the stiffness lies below the last bit of c'*omega
    slope = -scalar_tangent_rhs(p)(0.0, theta, 2.0**600, 1.0, 0.0)[3]
    slope *= 2.0**-600
    # c varies on the scale D of the radical; so does the step
    d = math.sqrt(max(_kernel_radicand(a, b, theta), 0.0)) if a != b else 1.0
    ref = _central(lambda x: float(damping_factor(p, x)), theta,
                   h=1e-5 * min(1.0, d))
    assert abs(slope - ref) <= 1e-7 * (abs(ref) + a * b / d)


# (alpha, beta, gamma) ranges inside each statics region with a center;
# beta None means beta = alpha
_REGIONS = {
    REGION_DOUBLE_WELL: ((1.2, 1.8), (0.9, 1.1), (0.0, 0.05)),
    REGION_SINGLE_WELL_HARD: ((2.3, 2.8), (0.9, 1.1), (0.0, 0.1)),
    REGION_SINGLE_WELL_SOFT: ((0.2, 0.4), (0.4, 0.6), (0.0, 0.05)),
    REGION_DEGENERATE: ((0.7, 1.5), None, (0.0, 0.1)),
}


@st.composite
def _taylor_point(draw):
    """(params, theta): the working center of a statics region, or a
    random smooth point with |alpha - beta| >= 0.05."""
    region = draw(st.sampled_from([None, *sorted(_REGIONS)]))
    if region is None:
        a, b = draw(st.floats(0.2, 3.0)), draw(st.floats(0.2, 3.0))
        assume(abs(a - b) >= 0.05)
        return (Params(alpha=a, beta=b, gamma=draw(st.floats(0.0, 0.5))),
                draw(st.floats(-math.pi, math.pi)))
    alphas, betas, gammas = _REGIONS[region]
    a = draw(st.floats(*alphas))
    b = a if betas is None else draw(st.floats(*betas))
    p = Params(alpha=a, beta=b, gamma=draw(st.floats(*gammas)))
    assume(classify_region(p) == region)
    return p, working_center(p).theta


@settings(max_examples=200, deadline=None)
@given(_taylor_point())
def test_closed_form_taylor_coefficients_match_mpmath(point):
    p, theta = point
    a, b, g = (mpmath.mpf(v) for v in (p.alpha, p.beta, p.gamma))

    def m(t):
        if p.smooth:
            d = mpmath.sqrt(a * a + b * b - 2 * a * b * mpmath.cos(t))
            return (a * b * (1 - 1 / d) + g) * mpmath.sin(t)
        return ((a * a + g) * mpmath.sin(t)
                - a * mpmath.sign(mpmath.sin(t / 2)) * mpmath.cos(t / 2))

    got = (float(stiffness(p, theta)), *_moment_curvature(p, theta))
    with mpmath.workdps(40):
        ref = [float(mpmath.diff(m, mpmath.mpf(theta), n)) for n in (1, 2, 3)]
    for value, want in zip(got, ref):
        assert abs(value - want) <= 1e-12 * max(1.0, abs(want))


def test_nondimensionalize():
    phys = PhysicalParams(m=0.01, k=100.0, c=0.2, a=0.015, b=0.01, l=0.01,
                          d=0.005, m0=0.001, omega0=50.0)
    p, omega_n = nondimensionalize(phys)
    assert omega_n == pytest.approx(math.sqrt(100.0 / 0.01))
    assert p.alpha == pytest.approx(1.5)
    assert p.beta == pytest.approx(1.0)
    assert p.kappa == pytest.approx(2.0 * 0.005**2 / 0.01**2)
    assert p.xi == pytest.approx(0.2 / (2.0 * math.sqrt(0.01 * 100.0)))
    assert p.gamma == pytest.approx(2.0 * 0.01 * 9.81 / (100.0 * 0.01**2))
    assert p.m_big0 == pytest.approx(0.001 / (100.0 * 0.01**2))
    assert p.omega_big0 == pytest.approx(50.0 / omega_n)


def test_param_validation():
    with pytest.raises(ValueError):
        Params(alpha=-1.0)
    with pytest.raises(ValueError):
        Params(alpha=1.0, kappa=0.0)
    with pytest.raises(ValueError):
        Params(alpha=1.0, xi=-0.1)
    with pytest.raises(ValueError):
        PhysicalParams(m=0.0, k=1.0, c=0.0, a=1.0, b=1.0, l=1.0, d=1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            Params(alpha=bad)
        with pytest.raises(ValueError, match="finite"):
            Params(alpha=1.0, phi=bad)
        with pytest.raises(ValueError, match="finite"):
            PhysicalParams(m=1.0, k=1.0, c=0.0, a=1.0, b=1.0, l=1.0, d=1.0,
                           omega0=bad)
