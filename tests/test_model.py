import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from clickdyn.model import (Params, PhysicalParams, barrier_energies,
                            damping_factor, hamiltonian, is_smooth_at, moment,
                            nondimensionalize, potential, scalar_rhs,
                            stiffness)
from clickdyn.equilibria import (REGION_DEGENERATE, REGION_DOUBLE_WELL,
                                 REGION_SINGLE_WELL_HARD,
                                 REGION_SINGLE_WELL_SOFT, classify_region,
                                 working_center)
from clickdyn.model import (_curvature_field, _jacobian_field,
                            _stiffness_field)


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
    assert barrier_energies(p)[0] == 0.5 == float(potential(p, 0.0))


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
    # the cos form's two ~1/D terms cancelled here: it was 1.1e-9 off
    p = Params(alpha=0.99918, beta=0.99918, gamma=0.00157)
    th = 1.57e-3
    dmom = _central(lambda x: float(moment(p, x)), th)
    assert abs(float(stiffness(p, th)) - dmom) <= 1e-10 * abs(dmom)
    # a mesh that crosses the cusp line has each point's own bits
    field = _stiffness_field(np.array([0.99918, 1.2]), 0.99918, 0.00157, th)
    assert field[0] == stiffness(p, th)
    assert field[1] == stiffness(replace(p, alpha=1.2), th)


def test_kernels_where_the_radical_vanishes():
    # On the cusp itself (D = 0) the closure and the fields take the
    # fields' convention, M = 0 and c = alpha*beta, and the Jacobian its
    # limit along the cusp line, where it is continuous:
    # K = alpha*beta + gamma and c' = 0.
    p = Params(alpha=1.3, beta=1.3, gamma=0.1, xi=0.5)
    ab = 1.3 * 1.3
    assert float(moment(p, 0.0)) == 0.0
    assert float(damping_factor(p, 0.0)) == ab
    assert scalar_rhs(p)(0.0, 0.0, 1.0) == (1.0, -ab)
    limit = _jacobian_field(p, 0.0)
    assert limit == (ab + 0.1, ab, 0.0)
    for side in (-1e-8, 1e-8):
        # kappa times the Jacobian's (2, 1) entry, -(K + 2*xi*c'*omega),
        # at xi = 1/2 and omega = 1
        k, _, dc = _jacobian_field(p, side)
        assert k + dc == pytest.approx(limit[0] + limit[2], abs=1e-7)


def test_damping_factor_limit_at_cusp():
    # beside the cusp line c tends to alpha^2 * cos(theta/2)^2 as theta -> 0;
    # on it, where D = 0, it is that limit, alpha*beta
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


def _angles(top=2.0 * math.pi):
    """1e-8 <= |theta| <= top, log-uniform in |theta|."""
    return st.builds(lambda sign, e: sign * 10.0**e,
                     st.sampled_from([-1.0, 1.0]),
                     st.floats(-8.0, math.log10(top)))


@st.composite
def _kernel_point(draw, top=2.0 * math.pi):
    """(alpha, beta, gamma, theta) with 1e-8 <= |theta| <= top: alpha and
    beta generic, about 1e-9*alpha apart (beside the cusp line), or equal."""
    a = draw(st.floats(0.1, 3.0))
    kind = draw(st.sampled_from(["generic", "near_cusp", "cusp"]))
    if kind == "generic":
        b = draw(st.floats(0.1, 3.0))
    elif kind == "near_cusp":
        b = a * (1.0 + 1e-9 * draw(st.sampled_from([-1.0, 1.0]))
                 * draw(st.floats(0.5, 2.0)))
    else:
        b = a
    return a, b, draw(st.floats(0.0, 0.5)), draw(_angles(top))


def _mpmath_fields(a, b, g, theta):
    """(M, K, c, c') at a float point: M and K as 50-digit derivatives of
    V, c = (alpha*beta*sin(theta))^2/D^2 and c' its derivative, each with
    the cos-form radicand, which 50 digits carry past its cancellation for
    |theta| <= 3 (toward theta = 2*pi on the cusp line they do not)."""
    with mpmath.workdps(50):
        a, b, g, t = (mpmath.mpf(x) for x in (a, b, g, theta))

        def d2(x):
            return a * a + b * b - 2 * a * b * mpmath.cos(x)

        def v(x):
            return (mpmath.sqrt(d2(x)) - 1) ** 2 / 2 + g * (1 - mpmath.cos(x))

        def c(x):
            return (a * b * mpmath.sin(x)) ** 2 / d2(x)

        refs = (mpmath.diff(v, t), mpmath.diff(v, t, 2), c(t),
                mpmath.diff(c, t))
        return tuple(float(x) for x in refs)


def _kernel_scales(a, b, g, theta):
    """(D, and the sums of the magnitudes of the terms of M, K and c') at a
    float point, for error bounds that a zero of M, K or c' does not
    shrink."""
    ab, d, s = a * b, a - b, math.sin(0.5 * theta)
    dist = math.sqrt(d * d + 4.0 * ab * s * s)
    w = d * d * abs(math.cos(theta)) + 4.0 * ab * s**4
    return (dist, (ab + g + ab / dist) * abs(math.sin(theta)),
            (ab + g) * abs(math.cos(theta)) + ab * w / dist**3,
            2.0 * ab * abs(ab * math.sin(theta)) * w / dist**4)


@settings(max_examples=200, deadline=None)
@given(_kernel_point(top=3.0), st.floats(-1e3, 1e3))
# beside the cusp line near theta = 0, where a cos-form radicand cancels
@example((1.2, 1.2 * (1.0 + 1e-12), 0.0, 1e-9), 0.0)
@example((1.2, 1.2 * (1.0 + 1e-12), 0.0, 1e-7), 0.0)
@example((1.3, 1.3, 0.1, 0.7), 2.5)
@example((1.5, 1.0, 0.1, -0.7), 2.5)
def test_fields_and_kernels_match_mpmath(point, t):
    a, b, g, theta = point
    p = Params(alpha=a, beta=b, gamma=g)
    ref_m, ref_k, ref_c, ref_dc = _mpmath_fields(a, b, g, theta)
    # xi = 0 leaves omega' = -M exactly.  At omega = 2**600 the xi = 1/2
    # rhs is -c * 2**600 exactly: the moment lies below its last bit.
    damped = replace(p, xi=0.5)
    big = 2.0**600
    k, c, dc = (float(x) for x in _jacobian_field(p, theta))
    fields = {
        "M": (float(moment(p, theta)), -scalar_rhs(p)(t, theta, 0.0)[1]),
        "K": (float(stiffness(p, theta)), k),
        "c": (float(damping_factor(p, theta)),
              -scalar_rhs(damped)(t, theta, big)[1] / big, c),
        "c'": (dc,),
    }
    # each error is bounded by the sum of the magnitudes of its terms, so
    # that a zero of K or c' does not inflate it
    _, m_scale, k_scale, dc_scale = _kernel_scales(a, b, g, theta)
    scale = {"M": m_scale, "K": k_scale, "c": ref_c, "c'": dc_scale}
    for name, ref in zip(scale, (ref_m, ref_k, ref_c, ref_dc)):
        for got in fields[name]:
            assert abs(got - ref) <= 1e-14 * scale[name], name
    # the drive adds M0*sin(Omega0*t + phi) to the torque
    forced = replace(p, xi=0.3, kappa=1.7, m_big0=0.2, omega_big0=1.3,
                     phi=0.4)
    free_torque = scalar_rhs(replace(forced, m_big0=0.0, kappa=1.0))(
        t, theta, -0.7)[1]
    assert scalar_rhs(forced)(t, theta, -0.7) == (
        -0.7, (free_torque + 0.2 * math.sin(1.3 * t + 0.4)) / 1.7)


@settings(max_examples=300, deadline=None)
@given(_kernel_point(), st.floats(-1e3, 1e3))
@example((1.2, 1.2 * (1.0 + 1e-12), 0.0, 1e-9), 0.0)
@example((1.3, 1.3, 0.1, 0.7), 2.5)
@example((1.5, 1.0, 0.1, -0.7), 2.5)
def test_scalar_kernels_match_the_fields(point, t):
    a, b, g, theta = point
    p = Params(alpha=a, beta=b, gamma=g)
    ref_m = float(moment(p, theta))
    ref_c = float(damping_factor(p, theta))
    # xi = 0 leaves omega' = -M exactly.  At omega = 2**600 the xi = 1/2
    # rhs is -c * 2**600 exactly: the moment lies below its last bit.
    big = 2.0**600
    mom = -scalar_rhs(p)(t, theta, 0.0)[1]
    damp = -scalar_rhs(replace(p, xi=0.5))(t, theta, big)[1] / big
    # the same operations on one D; numpy's and libm's sin and cos may
    # differ in their last bit
    _, m_scale, _, _ = _kernel_scales(a, b, g, theta)
    assert abs(mom - ref_m) <= 8 * math.ulp(m_scale)
    assert abs(damp - ref_c) <= 8 * math.ulp(ref_c)


@settings(max_examples=300, deadline=None)
@given(_kernel_point())
@example((1.2, 1.2 * (1.0 + 1e-12), 0.0, 1e-9))
@example((1.2, 1.2 * (1.0 + 1e-12), 0.0, 1e-7))
@example((1.3, 1.3, 0.1, 0.7))
@example((1.5, 1.0, 0.1, -0.7))
def test_tangent_kernel_stiffness_is_the_fields(point):
    a, b, g, theta = point
    p = Params(alpha=a, beta=b, gamma=g)
    k = float(_jacobian_field(p, theta)[0])
    ref = float(stiffness(p, theta))
    _, _, k_scale, _ = _kernel_scales(a, b, g, theta)
    assert abs(k - ref) <= 8 * math.ulp(k_scale)


@settings(max_examples=300, deadline=None)
@given(_kernel_point())
@example((1.2, 1.2 * (1.0 + 1e-12), 0.0, 1e-7))
@example((1.3, 1.3, 0.1, 0.7))
@example((1.5, 1.0, 0.1, -0.7))
def test_tangent_kernel_damping_slope_is_the_fields(point):
    a, b, g, theta = point
    p = Params(alpha=a, beta=b, gamma=g)
    slope = float(_jacobian_field(p, theta)[2])
    # c varies on the scale D of the radical off the cusp line and on the
    # scale 1 on it, where c = alpha*beta*cos(theta/2)**2; so does the step
    d = _kernel_scales(a, b, g, theta)[0] if a != b else 1.0
    h = 1e-5 * min(1.0, d)
    # beside the cusp line within about 1e-6 of theta = 2*pi that step is
    # too few float spacings of theta for a difference quotient
    assume(h >= 1e4 * math.ulp(theta))
    ref = _central(lambda x: float(damping_factor(p, x)), theta, h=h)
    assert abs(slope - ref) <= 1e-7 * (abs(ref) + a * b / d)


@settings(max_examples=300, deadline=None)
@given(_kernel_point(), st.lists(_angles(), max_size=7))
def test_scalar_and_array_stiffness_are_bit_equal(point, more):
    a, b, g, theta = point
    p = Params(alpha=a, beta=b, gamma=g)
    thetas = [theta, *more]
    array = stiffness(p, np.array(thetas, dtype=float))
    np.testing.assert_array_equal(array, [float(stiffness(p, t))
                                          for t in thetas])


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

    got = (float(stiffness(p, theta)),
           *map(float, _curvature_field(p.alpha, p.beta, p.gamma, theta)))
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
