import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ellipj, ellipk

from clickdyn.elliptic import complete_k, jacobi_sn_cn_dn


def test_complete_k_special_values():
    assert complete_k(0.0) == math.pi / 2.0
    # quadrature oracle: K(k) = int_0^{pi/2} dphi / sqrt(1 - k^2 sin^2 phi)
    for k in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
        oracle, _ = quad(lambda t: 1.0 / math.sqrt(1.0 - (k * math.sin(t))**2),
                         0.0, math.pi / 2.0, epsabs=1e-14)
        assert complete_k(k) == pytest.approx(oracle, rel=5e-11)


def test_complete_k_matches_scipy():
    for k in np.linspace(0.0, 0.95, 20):
        assert complete_k(float(k)) == pytest.approx(float(ellipk(k * k)),
                                                     rel=1e-13)


def test_modulus_domain():
    with pytest.raises(ValueError):
        complete_k(1.0)
    with pytest.raises(ValueError):
        complete_k(-0.1)
    with pytest.raises(ValueError):
        jacobi_sn_cn_dn(0.3, 1.2)


def test_identities():
    rng = np.random.default_rng(21)
    us = rng.uniform(-10.0, 10.0, 10_000)
    ks = rng.uniform(0.0, 0.999, 10_000)
    for u, k in zip(us, ks):
        sn, cn, dn = jacobi_sn_cn_dn(float(u), float(k))
        assert abs(sn * sn + cn * cn - 1.0) <= 1e-12
        assert abs(dn * dn + (k * sn) ** 2 - 1.0) <= 1e-12


def test_quarter_period_values():
    for k in np.arange(0.1, 0.95, 0.1):
        kk = complete_k(float(k))
        sn, cn, dn = jacobi_sn_cn_dn(kk, float(k))
        assert abs(sn - 1.0) <= 1e-12
        assert abs(cn) <= 1e-8
        assert dn == pytest.approx(math.sqrt(1.0 - k * k), abs=1e-12)


def test_matches_scipy_ellipj():
    rng = np.random.default_rng(22)
    for _ in range(500):
        u = float(rng.uniform(-8.0, 8.0))
        k = float(rng.uniform(0.0, 0.99))
        sn, cn, dn = jacobi_sn_cn_dn(u, k)
        s2, c2, d2, _ = ellipj(u, k * k)
        assert sn == pytest.approx(float(s2), abs=5e-12)
        assert cn == pytest.approx(float(c2), abs=5e-12)
        assert dn == pytest.approx(float(d2), abs=5e-12)


def test_degenerate_modulus_is_trig():
    sn, cn, dn = jacobi_sn_cn_dn(1.3, 0.0)
    assert sn == math.sin(1.3)
    assert cn == math.cos(1.3)
    assert dn == 1.0


def test_derivative_identity():
    # d(sn)/du = cn * dn
    k = 0.6
    h = 1e-6
    for u in np.linspace(-3.0, 3.0, 25):
        snp = (jacobi_sn_cn_dn(u + h, k)[0]
               - jacobi_sn_cn_dn(u - h, k)[0]) / (2.0 * h)
        _, cn, dn = jacobi_sn_cn_dn(float(u), k)
        assert snp == pytest.approx(cn * dn, abs=1e-6)
