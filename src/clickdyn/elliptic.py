"""Jacobi elliptic functions sn/cn/dn and the complete integral K(k).

Self-contained arithmetic-geometric-mean (AGM) evaluation, parameterized by
the modulus k (NOT the parameter m = k^2).  Moduli outside [0, 1) are
rejected here and the caller decides how to report it.
"""

from __future__ import annotations

import math

__all__ = ["complete_k", "jacobi_sn_cn_dn"]

_AGM_TOL = 1e-15
_AGM_MAXITER = 64


def _check_modulus(k: float) -> None:
    if not 0.0 <= k < 1.0:
        raise ValueError(f"elliptic modulus must lie in [0, 1), got {k}")


def complete_k(k: float) -> float:
    """Complete elliptic integral of the first kind, modulus convention.

    K(k) = pi / (2 * agm(1, sqrt(1 - k^2))).  Diverges as k -> 1.
    """
    _check_modulus(k)
    a, b = 1.0, math.sqrt(1.0 - k * k)
    for _ in range(_AGM_MAXITER):
        if abs(a - b) <= _AGM_TOL:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (2.0 * a)


def jacobi_sn_cn_dn(u: float, k: float) -> tuple[float, float, float]:
    """sn(u,k), cn(u,k), dn(u,k) by the descending Landen/AGM recursion.

    Satisfies sn^2 + cn^2 = 1 and dn^2 + k^2 sn^2 = 1 to rounding.
    """
    _check_modulus(k)
    if k == 0.0:
        return math.sin(u), math.cos(u), 1.0
    a = [1.0]
    b = math.sqrt(1.0 - k * k)
    c = [k]
    n = 0
    while abs(c[n]) > _AGM_TOL and n < _AGM_MAXITER:
        an = 0.5 * (a[n] + b)
        b_next = math.sqrt(a[n] * b)
        c.append(0.5 * (a[n] - b))
        a.append(an)
        b = b_next
        n += 1
    phi = (2.0**n) * a[n] * u
    for i in range(n, 0, -1):
        phi = 0.5 * (phi + math.asin(max(-1.0, min(1.0, c[i] / a[i] * math.sin(phi)))))
    sn = math.sin(phi)
    cn = math.cos(phi)
    dn = math.sqrt(max(0.0, 1.0 - (k * sn) ** 2))
    return sn, cn, dn
