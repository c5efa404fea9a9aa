"""Independent reference computations used only by the tests.

These deliberately avoid the library's evaluation paths: Bessel values
come from the defining power series summed in high-precision arithmetic,
and derivatives from difference quotients or neighbor-order identities
applied to oracle values.
"""

from __future__ import annotations

import mpmath as mp
import numpy as np


def bessel_j_oracle(n: int, t: float, dps: int = 60) -> float:
    """J_n(t) by its power series, summed far past double precision."""
    m = abs(int(n))
    sign = -1.0 if (n < 0 and m % 2 == 1) else 1.0
    with mp.workdps(dps):
        t_mp = mp.mpf(t)
        if t_mp == 0:
            return sign * (1.0 if m == 0 else 0.0)
        half_sq = (t_mp / 2) ** 2
        term = (t_mp / 2) ** m / mp.factorial(m)
        total = term
        peak = abs(term)
        for p in range(1, 2000):
            term *= -half_sq / (p * (m + p))
            total += term
            peak = max(peak, abs(term))
            if abs(term) < mp.mpf(10) ** (-dps + 10) * peak \
                    and p * (m + p) > half_sq:
                break
        return sign * float(total)


def bessel_j_prime_oracle(n: int, t: float) -> float:
    """J_n'(t) from the neighbor identity (J_{n-1} - J_{n+1}) / 2."""
    return 0.5 * (bessel_j_oracle(n - 1, t) - bessel_j_oracle(n + 1, t))


def basis_value_oracle(k: float, M: float, n: int, point) -> complex:
    """Direct high-precision composition of prefactor, J_n, and phase."""
    x1, x2 = float(point[0]), float(point[1])
    r = float(np.hypot(x1, x2))
    theta = float(np.arctan2(x2, x1))
    m = abs(int(n))
    with mp.workdps(60):
        pref = mp.mpf(2) ** m * mp.factorial(m) / (mp.mpf(k) * mp.mpf(M)) ** m
        radial = float(pref * mp.mpf(bessel_j_oracle(n, k * r)))
    return radial * complex(np.exp(1j * n * theta))


def basis_gradient_oracle(k: float, M: float, n: int, point) -> np.ndarray:
    """Cartesian gradient of phi_n in polar form, complex shape (2,).

    d/dr comes from J_n' = (J_{n-1} - J_{n+1}) / 2 and d/dtheta from the
    phase, both in 60-digit arithmetic; the chain rule through cos theta
    and sin theta then gives d/dx and d/dy. The point must not be the
    origin.
    """
    m = abs(int(n))
    with mp.workdps(60):
        x1, x2 = mp.mpf(float(point[0])), mp.mpf(float(point[1]))
        r = mp.sqrt(x1 * x1 + x2 * x2)
        cos_t, sin_t = x1 / r, x2 / r
        pref = mp.mpf(2) ** m * mp.factorial(m) / (mp.mpf(k) * mp.mpf(M)) ** m
        t = mp.mpf(k) * r
        phase = mp.expj(n * mp.atan2(x2, x1))
        d_r = pref * k * (mp.besselj(n - 1, t) - mp.besselj(n + 1, t)) / 2 * phase
        d_theta_over_r = 1j * n * pref * mp.besselj(n, t) / r * phase
        grad = (cos_t * d_r - sin_t * d_theta_over_r,
                sin_t * d_r + cos_t * d_theta_over_r)
        return np.array([complex(g) for g in grad])


def central_difference(f, x: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Componentwise central difference quotient of a scalar field."""
    x = np.asarray(x, dtype=float)
    out = []
    for axis in range(x.size):
        e = np.zeros_like(x)
        e[axis] = step
        out.append((f(x + e) - f(x - e)) / (2.0 * step))
    return np.array(out)
