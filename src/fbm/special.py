"""Bessel functions of the first kind and the scaled cylindrical-wave basis.

Bessel kernel
-------------
Every Bessel value comes from one kernel, Miller's backward recurrence
in ratio form (Gautschi, SIAM Review 9, 1967; NIST DLMF 10.74). The
ratios rho_m = J_m(t) / J_{m-1}(t) satisfy

    rho_m = 1 / (2m/t - rho_{m+1}),

which is stable run downward from rho = 0 at a start order above both
the requested order and the turning point m = t. Forward recurrence is
unstable for n > t and is never used. J_0 follows from the
normalization J_0 + 2 sum_p J_{2p} = 1, whose even sum is carried as a
multiple of the current J_m; then J_n = J_0 rho_1 ... rho_n. At t = 0,
2/t = inf makes every rho zero and J_0 one, with no special case.

Basis functions
---------------
    phi_n(x) = pref_n * J_n(k r) * exp(i n theta),
    pref_n   = 2^|n| |n|! / (k M)^|n|.

pref_n and J_n(kr) separately overflow/underflow for large |n|. Their
product, the radial profile R_n(r) = pref_n J_n(kr) ~ (r/M)^n near
r = 0, is what all basis evaluation is built on. It is accumulated from
factors of moderate size, so it stays finite wherever it is
representable:

    R_0 = J_0(kr),   R_n = R_{n-1} * (2n / (kM)) * rho_n(kr)

The phases follow e^{i n theta} = e^{i(n-1) theta} e^{i theta}, with
e^{i theta} = (x1 + i x2) / r and 1 at the origin. R_n is real and
J_{-n} = (-1)^n J_n, so phi_{-n} = (-1)^n conj(phi_n) needs no evaluation.

Nor are gradients. With D+- = d/dx +- i d/dy, the Bessel recurrences
(DLMF 10.6) give D+- [J_n(kr) e^{i n theta}] = -+k J_{n+-1}(kr) e^{i(n+-1) theta}:

    D+ phi_n = a_n phi_{n+1},   D- phi_n = b_n phi_{n-1}   (ladder_constants),
    d/dx = (D+ + D-) / 2,       d/dy = -i (D+ - D-) / 2.

So every derivative of an expansion in phi_n is a shifted combination of
values one order up and one down, smooth at r = 0.

All functions here are pure; nothing is cached or mutated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Hard cap on the basis order. Parameter selection stays below ~40 at
# desk scale; the headroom is for order sweeps.
N_MAX = 128


@dataclass(frozen=True)
class BasisContext:
    """Wavenumber and scaling radius defining the basis normalization.

    The constraint M > r_D (circumscribed radius of the active domain)
    is enforced where the domain is known, at problem construction.
    """

    k: float
    M: float

    def __post_init__(self):
        if not (self.k > 0.0):
            raise ValueError(f"wavenumber k must be positive, got {self.k}")
        if not (self.M > 0.0):
            raise ValueError(f"scaling radius M must be positive, got {self.M}")


def _check_order(n: int) -> int:
    m = abs(int(n))
    if m > N_MAX:
        raise ValueError(f"order |n|={m} exceeds the implementation cap {N_MAX}")
    return m


# ---------------------------------------------------------------------------
# The Bessel kernel: Miller's backward recurrence in ratio form
# ---------------------------------------------------------------------------
def _miller_start(n_max: int, t: float) -> int:
    # Start safely above both the requested order and the turning point;
    # the sqrt term keeps full accuracy when n_max is close to t.
    top = max(n_max, t)
    return int(math.ceil(top)) + 24 + int(4.0 * math.sqrt(top))


def _bessel_ratios(n_max: int, t: np.ndarray) -> np.ndarray:
    """J_0(t) in row 0 and rho_n(t) = J_n(t) / J_{n-1}(t) in rows 1..n_max.

    t is a 1-D array of nonnegative arguments; the result has shape
    (n_max+1, len(t)), and row n of its cumulative product is J_n(t).
    """
    out = np.empty((n_max + 1, t.shape[0]))
    rho = np.zeros_like(t)               # rho_{m+1}; zero above the start
    even = np.zeros_like(t)              # (sum of J_j, even j >= m-1) / J_{m-1}
    step = np.empty_like(t)
    with np.errstate(divide="ignore"):
        two_over_t = 2.0 / t             # inf at t = 0, so every rho is 0 there
    for m in range(_miller_start(n_max, float(t.max(initial=0.0))), 0, -1):
        # rho_m = 1 / (2m/t - rho_{m+1}), written in place: into out[m]
        # once m is a requested order, into the scratch rho above that
        np.multiply(two_over_t, m, out=step)
        step -= rho
        rho = np.divide(1.0, step, out=out[m] if m <= n_max else rho)
        even *= rho
        if m % 2 == 1:
            even += 1.0
    out[0] = 1.0 / (2.0 * even - 1.0)    # from J_0 + 2 sum_p J_{2p} = 1
    return out


def _bessel_column(n_max: int, t: float) -> np.ndarray:
    """J_0(t)..J_{n_max}(t) at one argument."""
    return np.cumprod(_bessel_ratios(n_max, np.array([float(t)]))[:, 0])


def bessel_j(n: int, t: float) -> float:
    """Bessel function of the first kind J_n(t) for integer n, t >= 0.

    Negative orders delegate to positive ones through
    J_{-n}(t) = (-1)^n J_n(t), so the reflection identity holds exactly.
    For t <= 64, |n| <= 64 the error stays below 1e-14 of |J_n(t)| where
    t <= |n|, and of sqrt(J_n^2 + Y_n^2) beyond, the envelope of the
    oscillation.
    """
    m = _check_order(n)
    if t < 0.0:
        raise ValueError(f"argument t must be nonnegative, got {t}")
    value = float(_bessel_column(m, t)[m])
    if n < 0 and m % 2 == 1:
        return -value
    return value


def bessel_j_prime(n: int, t: float) -> float:
    """Derivative J_n'(t), using J_n'(t) = n J_n(t)/t - J_{n+1}(t) for n >= 0.

    At t = 0 the analytic limits apply: J_0'(0) = 0, J_{+-1}'(0) = +-1/2,
    and 0 for |n| >= 2.
    """
    m = _check_order(n)
    if t < 0.0:
        raise ValueError(f"argument t must be nonnegative, got {t}")
    sign = -1.0 if (n < 0 and m % 2 == 1) else 1.0
    if t == 0.0:
        if m == 0:
            return 0.0
        if m == 1:
            return 0.5 * sign
        return 0.0
    j = _bessel_column(m + 1, t)
    return sign * float(m * j[m] / t - j[m + 1])


# ---------------------------------------------------------------------------
# Scaled radial profiles R_n(r) = pref_n * J_n(k r), vectorized over points
# ---------------------------------------------------------------------------
def radial_profiles(ctx: BasisContext, n_max: int, r: np.ndarray) -> np.ndarray:
    """Scaled radial profiles R_n(r) for n = 0..n_max at points r >= 0.

    R_n(r) = [2^n n!/(kM)^n] J_n(k r); returns shape (n_max+1, len(r)).
    """
    if n_max > N_MAX + 1:
        raise ValueError(f"order cap exceeded: {n_max} > {N_MAX + 1}")
    r = np.asarray(r, dtype=float)
    if np.any(r < 0.0):
        raise ValueError("radii must be nonnegative")
    out = _bessel_ratios(n_max, ctx.k * r)
    # R_n / R_{n-1} = (2n / kM) J_n / J_{n-1}
    out[1:] *= (2.0 / (ctx.k * ctx.M)) * np.arange(1, n_max + 1)[:, None]
    return np.cumprod(out, axis=0, out=out)


# ---------------------------------------------------------------------------
# Basis values and gradients
# ---------------------------------------------------------------------------
def ladder_constants(ctx: BasisContext, N: int):
    """The ladder constants (a_n, b_n) for n = -N..N, two float arrays.

    D+ phi_n = a_n phi_{n+1} and D- phi_n = b_n phi_{n-1}, with

        a_n = -k^2 M / (2(n+1))  (n >= 0),   -2|n| / M          (n < 0),
        b_n = 2n / M             (n >= 1),    k^2 M / (2(|n|+1)) (n <= 0),

    so that a_{-n} = -b_n and b_{-n} = -a_n exactly.
    """
    n = np.arange(-N, N + 1)
    m = np.abs(n)
    up = (ctx.k * ctx.k * ctx.M) / (2.0 * (m + 1.0))
    down = 2.0 * m / ctx.M
    return np.where(n >= 0, -up, -down), np.where(n >= 1, down, up)


def basis_values(ctx: BasisContext, N: int, points: np.ndarray) -> np.ndarray:
    """Basis values phi_n, n = -N..N, at points (P, 2): shape (P, 2N+1),
    column j holding phi_n with n = j - N.

    N may reach N_MAX + 1, so that the ladder can differentiate an
    expansion of order N_MAX. Orders -n are written as (-1)^n conj(phi_n),
    exactly. The result is the transposed view of a C-contiguous
    (2N+1, P) array: each order is one contiguous row.
    """
    if N < 0 or N > N_MAX + 1:
        raise ValueError(f"basis order N={N} outside [0, {N_MAX + 1}]")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    npts = pts.shape[0]
    r = np.hypot(pts[:, 0], pts[:, 1])           # (P,)
    prof = radial_profiles(ctx, N, r)            # (N+1, P)
    unit = np.empty(npts, dtype=np.complex128)   # e^{i theta}, 1 at the origin
    unit.real = np.divide(pts[:, 0], r, out=np.ones(npts), where=r > 0.0)
    unit.imag = np.divide(pts[:, 1], r, out=np.zeros(npts), where=r > 0.0)
    phase = np.ones(npts, dtype=np.complex128)   # e^{i n theta}
    values = np.empty((2 * N + 1, npts), dtype=np.complex128)
    values[N] = prof[0]
    for n in range(1, N + 1):
        phase *= unit
        np.multiply(prof[n], phase, out=values[N + n])
        mirror = np.conjugate(values[N + n], out=values[N - n])
        if n % 2 == 1:
            np.negative(mirror, out=mirror)
    return values.T


def basis_matrix(ctx: BasisContext, N: int, points: np.ndarray,
                 gradients: bool = True):
    """Evaluate all basis functions phi_n, n = -N..N, at the given points.

    Parameters
    ----------
    points : np.ndarray, shape (P, 2)

    Returns
    -------
    values : np.ndarray, complex128, shape (P, 2N+1)
        Column j holds phi_n with n = j - N (monotone order ordering).
    grads : np.ndarray, complex128, shape (P, 2N+1, 2), or None
        Cartesian gradients, if requested.

    The gradients come by the ladder from the values of order N + 1.
    Both results are transposed views of order-major arrays, so
    ``values.T`` and ``grads[:, :, d].T`` are C-contiguous (2N+1, P).
    """
    if N < 0 or N > N_MAX:
        raise ValueError(f"truncation order N={N} outside [0, {N_MAX}]")
    if not gradients:
        return basis_values(ctx, N, points), None
    rows = basis_values(ctx, N + 1, points).T    # (2N+3, P)
    a, b = ladder_constants(ctx, N)
    grads = np.empty((2, 2 * N + 1, rows.shape[1]), dtype=np.complex128)
    half_plus = np.multiply(0.5 * a[:, None], rows[2:], out=grads[0])
    half_minus = np.multiply(0.5 * b[:, None], rows[:-2], out=grads[1])
    diff = half_plus - half_minus
    half_plus += half_minus                      # d/dx = (D+ + D-) / 2
    np.multiply(diff, -1j, out=half_minus)       # d/dy = -i (D+ - D-) / 2
    return rows[1:-1].T, grads.transpose(2, 1, 0)


def basis_value(ctx: BasisContext, n: int, point) -> complex:
    """Single basis function phi_n at a single point anywhere in the plane."""
    N = _check_order(n)
    return complex(basis_values(ctx, N, point)[0, N + n])


def basis_gradient(ctx: BasisContext, n: int, point) -> np.ndarray:
    """Cartesian gradient of phi_n at a single point, complex shape (2,)."""
    N = _check_order(n)
    return basis_matrix(ctx, N, point)[1][0, N + n]
