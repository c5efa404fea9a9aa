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

    R_n'(r) = (n/r) R_n(r) - k^2 M / (2(n+1)) * R_{n+1}(r)

Negative orders need no evaluation of their own: R_n is real and
J_{-n} = (-1)^n J_n, so phi_{-n} = (-1)^n conj(phi_n), and the same
holds for each Cartesian gradient component.

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


def _radial_derivatives(ctx: BasisContext, profiles: np.ndarray,
                        r: np.ndarray) -> np.ndarray:
    """dR_n/dr for n = 0..n_max-1 given profiles for n = 0..n_max.

    Uses R_n' = (n/r) R_n - k^2 M/(2(n+1)) R_{n+1}; r = 0 entries are
    filled with the analytic limits (0 except 1/M at n = 1).
    """
    n_top = profiles.shape[0] - 1
    orders = np.arange(n_top)[:, None]           # (n_top, 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        d = orders * profiles[:-1] / r[None, :]
    d -= (ctx.k * ctx.k * ctx.M) / (2.0 * (orders + 1.0)) * profiles[1:]
    origin = r == 0.0
    if origin.any():
        d[:, origin] = 0.0
        if n_top > 1:
            d[1, origin] = 1.0 / ctx.M
    return d


# ---------------------------------------------------------------------------
# Basis values and gradients
# ---------------------------------------------------------------------------
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

    Only orders 0..N are evaluated; each order -n is written as
    (-1)^n conj(phi_n), exactly, for the values and both gradient
    components.

    Storage is order-major: both results are transposed views of arrays
    whose rows are one order (and one component) over all points, so
    each order is written contiguously and ``values.T`` and
    ``grads[:, :, d].T`` are C-contiguous (2N+1, P) matrices.
    """
    if N < 0 or N > N_MAX:
        raise ValueError(f"truncation order N={N} outside [0, {N_MAX}]")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    x1, x2 = pts[:, 0], pts[:, 1]
    r = np.hypot(x1, x2)                         # (P,)
    theta = np.arctan2(x2, x1)
    npts = pts.shape[0]

    n_top = N + 1 if gradients else N
    prof = radial_profiles(ctx, n_top, r)        # (n_top+1, P)
    dprof = _radial_derivatives(ctx, prof, r) if gradients else None

    values = np.empty((2 * N + 1, npts), dtype=np.complex128)
    grads = np.empty((2, 2 * N + 1, npts), dtype=np.complex128) if gradients else None

    origin = r == 0.0
    at_origin = origin.any()
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_r = np.where(origin, 0.0, 1.0 / np.where(origin, 1.0, r))
    cos_t = np.where(origin, 1.0, x1 * inv_r)
    sin_t = np.where(origin, 0.0, x2 * inv_r)

    # orders -n are filled from order n by conjugate symmetry
    blocks = (values, grads[0], grads[1]) if gradients else (values,)
    for n in range(0, N + 1):
        phase = np.exp(1j * n * theta)           # (P,)
        col = N + n
        np.multiply(prof[n], phase, out=values[col])
        if gradients:
            radial = dprof[n]                    # d/dr component
            angular = (1j * n) * prof[n] * inv_r
            gx, gy = grads[0, col], grads[1, col]
            np.multiply(phase, radial * cos_t - angular * sin_t, out=gx)
            np.multiply(phase, radial * sin_t + angular * cos_t, out=gy)
            if at_origin:
                gx[origin] = 1.0 / ctx.M if n == 1 else 0.0
                gy[origin] = 1j / ctx.M if n == 1 else 0.0
        if n == 0:
            continue
        for block in blocks:
            mirror = block[N - n]
            np.conjugate(block[col], out=mirror)
            if n % 2 == 1:
                np.negative(mirror, out=mirror)

    return values.T, (grads.transpose(2, 1, 0) if gradients else None)


def basis_value(ctx: BasisContext, n: int, point) -> complex:
    """Single basis function phi_n at a single point anywhere in the plane."""
    _check_order(n)
    N = abs(n)
    values, _ = basis_matrix(ctx, N, np.asarray(point, dtype=float)[None, :],
                             gradients=False)
    return complex(values[0, N + n])


def basis_gradient(ctx: BasisContext, n: int, point) -> np.ndarray:
    """Cartesian gradient of phi_n at a single point, complex shape (2,)."""
    _check_order(n)
    N = abs(n)
    _, grads = basis_matrix(ctx, N, np.asarray(point, dtype=float)[None, :],
                            gradients=True)
    return grads[0, N + n]
