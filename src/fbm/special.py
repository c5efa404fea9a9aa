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
values one order up and one down, smooth at r = 0. The ladder is applied
in one of two forms, both to the values of order N + 1:

- coefficient side (ladder_coefficients): the coefficients are shifted
  once, and one product with the values gives u, du/dx and du/dy;
- basis side (assembly.trace_operator): the values phi_0..phi_{N+1},
  read off the nested rows, are shifted, which the impedance trace needs
  because the normal varies by node; its columns -n mirror those of n.

Nested real form
----------------
The basis is evaluated in one form only, by nested_values: the real rows

    Re phi_0, Re phi_1, Im phi_1, ..., Re phi_N, Im phi_N

Since phi_{-n} = (-1)^n conj(phi_n), they span what phi_{-N}..phi_N
span, in half the bytes, and the form of order N' < N is their leading
2N'+1 rows (the n = 0, 1, -1, 2, -2, ... order of
tikhonov.svd_decay_study). They are the only form of the basis that
leaves this module; no complex copy of phi_{-N}..phi_N is made.
nested_coefficients folds complex coefficients onto the rows, so that
the real and imaginary parts of u and its gradient come from one real
product, at half the flops of the complex one; fields.error_norms and
fields.evaluate_field take this form.

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


def _bessel_ratios(n_max: int, t: np.ndarray, out=None) -> np.ndarray:
    """J_0(t) in row 0 and rho_n(t) = J_n(t) / J_{n-1}(t) in rows 1..n_max.

    t is a 1-D array of nonnegative arguments; the result has shape
    (n_max+1, len(t)), and row n of its cumulative product is J_n(t). It
    is written into ``out`` if given, a C-contiguous float array of that
    shape.
    """
    if out is None:
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


# ---------------------------------------------------------------------------
# Scaled radial profiles R_n(r) = pref_n * J_n(k r), vectorized over points
# ---------------------------------------------------------------------------
def radial_profiles(ctx: BasisContext, n_max: int, r: np.ndarray,
                    out=None) -> np.ndarray:
    """Scaled radial profiles R_n(r) for n = 0..n_max at points r >= 0.

    R_n(r) = [2^n n!/(kM)^n] J_n(k r); returns shape (n_max+1, len(r)),
    written into ``out`` if given (as _bessel_ratios takes it).
    """
    if n_max > N_MAX + 1:
        raise ValueError(f"order cap exceeded: {n_max} > {N_MAX + 1}")
    r = np.asarray(r, dtype=float)
    if np.any(r < 0.0):
        raise ValueError("radii must be nonnegative")
    out = _bessel_ratios(n_max, ctx.k * r, out)
    # R_n / R_{n-1} = (2n / kM) J_n / J_{n-1}
    out[1:] *= (2.0 / (ctx.k * ctx.M)) * np.arange(1, n_max + 1)[:, None]
    # row by row: np.cumprod along axis 0 walks the rows column by column
    for n in range(1, n_max + 1):
        out[n] *= out[n - 1]
    return out


# ---------------------------------------------------------------------------
# Basis values and the ladder
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


def ladder_coefficients(ctx: BasisContext, coeffs: np.ndarray) -> np.ndarray:
    """The coefficients of u, du/dx and du/dy on phi_{-N-1}..phi_{N+1}
    for u = sum_n coeffs[..., N + n] phi_n, as the columns of a (2N+3, 3)
    block; a stack of coefficient vectors (..., 2N+1) gives a stack of
    blocks (..., 2N+3, 3), each bitwise the block of its vector alone.

    The basis values phi_{-N-1}..phi_{N+1} at some points times this
    block give u and its gradient there by one product; folded by
    nested_coefficients, the block acts on nested_values' rows of order
    N + 1 instead.
    """
    size = coeffs.shape[-1]
    lead = coeffs.shape[:-1]
    a, b = ladder_constants(ctx, (size - 1) // 2)
    d_plus = np.zeros(lead + (size + 2,), dtype=np.complex128)
    d_plus[..., 2:] = a * coeffs                 # D+ u on phi_{n+1}
    d_minus = np.zeros(lead + (size + 2,), dtype=np.complex128)
    d_minus[..., :-2] = b * coeffs               # D- u on phi_{n-1}
    block = np.zeros(lead + (size + 2, 3), dtype=np.complex128)
    block[..., 1:-1, 0] = coeffs
    block[..., 1] = 0.5 * (d_plus + d_minus)
    block[..., 2] = -0.5j * (d_plus - d_minus)
    return block


def nested_values(ctx: BasisContext, N: int, points: np.ndarray) -> np.ndarray:
    """Basis values phi_n, n = 0..N, at points (P, 2), the one evaluator of
    the basis: the real rows Re phi_0, Re phi_1, Im phi_1, ..., Re phi_N,
    Im phi_N, a C-contiguous float array of shape (2N+1, P). The form of
    order N' < N is its leading 2N'+1 rows. N may reach N_MAX + 1, so that
    the ladder can differentiate an expansion of order N_MAX."""
    if N < 0 or N > N_MAX + 1:
        raise ValueError(f"basis order N={N} outside [0, {N_MAX + 1}]")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    npts = pts.shape[0]
    r = np.hypot(pts[:, 0], pts[:, 1])           # (P,)
    unit = np.empty(npts, dtype=np.complex128)   # e^{i theta}, 1 at the origin
    unit.real = np.divide(pts[:, 0], r, out=np.ones(npts), where=r > 0.0)
    unit.imag = np.divide(pts[:, 1], r, out=np.zeros(npts), where=r > 0.0)
    # row N + n holds R_n; filling rows 2n - 1 and 2n from it, n upward,
    # overwrites only R_m with m = 2n - 1 - N or 2n - N <= n, already read,
    # so the profiles take no memory besides the rows
    rows = np.empty((2 * N + 1, npts))
    radial_profiles(ctx, N, r, out=rows[N:])
    phase = np.ones_like(unit)                   # e^{i n theta}
    rows[0] = rows[N]
    for n in range(1, N + 1):
        phase *= unit
        np.multiply(rows[N + n], phase.real, out=rows[2 * n - 1])
        np.multiply(rows[N + n], phase.imag, out=rows[2 * n])
    return rows


def nested_coefficients(coeffs: np.ndarray) -> np.ndarray:
    """Fold coefficients on phi_{-N}..phi_N onto the nested rows.

    ``coeffs`` has shape (..., 2N+1, J), column j the complex coefficients
    of one expansion f_j = sum_n coeffs[..., N + n, j] phi_n, as
    ladder_coefficients gives them. By phi_{-n} = (-1)^n conj(phi_n), f_j
    has the coefficient c_0 on Re phi_0, c_n + (-1)^n c_{-n} on Re phi_n
    and i (c_n - (-1)^n c_{-n}) on Im phi_n. Returned as the real array
    (..., 2J, 2N+1) whose rows 2j and 2j + 1 give Re f_j and Im f_j by one
    product with nested_values' rows.
    """
    N = (coeffs.shape[-2] - 1) // 2
    upper = coeffs[..., N + 1:, :]                         # c_n, n = 1..N
    lower = coeffs[..., :N, :][..., ::-1, :] * np.where(   # (-1)^n c_{-n}
        np.arange(1, N + 1) % 2 == 1, -1.0, 1.0)[:, None]
    folded = np.empty(coeffs.shape, dtype=np.complex128)
    folded[..., 0, :] = coeffs[..., N, :]
    folded[..., 1::2, :] = upper + lower
    folded[..., 2::2, :] = 1j * (upper - lower)
    real = folded.view(np.float64)               # (..., 2N+1, 2J): Re, Im
    return np.ascontiguousarray(np.swapaxes(real, -1, -2))

