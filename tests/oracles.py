"""Independent reference computations used only by the tests.

These deliberately avoid the library's evaluation paths: Bessel values
come from the defining power series summed in high-precision arithmetic,
and derivatives from difference quotients or neighbor-order identities
applied to oracle values. The geometric helpers at the end read only a
curve's point and derivative series and a rule's arc weights; the polygon
tests among them measure every point against every edge.

The complex form of the basis is the exception: complex_values reads
phi_{-N}..phi_N off the library's nested rows, which the program itself
never does, and reference_trace_operator forms the impedance trace from
those columns order by order, with no mirroring, to pin the library's
operator to.

interior_norms_sq reads the interior norms of a Helmholtz solution off
its boundary samples, by identities the library does not use.
"""

from __future__ import annotations

import mpmath as mp
import numpy as np

from fbm.assembly import WaveProblem
from fbm.geometry import (BoundaryCurve, QuadratureRule, curve_derivative,
                          curve_point)
from fbm.special import BasisContext, ladder_constants, nested_values


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


def complex_values(nested: np.ndarray) -> np.ndarray:
    """phi_n, n = -N..N, read exactly off nested_values' rows ``nested``
    (2N+1, P): phi_n = Re phi_n + i Im phi_n for n >= 0, and
    phi_{-n} = (-1)^n conj(phi_n). Shape (P, 2N+1), column j holding phi_n
    with n = j - N, the transposed view of a C-contiguous (2N+1, P) array."""
    rows = nested
    N = (rows.shape[0] - 1) // 2
    values = np.empty(rows.shape, dtype=np.complex128)
    upper = values[N:]                           # orders 0..N
    upper[0] = rows[0]
    upper[1:].real = rows[1::2]
    upper[1:].imag = rows[2::2]
    # orders -1..-N; values[N-1::-1] would wrap to the whole array at N = 0
    lower = values[:N][::-1]
    np.conjugate(upper[1:], out=lower)
    np.negative(lower[::2], out=lower[::2])      # odd n
    return values.T


def basis_values(ctx: BasisContext, N: int, points) -> np.ndarray:
    """phi_n, n = -N..N, at points (P, 2), in complex_values' layout."""
    return complex_values(nested_values(ctx, N, points))


def basis_value(ctx: BasisContext, n: int, point) -> complex:
    """phi_n at one point, read off basis_values."""
    N = abs(int(n))
    return complex(basis_values(ctx, N, point)[0, N + n])


def reference_trace_operator(problem: WaveProblem, rule: QuadratureRule,
                             values: np.ndarray) -> np.ndarray:
    """The weighted impedance trace operator from the complex values
    phi_{-N-1}..phi_{N+1} at the nodes (basis_values of order N + 1):
    column n is i k phi_n + (conj(nu) a_n phi_{n+1} + nu b_n phi_{n-1}) / 2
    times sqrt(w), every column formed from its own orders, summed as
    (E_n + A_n) + B_n."""
    rows = values.T                                 # (2N+3, M_q), order-major
    a, b = ladder_constants(problem.basis, problem.N)
    root_w = np.sqrt(rule.arc_weights)
    half_nu = (0.5 * root_w) * (rule.normals[:, 0] + 1j * rule.normals[:, 1])
    trace = (1j * problem.k * root_w) * rows[1:-1]
    shifted = np.conj(half_nu) * rows[2:]
    shifted *= a[:, None]
    trace += shifted
    np.multiply(half_nu, rows[:-2], out=shifted)
    shifted *= b[:, None]
    trace += shifted
    return trace.T


def interior_norms_sq(k: float, rule: QuadratureRule,
                      samples: tuple) -> tuple[float, float]:
    """||w||^2 and ||grad w||^2 over the domain of a solution of
    Delta w + k^2 w = 0, from its (values (P,), gradients (P, 2)) at
    rule.points, by two boundary integrals on the rule.

    Rellich's identity in two dimensions (the divergence of
    2 Re((x.grad conj w) grad w) - x |grad w|^2 + k^2 x |w|^2 is
    2 k^2 |w|^2) gives
        ||w||^2 = (1/2k^2) int [2 Re((x.grad conj w) d_nu w)
                                - (x.nu) |grad w|^2 + k^2 (x.nu) |w|^2] ds,
    and Green's first identity
        ||grad w||^2 = k^2 ||w||^2 + Re int conj(w) d_nu w ds.
    """
    values, gradients = samples
    x, nu = rule.points, rule.normals
    x_nu = np.sum(x * nu, axis=1)
    d_nu = np.sum(nu * gradients, axis=1)
    x_grad = np.sum(x * gradients, axis=1)
    flux = (2.0 * np.real(np.conj(x_grad) * d_nu)
            - x_nu * np.sum(np.abs(gradients) ** 2, axis=1)
            + k * k * x_nu * np.abs(values) ** 2)
    l2_sq = float(np.sum(rule.arc_weights * flux)) / (2.0 * k * k)
    h1_sq = k * k * l2_sq + float(np.sum(
        rule.arc_weights * np.real(np.conj(values) * d_nu)))
    return l2_sq, h1_sq


def central_difference(f, x: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Componentwise central difference quotient of a scalar field."""
    x = np.asarray(x, dtype=float)
    out = []
    for axis in range(x.size):
        e = np.zeros_like(x)
        e[axis] = step
        out.append((f(x + e) - f(x - e)) / (2.0 * step))
    return np.array(out)


def trig_eval(cos_c: np.ndarray, sin_c: np.ndarray, t: np.ndarray,
              derivative: bool) -> np.ndarray:
    """One Fourier series or its derivative at t, from a cos and a sin
    table of its own: the per-series form whose bits the library's shared
    table must give."""
    mc = np.arange(cos_c.size)
    ms = np.arange(sin_c.size)
    tc = np.multiply.outer(t, mc)                 # (..., len(cos_c))
    ts = np.multiply.outer(t, ms)
    if derivative:
        return (-np.sin(tc) @ (mc * cos_c)) + (np.cos(ts) @ (ms * sin_c))
    return (np.cos(tc) @ cos_c) + (np.sin(ts) @ sin_c)


def reference_curve(curve: BoundaryCurve, t, derivative: bool) -> np.ndarray:
    """x(t) or x'(t), shape (..., 2), series by series by trig_eval."""
    t_arr = np.asarray(t, dtype=float)
    return np.stack([trig_eval(curve.x1_cos, curve.x1_sin, t_arr, derivative),
                     trig_eval(curve.x2_cos, curve.x2_sin, t_arr, derivative)],
                    axis=-1)


def outward_normal(curve: BoundaryCurve, t) -> np.ndarray:
    """Outward unit normal nu(t) = (x2'(t), -x1'(t)) / |x'(t)|."""
    d = curve_derivative(curve, t)
    speed = np.hypot(d[..., 0], d[..., 1])
    return np.stack([d[..., 1] / speed, -d[..., 0] / speed], axis=-1)


def rule_length(rule: QuadratureRule) -> float:
    """Length of the boundary by the rule: the sum of its arc weights."""
    return float(np.sum(rule.arc_weights))


# The polygon of the library's interior mask, and points per block of the
# point-by-edge tests below (a few (256, edges) float arrays at a time).
_INTERIOR_EDGES = 2048
_CHUNK = 256


def _polygon(curve: BoundaryCurve, resolution: int) -> np.ndarray:
    """Vertices x(2 pi j / resolution), shape (resolution, 2)."""
    return curve_point(curve, np.linspace(0.0, 2.0 * np.pi, resolution,
                                          endpoint=False))


def is_interior(curve: BoundaryCurve, points):
    """Whether points lie inside the curve: the even-odd count of the
    crossings right of each point, against every edge of the 2048-gon.
    A point gives a bool, an (n, 2) array an (n,) bool array."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    poly = _polygon(curve, _INTERIOR_EDGES)
    x1, y1 = poly[:, 0], poly[:, 1]
    x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
    dy = y2 - y1
    dy_safe = np.where(dy == 0.0, 1.0, dy)   # a horizontal edge never straddles
    inside = np.empty(pts.shape[0], dtype=bool)
    for start in range(0, pts.shape[0], _CHUNK):
        px = pts[start:start + _CHUNK, :1]                  # (C, 1)
        py = pts[start:start + _CHUNK, 1:]
        straddle = (y1 <= py) != (y2 <= py)                 # (C, E)
        x_cross = x1 + (py - y1) * (x2 - x1) / dy_safe
        crossings = np.sum(straddle & (px < x_cross), axis=1)
        inside[start:start + _CHUNK] = crossings % 2 == 1
    return bool(inside[0]) if np.ndim(points) == 1 else inside


def boundary_distance(curve: BoundaryCurve, points: np.ndarray,
                      resolution: int) -> np.ndarray:
    """Distance from each point to the polygon of ``resolution`` edges,
    measured against every edge, by the formula the library's
    grid_near_boundary uses term by term, so the two agree bit for bit
    wherever the latter measures the nearest edge."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    poly = _polygon(curve, resolution)
    ax, ay = poly[:, 0], poly[:, 1]
    abx, aby = np.roll(ax, -1) - ax, np.roll(ay, -1) - ay
    ab_len2 = np.maximum(abx * abx + aby * aby, 1e-300)
    out = np.empty(pts.shape[0])
    for start in range(0, pts.shape[0], _CHUNK):
        block = slice(start, start + _CHUNK)
        px = pts[block, :1]                                 # (C, 1)
        py = pts[block, 1:]
        # s = clip((ap . ab) / |ab|^2, 0, 1), the closest point's parameter
        s = (px - ax) * abx
        s += (py - ay) * aby
        s /= ab_len2
        np.clip(s, 0.0, 1.0, out=s)
        dx = px - (ax + s * abx)                            # (C, E)
        dy = py - (ay + s * aby)
        dx *= dx
        dy *= dy
        dx += dy
        # sqrt is monotone, so the sqrt of the min is the min distance
        out[block] = np.sqrt(dx.min(axis=1))
    return out
