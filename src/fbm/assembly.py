"""Discrete impedance trace operator, the plane wave and its boundary data.

The collocation matrix realizes c |-> i k u_N + du_N/dnu sampled at the
quadrature nodes, with each row scaled by sqrt(w_j |x'(t_j)|) so plain
Euclidean norms of columns and residuals coincide with discrete
L2(Gamma) norms. Columns are ordered n = -N..N (monotone); the ordering
is recorded in run metadata.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .geometry import DomainRadii, QuadratureRule
from .special import N_MAX, BasisContext, ladder_constants, nested_values

logger = logging.getLogger(__name__)

_M_OVERRIDE_MARGIN = 1e-6


@dataclass(frozen=True)
class WaveProblem:
    """Wavenumber, truncation order and basis scaling for one solve.

    make_problem derives them from the domain radii and tau0, neither of
    which is kept: r_in = min(r_in_max, 1/k) and r_ex = tau0 * r_in. The
    basis scaling radius M equals r_ex, except that when
    tau0 * r_in <= r_ex_min the scaling must still cover the domain, so M
    is raised to (1 + 1e-6) * r_ex_min and ``m_overridden`` is set.
    """

    k: float
    N: int
    r_in: float
    r_ex: float
    M: float
    m_overridden: bool

    @property
    def basis(self) -> BasisContext:
        return BasisContext(k=self.k, M=self.M)


def make_problem(radii: DomainRadii, k: float, tau0: float,
                 N: int) -> WaveProblem:
    """Build a WaveProblem, deriving the radii chain and basis scaling."""
    if k <= 0.0:
        raise ValidationError("bad_wavenumber", f"k must be positive, got {k}")
    if not 0 <= N <= N_MAX:
        raise ValidationError("bad_truncation",
                              f"N={N} outside [0, {N_MAX}]")
    if tau0 <= radii.tau_min:
        raise ValidationError(
            "tau0_too_small",
            f"tau0={tau0} must exceed tau_min={radii.tau_min:.6g}")
    # A plane wave on the circle of radius r carries angular orders up to
    # about k r (Jacobi-Anger), so no basis of order <= N_MAX resolves it
    # on the domain once k r_ex_min > N_MAX; this also bounds the Bessel
    # recurrence, whose length grows with k r.
    if k * radii.r_ex_min > N_MAX:
        raise ValidationError(
            "wavenumber_unresolvable",
            f"k*r_ex_min = {k * radii.r_ex_min:.6g} exceeds N_MAX={N_MAX}: "
            "no basis of admissible order resolves the wave")
    r_in = min(radii.r_in_max, 1.0 / k)
    r_ex = tau0 * r_in
    if r_ex > radii.r_ex_min:
        m_scale, overridden = r_ex, False
    else:
        m_scale = (1.0 + _M_OVERRIDE_MARGIN) * radii.r_ex_min
        overridden = True
        logger.info("raising basis scale M to %.6g (tau0*r_in=%.6g <= r_ex_min=%.6g)",
                    m_scale, r_ex, radii.r_ex_min)
    return WaveProblem(k=k, N=N, r_in=r_in, r_ex=r_ex, M=m_scale,
                       m_overridden=overridden)


@dataclass(frozen=True)
class PlaneWave:
    """Exact solution u(x) = exp(i k x.d) with its gradient; d must be a
    unit vector (to 1e-9)."""

    k: float
    direction: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.direction, dtype=float)
        length = float(np.hypot(d[0], d[1]))
        if abs(length - 1.0) > 1e-9:
            raise ValidationError("direction_not_unit",
                                  f"|direction| = {length!r}, need a unit vector")

    def value(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(points)
        return np.exp(1j * self.k * (pts @ np.asarray(self.direction)))

    def samples(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Values (P,) and gradients (P, 2) at points, the gradients formed
        from the values: one exponential per point."""
        u = self.value(points)
        return u, 1j * self.k * u[:, None] * np.asarray(self.direction)[None, :]


@dataclass(frozen=True)
class BoundaryData:
    """Boundary data f sampled at the nodes in its sqrt(w |x'|)-weighted
    form, the right-hand side of the least-squares system."""

    weighted: np.ndarray         # (M_q,) complex

    @property
    def norm(self) -> float:
        """Discrete L2(Gamma) norm of the data."""
        return float(np.linalg.norm(self.weighted))


def boundary_data_from_weighted(weighted: np.ndarray,
                                rule: QuadratureRule) -> BoundaryData:
    """The data of a vector already weighted by sqrt(w |x'|) at rule's
    nodes, kept as it is."""
    return BoundaryData(weighted=np.asarray(weighted, dtype=np.complex128))


def impedance_data(k: float, rule: QuadratureRule,
                   exact: tuple) -> BoundaryData:
    """The impedance trace f = du/dnu + i k u of an exact solution, weighted
    by sqrt(w |x'|), from its (values, gradients) at rule.points."""
    values, gradients = exact
    trace = np.sum(rule.normals * gradients, axis=1)
    trace += 1j * k * values
    trace *= np.sqrt(rule.arc_weights)
    return BoundaryData(weighted=trace)


def assemble_operator(problem: WaveProblem, rule: QuadratureRule) -> np.ndarray:
    """The weighted (M_q, 2N+1) collocation matrix of i k phi_n + dphi_n/dnu."""
    return trace_operator(problem, rule,
                          nested_values(problem.basis, problem.N + 1, rule.points))


def trace_operator(problem: WaveProblem, rule: QuadratureRule,
                   nested: np.ndarray) -> np.ndarray:
    """The operator of assemble_operator from nested_values' rows of order
    N + 1 at the nodes. By the ladder, column n is (E_n + A_n) + B_n with
    E_n = i k phi_n, A_n = conj(nu) a_n phi_{n+1} / 2 and
    B_n = nu b_n phi_{n-1} / 2 (nu = nu_x + i nu_y), all times sqrt(w).
    Only n = 0..N are formed, with phi_{-1} = -conj(phi_1): by
    phi_{-n} = (-1)^n conj(phi_n), a_{-n} = -b_n and b_{-n} = -a_n
    (ladder_constants), A_{-n} = (-1)^n conj(B_n) and
    B_{-n} = (-1)^n conj(A_n), so column -n is (-1)^n conj((B_n - E_n)
    + A_n), bitwise the sum (E_{-n} + A_{-n}) + B_{-n}."""
    N = problem.N
    cols = 2 * N + 1
    if cols > rule.size:
        raise ValidationError(
            "system_not_tall",
            f"need 2N+1={cols} <= node count {rule.size}")
    rows = nested.T                                 # (2N+3, M_q)
    phi = np.empty((N + 3, rows.shape[1]), dtype=np.complex128)
    phi[1] = rows[0]                                # phi[n + 1] = phi_n
    phi[2:].real = rows[1::2]
    phi[2:].imag = rows[2::2]
    np.negative(np.conj(phi[2]), out=phi[0])
    a, b = ladder_constants(problem.basis, N)
    root_w = np.sqrt(rule.arc_weights)
    half_nu = (0.5 * root_w) * (rule.normals[:, 0] + 1j * rule.normals[:, 1])
    up = np.conj(half_nu) * phi[2:]                 # A_n, n = 0..N
    up *= a[N:, None]
    down = half_nu * phi[:-2]                       # B_n
    down *= b[N:, None]
    trace = np.empty((cols, rows.shape[1]), dtype=np.complex128)
    upper = trace[N:]                               # orders 0..N
    np.multiply(1j * problem.k * root_w, phi[1:-1], out=upper)   # E_n
    # orders -1..-N; trace[N-1::-1] would wrap to the whole array at N = 0
    lower = trace[:N][::-1]
    np.subtract(down[1:], upper[1:], out=lower)
    lower += up[1:]
    np.conjugate(lower, out=lower)
    np.negative(lower[::2], out=lower[::2])         # odd n
    upper += up
    upper += down
    if not np.all(np.isfinite(trace)):
        raise NumericalError("nonfinite_operator",
                             "trace operator contains non-finite entries")
    return trace.T


def plane_wave_data(problem: WaveProblem, rule: QuadratureRule,
                    direction: np.ndarray) -> BoundaryData:
    """Exact impedance data of the plane wave u(x) = exp(i k x.d)."""
    wave = PlaneWave(problem.k, direction)
    return impedance_data(problem.k, rule, wave.samples(rule.points))


def add_noise(data: BoundaryData, delta: float, seed: int,
              rule: QuadratureRule) -> BoundaryData:
    """Perturb data with complex Gaussian noise of exact relative size delta.

    The perturbation is drawn i.i.d. at the nodes, weighted like the data
    and rescaled so its discrete L2(Gamma) norm equals delta times the
    norm of the data, making the noise level hold with equality.
    Deterministic per seed.
    """
    if delta < 0.0 or delta >= 1.0:
        raise ValidationError("delta_out_of_range",
                              f"delta must lie in [0, 1), got {delta}")
    if delta == 0.0:
        return data
    base = data.norm
    if base < 1e-300:
        raise NumericalError("degenerate_data",
                             "cannot scale noise relative to zero data")
    rng = np.random.default_rng(seed)
    draw = rng.standard_normal((rule.size, 2))
    pert = np.sqrt(rule.arc_weights) * (draw[:, 0] + 1j * draw[:, 1])
    pert *= delta * base / np.linalg.norm(pert)
    return BoundaryData(weighted=data.weighted + pert)
