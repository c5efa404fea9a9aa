"""Discrete impedance trace operator and boundary data vectors.

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
from .special import N_MAX, BasisContext, basis_values, ladder_constants

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
class BoundaryData:
    """Boundary samples f(x_j) plus their sqrt(w |x'|)-weighted form."""

    values: np.ndarray           # (M_q,) complex, unweighted samples
    weighted: np.ndarray         # (M_q,) complex, used in least squares

    @property
    def norm(self) -> float:
        """Discrete L2(Gamma) norm of the data."""
        return float(np.linalg.norm(self.weighted))


def boundary_data(values: np.ndarray, rule: QuadratureRule) -> BoundaryData:
    root_w = np.sqrt(rule.arc_weights)
    values = np.asarray(values, dtype=np.complex128)
    return BoundaryData(values=values, weighted=root_w * values)


def boundary_data_from_weighted(weighted: np.ndarray,
                                rule: QuadratureRule) -> BoundaryData:
    root_w = np.sqrt(rule.arc_weights)
    weighted = np.asarray(weighted, dtype=np.complex128)
    return BoundaryData(values=weighted / root_w, weighted=weighted)


def assemble_operator(problem: WaveProblem, rule: QuadratureRule) -> np.ndarray:
    """The weighted (M_q, 2N+1) collocation matrix of i k phi_n + dphi_n/dnu."""
    return trace_operator(problem, rule,
                          basis_values(problem.basis, problem.N + 1, rule.points))


def trace_operator(problem: WaveProblem, rule: QuadratureRule,
                   values: np.ndarray) -> np.ndarray:
    """The operator of assemble_operator from basis values of order N + 1
    at the nodes (basis_values output): by the ladder, column n is i k phi_n
    + (conj(nu) a_n phi_{n+1} + nu b_n phi_{n-1}) / 2, nu = nu_x + i nu_y."""
    cols = 2 * problem.N + 1
    if cols > rule.size:
        raise ValidationError(
            "system_not_tall",
            f"need 2N+1={cols} <= node count {rule.size}")
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
    if not np.all(np.isfinite(trace)):
        raise NumericalError("nonfinite_operator",
                             "trace operator contains non-finite entries")
    return trace.T


def plane_wave_data(problem: WaveProblem, rule: QuadratureRule,
                    direction: np.ndarray) -> BoundaryData:
    """Exact impedance data of the plane wave u(x) = exp(i k x.d).

    f(x_j) = i k (nu_j . d + 1) exp(i k x_j . d).
    """
    d = np.asarray(direction, dtype=float)
    if abs(np.hypot(d[0], d[1]) - 1.0) > 1e-9:
        raise ValidationError("direction_not_unit",
                              f"|direction| = {np.hypot(d[0], d[1])!r}, need a unit vector")
    phase = np.exp(1j * problem.k * (rule.points @ d))
    values = 1j * problem.k * (rule.normals @ d + 1.0) * phase
    return boundary_data(values, rule)


def add_noise(data: BoundaryData, delta: float, seed: int,
              rule: QuadratureRule) -> BoundaryData:
    """Perturb data with complex Gaussian noise of exact relative size delta.

    The perturbation is drawn i.i.d. at the nodes and rescaled so its
    discrete L2(Gamma) norm equals delta times the norm of the data,
    making the noise level hold with equality. Deterministic per seed.
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
    draw = rng.standard_normal((data.values.shape[0], 2))
    pert = draw[:, 0] + 1j * draw[:, 1]
    pert_data = boundary_data(pert, rule)
    scale = delta * base / pert_data.norm
    return boundary_data(data.values + scale * pert, rule)
