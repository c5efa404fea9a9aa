"""SVD of the trace operator, Tikhonov solves, and parameter selection.

The regularized coefficients solve alpha*c + A^H A c = A^H f and are
computed spectrally:

    c = sum_j  mu_j / (alpha + mu_j^2) * <f, phi_j> * d_j

with the weighted discrete inner product, so the discrete singular
system approximates the continuous one of the trace map.

Truncation order and regularization weight follow the two-branch rule
(eta > 1, delta_eff = max(delta, 1e-16)):

    k <= 1 : N = ceil(eta * ln|ln delta_eff|),
             alpha = k^2 * delta_eff * tau0^(-2N)
    k > 1  : N = ceil(11 ln k / (2 ln tau_min) + eta * ln|ln delta_eff|),
             alpha = delta_eff / (k * tau0^(2N))
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .assembly import BoundaryData, assemble_operator, make_problem
from .geometry import (BoundaryCurve, DomainRadii, build_quadrature,
                       default_node_count)
from .special import N_MAX

logger = logging.getLogger(__name__)

_DELTA_FLOOR = 1e-16
_RANK_TOL = 1e-13


@dataclass(frozen=True)
class SingularSystem:
    """Thin SVD (mu_j, d_j, phi_j) of the discrete trace operator."""

    singular_values: np.ndarray      # (K,) descending positive
    left_vectors: np.ndarray         # (M_q, K), columns phi_j
    right_vectors: np.ndarray        # (2N+1, K), columns d_j

    @property
    def mu_min(self) -> float:
        return float(self.singular_values[-1])

    @property
    def mu_max(self) -> float:
        return float(self.singular_values[0])


@dataclass(frozen=True)
class CoefficientVector:
    """Expansion coefficients c_n indexed n = -N..N."""

    coeffs: np.ndarray               # (2N+1,) complex

    def __post_init__(self):
        if len(self.coeffs) % 2 != 1:
            raise ValueError("coefficient vector must have odd length 2N+1")
        if not np.all(np.isfinite(self.coeffs)):
            raise NumericalError("nonfinite_coefficients",
                                 "coefficient vector contains non-finite entries")

    @property
    def order(self) -> int:
        return (len(self.coeffs) - 1) // 2


@dataclass(frozen=True)
class RegularizationPlan:
    """Selected truncation order and regularization weight for one case."""

    delta: float
    delta_eff: float
    eta: float
    tau0: float
    tau_min: float
    branch: str                      # "small_k" or "large_k"
    N: int
    alpha: float


def svd(matrix: np.ndarray) -> SingularSystem:
    """Thin SVD of the weighted collocation matrix."""
    if matrix.shape[0] < matrix.shape[1]:
        raise ValidationError("system_not_tall",
                              f"matrix shape {matrix.shape} is not tall")
    try:
        u, s, vh = np.linalg.svd(matrix, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("svd_failed", str(exc)) from exc
    return SingularSystem(singular_values=s, left_vectors=u,
                          right_vectors=vh.conj().T)


def tikhonov_solve(system: SingularSystem, rhs: BoundaryData,
                   alpha: float) -> CoefficientVector:
    """Spectral Tikhonov solve; alpha = 0 falls back to plain least squares."""
    if alpha < 0.0:
        raise ValidationError("bad_alpha", f"alpha must be >= 0, got {alpha}")
    s = system.singular_values
    if alpha == 0.0 and system.mu_min <= _RANK_TOL * system.mu_max:
        raise NumericalError(
            "rank_deficient",
            f"mu_min={system.mu_min:.3e} too small for an unregularized solve")
    projections = system.left_vectors.conj().T @ rhs.weighted     # (K,)
    filt = s / (alpha + s * s)
    return CoefficientVector(coeffs=system.right_vectors @ (filt * projections))


def select_parameters(k: float, delta: float, eta: float, radii: DomainRadii,
                      tau0: float) -> RegularizationPlan:
    """Pick N and alpha from (k, delta) by the two-branch selection rule."""
    if not 0.0 <= delta < 1.0:
        raise ValidationError("delta_out_of_range",
                              f"delta must lie in [0, 1), got {delta}")
    if eta <= 1.0:
        raise ValidationError("eta_too_small", f"eta must exceed 1, got {eta}")
    if k <= 0.0:
        raise ValidationError("bad_wavenumber", f"k must be positive, got {k}")
    tau_min = radii.tau_min
    if tau0 <= tau_min:
        raise ValidationError("tau0_too_small",
                              f"tau0={tau0} must exceed tau_min={tau_min:.6g}")

    delta_eff = max(delta, _DELTA_FLOOR)
    loglog = math.log(abs(math.log(delta_eff)))
    if k <= 1.0:
        branch = "small_k"
        n_real = eta * loglog
    else:
        branch = "large_k"
        log_tau_min = math.log(tau_min)
        if log_tau_min <= 0.0:
            n_real = math.inf          # disc-like domain: tau_min = 1
        else:
            n_real = 11.0 * math.log(k) / (2.0 * log_tau_min) + eta * loglog

    n_sel = 0 if n_real <= 0.0 else (N_MAX if n_real > N_MAX else math.ceil(n_real))
    if n_real > N_MAX:
        logger.warning("selected order %.3g capped at N_MAX=%d", n_real, N_MAX)
    if n_real <= 0.0:
        logger.warning("selection formula gave N=%.3g <= 0; using N=0", n_real)

    if branch == "small_k":
        alpha = k * k * delta_eff * tau0 ** (-2 * n_sel)
    else:
        alpha = delta_eff / (k * tau0 ** (2 * n_sel))
    return RegularizationPlan(delta=delta, delta_eff=delta_eff, eta=eta,
                              tau0=tau0, tau_min=tau_min, branch=branch,
                              N=n_sel, alpha=alpha)


def mu_min_bound(k: float, r_in: float, r_ex: float, N: int,
                 c: float) -> float:
    """Theoretical lower-bound shape c*min(1,k)/(1+sqrt(k))*(r_in/r_ex)^N.

    The multiplicative constant is not known a priori; diagnostics fit it
    and test only the decay rate.
    """
    if not r_in < r_ex:
        raise ValidationError("bad_radii", f"need r_in < r_ex, got ({r_in}, {r_ex})")
    return c * min(1.0, k) / (1.0 + math.sqrt(k)) * (r_in / r_ex) ** N


@dataclass(frozen=True)
class DecayStudy:
    """Smallest singular value as a function of truncation order."""

    orders: np.ndarray               # (L,) ints, ascending
    mu_min: np.ndarray               # (L,) positive
    slope: float | None              # least-squares slope of ln(mu_min) vs N
    node_count: int                  # size of the one quadrature rule used

    def bound_products(self, tau0: float) -> np.ndarray:
        """mu_min(N) * tau0^N, which should stay above a positive constant."""
        return self.mu_min * tau0 ** self.orders.astype(float)


def svd_decay_study(curve: BoundaryCurve, radii: DomainRadii, k: float,
                    tau0: float, n_list, node_count: int | None = None) -> DecayStudy:
    """mu_min for each N of n_list, and the slope of ln(mu_min) against N
    fitted over them (None for one order). One rule (node_count nodes, else
    default_node_count of the largest order) and one operator at the
    largest order serve every order: its columns are permuted to n = 0, 1,
    -1, 2, -2, ..., so the leading (2N+1) x (2N+1) block of the R of one
    Householder QR has the singular values of the order-N operator.
    mu_min(N) is the smallest of them, computed without vectors, and cannot
    increase with N (Cauchy interlacing)."""
    orders = np.asarray(list(n_list), dtype=int)
    if orders.size == 0:
        raise ValidationError("empty_order_list", "need at least one order N")
    if np.any(np.diff(orders) <= 0):
        raise ValidationError("orders_not_ascending",
                              "order list must be strictly ascending")
    if orders[0] < 0:
        raise ValidationError("bad_truncation", f"N={orders[0]} is negative")
    top = int(orders[-1])
    rule = build_quadrature(curve, node_count or default_node_count(top))
    problem = make_problem(radii, k, tau0, top)
    n = np.arange(-top, top + 1)
    nested = np.argsort(2 * np.abs(n) - (n > 0))    # n = 0, 1, -1, 2, -2, ...
    r = np.linalg.qr(assemble_operator(problem, rule)[:, nested], mode="r")
    mus = np.array([np.linalg.svd(r[:2 * m + 1, :2 * m + 1], compute_uv=False)[-1]
                    for m in orders])
    slope = (float(np.polyfit(orders.astype(float), np.log(mus), 1)[0])
             if orders.size >= 2 else None)
    return DecayStudy(orders=orders, mu_min=mus, slope=slope, node_count=rule.size)
