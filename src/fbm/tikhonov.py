"""SVD of the trace operator, Tikhonov solves, and parameter selection.

The regularized coefficients solve alpha*c + A^H A c = A^H f and are
computed spectrally:

    c = sum_j  mu_j / (alpha + mu_j^2) * <f, phi_j> * d_j

with the weighted discrete inner product, so the discrete singular
system approximates the continuous one of the trace map. The system is
kept factored: A = Q R by Householder QR, with Q in the compact WY form
I - Y T Y^H of its reflectors (Schreiber & Van Loan 1989), and
R = U_r diag(mu) V^H. A solve reads <f, phi_j> = (U^H f)_j through the
reflectors, one (K, M_q) product per data vector, and the (M_q, K) left
vectors U = Q[:, :K] U_r are formed only on request.

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
from .assembly import assemble_operator, make_problem
from .geometry import (BoundaryCurve, DomainRadii, build_quadrature,
                       default_node_count)
from .special import N_MAX

logger = logging.getLogger(__name__)

_DELTA_FLOOR = 1e-16
_RANK_TOL = 1e-13
# Krylov blocks per Rayleigh-Ritz space of the decay study: on the kite and
# an ellipse, k = 0.5..20, 3 ran 2.7-4.0x faster than one SVD per order;
# 2 took the full eigensystem at up to 53 of 77 orders; 4 cost 30 % more.
_KRYLOV_DEPTH = 3
# The decay study fits its slope over the orders whose mu_min exceeds this
# many eps times the operator's largest column norm c_max; below, mu_min is
# rounding (on the kite at k = 1 the floor sits near 0.7 eps c_max).
_FLOOR_FACTOR = 100.0


@dataclass(frozen=True)
class SingularSystem:
    """Thin SVD A = U diag(mu) V^H of the discrete trace operator, the
    triplets (mu_j, d_j, phi_j), with U kept factored.

    A = Q R by Householder QR, Q = H_1 ... H_K = I - Y T Y^H: column j of
    the (M_q, K) unit lower trapezoidal Y is the reflector v_j of
    H_j = I - tau_j v_j v_j^H, and T is upper triangular (LAPACK zlarft,
    forward and columnwise). With R = U_r diag(mu) V^H, the SVD of the
    K x K triangular factor, U = Q[:, :K] U_r has U^H = [B, -C Y_2^H],
    where Y_1 = Y[:K], Y_2 = Y[K:], C = U_r^H Y_1 T^H and
    B = U_r^H - C Y_1^H = U[:K]^H.
    """

    singular_values: np.ndarray      # (K,) descending positive
    right_vectors: np.ndarray        # (2N+1, K), columns d_j
    head: np.ndarray                 # (K, K) B, in the QR's own array
    reflectors: np.ndarray           # (K, M_q - K) Y_2^H, the rest of it
    coupling: np.ndarray             # (K, K) C

    def project(self, data: np.ndarray) -> np.ndarray:
        """U^H data, the (K,) inner products <data, phi_j>, read through
        the reflectors one data vector at a time, so its bits are its own."""
        k = self.head.shape[0]
        return self.head @ data[:k] - self.coupling @ (self.reflectors @ data[k:])

    @property
    def left_vectors(self) -> np.ndarray:
        """U (M_q, K), columns phi_j, formed anew on each request; a solve
        never reads it."""
        return np.vstack([self.head.conj().T,
                          -(self.coupling @ self.reflectors).conj().T])

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
    """Thin SVD of the weighted collocation matrix, factored as
    SingularSystem keeps it: one Householder QR, the SVD of its triangular
    factor, and the WY factor T of its reflectors, from their Gram matrix
    Y^H Y by zlarft's column recurrence; B takes the place of Y_1^H in the
    QR's array."""
    if matrix.shape[0] < matrix.shape[1]:
        raise ValidationError("system_not_tall",
                              f"matrix shape {matrix.shape} is not tall")
    k = matrix.shape[1]
    try:
        # h is LAPACK's geqrf output transposed, (K, M_q): R^T in the lower
        # triangle of its first K columns, and reflector j past the
        # diagonal of row j
        h, tau = np.linalg.qr(matrix, mode="raw")
        head = h[:, :k]
        u_r, s, vh = np.linalg.svd(np.triu(head.T), full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("svd_failed", str(exc)) from exc
    # h becomes Y^H in place, and head Y_1^H: row j is v_j^H, 1 at column j
    # and 0 before it
    head[np.tril_indices(k, -1)] = 0.0
    np.fill_diagonal(head, 1.0)
    np.conjugate(h, out=h)
    # T column by column: T[:j, j] = -tau_j T[:j, :j] (Y^H Y)[:j, j]
    gram = h @ h.conj().T
    t = np.diag(tau)
    for j in range(1, k):
        t[:j, j] = -tau[j] * (t[:j, :j] @ gram[:j, j])
    rotation = u_r.conj().T
    coupling = rotation @ (t @ head).conj().T           # U_r^H Y_1 T^H
    head[...] = rotation - coupling @ head              # B over Y_1^H
    return SingularSystem(singular_values=s, right_vectors=vh.conj().T,
                          head=head, reflectors=h[:, k:], coupling=coupling)


def tikhonov_solve(system: SingularSystem, rhs: np.ndarray,
                   alpha: float) -> CoefficientVector:
    """Spectral Tikhonov solve for the weighted data; alpha = 0 falls back
    to plain least squares."""
    if alpha < 0.0:
        raise ValidationError("bad_alpha", f"alpha must be >= 0, got {alpha}")
    s = system.singular_values
    if alpha == 0.0 and system.mu_min <= _RANK_TOL * system.mu_max:
        raise NumericalError(
            "rank_deficient",
            f"mu_min={system.mu_min:.3e} too small for an unregularized solve")
    projections = system.project(rhs)
    filt = s / (alpha + s * s)
    return CoefficientVector(coeffs=system.right_vectors @ (filt * projections))


def select_parameters(k: float, delta: float, eta: float, radii: DomainRadii,
                      tau0: float) -> RegularizationPlan:
    """Pick N and alpha from (k, delta) by the two-branch selection rule.
    An order the basis cannot resolve, N >= N_MAX, is a ValidationError
    order_cap_reached; on a disc-like domain (tau_min = 1) every k > 1
    selects one. An alpha below the float range is 0.0 on either branch."""
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

    # ceil(n_real) >= N_MAX exactly where n_real > N_MAX - 1
    if n_real > N_MAX - 1:
        raise ValidationError(
            "order_cap_reached",
            f"k={k}, delta={delta} selects N >= N_MAX={N_MAX}, "
            "beyond what the basis can resolve")
    n_sel = 0 if n_real <= 0.0 else math.ceil(n_real)
    if n_real <= 0.0:
        logger.warning("selection formula gave N=%.3g <= 0; using N=0", n_real)

    if branch == "small_k":
        alpha = k * k * delta_eff * tau0 ** (-2 * n_sel)
    else:
        try:
            alpha = delta_eff / (k * tau0 ** (2 * n_sel))
        except OverflowError:
            # tau0^(2N) beyond the float range: alpha is 0.0, as where the
            # small-k branch's tau0^(-2N) underflows
            alpha = 0.0
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
    """Smallest singular value as a function of truncation order.

    ``slope`` is the least-squares slope of ln(mu_min) against N over the
    orders whose mu_min lies above the rounding floor, 100 eps c_max with
    c_max the operator's largest column norm, and None where fewer than
    two orders do.
    """

    orders: np.ndarray               # (L,) ints, ascending
    mu_min: np.ndarray               # (L,) positive
    slope: float | None              # d ln(mu_min) / dN above the floor
    node_count: int                  # size of the one quadrature rule used

    def bound_products(self, tau0: float) -> np.ndarray:
        """mu_min(N) * tau0^N, which should stay above a positive constant."""
        return self.mu_min * tau0 ** self.orders.astype(float)


def _leading_block_mu_min(r: np.ndarray, sizes) -> np.ndarray:
    """Smallest singular value of each leading block r[:s, :s] of the upper
    triangular r, for ascending sizes s.

    X = r^-1 is upper triangular, so G = X^H X has G_s = G[:s, :s] =
    r_s^-H r_s^-1, and the value is 1 / sqrt(lambda_max(G_s)). Each block
    takes Rayleigh-Ritz on the Krylov space [B, G_s B, G_s^2 B], B the
    previous block's top two Ritz vectors, zero-padded, and the unit
    vectors of the new columns: the value cannot rise with s, and a
    minimum inherited from an early column is kept. The full eigensystem
    serves where the space would fill the block, or where the top Ritz
    pair's relative residual rho leaves the error estimate rho^2 above
    eps * kappa(r_s), the rounding of an SVD of r_s. Eigensystems are SVDs
    of the positive definite matrices: eigh would map LAPACK code that no
    other stage runs (0.25 MB more resident memory).
    """
    try:
        # inv is LU against the identity, which does not pivot a triangular
        # r: back substitution. G overflows where mu_min < ~1e-154.
        with np.errstate(over="ignore", invalid="ignore"):
            x = np.linalg.inv(r)
            g = x.conj().T @ x
        if not np.all(np.isfinite(g)):
            raise NumericalError("svd_failed", "the inverse of R overflows")
        # eps times a lower bound of ||r_s||, the largest column norm
        tol = np.finfo(float).eps * np.maximum.accumulate(
            np.linalg.norm(r, axis=0))
        lam = np.empty(len(sizes))
        ritz = np.zeros((0, 0), dtype=g.dtype)
        for i, s in enumerate(sizes):
            g_s, prev, kept = g[:s, :s], ritz.shape[0], ritz.shape[1]
            width = kept + s - prev                 # columns of B
            converged = False
            if _KRYLOV_DEPTH * width < s:
                blocks = [np.eye(s, width, kept - prev, dtype=g.dtype)]
                blocks[0][:prev, :kept] = ritz
                for _ in range(_KRYLOV_DEPTH - 1):
                    blocks.append(g_s @ blocks[-1])
                q = np.linalg.qr(np.hstack(blocks))[0]
                g_q = g_s @ q
                y, w, _ = np.linalg.svd(q.conj().T @ g_q)
                v = q @ y[:, :2]
                rho = np.linalg.norm(g_q @ y[:, 0] - w[0] * v[:, 0]) / w[0]
                converged = rho * rho <= tol[s - 1] * np.sqrt(w[0])
            if not converged:
                v, w, _ = np.linalg.svd(g_s)
            lam[i] = w[0]
            ritz = v[:, :2]
    except np.linalg.LinAlgError as exc:
        raise NumericalError("svd_failed", str(exc)) from exc
    return 1.0 / np.sqrt(lam)


def svd_decay_study(curve: BoundaryCurve, radii: DomainRadii, k: float,
                    tau0: float, n_list, node_count: int | None = None) -> DecayStudy:
    """mu_min for each N of n_list, and the slope of ln(mu_min) against N
    fitted over the orders whose mu_min exceeds the rounding floor
    _FLOOR_FACTOR * eps * c_max, c_max the operator's largest column norm
    (None where fewer than two do). One rule (node_count nodes, else
    default_node_count of the largest order) and one operator at the
    largest order serve every order: its columns are permuted to n = 0, 1,
    -1, 2, -2, ..., so the leading (2N+1) x (2N+1) block of the R of one
    Householder QR has the singular values of the order-N operator.
    mu_min(N), the smallest of them, comes from one triangular inverse of
    R by warm-started block Krylov (_leading_block_mu_min) and cannot rise
    with N; a singular R raises NumericalError("svd_failed")."""
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
    mus = _leading_block_mu_min(r, 2 * orders + 1)
    # R's column norms are the operator's
    floor = _FLOOR_FACTOR * np.finfo(float).eps * np.linalg.norm(r, axis=0).max()
    fitted = mus > floor
    slope = (float(np.polyfit(orders[fitted].astype(float),
                              np.log(mus[fitted]), 1)[0])
             if np.count_nonzero(fitted) >= 2 else None)
    return DecayStudy(orders=orders, mu_min=mus, slope=slope, node_count=rule.size)
