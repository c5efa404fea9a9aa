"""Field evaluation and the interior/boundary relative error norms.

Interior norms are cell-area-weighted sums over a uniform grid masked to
the domain; points closer to the boundary than one cell diagonal are
dropped (the exclusion fraction is logged). Only the points in a band
around the boundary are measured for that; the rest are kept unmeasured.
Boundary norms reuse the quadrature rule of the solve. Every relative
error divides by the same norm of the exact solution.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .assembly import WaveProblem
from .errors import NumericalError, ValidationError
from .geometry import (BoundaryCurve, DomainRadii, QuadratureRule,
                       boundary_distance, grid_interior_mask,
                       grid_near_boundary)
from .special import BasisContext, basis_values, ladder_constants
from .tikhonov import CoefficientVector

logger = logging.getLogger(__name__)

# edges of the polygon that measures the grid's clearance from the boundary
_DISTANCE_EDGES = 256


@dataclass(frozen=True)
class InteriorGrid:
    """Uniform grid points strictly inside the domain."""

    points: np.ndarray               # (P, 2)
    cell_area: float
    resolution: int
    excluded_fraction: float         # near-boundary cells dropped


@dataclass(frozen=True)
class PlaneWave:
    """Exact solution u(x) = exp(i k x.d) with its gradient."""

    k: float
    direction: np.ndarray

    def value(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(points)
        return np.exp(1j * self.k * (pts @ np.asarray(self.direction)))

    def gradient(self, points: np.ndarray) -> np.ndarray:
        d = np.asarray(self.direction)
        u = self.value(points)
        return 1j * self.k * u[:, None] * d[None, :]


@dataclass(frozen=True)
class ErrorReport:
    """The four relative error norms plus run metadata."""

    rel_l2_interior: float
    rel_h1semi_interior: float
    rel_l2_boundary: float
    rel_l2_normal_derivative: float
    metadata: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "rel_l2_interior": self.rel_l2_interior,
            "rel_h1semi_interior": self.rel_h1semi_interior,
            "rel_l2_boundary": self.rel_l2_boundary,
            "rel_l2_normal_derivative": self.rel_l2_normal_derivative,
            "metadata": self.metadata,
        }


def build_interior_grid(curve: BoundaryCurve, radii: DomainRadii,
                        resolution: int = 200) -> InteriorGrid:
    """Tensor grid over [-r_ex_min, r_ex_min]^2 masked to the interior.

    Points closer than one cell diagonal to a 256-edge polygon of the
    boundary are dropped. A broad phase marks the cells within the
    clearance plus one grid step of some edge's bounding box; only the
    interior points among them are measured with boundary_distance, and
    the others are kept. The points, their row-major order and
    ``excluded_fraction`` are those of measuring every interior point.
    """
    if resolution < 32:
        raise ValidationError("grid_too_coarse",
                              f"grid resolution must be >= 32, got {resolution}")
    half = radii.r_ex_min
    step = 2.0 * half / resolution
    centers = -half + step * (np.arange(resolution) + 0.5)
    inside = grid_interior_mask(curve, centers, centers)
    xx, yy = np.meshgrid(centers, centers)
    interior_pts = np.column_stack([xx[inside], yy[inside]])
    clearance = step * np.sqrt(2.0)                      # one cell diagonal
    # only points in the broad-phase band can lie within the clearance;
    # a step of slack keeps rounding from deciding any case
    near = grid_near_boundary(curve, centers, centers, clearance + step,
                              resolution=_DISTANCE_EDGES)[inside]
    keep = np.ones(interior_pts.shape[0], dtype=bool)
    keep[near] = boundary_distance(curve, interior_pts[near],
                                   resolution=_DISTANCE_EDGES) >= clearance
    excluded = 1.0 - keep.sum() / max(1, interior_pts.shape[0])
    logger.debug("interior grid: %d points, %.2f%% near-boundary cells dropped",
                 int(keep.sum()), 100.0 * excluded)
    kept = interior_pts[keep]
    if kept.shape[0] == 0:
        raise NumericalError("empty_interior_grid",
                             "no interior grid points survived masking")
    return InteriorGrid(points=kept, cell_area=step * step,
                        resolution=resolution, excluded_fraction=float(excluded))


def evaluate_field(problem: WaveProblem, c: CoefficientVector, points):
    """u_N at one point or an array of points (valid anywhere in the plane)."""
    out = basis_values(problem.basis, c.order, points) @ c.coeffs
    if np.ndim(points) == 1:
        return complex(out[0])
    return out


def evaluate_gradient(problem: WaveProblem, c: CoefficientVector, points):
    """Cartesian gradient of u_N; complex shape (2,) or (P, 2)."""
    values = basis_values(problem.basis, c.order + 1, points)
    _, out = _field_and_gradient(problem.basis, values, c)
    if np.ndim(points) == 1:
        return out[0]
    return out


def _relative(num: float, den: float, what: str) -> float:
    if den < 1e-14:
        raise NumericalError("degenerate_exact_norm",
                             f"exact-solution norm for {what} is below 1e-14")
    return float(num / den)


def _field_and_gradient(basis: BasisContext, values: np.ndarray,
                        c: CoefficientVector):
    """u_N, shape (P,), and its gradient, shape (P, 2), by one product of
    the basis values of order N + 1 with the coefficients of u_N and of
    its x and y derivatives on phi_{-N-1}..phi_{N+1} (the ladder images)."""
    a, b = ladder_constants(basis, c.order)
    d_plus = np.pad(a * c.coeffs, (2, 0))        # D+ u_N on phi_{n+1}
    d_minus = np.pad(b * c.coeffs, (0, 2))       # D- u_N on phi_{n-1}
    coeffs = np.stack([np.pad(c.coeffs, 1), 0.5 * (d_plus + d_minus),
                       -0.5j * (d_plus - d_minus)], axis=1)
    out = values @ coeffs
    return out[:, 0], out[:, 1:]


def error_report(problem: WaveProblem, c: CoefficientVector, exact,
                 grid: InteriorGrid, rule: QuadratureRule,
                 metadata: dict | None = None) -> ErrorReport:
    """Relative L2/H1-seminorm interior errors and L2 boundary errors.

    ``exact`` must provide vectorized value(points) and gradient(points).
    """
    return error_norms(problem.basis, c, grid, rule,
                       basis_values(problem.basis, c.order + 1, grid.points),
                       basis_values(problem.basis, c.order + 1, rule.points),
                       (exact.value(grid.points), exact.gradient(grid.points)),
                       (exact.value(rule.points), exact.gradient(rule.points)),
                       metadata)


def error_norms(basis: BasisContext, c: CoefficientVector, grid: InteriorGrid,
                rule: QuadratureRule, grid_values: np.ndarray,
                boundary_values: np.ndarray, grid_exact: tuple,
                boundary_exact: tuple, metadata: dict | None = None) -> ErrorReport:
    """The report of error_report from bases and exact samples in hand.

    ``grid_values`` and ``boundary_values`` are the basis values of order
    N + 1 (N the order of ``c``) at grid.points and rule.points;
    ``grid_exact`` and ``boundary_exact`` are the exact solution's
    (values, gradients) there. None of them depends on the data, so
    every solve on one problem can share them.
    """
    u_num, g_num = _field_and_gradient(basis, grid_values, c)
    u_ex, g_ex = grid_exact

    root_area = np.sqrt(grid.cell_area)
    l2_num = root_area * np.linalg.norm(u_num - u_ex)
    l2_den = root_area * np.linalg.norm(u_ex)
    h1_num = root_area * np.linalg.norm(g_num - g_ex)
    h1_den = root_area * np.linalg.norm(g_ex)

    ub_num, gb_num = _field_and_gradient(basis, boundary_values, c)
    ub_ex, gb_ex = boundary_exact
    dn_num = np.sum(rule.normals * gb_num, axis=1)
    dn_ex = np.sum(rule.normals * gb_ex, axis=1)

    report = ErrorReport(
        rel_l2_interior=_relative(l2_num, l2_den, "interior L2"),
        rel_h1semi_interior=_relative(h1_num, h1_den, "interior H1 seminorm"),
        rel_l2_boundary=_relative(rule.boundary_norm(ub_num - ub_ex),
                                  rule.boundary_norm(ub_ex), "boundary L2"),
        rel_l2_normal_derivative=_relative(
            rule.boundary_norm(dn_num - dn_ex),
            rule.boundary_norm(dn_ex), "normal derivative"),
        metadata=dict(metadata or {}),
    )
    return report
