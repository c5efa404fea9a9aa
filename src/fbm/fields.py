"""Field evaluation and the interior/boundary relative error norms.

Interior norms are cell-area-weighted sums over a uniform grid masked to
the domain; points closer to the boundary than one cell diagonal are
dropped (the exclusion fraction is logged). Only the points in a band
around the boundary are measured for that; the rest are kept unmeasured.
Boundary norms reuse the quadrature rule of the solve. Every relative
error divides by the same norm of the exact solution.

error_norms reports on several coefficient vectors of one problem at
once, as on a sweep cell's seeds: their coefficient blocks form one row
block, multiplied by the basis values once per point set.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .assembly import WaveProblem
from .errors import NumericalError, ValidationError
from .geometry import (BoundaryCurve, DomainRadii, QuadratureRule,
                       boundary_distance, grid_interior_mask,
                       grid_near_boundary)
from .special import BasisContext, basis_values, ladder_coefficients
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
    """The four relative error norms."""

    rel_l2_interior: float
    rel_h1semi_interior: float
    rel_l2_boundary: float
    rel_l2_normal_derivative: float

    def as_dict(self) -> dict:
        return {
            "rel_l2_interior": self.rel_l2_interior,
            "rel_h1semi_interior": self.rel_h1semi_interior,
            "rel_l2_boundary": self.rel_l2_boundary,
            "rel_l2_normal_derivative": self.rel_l2_normal_derivative,
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


def _nonzero(den: float, what: str) -> float:
    if den < 1e-14:
        raise NumericalError("degenerate_exact_norm",
                             f"exact-solution norm for {what} is below 1e-14")
    return den


def error_report(problem: WaveProblem, c: CoefficientVector, exact,
                 grid: InteriorGrid, rule: QuadratureRule) -> ErrorReport:
    """Relative L2/H1-seminorm interior errors and L2 boundary errors.

    ``exact`` must provide vectorized value(points) and gradient(points).
    """
    [report] = error_norms(
        problem.basis, [c], grid, rule,
        basis_values(problem.basis, c.order + 1, grid.points),
        basis_values(problem.basis, c.order + 1, rule.points),
        (exact.value(grid.points), exact.gradient(grid.points)),
        (exact.value(rule.points), exact.gradient(rule.points)))
    return report


def error_norms(basis: BasisContext, coefficients: list[CoefficientVector],
                grid: InteriorGrid, rule: QuadratureRule,
                grid_values: np.ndarray, boundary_values: np.ndarray,
                grid_exact: tuple, boundary_exact: tuple) -> list[ErrorReport]:
    """The reports of error_report, one per coefficient vector, from bases
    and exact samples in hand.

    The vectors share one order N. ``grid_values`` and ``boundary_values``
    are the basis values of order N + 1 at grid.points and rule.points, as
    basis_values returns them; ``grid_exact`` and ``boundary_exact`` are
    the exact solution's (values, gradients) there. None of them depends
    on the data, so every solve on one problem can share them.

    The vectors' ladder_coefficients blocks are stacked into one
    (3S, 2N+3) row block and multiplied by the order-major values, one
    product per point set. In this layout (not in values @ block) a
    vector's rows of the product come out bitwise the same whatever the
    number and position of the other vectors, so a report does not depend
    on which others it was computed with; tests/test_cli.py pins this. A
    degenerate exact norm raises before any product.
    """
    u_ex, g_ex = grid_exact
    ub_ex, gb_ex = boundary_exact
    root_area = np.sqrt(grid.cell_area)
    dn_ex = np.sum(rule.normals * gb_ex, axis=1)
    l2_den = _nonzero(root_area * np.linalg.norm(u_ex), "interior L2")
    h1_den = _nonzero(root_area * np.linalg.norm(g_ex), "interior H1 seminorm")
    lb_den = _nonzero(rule.boundary_norm(ub_ex), "boundary L2")
    dn_den = _nonzero(rule.boundary_norm(dn_ex), "normal derivative")
    g_ex = g_ex.T                                       # (2, P) view

    block = np.concatenate([ladder_coefficients(basis, c.coeffs).T
                            for c in coefficients])     # u_N, d/dx, d/dy rows
    on_grid = (block @ grid_values.T).reshape(-1, 3, grid_values.shape[0])
    on_boundary = (block @ boundary_values.T).reshape(
        -1, 3, boundary_values.shape[0])
    reports = []
    for rows, boundary_rows in zip(on_grid, on_boundary):
        u_num, g_num = rows[0], rows[1:]
        ub_num, (gx, gy) = boundary_rows[0], boundary_rows[1:]
        dn_num = rule.normals[:, 0] * gx + rule.normals[:, 1] * gy
        l2_num = root_area * np.linalg.norm(u_num - u_ex)
        h1_num = root_area * np.linalg.norm(g_num - g_ex)
        reports.append(ErrorReport(
            rel_l2_interior=float(l2_num / l2_den),
            rel_h1semi_interior=float(h1_num / h1_den),
            rel_l2_boundary=float(rule.boundary_norm(ub_num - ub_ex) / lb_den),
            rel_l2_normal_derivative=float(
                rule.boundary_norm(dn_num - dn_ex) / dn_den)))
    return reports
