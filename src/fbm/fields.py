"""Field evaluation and the interior/boundary relative error norms.

Interior norms are cell-area-weighted sums over a uniform grid masked to
the domain; points closer to the boundary than one cell diagonal are
dropped (the exclusion fraction is logged). Each point is measured for
that only against the boundary edges near it; the rest are kept
unmeasured.
Boundary norms reuse the quadrature rule of the solve. Every relative
error divides by the same norm of the exact solution.

error_norms reports on several coefficient vectors of one problem at
once, as on a cell's seeds: their coefficient blocks, folded onto the
real nested basis rows Re phi_0, Re phi_1, Im phi_1, ..., form real row
blocks of _SEED_BLOCK vectors each, multiplied by the nested basis values
per point set in one stacked product, which makes one BLAS call per vector
(the grid's in blocks of _GRID_BLOCK points, so that no pass's products
span the whole grid or every seed); the squared errors of every vector
then come from an in-place subtraction and a sum per row of each block's
products. error_pass_bytes counts what one seed block's products hold.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

# PlaneWave lives beside the data it generates; fields re-exports it
from .assembly import PlaneWave, WaveProblem
from .errors import NumericalError, ValidationError
from .geometry import (BoundaryCurve, DomainRadii, QuadratureRule,
                       grid_interior_mask, grid_near_boundary)
from .special import (BasisContext, ladder_coefficients, nested_coefficients,
                      nested_values)
from .tikhonov import CoefficientVector

logger = logging.getLogger(__name__)

# Grid points per product and coefficient vectors per pass of the error
# pass. The grid block is fixed, so that a vector's sums do not depend on how
# many others share its pass; at ten seeds a pass's products on one grid
# block take 1 MB, where the whole reference grid's took 5.4. The seed block
# holds the ten seeds of the reference sweep in one pass and bounds a pass
# over many seeds to 48 B x 16 x (2048 + M_q).
_GRID_BLOCK = 2048
_SEED_BLOCK = 16


@dataclass(frozen=True)
class InteriorGrid:
    """Uniform grid points strictly inside the domain."""

    points: np.ndarray               # (P, 2)
    cell_area: float
    resolution: int
    excluded_fraction: float         # near-boundary cells dropped


@dataclass(frozen=True)
class ErrorReport:
    """The four relative error norms. Their field order is the order of
    the norm columns of sweep.csv."""

    rel_l2_interior: float
    rel_h1semi_interior: float
    rel_l2_boundary: float
    rel_l2_normal_derivative: float


def build_interior_grid(curve: BoundaryCurve, radii: DomainRadii,
                        resolution: int = 200) -> InteriorGrid:
    """Tensor grid over [-r_ex_min, r_ex_min]^2 masked to the interior.

    Points closer than one cell diagonal to a 256-edge polygon of the
    boundary are dropped. Each interior point is measured only against the
    edges whose bounding boxes, widened by the clearance plus one grid
    step, contain it (grid_near_boundary); a point in no such box is
    farther than that from every edge and is kept unmeasured. The points,
    their row-major order and ``excluded_fraction`` are those of measuring
    every interior point against every edge.
    """
    if resolution < 32:
        raise ValidationError("grid_too_coarse",
                              f"grid resolution must be >= 32, got {resolution}")
    half = radii.r_ex_min
    step = 2.0 * half / resolution
    centers = -half + step * (np.arange(resolution) + 0.5)
    inside = grid_interior_mask(curve, centers, centers)
    clearance = step * np.sqrt(2.0)                      # one cell diagonal
    # a step of slack beyond the clearance keeps rounding from deciding
    # whether an edge is measured against a point that it could exclude
    keep = inside & ~grid_near_boundary(curve, centers, centers, inside,
                                        clearance, clearance + step)
    excluded = 1.0 - keep.sum() / max(1, inside.sum())
    logger.debug("interior grid: %d points, %.2f%% near-boundary cells dropped",
                 int(keep.sum()), 100.0 * excluded)
    xx = np.broadcast_to(centers, keep.shape)            # views, not copies
    yy = np.broadcast_to(centers[:, None], keep.shape)
    kept = np.column_stack([xx[keep], yy[keep]])
    if kept.shape[0] == 0:
        raise NumericalError("empty_interior_grid",
                             "no interior grid points survived masking")
    return InteriorGrid(points=kept, cell_area=step * step,
                        resolution=resolution, excluded_fraction=float(excluded))


def evaluate_field(problem: WaveProblem, c: CoefficientVector, points):
    """u_N at one point or an array of points (valid anywhere in the plane),
    by one real product of the folded coefficients (nested_coefficients)
    with nested_values' rows of order N, as in error_norms."""
    re, im = (nested_coefficients(c.coeffs[:, None])
              @ nested_values(problem.basis, c.order, points))
    out = re + 1j * im
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

    ``exact`` must provide samples(points) -> (values, gradients), as
    PlaneWave does.
    """
    [report] = error_norms(
        problem.basis, [c], grid, rule,
        nested_values(problem.basis, c.order + 1, grid.points),
        nested_values(problem.basis, c.order + 1, rule.points),
        exact.samples(grid.points), exact.samples(rule.points))
    return report


def _real_rows(values: np.ndarray, gradients: np.ndarray) -> np.ndarray:
    """Re and Im of u, du/dx and du/dy, in that order, as (6, P) rows."""
    both = np.vstack([values, gradients.T])
    rows = np.empty((6, both.shape[1]))
    rows[0::2], rows[1::2] = both.real, both.imag
    return rows


def error_pass_bytes(vectors: int, grid_points: int, nodes: int) -> int:
    """Bytes of the largest products error_norms holds at once for
    ``vectors`` coefficient vectors: 48 (Re and Im of u_N and its gradient)
    per vector of one seed block and point of one grid block, and of the
    ``nodes`` boundary points."""
    return (48 * min(vectors, _SEED_BLOCK)
            * (min(grid_points, _GRID_BLOCK) + nodes))


def error_norms(basis: BasisContext, coefficients: list[CoefficientVector],
                grid: InteriorGrid, rule: QuadratureRule,
                grid_values: np.ndarray, boundary_values: np.ndarray,
                grid_exact: tuple, boundary_exact: tuple) -> list[ErrorReport]:
    """The reports of error_report, one per coefficient vector, from bases
    and exact samples in hand.

    The vectors share one order N. ``grid_values`` and ``boundary_values``
    are the nested basis values of order N + 1 at grid.points and
    rule.points, as nested_values returns them; ``grid_exact`` and
    ``boundary_exact`` are the exact solution's (values, gradients) there.
    None of them depends on the data, so every solve on one problem can
    share them.

    The vectors' ladder_coefficients blocks, folded by
    nested_coefficients, form real (S, 6, 2N+3) row blocks of S =
    _SEED_BLOCK vectors at most: Re and Im of u_N, du_N/dx and du_N/dy per
    vector. The rows are multiplied by the order-major values per point
    set in one stacked product, np.matmul(block, values), on the grid
    _GRID_BLOCK points at a time; the exact rows are subtracted in place
    and each row's squares summed. The stacked product makes one BLAS call
    per vector, each of the (6, 2N+3) by (2N+3, P) shape a one-vector pass
    makes. One fused (6S, 2N+3) product would not do: a BLAS may round a
    row of a larger product differently as its row count changes (OpenBLAS
    0.3.31 does when P is not a multiple of 8), which would make a
    vector's rows depend on how many others share its pass. Every later
    step works row by row, so a report does not depend on which others it
    was computed with; tests/test_cli.py pins this. A degenerate exact norm
    raises before any product.
    """
    u_ex, g_ex = grid_exact
    ub_ex, gb_ex = boundary_exact
    root_area = np.sqrt(grid.cell_area)
    dn_ex = np.sum(rule.normals * gb_ex, axis=1)
    l2_den = _nonzero(root_area * np.linalg.norm(u_ex), "interior L2")
    h1_den = _nonzero(root_area * np.linalg.norm(g_ex), "interior H1 seminorm")
    lb_den = _nonzero(rule.boundary_norm(ub_ex), "boundary L2")
    dn_den = _nonzero(rule.boundary_norm(dn_ex), "normal derivative")

    grid_rows = _real_rows(u_ex, g_ex)
    boundary_rows = _real_rows(ub_ex, gb_ex)
    nx, ny = rule.normals.T
    grid_sq = np.zeros((len(coefficients), 6))
    boundary_sq = np.empty((len(coefficients), 4))
    for first in range(0, len(coefficients), _SEED_BLOCK):
        group = slice(first, first + _SEED_BLOCK)
        vectors = coefficients[group]
        block = nested_coefficients(ladder_coefficients(
            basis, np.stack([c.coeffs for c in vectors])))
        for start in range(0, grid_rows.shape[1], _GRID_BLOCK):
            points = slice(start, start + _GRID_BLOCK)
            on_grid = np.matmul(block, grid_values[:, points])
            on_grid -= grid_rows[:, points]
            on_grid *= on_grid
            grid_sq[group] += on_grid.sum(axis=-1)
        on_boundary = np.matmul(block, boundary_values)
        on_boundary -= boundary_rows
        traces = np.concatenate([on_boundary[:, :2],        # Re, Im of u_N - u
                                 on_boundary[:, 2:4] * nx   # and of its normal
                                 + on_boundary[:, 4:] * ny],  # derivative
                                axis=1)
        traces *= traces
        traces *= rule.arc_weights
        boundary_sq[group] = traces.sum(axis=-1)
    l2 = root_area * np.sqrt(grid_sq[:, 0] + grid_sq[:, 1]) / l2_den
    h1 = root_area * np.sqrt(grid_sq[:, 2:].sum(axis=1)) / h1_den
    lb = np.sqrt(boundary_sq[:, 0] + boundary_sq[:, 1]) / lb_den
    dn = np.sqrt(boundary_sq[:, 2] + boundary_sq[:, 3]) / dn_den
    return [ErrorReport(rel_l2_interior=float(a),
                        rel_h1semi_interior=float(b),
                        rel_l2_boundary=float(c),
                        rel_l2_normal_derivative=float(d))
            for a, b, c, d in zip(l2, h1, lb, dn)]
