"""Fourier-Bessel collocation solver for the 2D Helmholtz impedance problem.

Solves Delta u + k^2 u = 0 in a smooth simply connected domain with
boundary condition du/dnu + i k u = f by expanding u in scaled
cylindrical waves J_n(kr) e^(i n theta), collocating the impedance trace
on the boundary, and solving the resulting ill-conditioned least-squares
system with Tikhonov regularization. Truncation order and regularization
weight are chosen from the noise level and the domain's inscribed and
circumscribed radii.

The package re-exports the error classes and the names of the README's
library example; everything else is imported from its own module
(fbm.special, fbm.geometry, fbm.assembly, fbm.tikhonov, fbm.fields).
"""

__version__ = "0.1.0"

from .errors import FbmError, NumericalError, ValidationError
from .geometry import (build_quadrature, compute_radii, default_node_count,
                       kite_curve)
from .assembly import (PlaneWave, add_noise, assemble_operator, make_problem,
                       plane_wave_data)
from .tikhonov import select_parameters, svd, tikhonov_solve
from .fields import build_interior_grid, error_report

__all__ = [
    "__version__",
    "FbmError", "NumericalError", "ValidationError",
    "kite_curve", "compute_radii", "build_quadrature", "default_node_count",
    "make_problem", "assemble_operator", "plane_wave_data", "add_noise",
    "select_parameters", "svd", "tikhonov_solve",
    "PlaneWave", "build_interior_grid", "error_report",
]
