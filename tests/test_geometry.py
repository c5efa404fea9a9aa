import math

import numpy as np
import pytest

from fbm import geometry
from fbm.errors import ValidationError
from fbm.fields import build_interior_grid
from fbm.geometry import (_DISTANCE_EDGES, _INTERIOR_EDGES, MAX_FOURIER_TERMS,
                          BoundaryCurve, _polygon, build_quadrature,
                          circle_curve, compute_radii, curve_derivative,
                          curve_point, default_node_count, ellipse_curve,
                          grid_interior_mask, grid_near_boundary, kite_curve,
                          named_curve)

from oracles import (boundary_distance, central_difference, is_interior,
                     outward_normal, reference_curve, rule_length)


class TestCurveEvaluation:
    def test_kite_landmarks(self, kite):
        assert curve_point(kite, 0.0) == pytest.approx([1.0, 0.0], abs=1e-14)
        assert curve_point(kite, np.pi / 2) == pytest.approx([-1.3, 1.5], abs=1e-14)

    def test_circle_point(self, unit_circle):
        assert curve_point(unit_circle, np.pi) == pytest.approx([-1.0, 0.0], abs=1e-14)

    def test_kite_derivative_at_zero(self, kite):
        assert curve_derivative(kite, 0.0) == pytest.approx([0.0, 1.5], abs=1e-14)

    def test_circle_derivative(self, unit_circle):
        assert curve_derivative(unit_circle, 0.0) == pytest.approx([0.0, 1.0], abs=1e-14)

    def test_derivative_matches_finite_difference(self, kite):
        for t in np.linspace(0.0, 2 * np.pi, 11):
            fd_x1 = central_difference(lambda s: curve_point(kite, s[0])[0],
                                       np.array([t]), step=1e-6)[0]
            fd_x2 = central_difference(lambda s: curve_point(kite, s[0])[1],
                                       np.array([t]), step=1e-6)[0]
            d = curve_derivative(kite, t)
            assert d == pytest.approx([fd_x1, fd_x2], abs=1e-8)

    def test_vectorized_matches_scalar(self, kite):
        ts = np.linspace(0.0, 2 * np.pi, 7)
        batch = curve_point(kite, ts)
        for i, t in enumerate(ts):
            assert np.array_equal(batch[i], curve_point(kite, t))


def _long_series_curve() -> BoundaryCurve:
    """An ellipse with a MAX_FOURIER_TERMS-term x1_cos ripple and series of
    3, 5 and 2 terms, so each series reads a different width of the table."""
    m = np.arange(MAX_FOURIER_TERMS)
    x1_cos = 1e-3 * np.sin(m) / np.maximum(m, 1) ** 2
    x1_cos[1] = 1.2
    return BoundaryCurve(x1_cos=x1_cos, x1_sin=[0.0, 0.02, 0.01],
                         x2_cos=[0.0, 0.0, 0.03, 0.0, 0.004],
                         x2_sin=[0.0, 0.8], name="long")


class TestCurveTable:
    """One cos and one sin table serve every series: each sample keeps the
    bits of the per-series tables in tests/oracles.py."""

    SPECS = ["kite", "circle:1", "ellipse:1.2,0.8", "long"]

    @staticmethod
    def curve(spec: str) -> BoundaryCurve:
        return _long_series_curve() if spec == "long" else named_curve(spec)

    @pytest.mark.parametrize("spec", SPECS)
    def test_points_and_derivatives(self, spec):
        curve = self.curve(spec)
        t = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
        for ts in (t, 0.0, 1.815, np.float64(np.pi / 3)):
            assert np.array_equal(curve_point(curve, ts),
                                  reference_curve(curve, ts, False))
            assert np.array_equal(curve_derivative(curve, ts),
                                  reference_curve(curve, ts, True))

    @pytest.mark.parametrize("spec", SPECS)
    def test_quadrature(self, spec):
        curve = self.curve(spec)
        for m_q in (8, 256, 368, 544, 1344, 2112):
            rule = build_quadrature(curve, m_q)
            d = reference_curve(curve, rule.nodes, True)
            speeds = np.hypot(d[:, 0], d[:, 1])
            assert np.array_equal(rule.points,
                                  reference_curve(curve, rule.nodes, False))
            assert np.array_equal(rule.speeds, speeds)
            assert np.array_equal(rule.normals, np.stack(
                [d[:, 1] / speeds, -d[:, 0] / speeds], axis=-1))

    @pytest.mark.parametrize("spec", SPECS)
    def test_polygons(self, spec):
        curve = self.curve(spec)
        for resolution in (256, 2048):
            t = np.linspace(0.0, 2.0 * np.pi, resolution, endpoint=False)
            assert np.array_equal(_polygon(curve, resolution),
                                  reference_curve(curve, t, False))


class TestOneSampling:
    """Set-up evaluates a curve's 4096 equispaced points once, when it
    validates the curve: the radii scan and both grid polygons read them."""

    @pytest.fixture
    def shapes(self, monkeypatch):
        """The shape of the parameters of every curve evaluation."""
        shapes = []
        evaluate = geometry._curve_eval

        def counted(curve, t, orders):
            shapes.append(np.shape(t))
            return evaluate(curve, t, orders)

        monkeypatch.setattr(geometry, "_curve_eval", counted)
        return shapes

    @pytest.mark.parametrize("spec", ["kite", "ellipse:1.2,0.8"])
    def test_grid_evaluates_no_curve(self, shapes, spec):
        curve = named_curve(spec)
        assert shapes == [(4096,)]
        radii = compute_radii(curve)
        shapes.clear()
        build_interior_grid(curve, radii, 200)
        assert shapes == []

    def test_radii_evaluate_only_the_golden_search(self, shapes):
        curve = named_curve("ellipse:1.2,0.8")
        shapes.clear()
        compute_radii(curve)
        assert shapes and all(shape == () for shape in shapes)

    def test_polygon_is_a_read_only_slice_of_the_samples(self, kite):
        for edges in (_INTERIOR_EDGES, _DISTANCE_EDGES):
            assert np.shares_memory(_polygon(kite, edges), kite.samples)
            assert _polygon(kite, edges).shape == (edges, 2)
        with pytest.raises(ValueError):
            _polygon(kite, _DISTANCE_EDGES)[0, 0] = 0.0

    @pytest.mark.parametrize("edges", [3000, 8192])
    def test_polygon_edges_must_divide_the_samples(self, kite, edges):
        # a plain slice would return the wrong number of vertices
        with pytest.raises(ValueError, match="do not divide"):
            _polygon(kite, edges)


class TestNormals:
    def test_circle_radial(self, unit_circle):
        assert outward_normal(unit_circle, 0.0) == pytest.approx([1.0, 0.0], abs=1e-14)
        assert outward_normal(unit_circle, np.pi / 2) == pytest.approx([0.0, 1.0], abs=1e-15)

    def test_unit_length_and_outward_on_kite(self, kite):
        rule = build_quadrature(kite, 256)
        norms = np.hypot(rule.normals[:, 0], rule.normals[:, 1])
        assert np.all(np.abs(norms - 1.0) <= 1e-12)
        centroid = rule.points.mean(axis=0)
        outward = np.sum(rule.normals * (rule.points - centroid), axis=1)
        assert np.all(outward > 0.0)


class TestRadii:
    def test_kite_reference_radii(self, kite, kite_radii):
        assert kite_radii.r_in_max == pytest.approx(0.923, abs=1e-3)
        assert kite_radii.r_ex_min == pytest.approx(1.985, abs=1e-3)
        assert kite_radii.tau_min == pytest.approx(2.1506, abs=1e-4)

    def test_measured_radii_of_kite_coefficients(self):
        # same boundary without the preset: the measured far point is not
        # the wing tip, so the circumscribed radius comes out larger
        raw = BoundaryCurve(x1_cos=[-0.65, 1.0, 0.65], x1_sin=[0.0],
                            x2_cos=[0.0], x2_sin=[0.0, 1.5])
        measured = compute_radii(raw)
        assert measured.r_in_max == pytest.approx(0.9228136, abs=1e-5)
        assert measured.r_ex_min == pytest.approx(2.0656710, abs=1e-5)

    @pytest.mark.parametrize("radius", [1.0, 2.0, 0.37])
    def test_circle(self, radius):
        radii = compute_radii(circle_curve(radius))
        assert radii.r_in_max == pytest.approx(radius, abs=1e-9)
        assert radii.r_ex_min == pytest.approx(radius, abs=1e-9)

    def test_ellipse_extremes_on_axes(self):
        radii = compute_radii(ellipse_curve(1.0, 1.5))
        assert radii.r_in_max == pytest.approx(1.0, abs=1e-9)
        assert radii.r_ex_min == pytest.approx(1.5, abs=1e-9)


class TestQuadrature:
    def test_circle_length(self, unit_circle):
        rule = build_quadrature(unit_circle, 64)
        assert rule_length(rule) == pytest.approx(2 * np.pi, abs=1e-12)

    def test_constant_boundary_norm(self, unit_circle):
        rule = build_quadrature(unit_circle, 32)
        assert rule.boundary_norm(np.ones(32)) == pytest.approx(
            np.sqrt(2 * np.pi), abs=1e-12)

    def test_kite_length_self_convergence(self, kite):
        l1 = rule_length(build_quadrature(kite, 256))
        l2 = rule_length(build_quadrature(kite, 512))
        assert abs(l1 - l2) <= 1e-10

    @pytest.mark.parametrize("m_q", [128, 256])
    def test_spectral_accuracy_of_norms(self, kite, m_q):
        # the arc-length factor |x'| converges to 1e-10 from 128 nodes on
        r1 = build_quadrature(kite, m_q)
        r2 = build_quadrature(kite, 2 * m_q)
        n1 = r1.boundary_norm(np.exp(3j * r1.nodes))
        n2 = r2.boundary_norm(np.exp(3j * r2.nodes))
        assert abs(n1 - n2) <= 1e-10

    def test_weights_sum(self, kite):
        rule = build_quadrature(kite, 128)
        assert np.sum(rule.weights) == pytest.approx(2 * np.pi, abs=1e-12)

    def test_signed_area_of_kite_positive(self, kite):
        rule = build_quadrature(kite, 512)
        d = curve_derivative(kite, rule.nodes)
        area = 0.5 * np.sum(rule.weights * (rule.points[:, 0] * d[:, 1]
                                            - rule.points[:, 1] * d[:, 0]))
        assert area > 0.0

    def test_size_validation(self, kite):
        with pytest.raises(ValidationError):
            build_quadrature(kite, 6)
        with pytest.raises(ValidationError):
            build_quadrature(kite, 63)

    def test_default_node_count(self):
        assert default_node_count(0) == 256
        assert default_node_count(19) == 368
        assert default_node_count(24) == 448


class TestInterior:
    def test_circle_membership(self, unit_circle):
        assert is_interior(unit_circle, [0.0, 0.0]) is True
        assert is_interior(unit_circle, [2.0, 0.0]) is False

    def test_kite_point(self, kite):
        # (0.5, 0) is well separated from the boundary and inside
        assert boundary_distance(kite, np.array([[0.5, 0.0]]), 256)[0] > 0.1
        assert is_interior(kite, [0.5, 0.0]) is True

    def test_nonconvex_pocket(self, kite):
        # points left of the kite body but inside its bounding box
        assert is_interior(kite, [-1.45, 0.0]) is False

    def test_batch_matches_scalar(self, kite):
        rng = np.random.default_rng(5)
        pts = rng.uniform(-2.0, 2.0, size=(200, 2))
        batch = is_interior(kite, pts)
        for i in range(0, 200, 17):
            assert batch[i] == is_interior(kite, pts[i])

    def test_grid_mask_matches_point_test(self, kite):
        xs = np.linspace(-1.9, 1.9, 41)
        ys = np.linspace(-1.9, 1.9, 37)
        mask = grid_interior_mask(kite, xs, ys)
        xx, yy = np.meshgrid(xs, ys)
        pts = np.column_stack([xx.ravel(), yy.ravel()])
        assert np.array_equal(mask.ravel(), is_interior(kite, pts))

    @pytest.mark.parametrize("spec", ["kite", "circle:1", "ellipse:1.5,0.7"])
    def test_grid_mask_on_vertex_rows(self, spec):
        # rows through polygon vertices, where an edge ends exactly on the
        # scanline, and columns that cover only part of the curve
        curve = named_curve(spec)
        poly = curve_point(curve, np.linspace(0.0, 2.0 * np.pi, 2048,
                                              endpoint=False))
        ys = np.unique(np.concatenate([poly[::97, 1],
                                       np.linspace(-1.6, 1.6, 23)]))
        xs = np.linspace(-0.9, 1.3, 31)
        mask = grid_interior_mask(curve, xs, ys)
        xx, yy = np.meshgrid(xs, ys)
        pts = np.column_stack([xx.ravel(), yy.ravel()])
        assert np.array_equal(mask.ravel(), is_interior(curve, pts))

    @pytest.mark.parametrize("clearance", [0.0, 0.05, 0.3])
    def test_near_boundary_marks_every_close_cell(self, kite, clearance):
        # with a grid step of slack in the widened edge boxes, a marked
        # cell is near exactly where its distance to the whole polygon is
        # below the clearance, and an unmarked cell is never near
        xs = np.linspace(-2.1, 2.1, 57)
        ys = np.linspace(-1.7, 1.7, 45)
        cells = np.random.default_rng(3).random((45, 57)) < 0.7
        near = grid_near_boundary(kite, xs, ys, cells, clearance,
                                  clearance + (xs[1] - xs[0]))
        assert near.shape == cells.shape
        xx, yy = np.meshgrid(xs, ys)
        dist = boundary_distance(kite, np.column_stack([xx[cells], yy[cells]]),
                                 resolution=256)
        assert np.array_equal(near[cells], dist < clearance)
        assert not near[~cells].any()
        assert near.any() == (clearance > 0.0)

    def test_distance_from_center_of_circle(self, unit_circle):
        d = boundary_distance(unit_circle, np.array([[0.0, 0.0]]), 256)
        assert d[0] == pytest.approx(1.0, abs=1e-4)


def _segment_distance_oracle(poly, point):
    """Pure-Python minimum distance from a point to a closed polygon."""
    px, py = (float(v) for v in point)
    best = math.inf
    for i in range(len(poly)):
        ax, ay = (float(v) for v in poly[i])
        bx, by = (float(v) for v in poly[(i + 1) % len(poly)])
        abx, aby = bx - ax, by - ay
        s = ((px - ax) * abx + (py - ay) * aby) / (abx * abx + aby * aby)
        s = min(1.0, max(0.0, s))
        best = min(best, math.hypot(px - (ax + s * abx), py - (ay + s * aby)))
    return best


class TestBoundaryDistance:
    RESOLUTION = 64

    @pytest.fixture(scope="class")
    def probe(self, kite):
        # inside, outside, on a vertex and on an edge of the 64-gon
        poly = curve_point(kite, np.linspace(0.0, 2.0 * np.pi, self.RESOLUTION,
                                             endpoint=False))
        rng = np.random.default_rng(11)
        inside = rng.uniform(-0.5, 0.5, size=(12, 2))
        signs = rng.choice([-1.0, 1.0], size=(12, 2))
        outside = signs * rng.uniform(2.2, 3.0, size=(12, 2))
        vertices = poly[::8]
        edges = 0.5 * (poly[3::8] + np.roll(poly, -1, axis=0)[3::8])
        return poly, np.vstack([inside, outside, vertices, edges, [[-1.45, 0.0]]])

    def test_matches_segment_loop(self, kite, probe):
        poly, pts = probe
        d = boundary_distance(kite, pts, resolution=self.RESOLUTION)
        ref = [_segment_distance_oracle(poly, p) for p in pts]
        assert np.max(np.abs(d - ref)) <= 1e-15
        assert np.all(d[24:32] == 0.0)              # the vertices

    def test_interior_grid_is_pinned(self, kite_grid):
        # the reference grid of the paper's tables; its points feed every
        # interior norm, so any change to the distance test shows here
        assert kite_grid.resolution == 200
        assert kite_grid.points.shape == (11296, 2)
        assert kite_grid.excluded_fraction == 0.05488621151271755


class TestConstructionValidation:
    def test_degenerate_curve_rejected(self):
        with pytest.raises(ValidationError) as err:
            BoundaryCurve(x1_cos=[0.0, 1.0], x1_sin=[0.0],
                          x2_cos=[0.0, 1.0], x2_sin=[0.0])
        assert err.value.code == "curve_not_regular"

    def test_clockwise_rejected(self):
        with pytest.raises(ValidationError) as err:
            BoundaryCurve(x1_cos=[0.0, 1.0], x1_sin=[0.0],
                          x2_cos=[0.0], x2_sin=[0.0, -1.0])
        assert err.value.code == "curve_not_ccw"

    def test_clockwise_rejected_where_its_area_overflows(self):
        # the signed area of these points overflows unscaled (inf - inf is
        # NaN, which no comparison rejects); scaled, its sign survives
        with pytest.raises(ValidationError) as err:
            BoundaryCurve(x1_cos=[0.0, 1e300], x1_sin=[0.0, 1e300],
                          x2_cos=[0.0], x2_sin=[0.0, -1e300])
        assert err.value.code == "curve_not_ccw"

    def test_counterclockwise_mirror_of_huge_curve_builds(self):
        curve = BoundaryCurve(x1_cos=[0.0, 1e300], x1_sin=[0.0, 1e300],
                              x2_cos=[0.0], x2_sin=[0.0, 1e300])
        assert curve.name == "custom"

    def test_origin_outside_rejected(self):
        with pytest.raises(ValidationError) as err:
            BoundaryCurve(x1_cos=[3.0, 1.0], x1_sin=[0.0],
                          x2_cos=[0.0], x2_sin=[0.0, 1.0])
        assert err.value.code == "origin_not_interior"

    def test_named_curves(self):
        assert named_curve("kite").name == "kite"
        assert named_curve("circle:2.5").name == "circle:2.5"
        assert named_curve("ellipse:1,1.5").name == "ellipse:1,1.5"
        with pytest.raises(ValidationError):
            named_curve("pentagon")
        with pytest.raises(ValidationError):
            named_curve("circle:abc")
