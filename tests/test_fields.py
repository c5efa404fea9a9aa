import numpy as np
import pytest

from fbm.assembly import (add_noise, assemble_operator, make_problem,
                          plane_wave_data)
from fbm.errors import NumericalError, ValidationError
from fbm.fields import (PlaneWave, build_interior_grid, error_report,
                        evaluate_field)
from fbm.geometry import (BoundaryCurve, boundary_distance, build_quadrature,
                          compute_radii, default_node_count,
                          grid_interior_mask, is_interior, named_curve)
from fbm.special import basis_values, ladder_coefficients, ladder_constants
from fbm.tikhonov import (CoefficientVector, select_parameters, svd,
                          tikhonov_solve)

from oracles import basis_gradient_oracle, central_difference


@pytest.fixture(scope="module")
def solved_case(kite, kite_radii, direction):
    """Noise-free solve at a moderate order, shared by several tests."""
    prob = make_problem(kite_radii, 1.0, 2.2, 8)
    rule = build_quadrature(kite, default_node_count(8))
    data = plane_wave_data(prob, rule, direction)
    coeffs = tikhonov_solve(svd(assemble_operator(prob, rule)), data, 1e-30)
    return prob, rule, coeffs


class TestInteriorGrid:
    def test_points_strictly_inside(self, kite, kite_radii, kite_grid):
        assert kite_grid.points.shape[0] > 1000
        assert np.all(is_interior(kite, kite_grid.points))

    def test_cell_area(self, kite_radii, kite_grid):
        step = 2.0 * kite_radii.r_ex_min / 200
        assert kite_grid.cell_area == pytest.approx(step * step)

    def test_nonempty_at_minimum_resolution(self, kite, kite_radii):
        grid = build_interior_grid(kite, kite_radii, 32)
        assert grid.points.shape[0] > 0

    def test_resolution_validation(self, kite, kite_radii):
        with pytest.raises(ValidationError):
            build_interior_grid(kite, kite_radii, 16)

    def test_exclusion_fraction_reported(self, kite_grid):
        assert 0.0 < kite_grid.excluded_fraction < 0.5


def _random_curve(seed: int) -> BoundaryCurve:
    """A unit circle plus small seeded harmonics 2..4 in both coordinates."""
    rng = np.random.default_rng(seed)
    a = 0.06 * rng.standard_normal((4, 3))
    return BoundaryCurve(x1_cos=[0.0, 1.0, *a[0]], x1_sin=[0.0, 0.0, *a[1]],
                         x2_cos=[0.0, 0.0, *a[2]], x2_sin=[0.0, 1.0, *a[3]],
                         name=f"random:{seed}")


def _measure_every_point(curve, radii, resolution):
    """The grid's points and excluded fraction with every masked point
    measured against the boundary polygon, no broad phase."""
    half = radii.r_ex_min
    step = 2.0 * half / resolution
    centers = -half + step * (np.arange(resolution) + 0.5)
    inside = grid_interior_mask(curve, centers, centers)
    xx, yy = np.meshgrid(centers, centers)
    pts = np.column_stack([xx[inside], yy[inside]])
    keep = boundary_distance(curve, pts, resolution=256) >= step * np.sqrt(2.0)
    return pts[keep], 1.0 - keep.sum() / max(1, pts.shape[0])


class TestInteriorGridCull:
    # the broad phase measures only points near the boundary; the grid
    # must not change by a bit
    CASES = [(name, res) for name in ("kite", "ellipse:1.5,0.7", "circle:1",
                                      "random:1", "random:2", "random:3")
             for res in (32, 200)] + [("kite", 512)]

    @pytest.mark.parametrize("name, resolution", CASES,
                             ids=[f"{n}-{r}" for n, r in CASES])
    def test_matches_measuring_every_point(self, name, resolution):
        curve = (_random_curve(int(name.split(":")[1]))
                 if name.startswith("random:") else named_curve(name))
        radii = compute_radii(curve)
        grid = build_interior_grid(curve, radii, resolution)
        points, excluded = _measure_every_point(curve, radii, resolution)
        assert np.array_equal(grid.points, points)
        assert grid.excluded_fraction == excluded
        assert 0.0 < excluded < 0.5


class TestEvaluateField:
    def test_center_mode_at_origin(self, kite, kite_radii):
        prob = make_problem(kite_radii, 1.0, 2.2, 3)
        c = CoefficientVector(coeffs=np.eye(7, dtype=complex)[3])
        assert evaluate_field(prob, c, [0.0, 0.0]) == 1.0 + 0.0j

    def test_zero_coefficients(self, kite, kite_radii):
        prob = make_problem(kite_radii, 1.0, 2.2, 3)
        c = CoefficientVector(coeffs=np.zeros(7, dtype=complex))
        pts = np.array([[0.1, 0.2], [-0.5, 0.4]])
        assert np.all(evaluate_field(prob, c, pts) == 0.0)

    def test_summation_order_robustness(self, kite, kite_radii):
        prob = make_problem(kite_radii, 1.0, 2.2, 12)
        rng = np.random.default_rng(6)
        coeffs = rng.standard_normal(25) + 1j * rng.standard_normal(25)
        c = CoefficientVector(coeffs=coeffs)
        p = np.array([0.31, -0.42])
        value = evaluate_field(prob, c, p)
        # independent reversed-order summation over single basis values
        from fbm.special import basis_value
        reversed_sum = sum(coeffs[12 + n] * basis_value(prob.basis, n, p)
                           for n in range(12, -13, -1))
        assert value == pytest.approx(reversed_sum, rel=1e-12)


def _gradient(prob, c: CoefficientVector, points) -> np.ndarray:
    """grad u_N at points, shape (P, 2), as error_norms forms it: basis
    values of order N + 1 times the ladder coefficients of c."""
    block = ladder_coefficients(prob.basis, c.coeffs)
    return (basis_values(prob.basis, c.order + 1, points) @ block)[:, 1:]


class TestEvaluateGradient:
    def test_zero_cases(self, kite, kite_radii):
        prob = make_problem(kite_radii, 1.0, 2.2, 2)
        zero = CoefficientVector(coeffs=np.zeros(5, dtype=complex))
        assert np.all(_gradient(prob, zero, [0.4, 0.1]) == 0.0)
        center = CoefficientVector(coeffs=np.eye(5, dtype=complex)[2])
        assert np.allclose(_gradient(prob, center, [0.0, 0.0]), 0.0)

    def test_matches_sum_of_basis_gradients(self, kite, kite_radii):
        # against the 60-digit polar oracle, summed term by term
        prob = make_problem(kite_radii, 5.0, 2.2, 12)
        rng = np.random.default_rng(14)
        coeffs = rng.standard_normal(25) + 1j * rng.standard_normal(25)
        c = CoefficientVector(coeffs=coeffs)
        pts = rng.uniform(-0.8, 0.8, size=(6, 2))
        grads = _gradient(prob, c, pts)
        assert grads.shape == (6, 2)
        for p, grad in zip(pts, grads):
            ref = sum(coeffs[12 + n]
                      * basis_gradient_oracle(prob.k, prob.M, n, p)
                      for n in range(-12, 13))
            assert np.abs(grad - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_finite_difference_agreement(self, solved_case):
        prob, _, coeffs = solved_case
        rng = np.random.default_rng(12)
        for _ in range(10):
            p = rng.uniform(-0.6, 0.6, size=2)
            [grad] = _gradient(prob, coeffs, p)
            fd = central_difference(lambda x: evaluate_field(prob, coeffs, x), p)
            assert np.linalg.norm(grad - fd) <= 1e-6 * max(1.0, np.linalg.norm(grad))


class TestHelmholtzResidual:
    def test_discrete_laplacian(self, solved_case):
        # every basis member solves the equation analytically, so the
        # five-point residual is pure O(h^2) discretization error
        prob, _, coeffs = solved_case
        h = 1e-3
        rng = np.random.default_rng(13)
        for _ in range(20):
            p = rng.uniform(-0.5, 0.5, size=2)
            u = evaluate_field(prob, coeffs, p)
            stencil = sum(evaluate_field(prob, coeffs, p + off) for off in
                          (np.array([h, 0]), np.array([-h, 0]),
                           np.array([0, h]), np.array([0, -h])))
            lap = (stencil - 4.0 * u) / (h * h)
            assert abs(lap + prob.k ** 2 * u) <= 1e-4 * max(1.0, abs(u))


class TestErrorReport:
    def test_zero_candidate_gives_unit_errors(self, kite, kite_radii,
                                              kite_grid, direction):
        prob = make_problem(kite_radii, 1.0, 2.2, 2)
        rule = build_quadrature(kite, 64)
        c = CoefficientVector(coeffs=np.zeros(5, dtype=complex))
        rep = error_report(prob, c, PlaneWave(1.0, direction), kite_grid, rule)
        assert rep.rel_l2_interior == pytest.approx(1.0, abs=1e-12)
        assert rep.rel_h1semi_interior == pytest.approx(1.0, abs=1e-12)
        assert rep.rel_l2_boundary == pytest.approx(1.0, abs=1e-12)
        assert rep.rel_l2_normal_derivative == pytest.approx(1.0, abs=1e-12)

    def test_dense_fit_self_consistency(self, kite, kite_radii, kite_grid,
                                        direction):
        # a high-order noise-free fit reproduces the plane wave everywhere
        prob = make_problem(kite_radii, 1.0, 2.2, 25)
        rule = build_quadrature(kite, default_node_count(25))
        data = plane_wave_data(prob, rule, direction)
        coeffs = tikhonov_solve(svd(assemble_operator(prob, rule)), data, 1e-30)
        rep = error_report(prob, coeffs, PlaneWave(1.0, direction), kite_grid, rule)
        assert rep.rel_l2_interior < 1e-8
        assert rep.rel_h1semi_interior < 1e-8
        assert rep.rel_l2_boundary < 1e-8
        assert rep.rel_l2_normal_derivative < 1e-8

    def test_degenerate_exact_rejected(self, kite, kite_radii, kite_grid):
        prob = make_problem(kite_radii, 1.0, 2.2, 2)
        rule = build_quadrature(kite, 64)
        c = CoefficientVector(coeffs=np.zeros(5, dtype=complex))

        class ZeroField:
            def value(self, pts):
                return np.zeros(np.atleast_2d(pts).shape[0], dtype=complex)

            def gradient(self, pts):
                return np.zeros((np.atleast_2d(pts).shape[0], 2), dtype=complex)

        with pytest.raises(NumericalError):
            error_report(prob, c, ZeroField(), kite_grid, rule)

    def test_grid_refinement_stability(self, kite, kite_radii, solved_case,
                                       direction):
        prob, rule, coeffs = solved_case
        exact = PlaneWave(1.0, direction)
        rep128 = error_report(prob, coeffs, exact,
                              build_interior_grid(kite, kite_radii, 128), rule)
        rep256 = error_report(prob, coeffs, exact,
                              build_interior_grid(kite, kite_radii, 256), rule)
        assert rep256.rel_l2_interior == pytest.approx(
            rep128.rel_l2_interior, rel=0.05)
        # the gradient error concentrates in the near-boundary band that the
        # clearance mask trims, so its doubling sensitivity is about twice
        # the L2 one
        assert rep256.rel_h1semi_interior == pytest.approx(
            rep128.rel_h1semi_interior, rel=0.10)

    def test_boundary_errors_stable_under_refinement(self, kite, kite_radii,
                                                     kite_grid, solved_case,
                                                     direction):
        prob, rule, coeffs = solved_case
        exact = PlaneWave(1.0, direction)
        fine_rule = build_quadrature(kite, 2 * rule.size)
        rep = error_report(prob, coeffs, exact, kite_grid, rule)
        rep_fine = error_report(prob, coeffs, exact, kite_grid, fine_rule)
        assert rep_fine.rel_l2_boundary == pytest.approx(
            rep.rel_l2_boundary, rel=0.01)
        assert rep_fine.rel_l2_normal_derivative == pytest.approx(
            rep.rel_l2_normal_derivative, rel=0.01)

    @pytest.mark.parametrize("k", [1.0, 5.0, 20.0])
    def test_ladder_matches_gradient_path(self, kite, kite_radii, kite_grid,
                                          direction, k):
        # norms from the coefficient-side ladder equal norms built from
        # per-order gradients, the basis side of the ladder formed here
        # from the same values of order N + 1; noise of 1 % keeps the
        # errors far above rounding
        plan = select_parameters(k, 0.01, 5.0, kite_radii, 2.2)
        prob = make_problem(kite_radii, k, 2.2, plan.N)
        rule = build_quadrature(kite, default_node_count(plan.N))
        data = add_noise(plane_wave_data(prob, rule, direction), 0.01, 3, rule)
        coeffs = tikhonov_solve(svd(assemble_operator(prob, rule)), data,
                                plan.alpha)
        exact = PlaneWave(k, direction)
        rep = error_report(prob, coeffs, exact, kite_grid, rule)

        a, b = ladder_constants(prob.basis, plan.N)

        def field(points):
            rows = basis_values(prob.basis, plan.N + 1, points).T
            up, down = a[:, None] * rows[2:], b[:, None] * rows[:-2]
            grad_x, grad_y = 0.5 * (up + down), -0.5j * (up - down)
            return coeffs.coeffs @ rows[1:-1], np.stack(
                [coeffs.coeffs @ grad_x, coeffs.coeffs @ grad_y], axis=1)

        u, g = field(kite_grid.points)
        u_ex, g_ex = exact.value(kite_grid.points), exact.gradient(kite_grid.points)
        ub, gb = field(rule.points)
        ub_ex, gb_ex = exact.value(rule.points), exact.gradient(rule.points)
        dn = np.sum(rule.normals * gb, axis=1)
        dn_ex = np.sum(rule.normals * gb_ex, axis=1)
        expected = {
            "rel_l2_interior": np.linalg.norm(u - u_ex) / np.linalg.norm(u_ex),
            "rel_h1semi_interior": np.linalg.norm(g - g_ex) / np.linalg.norm(g_ex),
            "rel_l2_boundary": rule.boundary_norm(ub - ub_ex) / rule.boundary_norm(ub_ex),
            "rel_l2_normal_derivative": (rule.boundary_norm(dn - dn_ex)
                                         / rule.boundary_norm(dn_ex)),
        }
        for name, value in expected.items():
            assert getattr(rep, name) == pytest.approx(value, rel=1e-12)
