import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from fbm.assembly import (add_noise, assemble_operator, make_problem,
                          plane_wave_data)
from fbm import fields, geometry
from fbm.errors import NumericalError, ValidationError
from fbm.fields import (PlaneWave, build_interior_grid, error_norms,
                        error_report, evaluate_field)
from fbm.geometry import (BoundaryCurve, build_quadrature, circle_curve,
                          compute_radii, default_node_count,
                          grid_interior_mask, named_curve)
from fbm.special import ladder_coefficients, ladder_constants, nested_values
from fbm.tikhonov import (CoefficientVector, select_parameters, svd,
                          tikhonov_solve)

from oracles import (basis_gradient_oracle, basis_value, basis_values,
                     boundary_distance, central_difference, interior_norms_sq,
                     is_interior)


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

    def test_pair_blocks_do_not_change_the_grid(self, kite, kite_radii,
                                                kite_grid, monkeypatch):
        # the narrow phase measures its (cell, edge) pairs in blocks;
        # blocks of 64 pairs give the grid of one block
        monkeypatch.setattr(geometry, "_PAIR_CHUNK", 64)
        grid = build_interior_grid(kite, kite_radii, 200)
        assert np.array_equal(grid.points, kite_grid.points)
        assert grid.excluded_fraction == kite_grid.excluded_fraction


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

            def samples(self, pts):
                return self.value(pts), np.zeros(
                    (np.atleast_2d(pts).shape[0], 2), dtype=complex)

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
        u_ex, g_ex = exact.samples(kite_grid.points)
        ub, gb = field(rule.points)
        ub_ex, gb_ex = exact.samples(rule.points)
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

    def test_grid_products_made_in_blocks(self, kite, kite_radii, kite_grid,
                                          direction, monkeypatch):
        # ten seeds' error pass on the 200 grid never holds a product over
        # the whole grid (6 rows per seed of 8-byte values, 5.4 MB here),
        # and one block over the whole grid gives the norms up to rounding
        k, delta = 5.0, 0.01
        plan = select_parameters(k, delta, 5.0, kite_radii, 2.2)
        prob = make_problem(kite_radii, k, 2.2, plan.N)
        rule = build_quadrature(kite, default_node_count(plan.N))
        system = svd(assemble_operator(prob, rule))
        data = plane_wave_data(prob, rule, direction)
        coeffs = [tikhonov_solve(system, add_noise(data, delta, seed, rule),
                                 plan.alpha) for seed in range(10)]
        exact = PlaneWave(k, direction)
        args = (prob.basis, coeffs, kite_grid, rule,
                nested_values(prob.basis, plan.N + 1, kite_grid.points),
                nested_values(prob.basis, plan.N + 1, rule.points),
                exact.samples(kite_grid.points), exact.samples(rule.points))
        tracemalloc.start()
        try:
            blocked = error_norms(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * 6 * len(coeffs) * kite_grid.points.shape[0] * 8
        monkeypatch.setattr(fields, "_GRID_BLOCK", kite_grid.points.shape[0])
        for one, report in zip(error_norms(*args), blocked):
            for name in ("rel_l2_interior", "rel_h1semi_interior"):
                assert getattr(report, name) == pytest.approx(
                    getattr(one, name), rel=1e-13)
            assert report.rel_l2_boundary == one.rel_l2_boundary
            assert (report.rel_l2_normal_derivative
                    == one.rel_l2_normal_derivative)


class TestInteriorNormIdentity:
    # the oracle's Rellich/Green identity reads the interior norms of a
    # Helmholtz solution off its node samples; pinned against closed forms
    # and against the grid norms of error_report

    @pytest.mark.parametrize("spec, area", [
        ("kite", 1.5 * np.pi), ("ellipse:1.2,0.8", 0.96 * np.pi)])
    @pytest.mark.parametrize("k", [0.5, 1.0, 5.0])
    def test_plane_wave_gives_the_area(self, direction, spec, area, k):
        # |u| = 1 and |grad u| = k, so the norms are the area and k^2 times it
        rule = build_quadrature(named_curve(spec), 256)
        l2_sq, h1_sq = interior_norms_sq(
            k, rule, PlaneWave(k, direction).samples(rule.points))
        assert l2_sq == pytest.approx(area, rel=1e-12)
        assert h1_sq == pytest.approx(k * k * area, rel=1e-12)

    @pytest.mark.parametrize("k, orders", [
        (1.0, {0: 1.0}), (1.0, {3: 1.0}), (5.0, {1: 1.0}),
        (5.0, {-4: 1.0}), (2.5, {2: 1.0, -3: 0.5j})])
    def test_disc_closed_form(self, k, orders):
        # w = sum_n c_n J_n(kr) e^{in theta} on the disc of radius R: the
        # modes are orthogonal, Lommel's integral (DLMF 10.22.5)
        # int_0^R J_n(kr)^2 r dr = R^2/2 (J_n^2 - J_{n-1} J_{n+1})(kR)
        # gives each mode's L2 norm, and the radial integral of
        # k^2 J_n'(kr)^2 + n^2 J_n(kr)^2 / r^2, its H1 seminorm
        radius = 1.3
        rule = build_quadrature(circle_curve(radius), 64)
        theta = np.arctan2(rule.points[:, 1], rule.points[:, 0])
        t = k * radius
        values = np.zeros(rule.size, dtype=complex)
        gradients = np.zeros((rule.size, 2), dtype=complex)
        l2_sq = h1_sq = 0.0
        for n, c in orders.items():
            jn, djn = float(mp.besselj(n, t)), float(mp.besselj(n, t, 1))
            phase = c * np.exp(1j * n * theta)
            values += jn * phase
            d_r, d_theta = k * djn * phase, 1j * n * jn / radius * phase
            gradients[:, 0] += np.cos(theta) * d_r - np.sin(theta) * d_theta
            gradients[:, 1] += np.sin(theta) * d_r + np.cos(theta) * d_theta
            lommel = radius ** 2 / 2 * (mp.besselj(n, t) ** 2 - mp.besselj(
                n - 1, t) * mp.besselj(n + 1, t))
            l2_sq += 2 * np.pi * abs(c) ** 2 * float(lommel)
            h1_sq += 2 * np.pi * abs(c) ** 2 * float(mp.quad(
                lambda r: (k ** 2 * mp.besselj(n, k * r, 1) ** 2
                           + n ** 2 * mp.besselj(n, k * r) ** 2 / r ** 2) * r,
                [0, radius]))
        got = interior_norms_sq(k, rule, (values, gradients))
        assert got == pytest.approx((l2_sq, h1_sq), rel=1e-12)

    @pytest.fixture(scope="class")
    def kite_grid_400(self, kite, kite_radii):
        return build_interior_grid(kite, kite_radii, 400)

    @pytest.mark.parametrize("k", [0.5, 1.0, 5.0])
    @pytest.mark.parametrize("delta", [0.01, 0.05])
    def test_grid_norms_converge_to_the_identity(
            self, kite, kite_radii, kite_grid, kite_grid_400, direction, k,
            delta):
        # the grid drops the cells within one diagonal of the boundary, so
        # its relative errors sit a few per cent from the identity's: at
        # most 3.24 % (L2) and 5.90 % (H1) on these 18 solves at grid 200,
        # bounded here by 3.3 % and 6 %, and about half as far at grid 400
        plan = select_parameters(k, delta, 5.0, kite_radii, 2.2)
        prob = make_problem(kite_radii, k, 2.2, plan.N)
        rule = build_quadrature(kite, default_node_count(plan.N))
        system = svd(assemble_operator(prob, rule))
        data = plane_wave_data(prob, rule, direction)
        exact = PlaneWave(k, direction)
        u, grad_u = exact.samples(rule.points)
        exact_sq = interior_norms_sq(k, rule, (u, grad_u))
        for seed in (1, 2, 3):
            coeffs = tikhonov_solve(system, add_noise(data, delta, seed, rule),
                                    plan.alpha)
            field = (basis_values(prob.basis, plan.N + 1, rule.points)
                     @ ladder_coefficients(prob.basis, coeffs.coeffs))
            error_sq = interior_norms_sq(
                k, rule, (field[:, 0] - u, field[:, 1:] - grad_u))
            identity = np.sqrt(np.divide(error_sq, exact_sq))
            gaps = []
            for grid in (kite_grid, kite_grid_400):
                rep = error_report(prob, coeffs, exact, grid, rule)
                on_grid = np.array([rep.rel_l2_interior,
                                    rep.rel_h1semi_interior])
                gaps.append(np.abs(identity - on_grid) / on_grid)
            assert np.all(gaps[0] <= [0.033, 0.06])
            assert np.all(gaps[1] < gaps[0])
