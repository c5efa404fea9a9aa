import logging
import math

import numpy as np
import pytest

from fbm.assembly import (assemble_operator, boundary_data_from_weighted,
                          make_problem)
from fbm.errors import NumericalError, ValidationError
from fbm.geometry import (DomainRadii, build_quadrature, circle_curve,
                          compute_radii, default_node_count)
from fbm.tikhonov import (mu_min_bound, select_parameters, svd,
                          svd_decay_study, tikhonov_solve)


@pytest.fixture(scope="module")
def kite_system(kite, kite_radii):
    prob = make_problem(kite_radii, 1.0, 2.2, 10)
    rule = build_quadrature(kite, default_node_count(10))
    op = assemble_operator(prob, rule)
    return prob, rule, op, svd(op)


class TestSvd:
    def test_diagonal_matrix(self):
        matrix = np.zeros((6, 3), dtype=complex)
        matrix[0, 0], matrix[1, 1], matrix[2, 2] = 3.0, 1.0, 2.0
        system = svd(matrix)
        assert np.allclose(system.singular_values, [3.0, 2.0, 1.0])

    def test_orthonormal_columns(self):
        rng = np.random.default_rng(4)
        q, _ = np.linalg.qr(rng.standard_normal((20, 5))
                            + 1j * rng.standard_normal((20, 5)))
        system = svd(q)
        assert np.allclose(system.singular_values, 1.0, atol=1e-12)

    def test_random_reconstruction(self):
        rng = np.random.default_rng(8)
        matrix = rng.standard_normal((64, 9)) + 1j * rng.standard_normal((64, 9))
        system = svd(matrix)
        rebuilt = (system.left_vectors * system.singular_values) \
            @ system.right_vectors.conj().T
        assert np.linalg.norm(rebuilt - matrix) <= 1e-10 * np.linalg.norm(matrix)

    def test_singular_triplets(self, kite_system):
        _, _, op, system = kite_system
        assert system.singular_values.shape == (21,)
        assert np.all(np.diff(system.singular_values) <= 0.0)
        for j in (0, 10, 20):
            lhs = op @ system.right_vectors[:, j]
            rhs = system.singular_values[j] * system.left_vectors[:, j]
            assert np.linalg.norm(lhs - rhs) <= 1e-10 * system.mu_max
        gram_left = system.left_vectors.conj().T @ system.left_vectors
        gram_right = system.right_vectors.conj().T @ system.right_vectors
        assert np.linalg.norm(gram_left - np.eye(21)) <= 1e-10
        assert np.linalg.norm(gram_right - np.eye(21)) <= 1e-10

    def test_wide_matrix_rejected(self):
        with pytest.raises(ValidationError):
            svd(np.ones((3, 5)))


class TestTikhonovSolve:
    def test_zero_rhs(self, kite_system):
        _, rule, _, system = kite_system
        rhs = boundary_data_from_weighted(np.zeros(rule.size, dtype=complex), rule)
        c = tikhonov_solve(system, rhs, 1e-6)
        assert np.all(c.coeffs == 0.0)

    def test_manufactured_recovery(self, kite_system):
        _, rule, op, system = kite_system
        rng = np.random.default_rng(10)
        c_true = rng.standard_normal(21) + 1j * rng.standard_normal(21)
        rhs = boundary_data_from_weighted(op @ c_true, rule)
        c = tikhonov_solve(system, rhs, 1e-30)
        rel = np.linalg.norm(c.coeffs - c_true) / np.linalg.norm(c_true)
        assert rel <= 1e-8

    def test_coefficient_norm_monotone_in_alpha(self, kite_system, direction):
        from fbm.assembly import plane_wave_data
        prob, rule, _, system = kite_system
        rhs = plane_wave_data(prob, rule, direction)
        norms = [np.linalg.norm(tikhonov_solve(system, rhs, a).coeffs)
                 for a in np.logspace(-12, 6, 19)]
        assert all(n2 <= n1 * (1 + 1e-12) for n1, n2 in zip(norms, norms[1:]))
        # strong damping sends the solution to zero
        assert norms[-1] <= 1e-4 * norms[0]

    def test_alpha_zero_is_least_squares(self, kite_system, direction):
        from fbm.assembly import plane_wave_data
        prob, rule, op, system = kite_system
        rhs = plane_wave_data(prob, rule, direction)
        c = tikhonov_solve(system, rhs, 0.0)
        residual = op @ c.coeffs - rhs.weighted
        assert np.linalg.norm(op.conj().T @ residual) \
            <= 1e-10 * np.linalg.norm(rhs.weighted) * system.mu_max

    def test_normal_equation_residual(self, kite_system, direction):
        from fbm.assembly import plane_wave_data
        prob, rule, op, system = kite_system
        rhs = plane_wave_data(prob, rule, direction)
        for alpha in (1e-8, 1e-4, 1e-1):
            c = tikhonov_solve(system, rhs, alpha)
            gram_rhs = op.conj().T @ rhs.weighted
            lhs = alpha * c.coeffs + op.conj().T @ (op @ c.coeffs)
            assert np.linalg.norm(lhs - gram_rhs) <= 1e-10 * np.linalg.norm(gram_rhs)

    def test_rank_guard(self):
        matrix = np.zeros((4, 3), dtype=complex)
        matrix[0, 0], matrix[1, 1], matrix[2, 2] = 1.0, 1.0, 1e-15
        system = svd(matrix)
        rhs_vec = np.ones(4, dtype=complex)
        rhs = type("Rhs", (), {"weighted": rhs_vec})()
        with pytest.raises(NumericalError) as err:
            tikhonov_solve(system, rhs, 0.0)
        assert err.value.code == "rank_deficient"

    def test_negative_alpha_rejected(self, kite_system):
        _, rule, _, system = kite_system
        rhs = boundary_data_from_weighted(np.zeros(rule.size, dtype=complex), rule)
        with pytest.raises(ValidationError):
            tikhonov_solve(system, rhs, -1.0)


class TestSelectParameters:
    def test_small_k_worked_example(self, kite_radii):
        plan = select_parameters(0.5, 0.01, 5.0, kite_radii, 2.2)
        assert plan.branch == "small_k"
        assert plan.N == 8
        assert plan.alpha == pytest.approx(0.25 * 0.01 * 2.2 ** -16, rel=1e-12)

    def test_large_k_worked_example(self, kite_radii):
        plan = select_parameters(5.0, 0.01, 5.0, kite_radii, 2.2)
        assert plan.branch == "large_k"
        assert plan.tau_min == pytest.approx(2.1506, abs=1e-4)
        assert plan.N == 20
        assert plan.alpha == pytest.approx(0.2 * 0.01 * 2.2 ** -40, rel=1e-12)

    def test_noise_free_floor(self, kite_radii):
        plan = select_parameters(1.0, 0.0, 5.0, kite_radii, 2.2)
        assert plan.branch == "small_k"
        assert plan.delta_eff == 1e-16
        assert plan.N == 19

    def test_branch_boundary(self, kite_radii):
        assert select_parameters(1.0, 0.01, 5.0, kite_radii, 2.2).branch == "small_k"
        assert select_parameters(1.0 + 1e-9, 0.01, 5.0, kite_radii, 2.2).branch == "large_k"

    def test_validation(self, kite_radii):
        with pytest.raises(ValidationError) as err:
            select_parameters(1.0, 0.01, 5.0, kite_radii, 2.0)
        assert err.value.code == "tau0_too_small"
        with pytest.raises(ValidationError):
            select_parameters(1.0, 1.0, 5.0, kite_radii, 2.2)
        with pytest.raises(ValidationError):
            select_parameters(1.0, -0.1, 5.0, kite_radii, 2.2)
        with pytest.raises(ValidationError):
            select_parameters(1.0, 0.01, 1.0, kite_radii, 2.2)
        with pytest.raises(ValidationError):
            select_parameters(0.0, 0.01, 5.0, kite_radii, 2.2)

    def test_cap_on_disc_like_domain(self, caplog):
        # tau_min = 1 sends the order formula to infinity; capped with a warning
        radii = compute_radii(circle_curve(1.0))
        with caplog.at_level(logging.WARNING, logger="fbm.tikhonov"):
            plan = select_parameters(5.0, 0.01, 5.0, radii, 1.02)
        assert plan.N == 128
        assert any("capped" in rec.message for rec in caplog.records)

    def test_floor_at_zero_for_weak_noise_decay(self, kite_radii, caplog):
        # delta close to 1 drives the formula negative; clamped to N=0
        with caplog.at_level(logging.WARNING, logger="fbm.tikhonov"):
            plan = select_parameters(0.5, 0.9, 5.0, kite_radii, 2.2)
        assert plan.N == 0
        assert plan.alpha == pytest.approx(0.25 * 0.9)


class TestMuMinBound:
    def test_halving_ratio(self):
        assert mu_min_bound(1.0, 1.0, 2.0, 0, 1.0) == pytest.approx(0.5)
        v0 = mu_min_bound(1.0, 1.0, 2.0, 3, 1.0)
        v1 = mu_min_bound(1.0, 1.0, 2.0, 4, 1.0)
        assert v1 == pytest.approx(0.5 * v0)

    def test_large_k_prefactor(self):
        # min(1,k) = 1 and 1 + sqrt(4) = 3
        assert mu_min_bound(4.0, 1.0, 2.0, 0, 1.0) * 3.0 == pytest.approx(1.0)
        assert mu_min_bound(4.0, 0.999999, 1.0, 0, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-5)

    def test_radii_validation(self):
        with pytest.raises(ValidationError):
            mu_min_bound(1.0, 2.0, 1.0, 3, 1.0)


class TestDecayStudy:
    def test_single_order_has_column_norm(self, kite, kite_radii):
        study = svd_decay_study(kite, kite_radii, 1.0, 2.2, [0])
        prob = make_problem(kite_radii, 1.0, 2.2, 0)
        rule = build_quadrature(kite, default_node_count(0))
        op = assemble_operator(prob, rule)
        assert study.slope is None
        assert study.mu_min[0] == pytest.approx(
            np.linalg.norm(op[:, 0]), rel=1e-12)

    def test_circle_decay_near_log_tau0(self):
        # near-diagonal structure on the circle: slope within 15% of -ln 2
        curve = circle_curve(1.0)
        radii = compute_radii(curve)
        study = svd_decay_study(curve, radii, 1.0, 2.0, range(4, 25, 2))
        assert study.slope == pytest.approx(-math.log(2.0), rel=0.15)

    def test_values_only_svd_matches_full_svd(self, kite, kite_radii):
        # the study takes singular values without vectors, which LAPACK
        # rounds differently; the two agree to rounding of mu_max
        orders = range(4, 41, 4)
        study = svd_decay_study(kite, kite_radii, 1.0, 2.2, orders)
        for n_exp, mu in zip(orders, study.mu_min):
            prob = make_problem(kite_radii, 1.0, 2.2, n_exp)
            rule = build_quadrature(kite, default_node_count(n_exp))
            system = svd(assemble_operator(prob, rule))
            assert abs(mu - system.mu_min) <= 1e-13 * system.mu_max

    def test_leading_block_matches_order_by_order(self, kite, kite_radii):
        # on one shared rule, mu_min(N) read from R's leading block is the
        # mu_min of the order-N operator assembled on its own
        orders = range(4, 81, 2)
        node_count = default_node_count(80)
        study = svd_decay_study(kite, kite_radii, 1.0, 2.2, orders,
                                node_count=node_count)
        rule = build_quadrature(kite, node_count)
        assert study.node_count == node_count
        for n_exp, mu in zip(orders, study.mu_min):
            prob = make_problem(kite_radii, 1.0, 2.2, n_exp)
            system = svd(assemble_operator(prob, rule))
            assert abs(mu - system.mu_min) <= 1e-13 * system.mu_max

    def test_monotone_decrease(self, kite, kite_radii):
        study = svd_decay_study(kite, kite_radii, 1.0, 2.2, range(4, 13, 2))
        assert np.all(np.diff(study.mu_min) <= 1e-12)

    def test_positive_at_large_k(self, kite, kite_radii):
        study = svd_decay_study(kite, kite_radii, 5.0, 2.2, [4, 8, 12])
        assert np.all(study.mu_min > 0.0)

    def test_negative_order_rejected(self, kite, kite_radii):
        # a leading block of negative size would be read silently
        with pytest.raises(ValidationError) as err:
            svd_decay_study(kite, kite_radii, 1.0, 2.2, [-2, 4])
        assert err.value.code == "bad_truncation"

    def test_input_validation(self, kite, kite_radii):
        with pytest.raises(ValidationError):
            svd_decay_study(kite, kite_radii, 1.0, 2.2, [])
        with pytest.raises(ValidationError):
            svd_decay_study(kite, kite_radii, 1.0, 2.2, [4, 4, 6])
