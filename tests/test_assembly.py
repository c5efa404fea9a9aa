import numpy as np
import pytest

from fbm.assembly import (PlaneWave, add_noise, assemble_operator,
                          boundary_data_from_weighted, impedance_data,
                          make_problem, plane_wave_data, trace_operator)
from fbm.errors import NumericalError, ValidationError
from fbm.geometry import (build_quadrature, circle_curve, compute_radii,
                          default_node_count, ellipse_curve, kite_curve)
from fbm.special import N_MAX, bessel_j, ladder_coefficients, nested_values

from oracles import (basis_gradient_oracle, basis_value_oracle,
                     bessel_j_oracle, complex_values, reference_trace_operator)


@pytest.fixture(scope="module")
def circle_problem():
    curve = circle_curve(1.0)
    radii = compute_radii(curve)
    return curve, radii


class TestWaveProblem:
    def test_kite_small_k(self, kite, kite_radii):
        prob = make_problem(kite_radii, 1.0, 2.2, 19)
        assert prob.r_in == pytest.approx(0.923)
        assert prob.r_ex == pytest.approx(2.2 * 0.923)
        assert prob.M == prob.r_ex
        assert not prob.m_overridden

    def test_kite_large_k_override(self, kite, kite_radii):
        # tau0 * r_in = 0.44 is below r_ex_min, so M is raised to cover D
        prob = make_problem(kite_radii, 5.0, 2.2, 20)
        assert prob.r_in == pytest.approx(0.2)
        assert prob.r_ex == pytest.approx(0.44)
        assert prob.m_overridden
        assert prob.M == pytest.approx(1.985 * (1 + 1e-6))
        assert prob.M > kite_radii.r_ex_min

    def test_tau0_validation(self, kite, kite_radii):
        with pytest.raises(ValidationError) as err:
            make_problem(kite_radii, 1.0, 2.1, 10)
        assert err.value.code == "tau0_too_small"

    def test_unresolvable_wavenumber_rejected(self, kite, kite_radii):
        # k r_ex_min = 128 = N_MAX on the kite at k = 128 / 1.985
        k_top = 128.0 / kite_radii.r_ex_min
        make_problem(kite_radii, k_top, 2.2, 10)
        for k in (1.001 * k_top, 1e6, 1e12):
            with pytest.raises(ValidationError) as err:
                make_problem(kite_radii, k, 2.2, 10)
            assert err.value.code == "wavenumber_unresolvable"

    def test_r_in_caps_at_inverse_k(self, kite, kite_radii):
        prob = make_problem(kite_radii, 2.0, 2.2, 10)
        assert prob.r_in == pytest.approx(0.5)


class TestAssembleOperator:
    def test_single_column_on_circle(self, circle_problem):
        # N=0, k=1, M=2: every entry has modulus
        # sqrt(2*pi/M_q) |i J_0(1) - J_1(1)|
        curve, radii = circle_problem
        prob = make_problem(radii, 1.0, 2.0, 0)
        assert prob.M == pytest.approx(2.0)
        rule = build_quadrature(curve, 64)
        op = assemble_operator(prob, rule)
        assert op.shape == (64, 1)
        expected = np.sqrt(2 * np.pi / 64) * abs(
            1j * bessel_j_oracle(0, 1.0) - bessel_j_oracle(1, 1.0))
        assert np.allclose(np.abs(op[:, 0]), expected, atol=1e-13)

    def test_linearity(self, kite, kite_radii):
        prob = make_problem(kite_radii, 1.0, 2.2, 6)
        rule = build_quadrature(kite, 128)
        op = assemble_operator(prob, rule)
        rng = np.random.default_rng(0)
        c1 = rng.standard_normal(13) + 1j * rng.standard_normal(13)
        c2 = rng.standard_normal(13) + 1j * rng.standard_normal(13)
        lhs = op @ (c1 + c2)
        rhs = op @ c1 + op @ c2
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(lhs)

    def test_zero_coefficients(self, kite, kite_radii):
        prob = make_problem(kite_radii, 1.0, 2.2, 4)
        rule = build_quadrature(kite, 64)
        op = assemble_operator(prob, rule)
        assert np.all(op @ np.zeros(9) == 0.0)

    @pytest.mark.parametrize("k, N", [(1.0, 5), (5.0, 20), (20.0, 40)])
    def test_entries_match_pointwise_trace(self, kite, kite_radii, k, N):
        # applying to a unit vector reproduces weighted samples of
        # i k phi_n + dphi_n/dnu, taken point by point from the oracles
        prob = make_problem(kite_radii, k, 2.2, N)
        rule = build_quadrature(kite, default_node_count(N))
        op = assemble_operator(prob, rule)
        scale = np.max(np.abs(op))
        for n in (-N, -1, 0, 3, N):
            applied = op[:, N + n]
            for j in (0, 17, 40, rule.size - 1):
                x = rule.points[j]
                trace = (1j * k * basis_value_oracle(k, prob.M, n, x)
                         + rule.normals[j] @ basis_gradient_oracle(k, prob.M, n, x))
                weighted = np.sqrt(rule.arc_weights[j]) * trace
                assert abs(applied[j] - weighted) <= 1e-12 * scale

    def test_column_norms_against_refined_quadrature(self, kite, kite_radii):
        # discrete L2(Gamma) column norms converge: 1x vs 4x nodes
        prob = make_problem(kite_radii, 1.0, 2.2, 8)
        coarse = assemble_operator(prob, build_quadrature(kite, 128))
        fine = assemble_operator(prob, build_quadrature(kite, 512))
        n_coarse = np.linalg.norm(coarse, axis=0)
        n_fine = np.linalg.norm(fine, axis=0)
        assert np.max(np.abs(n_coarse - n_fine)) <= 1e-8

    def test_circle_reflection_symmetry(self, circle_problem):
        # |J_{-n}| = |J_n| makes +-n columns carry equal norms
        curve, radii = circle_problem
        prob = make_problem(radii, 1.0, 2.0, 6)
        op = assemble_operator(prob, build_quadrature(curve, 128))
        norms = np.linalg.norm(op, axis=0)
        for n in range(1, 7):
            assert abs(norms[6 + n] - norms[6 - n]) <= 1e-10

    def test_norm_stable_under_node_doubling(self, kite, kite_radii):
        prob = make_problem(kite_radii, 1.0, 2.2, 6)
        rng = np.random.default_rng(1)
        c = rng.standard_normal(13) + 1j * rng.standard_normal(13)
        n1 = np.linalg.norm(assemble_operator(prob, build_quadrature(kite, 256)) @ c)
        n2 = np.linalg.norm(assemble_operator(prob, build_quadrature(kite, 512)) @ c)
        assert abs(n1 - n2) <= 1e-8

    @pytest.mark.parametrize("k, N", [(1.0, 8), (5.0, 20), (20.0, 40)])
    def test_ladder_matches_gradient_trace(self, kite, kite_radii, k, N):
        # the basis-side ladder of trace_operator and the coefficient-side
        # ladder_coefficients give the same weighted i k phi_n + dphi_n/dnu
        prob = make_problem(kite_radii, k, 2.2, N)
        rule = build_quadrature(kite, default_node_count(N))
        nested = nested_values(prob.basis, N + 1, rule.points)
        op = trace_operator(prob, rule, nested)
        values = complex_values(nested)
        expected = np.empty_like(op)
        for j, unit in enumerate(np.eye(2 * N + 1, dtype=complex)):
            field = values @ ladder_coefficients(prob.basis, unit)  # u, d/dx, d/dy
            expected[:, j] = (1j * k * field[:, 0]
                              + np.sum(rule.normals * field[:, 1:], axis=1))
        expected *= np.sqrt(rule.arc_weights)[:, None]
        scale = np.max(np.abs(op))
        assert np.max(np.abs(op - expected)) <= 1e-12 * scale

    @pytest.mark.parametrize("N", [0, 1, 2, 7, 33, 80])
    @pytest.mark.parametrize("k", [0.5, 1.0, 5.0, 20.0])
    @pytest.mark.parametrize("curve", [kite_curve(), ellipse_curve(1.5, 1.0),
                                       circle_curve(1.0)],
                             ids=["kite", "ellipse", "circle"])
    def test_mirrored_columns_match_reference(self, curve, k, N):
        # columns -n mirror columns n, built from phi_0..phi_{N+1} only,
        # bit for bit against the reference that forms every column from
        # its own complex orders; N = 0 needs phi_{-1} and has no lower
        # half, N = 1 a lower half of one column
        radii = compute_radii(curve)
        prob = make_problem(radii, k, max(2.2, 1.1 * radii.tau_min), N)
        rule = build_quadrature(curve, default_node_count(N))
        nested = nested_values(prob.basis, N + 1, rule.points)
        op = trace_operator(prob, rule, nested)
        ref = reference_trace_operator(prob, rule, complex_values(nested))
        assert op.T.flags.c_contiguous
        assert np.array_equal(op.T.view(np.float64), ref.T.view(np.float64))

    def test_assembles_at_order_cap(self, kite, kite_radii):
        # the operator of order N_MAX needs values of order N_MAX + 1
        prob = make_problem(kite_radii, 1.0, 2.2, N_MAX)
        op = assemble_operator(prob, build_quadrature(kite, default_node_count(N_MAX)))
        assert op.shape[1] == 2 * N_MAX + 1
        assert np.all(np.isfinite(op))

    def test_shape_validation(self, kite, kite_radii):
        prob = make_problem(kite_radii, 1.0, 2.2, 40)
        rule = build_quadrature(kite, 64)
        with pytest.raises(ValidationError) as err:
            assemble_operator(prob, rule)
        assert err.value.code == "system_not_tall"


def _unweighted(data, rule):
    """The data's samples f(x_j) at the nodes, its weights divided out."""
    return data / np.sqrt(rule.arc_weights)


class TestPlaneWaveData:
    def test_aligned_node_on_circle(self, circle_problem):
        # at t=0 the normal equals d=(1,0), so f = 2 i k e^{i k}
        curve, radii = circle_problem
        prob = make_problem(radii, 1.0, 2.0, 0)
        rule = build_quadrature(curve, 64)
        data = plane_wave_data(prob, rule, np.array([1.0, 0.0]))
        expected = 2j * np.exp(1j) * np.sqrt(rule.arc_weights[0])
        assert data[0] == pytest.approx(expected, abs=1e-14)

    def test_opposing_node_vanishes(self, circle_problem):
        # at t=pi the normal is -d, so nu.d + 1 = 0
        curve, radii = circle_problem
        prob = make_problem(radii, 1.0, 2.0, 0)
        rule = build_quadrature(curve, 64)
        data = plane_wave_data(prob, rule, np.array([1.0, 0.0]))
        assert abs(data[32]) <= 1e-14

    def test_matches_finite_difference_trace(self, kite, kite_radii, direction):
        prob = make_problem(kite_radii, 1.0, 2.2, 0)
        rule = build_quadrature(kite, 32)
        data = plane_wave_data(prob, rule, direction)
        h = 1e-6
        for j in (0, 9, 21):
            x = rule.points[j]
            nu = rule.normals[j]
            u = lambda y: np.exp(1j * prob.k * (y @ direction))
            dn = (u(x + h * nu) - u(x - h * nu)) / (2 * h)
            expected = (dn + 1j * prob.k * u(x)) * np.sqrt(rule.arc_weights[j])
            assert data[j] == pytest.approx(expected, abs=1e-6)

    def test_direction_validation(self, kite, kite_radii):
        prob = make_problem(kite_radii, 1.0, 2.2, 2)
        rule = build_quadrature(kite, 32)
        with pytest.raises(ValidationError) as err:
            plane_wave_data(prob, rule, np.array([1.0, 1.0]))
        assert err.value.code == "direction_not_unit"

    @pytest.mark.parametrize("direction, unit", [
        ([1.0, 1.0], False), ([0.6, 0.8 + 2e-9], False),
        ([0.6, 0.8 + 5e-10], True), ([0.0, -1.0], True)])
    def test_plane_wave_checks_its_direction(self, direction, unit):
        # the tolerance on |d| - 1 is 1e-9, at construction
        if unit:
            PlaneWave(1.0, np.array(direction))
        else:
            with pytest.raises(ValidationError) as err:
                PlaneWave(1.0, np.array(direction))
            assert err.value.code == "direction_not_unit"

    def test_weighted_norm_consistency(self, kite, kite_radii, direction):
        prob = make_problem(kite_radii, 1.0, 2.2, 0)
        rule = build_quadrature(kite, 128)
        data = plane_wave_data(prob, rule, direction)
        assert np.linalg.norm(data) == pytest.approx(
            rule.boundary_norm(_unweighted(data, rule)), rel=1e-14)

    def test_is_the_impedance_data_of_the_samples(self, kite, kite_radii,
                                                  direction):
        # the plane wave's data is the shared impedance formula applied to
        # its node samples, bit for bit, and matches the closed form
        # f = i k (nu.d + 1) exp(i k x.d)
        prob = make_problem(kite_radii, 5.0, 2.2, 0)
        rule = build_quadrature(kite, 96)
        data = plane_wave_data(prob, rule, direction)
        samples = PlaneWave(prob.k, direction).samples(rule.points)
        assert np.array_equal(data, impedance_data(prob.k, rule, samples))
        closed = (1j * prob.k * (rule.normals @ direction + 1.0)
                  * np.exp(1j * prob.k * (rule.points @ direction)))
        assert np.allclose(_unweighted(data, rule), closed, rtol=0, atol=1e-13)


class TestAddNoise:
    def test_zero_delta_is_identity(self, kite, kite_radii, direction):
        prob = make_problem(kite_radii, 1.0, 2.2, 0)
        rule = build_quadrature(kite, 64)
        data = plane_wave_data(prob, rule, direction)
        assert add_noise(data, 0.0, 1, rule) is data

    @pytest.mark.parametrize("delta", [1e-16, 0.01, 0.05, 0.3])
    def test_exact_noise_level(self, kite, kite_radii, direction, delta):
        prob = make_problem(kite_radii, 1.0, 2.2, 0)
        rule = build_quadrature(kite, 64)
        data = plane_wave_data(prob, rule, direction)
        noisy = add_noise(data, delta, 3, rule)
        achieved = np.linalg.norm(noisy - data) / np.linalg.norm(data)
        assert achieved == pytest.approx(delta, rel=1e-12)

    def test_seeds_differ_but_norms_match(self, kite, kite_radii, direction):
        prob = make_problem(kite_radii, 1.0, 2.2, 0)
        rule = build_quadrature(kite, 64)
        data = plane_wave_data(prob, rule, direction)
        a = add_noise(data, 0.05, 1, rule)
        b = add_noise(data, 0.05, 2, rule)
        assert not np.allclose(a, b)
        na = rule.boundary_norm(_unweighted(a, rule) - _unweighted(data, rule))
        nb = rule.boundary_norm(_unweighted(b, rule) - _unweighted(data, rule))
        assert na == pytest.approx(nb, rel=1e-12)

    def test_same_seed_reproduces(self, kite, kite_radii, direction):
        prob = make_problem(kite_radii, 1.0, 2.2, 0)
        rule = build_quadrature(kite, 64)
        data = plane_wave_data(prob, rule, direction)
        assert np.array_equal(add_noise(data, 0.01, 9, rule),
                              add_noise(data, 0.01, 9, rule))

    def test_noise_is_drawn_at_the_nodes(self, kite, kite_radii, direction):
        # the draw is i.i.d. per node before weighting: the weights divided
        # out, the perturbation is the seed's standard normal pairs times
        # one scale
        prob = make_problem(kite_radii, 1.0, 2.2, 0)
        rule = build_quadrature(kite, 64)
        data = plane_wave_data(prob, rule, direction)
        noisy = add_noise(data, 0.01, 4, rule)
        draw = np.random.default_rng(4).standard_normal((64, 2))
        ratio = (_unweighted(noisy, rule) - _unweighted(data, rule)) / (
            draw[:, 0] + 1j * draw[:, 1])
        assert np.allclose(ratio, ratio[0].real, rtol=1e-10, atol=0)

    @pytest.mark.parametrize("delta", [1e-16, 0.05])
    def test_leaves_its_input_unchanged(self, kite, kite_radii, direction,
                                        delta):
        # the data is a bare array that every seed of a cell reads: noise
        # must not write into it, and a noisy copy must not alias it
        prob = make_problem(kite_radii, 1.0, 2.2, 0)
        rule = build_quadrature(kite, 64)
        data = plane_wave_data(prob, rule, direction)
        before = data.copy()
        noisy = add_noise(data, delta, 5, rule)
        assert data.tobytes() == before.tobytes()
        assert noisy is not data and not np.shares_memory(noisy, data)

    def test_zero_data_rejected(self, kite):
        rule = build_quadrature(kite, 32)
        zero = boundary_data_from_weighted(np.zeros(32, dtype=complex), rule)
        with pytest.raises(NumericalError):
            add_noise(zero, 0.01, 1, rule)


class TestWeightedData:
    def test_weighted_roundtrip(self, kite):
        # the weighted vector is the data, kept as given
        rule = build_quadrature(kite, 64)
        rng = np.random.default_rng(2)
        w = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        data = boundary_data_from_weighted(w, rule)
        assert np.array_equal(data, w)
        assert np.linalg.norm(data) == np.linalg.norm(w)
        assert boundary_data_from_weighted(w.real, rule).dtype == np.complex128
