"""Acceptance gate: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS/FAIL line
for every criterion; tolerances are pinned here, not configurable.
"""

import math
import time

import numpy as np
import pytest

from fbm.assembly import (assemble_operator, boundary_data_from_weighted,
                          make_problem, plane_wave_data, add_noise)
from fbm.fields import PlaneWave, build_interior_grid, error_report
from fbm.geometry import (build_quadrature, circle_curve, compute_radii,
                          default_node_count, kite_curve)
from fbm.special import bessel_j
from fbm.tikhonov import (select_parameters, svd, svd_decay_study,
                          tikhonov_solve)

from oracles import bessel_j_oracle

ETA = 5.0
TAU0 = 2.2
SEEDS = tuple(range(1, 11))


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _median_errors(kite, radii, grid, direction, k, delta):
    """Median interior/normal-derivative errors over the standard seeds."""
    plan = select_parameters(k, delta, ETA, radii, TAU0)
    problem = make_problem(radii, k, TAU0, plan.N)
    rule = build_quadrature(kite, default_node_count(plan.N))
    system = svd(assemble_operator(problem, rule))
    data = plane_wave_data(problem, rule, direction)
    exact = PlaneWave(k=k, direction=direction)
    interior, normal = [], []
    for seed in SEEDS:
        noisy = add_noise(data, delta, seed, rule)
        coeffs = tikhonov_solve(system, noisy, plan.alpha)
        report = error_report(problem, coeffs, exact, grid, rule)
        interior.append(report.rel_l2_interior)
        normal.append(report.rel_l2_normal_derivative)
    return float(np.median(interior)), float(np.median(normal))


def test_criterion_1_noise_free_table_row(kite, kite_radii, direction):
    start = time.perf_counter()
    plan = select_parameters(1.0, 1e-16, ETA, kite_radii, TAU0)
    problem = make_problem(kite_radii, 1.0, TAU0, plan.N)
    rule = build_quadrature(kite, default_node_count(plan.N))
    system = svd(assemble_operator(problem, rule))
    data = add_noise(plane_wave_data(problem, rule, direction), 1e-16, 1, rule)
    coeffs = tikhonov_solve(system, data, plan.alpha)
    grid = build_interior_grid(kite, kite_radii, 200)
    report = error_report(problem, coeffs, PlaneWave(1.0, direction), grid, rule)
    elapsed = time.perf_counter() - start
    ok = (report.rel_l2_interior <= 1e-8 and report.rel_l2_boundary <= 1e-8
          and elapsed < 10.0)
    _verdict(1, ok, f"interior {report.rel_l2_interior:.2e} <= 1e-8, "
                    f"boundary {report.rel_l2_boundary:.2e} <= 1e-8, "
                    f"runtime {elapsed:.2f}s < 10s")


def test_criterion_2_noisy_table_band(kite, kite_radii, kite_grid, direction):
    start = time.perf_counter()
    med_interior, med_normal = _median_errors(kite, kite_radii, kite_grid,
                                              direction, 5.0, 0.01)
    elapsed = time.perf_counter() - start
    ok = (1e-4 <= med_interior <= 1e-1 and 1e-3 <= med_normal <= 0.5
          and elapsed < 60.0)
    _verdict(2, ok, f"median interior {med_interior:.2e} in [1e-4, 1e-1], "
                    f"median d_nu {med_normal:.2e} in [1e-3, 0.5], "
                    f"runtime {elapsed:.1f}s < 60s")


def test_criterion_3_monotone_noise_degradation(kite, kite_radii, kite_grid,
                                                direction):
    med = {delta: _median_errors(kite, kite_radii, kite_grid, direction,
                                 1.0, delta)[0]
           for delta in (1e-16, 0.01, 0.05)}
    ok = (med[0.01] >= 3.0 * med[1e-16] and med[0.05] >= 3.0 * med[0.01])
    _verdict(3, ok, f"medians {med[1e-16]:.2e} < {med[0.01]:.2e} < "
                    f"{med[0.05]:.2e}, each step >= 3x")


def test_criterion_4_exponential_convergence(kite, kite_radii, kite_grid,
                                             direction):
    orders = np.arange(4, 21)
    errors = []
    for n_exp in orders:
        problem = make_problem(kite_radii, 1.0, TAU0, int(n_exp))
        rule = build_quadrature(kite, default_node_count(int(n_exp)))
        system = svd(assemble_operator(problem, rule))
        data = plane_wave_data(problem, rule, direction)
        coeffs = tikhonov_solve(system, data, 1e-30)
        report = error_report(problem, coeffs, PlaneWave(1.0, direction),
                              kite_grid, rule)
        errors.append(report.rel_l2_boundary)
    errors = np.array(errors)
    above_floor = errors > 1e-10
    pre_n, pre_e = orders[above_floor], errors[above_floor]
    slope = float(np.polyfit(pre_n, np.log(pre_e), 1)[0])
    decreasing = bool(np.all(np.diff(pre_e) < 0.0))
    ok = len(pre_n) >= 2 and slope <= -0.5 and decreasing
    _verdict(4, ok, f"slope {slope:.2f} <= -0.5 over N={pre_n[0]}..{pre_n[-1]}, "
                    f"strictly decreasing before 1e-10 floor: {decreasing}")


def test_criterion_5_singular_value_decay(kite, kite_radii):
    study = svd_decay_study(kite, kite_radii, 1.0, TAU0, range(4, 25))
    products = study.bound_products(TAU0)
    ratio = float(products.min() / products[0])
    lower = -1.10 * math.log(TAU0)
    ok = ratio >= 1e-2 and lower <= study.slope <= 0.0
    _verdict(5, ok, f"min(mu_min*tau0^N)/value@4 = {ratio:.3f} >= 1e-2, "
                    f"slope {study.slope:.3f} in [{lower:.3f}, 0]")


def test_criterion_6_bessel_lower_bound(kite_radii):
    worst = None
    for k in (0.5, 1.0, 5.0):
        r_in = min(kite_radii.r_in_max, 1.0 / k)
        t = k * r_in
        for n in range(0, 51):
            lhs = abs(bessel_j(n, t))
            rhs = 0.75 * (0.5 * t) ** n / math.factorial(n)
            if lhs < rhs:
                worst = (k, n, lhs, rhs)
    ok = worst is None
    _verdict(6, ok, "|J_n(k r_in)| >= 0.75 (k r_in)^n / (2^n n!) exactly, "
                    "k in {0.5, 1, 5}, n = 0..50"
                    + ("" if ok else f"; first failure {worst}"))


def test_criterion_7_bessel_oracle():
    worst = 0.0
    for n in range(0, 41):
        for t in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0):
            worst = max(worst, abs(bessel_j(n, t) - bessel_j_oracle(n, t)))
    reflection = all(
        bessel_j(-n, t) == (-1.0) ** n * bessel_j(n, t)
        for n in range(1, 41) for t in (0.1, 1.0, 5.0, 20.0))
    ok = worst <= 1e-12 and reflection
    _verdict(7, ok, f"max |J_n - oracle| = {worst:.2e} <= 1e-12, "
                    f"reflection identity exact: {reflection}")


def test_criterion_8_manufactured_recovery(kite, kite_radii):
    problem = make_problem(kite_radii, 1.0, TAU0, 10)
    rule = build_quadrature(kite, default_node_count(10))
    operator = assemble_operator(problem, rule)
    rng = np.random.default_rng(42)
    c_true = rng.standard_normal(21) + 1j * rng.standard_normal(21)
    rhs = boundary_data_from_weighted(operator @ c_true, rule)
    recovered = tikhonov_solve(svd(operator), rhs, 1e-30)
    rel = float(np.linalg.norm(recovered.coeffs - c_true)
                / np.linalg.norm(c_true))
    ok = rel <= 1e-8
    _verdict(8, ok, f"relative coefficient error {rel:.2e} <= 1e-8")


def test_criterion_9_geometry_radii(kite):
    radii = compute_radii(kite)
    kite_ok = (abs(radii.r_in_max - 0.923) <= 1e-3
               and abs(radii.r_ex_min - 1.985) <= 1e-3)
    circle_ok = True
    for radius in (1.0, 2.0):
        measured = compute_radii(circle_curve(radius))
        circle_ok &= (abs(measured.r_in_max - radius) <= 1e-9
                      and abs(measured.r_ex_min - radius) <= 1e-9)
    ok = kite_ok and circle_ok
    _verdict(9, ok, f"kite ({radii.r_in_max:.3f}, {radii.r_ex_min:.3f}) within "
                    f"+-0.001 of (0.923, 1.985); circles exact to 1e-9")


def test_criterion_10_parameter_selection(kite_radii):
    n_a = select_parameters(0.5, 0.01, ETA, kite_radii, TAU0).N
    n_b = select_parameters(5.0, 0.01, ETA, kite_radii, TAU0).N
    n_c = select_parameters(1.0, 0.0, ETA, kite_radii, TAU0).N
    ok = (n_a, n_b, n_c) == (8, 20, 19)
    _verdict(10, ok, f"selected orders (k=0.5, d=0.01) -> {n_a} == 8, "
                     f"(k=5, d=0.01) -> {n_b} == 20, (k=1, d=0) -> {n_c} == 19")
