"""Command-line front end: solve, sweep, svd, and plot subcommands.

The driver executes the three-step algorithm behind every case:
measure the domain radii, select (N, alpha) from (k, delta), then solve
the regularized normal equation and report relative errors.

solve, sweep and plot all run one ``Cell`` per (k, delta). A cell holds
everything that does not depend on the noise seed: the plan, problem,
quadrature rule, SVD, exact data and the basis values of order N + 1 on
the interior grid and on the boundary, each evaluated once. A seed then
costs noise and a Tikhonov solve; the error norms of a cell's seeds come
from one matrix product per point set, over as many seeds at a time as
ERROR_PASS_BUDGET_BYTES allows (all ten of the reference sweep).

Configuration is a single JSON document::

    {
      "curve": "kite",                  // or "circle:R", "ellipse:a,b",
                                        // or {"x1_cos": [...], ...}
      "k": 1.0,                         // number or list
      "delta": 1e-16,                   // number or list, in [0, 1)
      "eta": 5.0,
      "tau0": "auto",                   // number, or auto from tau_min
      "seeds": [1, 2, ..., 10],
      "M_q": "auto",                    // quadrature size, even, 8..65536
      "grid_resolution": 200,           // 32..2048
      "direction": [0.5, 0.8660254037844386],
      "output_dir": "fbm_out"
    }

Exit codes: 0 success, 2 configuration/validation failure (bad
command-line arguments, an unwritable output path and a sweep whose
every cell failed validation included), 3 numerical failure. On failure
a machine-readable record {"error": code, ...} is printed to stderr.
Identical configs produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .assembly import (BoundaryData, WaveProblem, add_noise, make_problem,
                       plane_wave_data, trace_operator)
from .errors import FbmError, NumericalError, ValidationError
from .fields import (ErrorReport, InteriorGrid, PlaneWave, build_interior_grid,
                     error_norms, evaluate_field)
from .geometry import (BoundaryCurve, DomainRadii, QuadratureRule,
                       build_quadrature, compute_radii, curve_point,
                       default_node_count, named_curve)
from .special import N_MAX, basis_values
from .tikhonov import (CoefficientVector, RegularizationPlan, SingularSystem,
                       select_parameters, svd, svd_decay_study, tikhonov_solve)

logger = logging.getLogger(__name__)

_DEFAULT_DIRECTION = (0.5, math.sqrt(3.0) / 2.0)
_DEFAULT_SEEDS = tuple(range(1, 11))

# Input ceilings: "auto" picks M_q <= 16 N_MAX + 64 = 2112 and the
# reference grid is 200, so these leave wide headroom.
MAX_NODE_COUNT = 65536
MAX_GRID_RESOLUTION = 2048
# Memory a cell may spend on its grid and boundary bases. make_cell counts 48
# bytes (values and gradients) per point and order, an over-count of the
# values of order N + 1 a cell now holds, kept so that the same inputs exit 2.
BASIS_BUDGET_BYTES = 2 ** 30
# Memory of one error pass's products: 48 bytes (u_N and its gradient, complex)
# per seed and point, grid and boundary. Cell.solve passes its seeds in slices
# that stay under it; a slice holds one seed at least. Ten seeds on the
# reference grid (11,296 points) take about 6 MB.
ERROR_PASS_BUDGET_BYTES = 2 ** 25
# Allowed ranges of k and delta, for the config and for plot's --k/--delta.
_K_RANGE = {"lower": 0.0, "lower_open": True}
_DELTA_RANGE = {"lower": 0.0, "upper": 1.0, "upper_open": True}
# boundary parameters at which plot samples the traces
_TRACE_SAMPLES = 512


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------
@dataclass
class ExperimentConfig:
    curve: BoundaryCurve
    k_list: list
    delta_list: list
    eta: float
    tau0: object                     # float or "auto"
    seeds: list
    node_count: object               # int or "auto"
    grid_resolution: int
    direction: np.ndarray
    output_dir: str


def _as_number(value, name: str) -> float:
    # JSON true/false would pass float() as 1/0
    if isinstance(value, bool):
        raise ValidationError("bad_field", f"{name} must be numeric, got {value}")
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError("bad_field", f"{name} must be numeric") from exc
    if not math.isfinite(x):
        raise ValidationError("bad_field", f"{name} must be finite, got {x}")
    return x


def _as_number_list(value, name: str, *, lower=None, upper=None,
                    lower_open=False, upper_open=False) -> list:
    items = value if isinstance(value, list) else [value]
    if not items:
        raise ValidationError("empty_list", f"{name} must not be empty")
    out = []
    for item in items:
        x = _as_number(item, name)
        if lower is not None and (x <= lower if lower_open else x < lower):
            raise ValidationError("bad_field", f"{name}={x} below allowed range")
        if upper is not None and (x >= upper if upper_open else x > upper):
            raise ValidationError("bad_field", f"{name}={x} above allowed range")
        out.append(x)
    return out


def _as_seed_list(seeds: list) -> list[int]:
    # JSON integers only: int() would truncate 1.7, parse "3" and take true
    if not all(isinstance(s, int) and not isinstance(s, bool) for s in seeds):
        raise ValidationError("bad_field", f"seeds must be integers, got {seeds}")
    if min(seeds) < 0:
        raise ValidationError("bad_field", f"seeds must be non-negative, got {seeds}")
    return seeds


def _parse_curve(spec) -> BoundaryCurve:
    if isinstance(spec, str):
        return named_curve(spec)
    if isinstance(spec, dict):
        try:
            return BoundaryCurve(
                x1_cos=spec.get("x1_cos", [0.0]),
                x1_sin=spec.get("x1_sin", [0.0]),
                x2_cos=spec.get("x2_cos", [0.0]),
                x2_sin=spec.get("x2_sin", [0.0]),
                name=spec.get("name", "custom"))
        except (TypeError, ValueError) as exc:
            raise ValidationError("bad_curve_spec", str(exc)) from exc
    raise ValidationError("bad_curve_spec",
                          "curve must be a name or a coefficient object")


def build_config(raw: dict) -> ExperimentConfig:
    """Validate a raw JSON document into an ExperimentConfig."""
    if not isinstance(raw, dict):
        raise ValidationError("bad_config", "configuration must be a JSON object")
    for req in ("curve", "k", "delta"):
        if req not in raw:
            raise ValidationError("missing_field", f"configuration needs {req!r}")
    curve = _parse_curve(raw["curve"])
    k_list = _as_number_list(raw["k"], "k", **_K_RANGE)
    delta_list = _as_number_list(raw["delta"], "delta", **_DELTA_RANGE)

    eta = _as_number(raw.get("eta", 5.0), "eta")
    if eta <= 1.0:
        raise ValidationError("eta_too_small", f"eta must exceed 1, got {eta}")

    tau0 = raw.get("tau0", "auto")
    if tau0 != "auto":
        tau0 = _as_number(tau0, "tau0")

    seeds = raw.get("seeds", list(_DEFAULT_SEEDS))
    if not isinstance(seeds, list) or not seeds:
        raise ValidationError("seeds_empty", "seeds must be a nonempty list")
    seeds = _as_seed_list(seeds)

    node_count = raw.get("M_q", "auto")
    if node_count != "auto":
        if not isinstance(node_count, int) or node_count < 8 or node_count % 2:
            raise ValidationError("bad_quadrature_size",
                                  f"M_q must be an even integer >= 8, got {node_count}")
        if node_count > MAX_NODE_COUNT:
            raise ValidationError("bad_quadrature_size",
                                  f"M_q must not exceed {MAX_NODE_COUNT}, got {node_count}")

    grid_resolution = raw.get("grid_resolution", 200)
    if not isinstance(grid_resolution, int) or grid_resolution < 32:
        raise ValidationError("grid_too_coarse",
                              f"grid_resolution must be an integer >= 32, got {grid_resolution}")
    if grid_resolution > MAX_GRID_RESOLUTION:
        raise ValidationError("grid_too_fine",
                              f"grid_resolution must not exceed {MAX_GRID_RESOLUTION}, "
                              f"got {grid_resolution}")

    direction = raw.get("direction", _DEFAULT_DIRECTION)
    if not isinstance(direction, (list, tuple)) or len(direction) != 2:
        raise ValidationError("bad_field", "direction must be a finite 2-vector")
    direction = np.array([_as_number(x, "direction") for x in direction])
    if abs(np.hypot(direction[0], direction[1]) - 1.0) > 1e-9:
        raise ValidationError("direction_not_unit",
                              f"|direction| = {np.hypot(*direction)!r}, need 1")

    output_dir = raw.get("output_dir", "fbm_out")
    if not isinstance(output_dir, str) or not output_dir:
        raise ValidationError("bad_field",
                              f"output_dir must be a non-empty string, got {output_dir!r}")

    return ExperimentConfig(curve=curve, k_list=k_list,
                            delta_list=delta_list, eta=eta, tau0=tau0,
                            seeds=seeds, node_count=node_count,
                            grid_resolution=grid_resolution,
                            direction=direction, output_dir=output_dir)


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ValidationError("config_unreadable", f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError("config_not_json", f"{path}: {exc}") from exc
    return build_config(raw)


def resolve_tau0(config: ExperimentConfig, radii: DomainRadii) -> float:
    """Numeric tau0; "auto" takes 1.02*tau_min rounded up to two decimals,
    except for the built-in kite (told by its preset radii, which a config
    cannot set, unlike its name) whose canonical value is 2.2."""
    if config.tau0 != "auto":
        return float(config.tau0)
    if config.curve.preset_radii is not None:
        return 2.2
    return math.ceil(1.02 * radii.tau_min * 100.0) / 100.0


# ---------------------------------------------------------------------------
# Single-case pipeline
# ---------------------------------------------------------------------------
@dataclass
class CaseResult:
    """What one seed of a Cell adds to it."""

    seed: int
    coefficients: CoefficientVector
    report: ErrorReport


def _bound_exponents(plan: RegularizationPlan) -> dict:
    # asymptotic error-bound exponents implied by the selection rule;
    # reported for cross-reading only, nothing computable checks them
    lam = plan.eta * math.log(plan.tau0)
    sigma = None
    if plan.branch == "large_k" and plan.tau_min > 1.0:
        sigma = 3.5 + 11.0 * math.log(plan.tau0) / (2.0 * math.log(plan.tau_min))
    return {"bound_exponent_lambda": lam, "bound_exponent_sigma": sigma}


def case_metadata(cell: Cell, result: CaseResult,
                  config: ExperimentConfig) -> dict:
    plan, problem = cell.plan, cell.problem
    return {
        **_bound_exponents(plan),
        "k": problem.k,
        "delta": plan.delta,
        "eta": plan.eta,
        "tau0": plan.tau0,
        "tau_min": plan.tau_min,
        "branch": plan.branch,
        "N": plan.N,
        "alpha": plan.alpha,
        "M_q": cell.rule.size,
        "grid_resolution": cell.grid.resolution,
        "grid_excluded_fraction": cell.grid.excluded_fraction,
        "seed": result.seed,
        "m_overridden": problem.m_overridden,
        "M": problem.M,
        "r_in": problem.r_in,
        "r_ex": problem.r_ex,
        "mu_min": cell.system.mu_min,
        "curve": config.curve.name,
        "direction": list(map(float, config.direction)),
        "column_order": "n=-N..N",
        "noise_model": "complex gaussian, exact relative L2(Gamma) norm",
        "version": __version__,
    }


@dataclass(frozen=True)
class Cell:
    """The seed-independent half of one (k, delta) case.

    The basis values of order N + 1 on the interior grid and on the
    boundary are evaluated once, by one basis_values call each; the
    boundary values also form the trace operator. The plane wave's values
    and gradients there are sampled once too. Each seed then costs noise
    and a Tikhonov solve, and each slice of the seeds solved together
    shares one matrix product with each basis.
    """

    plan: RegularizationPlan
    problem: WaveProblem
    rule: QuadratureRule
    system: SingularSystem
    data: BoundaryData
    exact: PlaneWave
    grid: InteriorGrid
    grid_basis: np.ndarray           # values of order N + 1 at grid.points
    boundary_basis: np.ndarray       # values of order N + 1 at rule.points
    grid_exact: tuple                # exact (values, gradients) at grid.points
    boundary_exact: tuple            # exact (values, gradients) at rule.points

    def solve(self, seeds: list[int]) -> list[CaseResult | FbmError]:
        """Noise -> Tikhonov solve per seed, then the error pass over the
        seeds that solved, in slices whose products fit
        ERROR_PASS_BUDGET_BYTES. Each seed gets its CaseResult or its
        FbmError; a failure of the error pass is every solved seed's."""
        outcomes: list[CoefficientVector | FbmError] = []
        for seed in seeds:
            try:
                noisy = add_noise(self.data, self.plan.delta, seed, self.rule)
                outcomes.append(tikhonov_solve(self.system, noisy,
                                               self.plan.alpha))
            except FbmError as exc:
                outcomes.append(exc)
        solved = [c for c in outcomes if not isinstance(c, FbmError)]
        points = self.grid_basis.shape[0] + self.boundary_basis.shape[0]
        width = max(1, ERROR_PASS_BUDGET_BYTES // (48 * points))
        try:
            reports = iter([report for start in range(0, len(solved), width)
                            for report in error_norms(
                                self.problem.basis, solved[start:start + width],
                                self.grid, self.rule, self.grid_basis,
                                self.boundary_basis, self.grid_exact,
                                self.boundary_exact)])
        except FbmError as exc:
            return [c if isinstance(c, FbmError) else exc for c in outcomes]
        return [c if isinstance(c, FbmError) else
                CaseResult(seed=seed, coefficients=c, report=next(reports))
                for seed, c in zip(seeds, outcomes)]


def _solve_one(cell: Cell, seed: int) -> CaseResult:
    [result] = cell.solve([seed])
    if isinstance(result, FbmError):
        raise result
    return result


def make_cell(config: ExperimentConfig, radii: DomainRadii, tau0: float,
              grid: InteriorGrid, node_count: int | None, k: float,
              delta: float) -> Cell:
    """Plan -> problem -> quadrature -> bases -> operator -> SVD -> data."""
    plan = select_parameters(k, delta, config.eta, radii, tau0)
    if plan.N >= N_MAX:
        raise ValidationError(
            "order_cap_reached",
            f"k={k}, delta={delta} selects N >= N_MAX={N_MAX}, "
            "beyond what the basis can resolve")
    nodes = node_count or default_node_count(plan.N)
    basis_bytes = 48 * (2 * plan.N + 1) * (grid.points.shape[0] + nodes)
    if basis_bytes > BASIS_BUDGET_BYTES:
        raise ValidationError(
            "problem_too_large",
            f"k={k}, delta={delta} (N={plan.N}, M_q={nodes}, "
            f"{grid.points.shape[0]} grid points) needs {basis_bytes} bytes "
            f"of basis values and gradients, above {BASIS_BUDGET_BYTES}")
    problem = make_problem(radii, k, tau0, plan.N)
    rule = build_quadrature(config.curve, nodes)
    boundary_basis = basis_values(problem.basis, plan.N + 1, rule.points)
    system = svd(trace_operator(problem, rule, boundary_basis))
    data = plane_wave_data(problem, rule, config.direction)
    grid_basis = basis_values(problem.basis, plan.N + 1, grid.points)
    exact = PlaneWave(k=k, direction=config.direction)
    return Cell(plan=plan, problem=problem, rule=rule, system=system,
                data=data, exact=exact, grid=grid, grid_basis=grid_basis,
                boundary_basis=boundary_basis,
                grid_exact=(exact.value(grid.points),
                            exact.gradient(grid.points)),
                boundary_exact=(exact.value(rule.points),
                                exact.gradient(rule.points)))


# ---------------------------------------------------------------------------
# Output writers
# ---------------------------------------------------------------------------
def _meta_lines(meta: dict) -> list[str]:
    return [f"# {key}={json.dumps(value)}" for key, value in meta.items()]


def _write_text(path: str, lines: list[str]) -> None:
    """Write lines to path, making its directory; a path that cannot be
    written is a configuration error (exit 2), not a crash."""
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise ValidationError("output_unwritable",
                              f"cannot write {path}: {exc}") from exc


def write_report_json(path: str, report: dict) -> None:
    _write_text(path, [json.dumps(report, indent=2, sort_keys=True)])


def write_coefficients_csv(path: str, coeffs: CoefficientVector,
                           meta: dict) -> None:
    lines = _meta_lines(meta)
    lines.append("n,real,imag")
    n_order = coeffs.order
    for i, value in enumerate(coeffs.coeffs):
        lines.append(f"{i - n_order},{float(value.real)!r},{float(value.imag)!r}")
    _write_text(path, lines)


_SWEEP_COLUMNS = ("row_type,k,delta,seed,N,alpha,M_q,m_overridden,mu_min,"
                  "rel_l2_interior,rel_h1semi_interior,rel_l2_boundary,"
                  "rel_l2_normal_derivative,error")


def _sweep_row(cell: Cell, result: CaseResult) -> str:
    rep = result.report
    return ",".join([
        "cell", repr(cell.problem.k), repr(cell.plan.delta),
        str(result.seed), str(cell.plan.N), repr(cell.plan.alpha),
        str(cell.rule.size), str(int(cell.problem.m_overridden)),
        repr(cell.system.mu_min), repr(rep.rel_l2_interior),
        repr(rep.rel_h1semi_interior), repr(rep.rel_l2_boundary),
        repr(rep.rel_l2_normal_derivative), ""])


def _failed_row(k: float, delta: float, seed: int, code: str) -> str:
    return ",".join(["cell", repr(k), repr(delta), str(seed)]
                    + [""] * 9 + [code])


def _median_row(cell: Cell, group: list[CaseResult]) -> str:
    med = lambda pick: np.median([pick(r) for r in group])
    return ",".join([
        "median", repr(cell.problem.k), repr(cell.plan.delta), "",
        str(cell.plan.N), repr(cell.plan.alpha), str(cell.rule.size),
        str(int(cell.problem.m_overridden)),
        f"{cell.system.mu_min:.6e}",
        f"{med(lambda r: r.report.rel_l2_interior):.6e}",
        f"{med(lambda r: r.report.rel_h1semi_interior):.6e}",
        f"{med(lambda r: r.report.rel_l2_boundary):.6e}",
        f"{med(lambda r: r.report.rel_l2_normal_derivative):.6e}", ""])


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------
def _single(values: list, what: str) -> float:
    if len(values) != 1:
        raise ValidationError("expected_single_case",
                              f"this command needs a single {what}, got {values}")
    return values[0]


def _prepare(config: ExperimentConfig):
    radii = compute_radii(config.curve)
    tau0 = resolve_tau0(config, radii)
    grid = build_interior_grid(config.curve, radii, config.grid_resolution)
    node_count = None if config.node_count == "auto" else int(config.node_count)
    return radii, tau0, grid, node_count


def run_solve(config: ExperimentConfig, out_dir: str) -> dict:
    """Solve a single (k, delta) case and write report + coefficients."""
    k = _single(config.k_list, "k")
    delta = _single(config.delta_list, "delta")
    radii, tau0, grid, node_count = _prepare(config)
    cell = make_cell(config, radii, tau0, grid, node_count, k, delta)
    result = _solve_one(cell, config.seeds[0])
    meta = case_metadata(cell, result, config)
    report = {**result.report.as_dict(), "metadata": meta}
    write_report_json(os.path.join(out_dir, "report.json"), report)
    write_coefficients_csv(os.path.join(out_dir, "coefficients.csv"),
                           result.coefficients, meta)
    logger.info("solve: k=%g delta=%g N=%d -> interior %.3e, boundary %.3e",
                k, delta, cell.plan.N, result.report.rel_l2_interior,
                result.report.rel_l2_boundary)
    return report


def _sweep_cell(config: ExperimentConfig, radii, tau0, grid, node_count,
                k: float, delta: float) -> tuple[list[str], list[FbmError]]:
    """The rows of one (k, delta) cell, one per seed and then a median row
    if any seed solved, with the errors of the rows that failed. The cell
    is dropped on return, so the sweep holds one cell's bases at a time."""
    try:
        cell = make_cell(config, radii, tau0, grid, node_count, k, delta)
    except FbmError as exc:
        logger.warning("sweep cell (k=%g, delta=%g) failed: %s", k, delta, exc)
        return [_failed_row(k, delta, seed, exc.code)
                for seed in config.seeds], [exc]
    rows: list[str] = []
    errors: list[FbmError] = []
    group: list[CaseResult] = []
    for seed, result in zip(config.seeds, cell.solve(config.seeds)):
        if isinstance(result, FbmError):
            logger.warning("sweep cell (k=%g, delta=%g, seed=%d) failed: %s",
                           k, delta, seed, result)
            rows.append(_failed_row(k, delta, seed, result.code))
            errors.append(result)
        else:
            rows.append(_sweep_row(cell, result))
            group.append(result)
    if group:
        rows.append(_median_row(cell, group))
    return rows, errors


def run_sweep(config: ExperimentConfig, out_dir: str) -> str:
    """Sweep the (k, delta, seed) lattice into one CSV table.

    A sweep in which no cell solved raises: the first cell's
    ValidationError when every failure was one (a config error, exit 2),
    otherwise NumericalError all_cells_failed (exit 3).
    """
    radii, tau0, grid, node_count = _prepare(config)
    all_rows: list[str] = []
    errors: list[FbmError] = []
    for k in config.k_list:
        for delta in config.delta_list:
            rows, failures = _sweep_cell(config, radii, tau0, grid,
                                         node_count, k, delta)
            all_rows += rows
            errors += failures
    # a cell writes its median row exactly when one of its seeds solved
    if not any(row.startswith("median,") for row in all_rows):
        if all(isinstance(exc, ValidationError) for exc in errors):
            raise errors[0]
        raise NumericalError("all_cells_failed", "every sweep cell failed")
    meta = {
        "command": "sweep", "curve": config.curve.name,
        "k": config.k_list, "delta": config.delta_list, "eta": config.eta,
        "tau0": tau0, "tau_min": radii.tau_min,
        "M_q": config.node_count, "grid_resolution": config.grid_resolution,
        "seeds": config.seeds, "direction": list(map(float, config.direction)),
        "column_order": "n=-N..N",
        "noise_model": "complex gaussian, exact relative L2(Gamma) norm",
        "version": __version__,
    }
    path = os.path.join(out_dir, "sweep.csv")
    _write_text(path, _meta_lines(meta) + [_SWEEP_COLUMNS] + all_rows)
    logger.info("sweep: wrote %d rows to %s", len(all_rows), path)
    return path


def run_svd_study(config: ExperimentConfig, out_dir: str, n_list) -> str:
    """Record mu_min against truncation order N, with the fitted slope."""
    k = _single(config.k_list, "k")
    radii = compute_radii(config.curve)
    tau0 = resolve_tau0(config, radii)
    node_count = None if config.node_count == "auto" else int(config.node_count)
    study = svd_decay_study(config.curve, radii, k, tau0, n_list,
                            node_count=node_count)
    products = study.bound_products(tau0)
    meta = {
        "command": "svd", "curve": config.curve.name, "k": k,
        "eta": config.eta, "tau0": tau0, "tau_min": radii.tau_min,
        "M_q": study.node_count, "version": __version__,
    }
    lines = _meta_lines(meta)
    lines.append("N,mu_min,bound_product")
    for n_exp, mu, prod in zip(study.orders, study.mu_min, products):
        lines.append(f"{int(n_exp)},{float(mu)!r},{float(prod)!r}")
    slope = "n/a" if study.slope is None else repr(study.slope)
    lines.append(f"# fitted_slope={slope}")
    path = os.path.join(out_dir, "svd_study.csv")
    _write_text(path, lines)
    logger.info("svd study: %d orders, slope %s", study.orders.size, slope)
    return path


def run_trace_plot(config: ExperimentConfig, out_dir: str, k: float,
                   delta: float, seed: int) -> tuple[str, str]:
    """Write Re u and Re u_N at 512 equispaced boundary parameters t as
    (t, value) files."""
    [k] = _as_number_list(k, "k", **_K_RANGE)
    [delta] = _as_number_list(delta, "delta", **_DELTA_RANGE)
    [seed] = _as_seed_list([seed])
    radii, tau0, grid, node_count = _prepare(config)
    cell = make_cell(config, radii, tau0, grid, node_count, k, delta)
    result = _solve_one(cell, seed)
    t = 2.0 * np.pi * np.arange(_TRACE_SAMPLES) / _TRACE_SAMPLES
    points = curve_point(config.curve, t)
    u_exact = np.real(cell.exact.value(points))
    u_numeric = np.real(evaluate_field(cell.problem, result.coefficients,
                                       points))
    meta = case_metadata(cell, result, config)
    meta["command"] = "plot"
    paths = (os.path.join(out_dir, "trace_exact.txt"),
             os.path.join(out_dir, "trace_numeric.txt"))
    for path, series in zip(paths, (u_exact, u_numeric)):
        lines = _meta_lines(meta)
        lines.extend(f"{float(ti)!r} {float(vi)!r}" for ti, vi in zip(t, series))
        _write_text(path, lines)
    logger.info("plot: wrote %d samples, max gap %.3e", _TRACE_SAMPLES,
                float(np.max(np.abs(u_exact - u_numeric))))
    return paths


# ---------------------------------------------------------------------------
# Argument parsing and entry point
# ---------------------------------------------------------------------------
def _parse_order_list(text: str) -> list[int]:
    """Parse "4..24:2" (inclusive range with step) or "4,6,8". Each order,
    and each end of a range before it is listed, must lie in 0..N_MAX."""
    def order(part: str) -> int:
        n = int(part)
        if not 0 <= n <= N_MAX:
            raise ValidationError("bad_order_list",
                                  f"order {n} in {text!r} lies outside 0..{N_MAX}")
        return n

    try:
        if ".." in text:
            start_part, _, rest = text.partition("..")
            stop_part, _, step_part = rest.partition(":")
            step = int(step_part) if step_part else 1
            return list(range(order(start_part), order(stop_part) + 1, step))
        return [order(item) for item in text.split(",")]
    except ValueError as exc:
        raise ValidationError("bad_order_list",
                              f"cannot parse order list {text!r}") from exc


class _Parser(argparse.ArgumentParser):
    """Reports bad arguments as a ValidationError, so they exit 2 with one
    JSON record like any other input error; subparsers inherit it."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValidationError("bad_arguments", f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fbm",
        description="Fourier-Bessel solver for the 2D Helmholtz impedance problem")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="path to JSON config")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("-v", "--verbose", action="store_true")

    p_solve = sub.add_parser("solve", help="solve a single (k, delta) case")
    common(p_solve)

    p_sweep = sub.add_parser("sweep", help="sweep over k, delta, and seeds")
    common(p_sweep)

    p_svd = sub.add_parser("svd", help="smallest-singular-value decay study")
    common(p_svd)
    p_svd.add_argument("--N", required=True, dest="orders",
                       help="orders, e.g. 4..24:2 or 4,8,12")

    p_plot = sub.add_parser("plot", help="boundary trace data for plotting")
    common(p_plot)
    p_plot.add_argument("--k", type=float, required=True)
    p_plot.add_argument("--delta", type=float, required=True)
    p_plot.add_argument("--seed", type=int, default=1)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        logging.basicConfig(
            level=logging.DEBUG if args.verbose else logging.INFO,
            format="%(levelname)s %(name)s: %(message)s")
        config = load_config(args.config)
        out_dir = args.out or config.output_dir
        if args.command == "solve":
            run_solve(config, out_dir)
        elif args.command == "sweep":
            run_sweep(config, out_dir)
        elif args.command == "svd":
            run_svd_study(config, out_dir, _parse_order_list(args.orders))
        elif args.command == "plot":
            run_trace_plot(config, out_dir, args.k, args.delta, args.seed)
        return 0
    except ValidationError as exc:
        print(json.dumps({"error": exc.code, "message": exc.message}),
              file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(json.dumps({"error": exc.code, "message": exc.message}),
              file=sys.stderr)
        return 3
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        print(json.dumps({"error": "numerical_failure", "message": str(exc)}),
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
