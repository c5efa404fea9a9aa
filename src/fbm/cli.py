"""Command-line front end: solve, sweep, svd, and plot subcommands.

The driver executes the three-step algorithm behind every case:
measure the domain radii, select (N, alpha) from (k, delta), then solve
the regularized normal equation and report relative errors.

solve, sweep and plot reach their cells through one function,
wavenumber_cells, the one owner of a cell's stages: it plans, builds and
solves each (k, delta) cell and yields the ``Cell`` with its seeds'
results, or the one error that stopped it; solve and plot are its one-k,
one-delta case. A cell holds everything that does not depend on the noise
seed: the plan, problem, quadrature rule, SVD, exact data and the basis
values of order N + 1 on the boundary, in the real nested form
(special.nested_values: rows Re phi_0, Re phi_1, Im phi_1, ...), the one
form in which the basis is evaluated and passed on; the trace operator
reads the boundary rows as they are. The grid part depends on k alone
(delta only picks N), so the cell holds its k's ``WaveGrid``: the interior
grid, the plane wave, the nested grid basis of order N_top + 1 and the
exact grid samples, evaluated once per k, with N_top the largest order
among the k's cells that pass validation. It is evaluated after the
boundary stages of the k's first cell that builds (quadrature, boundary
basis, trace operator, SVD and data), so the grid basis is not yet
allocated while the operator and the SVD's workspace are; a k none of
whose cells builds evaluates none. A cell's grid basis is the leading
2N + 3 rows of that array, a view. A seed then costs noise and a Tikhonov
solve; the error norms of a cell's seeds come from one fields.error_norms
pass, which takes the seeds and the grid points in fixed blocks. A cell is
also the unit of failure: no error it can raise depends on the seed, so
it solves every seed or fails as a whole, and a sweep marks every seed
row of a failed cell with the error's code.

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
from collections.abc import Iterator
from dataclasses import asdict, astuple, dataclass, fields

import numpy as np

from . import __version__
from .assembly import (PlaneWave, WaveProblem, add_noise, impedance_data,
                       make_problem, trace_operator)
from .errors import FbmError, NumericalError, ValidationError
from .fields import (ErrorReport, InteriorGrid, build_interior_grid,
                     error_norms, error_pass_bytes, evaluate_field)
from .geometry import (BoundaryCurve, DomainRadii, QuadratureRule,
                       build_quadrature, compute_radii, curve_point,
                       default_node_count, named_curve)
from .special import N_MAX, nested_values
from .tikhonov import (CoefficientVector, RegularizationPlan, SingularSystem,
                       select_parameters, svd, svd_decay_study, tikhonov_solve)

logger = logging.getLogger(__name__)

_DEFAULT_DIRECTION = (0.5, math.sqrt(3.0) / 2.0)
_DEFAULT_SEEDS = tuple(range(1, 11))

# Input ceilings: "auto" picks M_q <= 16 N_MAX + 64 = 2112 and the
# reference grid is 200, so these leave wide headroom.
MAX_NODE_COUNT = 65536
MAX_GRID_RESOLUTION = 2048
# Memory a cell may spend, counted before any basis is evaluated: its nested
# basis rows of order N + 1 (8 bytes per point and row, grid and boundary),
# the trace operator and the SVD's left vectors beside it (at most 16 bytes per
# node and column each; LAPACK's workspace is not counted), and one error
# pass's products (fields.error_pass_bytes).
# A WaveGrid has the order of a cell that passed this check.
BASIS_BUDGET_BYTES = 2 ** 30
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


def _reject_unknown(raw: dict, known, what: str) -> None:
    # a misspelt key would otherwise run its default silently
    unknown = [key for key in raw if key not in known]
    if unknown:
        raise ValidationError("unknown_field", f"unknown {what} key(s) "
                              f"{unknown}; known: {', '.join(known)}")


def _parse_curve(spec) -> BoundaryCurve:
    if isinstance(spec, str):
        return named_curve(spec)
    if isinstance(spec, dict):
        defaults = {"x1_cos": [0.0], "x1_sin": [0.0], "x2_cos": [0.0],
                    "x2_sin": [0.0], "name": "custom"}
        _reject_unknown(spec, defaults, "curve")
        try:
            return BoundaryCurve(**{**defaults, **spec})
        except (TypeError, ValueError) as exc:
            raise ValidationError("bad_curve_spec", str(exc)) from exc
    raise ValidationError("bad_curve_spec",
                          "curve must be a name or a coefficient object")


def build_config(raw: dict) -> ExperimentConfig:
    """Validate a raw JSON document into an ExperimentConfig."""
    if not isinstance(raw, dict):
        raise ValidationError("bad_config", "configuration must be a JSON object")
    _reject_unknown(raw, ("curve", "k", "delta", "eta", "tau0", "seeds", "M_q",
                          "grid_resolution", "direction", "output_dir"), "configuration")
    for req in ("curve", "k", "delta"):
        if req not in raw:
            raise ValidationError("missing_field", f"configuration needs {req!r}")
    curve = _parse_curve(raw["curve"])
    k_list = _as_number_list(raw["k"], "k", lower=0.0, lower_open=True)
    delta_list = _as_number_list(raw["delta"], "delta", lower=0.0, upper=1.0,
                                 upper_open=True)

    eta = _as_number(raw.get("eta", 5.0), "eta")
    if eta <= 1.0:
        raise ValidationError("eta_too_small", f"eta must exceed 1, got {eta}")

    tau0 = raw.get("tau0", "auto")
    if tau0 != "auto":
        tau0 = _as_number(tau0, "tau0")

    seeds = raw.get("seeds", list(_DEFAULT_SEEDS))
    if not isinstance(seeds, list) or not seeds:
        raise ValidationError("seeds_empty", "seeds must be a nonempty list")
    # JSON integers only: int() would truncate 1.7, parse "3" and take true
    if not all(isinstance(s, int) and not isinstance(s, bool) for s in seeds):
        raise ValidationError("bad_field", f"seeds must be integers, got {seeds}")
    if min(seeds) < 0:
        raise ValidationError("bad_field", f"seeds must be non-negative, got {seeds}")

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
    PlaneWave(1.0, direction)            # raises direction_not_unit

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
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and UnicodeDecodeError
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


def case_metadata(cell: Cell, result: CaseResult,
                  config: ExperimentConfig) -> dict:
    plan, problem = cell.plan, cell.problem
    return {
        "k": problem.k,
        "delta": plan.delta,
        "eta": plan.eta,
        "tau0": plan.tau0,
        "tau_min": plan.tau_min,
        "branch": plan.branch,
        "N": plan.N,
        "alpha": plan.alpha,
        "M_q": cell.rule.size,
        "grid_resolution": cell.shared.grid.resolution,
        "grid_excluded_fraction": cell.shared.grid.excluded_fraction,
        "seed": result.seed,
        "m_overridden": problem.m_overridden,
        "M": problem.M,
        "r_in": problem.r_in,
        "r_ex": problem.r_ex,
        "mu_min": cell.system.mu_min,
        "curve": config.curve.name,
        **_run_metadata(config),
    }


def _run_metadata(config: ExperimentConfig) -> dict:
    """The tail that solve's, plot's and sweep's metadata share."""
    return {
        "direction": list(map(float, config.direction)),
        "column_order": "n=-N..N",
        "noise_model": "complex gaussian, exact relative L2(Gamma) norm",
        "version": __version__,
    }


@dataclass(frozen=True)
class Setup:
    """What every cell of a config shares: the domain radii, the numeric
    tau0, the interior grid and the quadrature size (None for "auto")."""

    config: ExperimentConfig
    radii: DomainRadii
    tau0: float
    grid: InteriorGrid
    node_count: int | None


@dataclass(frozen=True)
class WaveGrid:
    """The interior grid as the cells of one wavenumber see it, evaluated
    after the boundary stages of the k's first cell that builds.

    ``values`` are the nested basis values of order N_top + 1 at
    grid.points, as nested_values returns them: the transposed view of an
    order-major (2 N_top + 3, P) float array, with N_top the largest N
    among the k's cells. The nested values of any order N + 1 <= N_top + 1
    are its leading 2N + 3 rows, so rows(N) hands a cell of order N the
    bits that nested_values(basis, N + 1, grid.points) returns, as a view.
    """

    grid: InteriorGrid
    values: np.ndarray               # (P, 2 N_top + 3)
    wave: PlaneWave                  # the exact solution at this k
    exact: tuple                     # its (values, gradients) at grid.points

    def rows(self, N: int) -> np.ndarray:
        """The values of order N + 1, shape (P, 2N+3)."""
        return self.values.T[:2 * N + 3].T


@dataclass(frozen=True)
class Cell:
    """The seed-independent half of one (k, delta) case.

    The basis values of order N + 1 on the boundary are evaluated once, by
    one nested_values call; the cell keeps these rows, and the trace
    operator is formed from them. The plane wave's values and gradients
    there are sampled once, and the data, the weighted (M_q,) complex
    vector that every seed's add_noise reads and none writes, is formed
    from them. The cell holds its k's WaveGrid, ``shared``: the grid, the
    plane wave, and the grid basis and samples, of which the cell reads the
    basis's leading rows as a view; make_cell evaluates it after the data
    of the k's first cell that builds. Each seed then costs noise and a
    Tikhonov solve, and the seeds share one error pass (fields.error_norms).
    """

    plan: RegularizationPlan
    problem: WaveProblem
    rule: QuadratureRule
    system: SingularSystem
    data: np.ndarray                 # weighted (M_q,) complex
    shared: WaveGrid                 # the k's grid, wave and grid samples
    boundary_basis: np.ndarray       # nested values of order N + 1, nodes
    boundary_exact: tuple            # exact (values, gradients) at rule.points

    def solve(self, seeds: list[int]) -> list[CaseResult]:
        """Noise -> Tikhonov solve per seed, then one error pass over them
        all. What can fail here depends on delta, alpha, the SVD and the
        exact data, never on the seed, so an FbmError is the cell's and
        propagates to wavenumber_cells."""
        coeffs = [tikhonov_solve(self.system,
                                 add_noise(self.data, self.plan.delta, seed,
                                           self.rule),
                                 self.plan.alpha) for seed in seeds]
        shared = self.shared
        reports = error_norms(self.problem.basis, coeffs, shared.grid,
                              self.rule, shared.rows(self.plan.N),
                              self.boundary_basis, shared.exact,
                              self.boundary_exact)
        return [CaseResult(seed=seed, coefficients=c, report=report)
                for seed, c, report in zip(seeds, coeffs, reports)]


def _plan_cell(setup: Setup, k: float, delta: float,
               seed_count: int) -> tuple[RegularizationPlan, int, WaveProblem]:
    """Plan, quadrature size and problem of a (k, delta) cell, with every
    check that must pass before any of its bases is evaluated."""
    config = setup.config
    plan = select_parameters(k, delta, config.eta, setup.radii, setup.tau0)
    nodes = setup.node_count or default_node_count(plan.N)
    grid_points = setup.grid.points.shape[0]
    rows = 2 * plan.N + 3
    needed = (8 * rows * (grid_points + nodes) + 32 * rows * nodes
              + error_pass_bytes(seed_count, grid_points, nodes))
    if needed > BASIS_BUDGET_BYTES:
        raise ValidationError(
            "problem_too_large",
            f"k={k}, delta={delta} (N={plan.N}, M_q={nodes}, "
            f"{grid_points} grid points, {seed_count} seeds) needs "
            f"{needed} bytes of bases, singular vectors and error-pass "
            f"products, above {BASIS_BUDGET_BYTES}")
    return plan, nodes, make_problem(setup.radii, k, setup.tau0, plan.N)


def make_cell(setup: Setup, wave: PlaneWave, shared: WaveGrid | None,
              top: int, plan: RegularizationPlan, nodes: int,
              problem: WaveProblem) -> Cell:
    """Quadrature -> boundary basis -> operator -> SVD -> data of a cell
    planned by _plan_cell, on its k's plane wave, then its k's WaveGrid:
    ``shared``, or, when that is None, a new one of order top + 1 on
    setup.grid, evaluated only now, so that the grid basis is not allocated
    under the operator and the SVD."""
    rule = build_quadrature(setup.config.curve, nodes)
    boundary_basis = nested_values(problem.basis, plan.N + 1, rule.points)
    system = svd(trace_operator(problem, rule, boundary_basis))
    boundary_exact = wave.samples(rule.points)
    data = impedance_data(problem.k, rule, boundary_exact)
    if shared is None:
        points = setup.grid.points
        shared = WaveGrid(grid=setup.grid,
                          values=nested_values(problem.basis, top + 1, points),
                          wave=wave, exact=wave.samples(points))
    return Cell(plan=plan, problem=problem, rule=rule, system=system,
                data=data, shared=shared, boundary_basis=boundary_basis,
                boundary_exact=boundary_exact)


def wavenumber_cells(setup: Setup, k: float, deltas: list, seeds: list[int]
                     ) -> Iterator[tuple[Cell, list[CaseResult]] | FbmError]:
    """The cells of k solved for seeds: per delta in order, the Cell and
    its results, or the one FbmError that stopped it in planning (once per
    delta), make_cell or Cell.solve, without the traceback whose frames
    would keep the cell or the k's WaveGrid alive. The cells that pass
    planning share one WaveGrid of the largest order among them, evaluated
    by the first that finishes its boundary stages, so a k none of whose
    cells builds evaluates no grid basis. Each cell is built when asked
    for, after the generator has dropped the one before, so a consumer
    that drops a cell before asking for the next holds one at a time."""
    plans: list = []
    for delta in deltas:
        try:
            plans.append(_plan_cell(setup, k, delta, len(seeds)))
        except FbmError as exc:
            plans.append(exc.with_traceback(None))
    top = max((p[0].N for p in plans if not isinstance(p, FbmError)),
              default=0)
    wave = PlaneWave(k=k, direction=setup.config.direction)
    shared: WaveGrid | None = None
    # outcome alone names a cell: a second name, even one cleared before the
    # yield, has made the reference sweep fault its heap in on every call
    for outcome in plans:
        if not isinstance(outcome, FbmError):
            try:
                outcome = make_cell(setup, wave, shared, top, *outcome)
                shared = outcome.shared
                outcome = outcome, outcome.solve(seeds)
            except FbmError as exc:
                outcome = exc.with_traceback(None)
        yield outcome


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


# the columns a failed cell leaves blank; the norm columns are ErrorReport's
# fields, in their order
_VALUE_COLUMNS = ("N", "alpha", "M_q", "m_overridden", "mu_min",
                  *(norm.name for norm in fields(ErrorReport)))
_SWEEP_COLUMNS = ",".join(["row_type", "k", "delta", "seed", *_VALUE_COLUMNS,
                           "error"])


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------
def _single(values: list, what: str) -> float:
    if len(values) != 1:
        raise ValidationError("expected_single_case",
                              f"this command needs a single {what}, got {values}")
    return values[0]


def _resolve(config: ExperimentConfig) -> tuple[DomainRadii, float, int | None]:
    """The domain radii, numeric tau0 and quadrature size (None for
    "auto"), which every command needs."""
    radii = compute_radii(config.curve)
    return radii, resolve_tau0(config, radii), (
        None if config.node_count == "auto" else int(config.node_count))


def _prepare(config: ExperimentConfig) -> Setup:
    radii, tau0, node_count = _resolve(config)
    grid = build_interior_grid(config.curve, radii, config.grid_resolution)
    return Setup(config, radii, tau0, grid, node_count)


def _solve_case(config: ExperimentConfig) -> tuple[Cell, CaseResult]:
    """The config's single (k, delta) cell solved for its first seed, the
    one-k, one-delta case of wavenumber_cells, which solve and plot run;
    raises the FbmError that stopped the cell."""
    k = _single(config.k_list, "k")
    delta = _single(config.delta_list, "delta")
    [outcome] = wavenumber_cells(_prepare(config), k, [delta],
                                 config.seeds[:1])
    if isinstance(outcome, FbmError):
        raise outcome
    cell, [result] = outcome
    return cell, result


def run_solve(config: ExperimentConfig, out_dir: str) -> dict:
    """Solve a single (k, delta) case and write report + coefficients."""
    cell, result = _solve_case(config)
    meta = case_metadata(cell, result, config)
    report = {**asdict(result.report), "metadata": meta}
    write_report_json(os.path.join(out_dir, "report.json"), report)
    write_coefficients_csv(os.path.join(out_dir, "coefficients.csv"),
                           result.coefficients, meta)
    logger.info("solve: k=%g delta=%g N=%d -> interior %.3e, boundary %.3e",
                cell.problem.k, cell.plan.delta, cell.plan.N,
                result.report.rel_l2_interior, result.report.rel_l2_boundary)
    return report


def _cell_rows(config: ExperimentConfig, k: float, delta: float,
               outcome: tuple[Cell, list[CaseResult]] | FbmError
               ) -> tuple[list[str], FbmError | None]:
    """The sweep.csv data rows of one (k, delta) cell as wavenumber_cells
    yielded it, and its error; the one function that formats a data row.

    A cell that solved gives a row per seed, its values as repr, then a
    median row with a blank seed, mu_min and each norm's median over the
    seeds as %.6e; both share N, alpha, M_q and m_overridden. A failed cell
    gives a row per seed with every value column blank and the error's
    code, and no median row.
    """
    lead = f"{k!r},{delta!r}"
    if isinstance(outcome, FbmError):
        logger.warning("sweep cell (k=%g, delta=%g) failed: %s", k, delta,
                       outcome)
        blank = "," * len(_VALUE_COLUMNS)
        return [f"cell,{lead},{seed}{blank},{outcome.code}"
                for seed in config.seeds], outcome
    cell, results = outcome
    mu_min = cell.system.mu_min
    shared = (f"{cell.plan.N},{cell.plan.alpha!r},{cell.rule.size},"
              f"{int(cell.problem.m_overridden)}")
    norms = [astuple(result.report) for result in results]
    rows = [f"cell,{lead},{result.seed},{shared},{mu_min!r},"
            f"{','.join(map(repr, values))},"
            for result, values in zip(results, norms)]
    median = np.median(norms, axis=0)
    rows.append(f"median,{lead},,{shared},{mu_min:.6e},"
                f"{','.join(f'{value:.6e}' for value in median)},")
    return rows, None


def run_sweep(config: ExperimentConfig, out_dir: str) -> str:
    """Sweep the (k, delta, seed) lattice into one CSV table.

    A sweep in which no cell solved raises: the first cell's
    ValidationError when every failure was one (a config error, exit 2),
    otherwise NumericalError all_cells_failed (exit 3).
    """
    setup = _prepare(config)
    all_rows: list[str] = []
    errors: list[FbmError] = []
    for k in config.k_list:
        # next() rather than zip, whose reused result tuple would keep each
        # cell alive while the next one is built
        cells = wavenumber_cells(setup, k, config.delta_list, config.seeds)
        for delta in config.delta_list:
            rows, error = _cell_rows(config, k, delta, next(cells))
            all_rows += rows
            if error is not None:
                errors.append(error)
    if len(errors) == len(config.k_list) * len(config.delta_list):
        if all(isinstance(exc, ValidationError) for exc in errors):
            raise errors[0]
        raise NumericalError("all_cells_failed", "every sweep cell failed")
    meta = {
        "command": "sweep", "curve": config.curve.name,
        "k": config.k_list, "delta": config.delta_list, "eta": config.eta,
        "tau0": setup.tau0, "tau_min": setup.radii.tau_min,
        "M_q": config.node_count, "grid_resolution": config.grid_resolution,
        "seeds": config.seeds, **_run_metadata(config),
    }
    path = os.path.join(out_dir, "sweep.csv")
    _write_text(path, _meta_lines(meta) + [_SWEEP_COLUMNS] + all_rows)
    logger.info("sweep: wrote %d rows to %s", len(all_rows), path)
    return path


def run_svd_study(config: ExperimentConfig, out_dir: str, n_list) -> str:
    """Record mu_min against truncation order N, with the fitted slope."""
    k = _single(config.k_list, "k")
    radii, tau0, node_count = _resolve(config)
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


def run_trace_plot(config: ExperimentConfig, out_dir: str) -> tuple[str, str]:
    """Write Re u and Re u_N of solve's case at 512 equispaced boundary
    parameters t as (t, value) files."""
    cell, result = _solve_case(config)
    t = 2.0 * np.pi * np.arange(_TRACE_SAMPLES) / _TRACE_SAMPLES
    points = curve_point(config.curve, t)
    u_exact = np.real(cell.shared.wave.value(points))
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
            run_trace_plot(config, out_dir)
        return 0
    except FbmError as exc:
        print(json.dumps({"error": exc.code, "message": exc.message}),
              file=sys.stderr)
        return 2 if isinstance(exc, ValidationError) else 3
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        print(json.dumps({"error": "numerical_failure", "message": str(exc)}),
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
