"""The three benchmark workloads: generated configs and output checks.

Each workload is one ``fbm`` command on the built-in kite. Its config is
generated from the benchmark seed, which picks the incidence direction
(a unit vector) and the noise seeds; the program sees only the config
file. After every invocation the command's output file is read back and
checked case by case, where a case is one (k, delta, seed) row, or one
order N for ``svd-decay``.

The checks hold the paper's selection rule and the acceptance criteria
of ``tests/test_acceptance.py`` with their tolerances unchanged. The
selection rule is re-derived here rather than imported, so a change to
``fbm.tikhonov.select_parameters`` shows up as failed cases.
"""

from __future__ import annotations

import csv
import json
import math
import random
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ETA = 5.0
TAU0 = 2.2
KITE_RADII = (0.923, 1.985)          # preset (r_in_max, r_ex_min) of the kite
DELTA_FLOOR = 1e-16
NORMS = ("rel_l2_interior", "rel_h1semi_interior", "rel_l2_boundary",
         "rel_l2_normal_derivative")

SWEEP_K = (0.5, 1.0, 5.0)
SWEEP_DELTA = (1e-16, 0.01, 0.05)
SWEEP_SEEDS = 10
NOISE_FREE_MAX = 1e-8                # acceptance criterion 1
# k = 20, delta = 1e-16: N = 40 leaves errors near 1e-4, not at rounding
# level. The seed commit's largest norm over 40 generated directions and
# noise seeds was 1.06e-3 (rel_l2_normal_derivative); the ceiling sits
# about ten times above it.
HIGHK_NORM_MAX = 1e-2
SVD_ORDERS = tuple(range(4, 81, 2))
# Below this mu_min sits at the double-precision floor of an operator
# whose largest singular value is O(1); there it may wander by rounding.
MU_FLOOR = 1e-12


@dataclass
class Outcome:
    """Cases of one invocation and which of them failed a check."""

    cases: int
    failed: set = field(default_factory=set)
    problems: list = field(default_factory=list)
    rel_l2_interior: list = field(default_factory=list)

    def fail(self, cases, why: str) -> None:
        self.failed.update(cases)
        self.problems.append(why)


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple                      # fbm subcommand and its own flags
    output: str                      # file the command writes
    cases: int                       # cases per invocation
    needs_grid: bool                 # set-up builds the interior grid
    make_config: Callable[[random.Random], dict]
    check: Callable[[Path, dict], Outcome]


def selection_rule(k: float, delta: float) -> tuple[int, float]:
    """(N, alpha) of the paper's two-branch rule on the kite."""
    tau_min = KITE_RADII[1] / KITE_RADII[0]
    delta_eff = max(delta, DELTA_FLOOR)
    loglog = math.log(abs(math.log(delta_eff)))
    if k <= 1.0:
        n = math.ceil(ETA * loglog)
        return n, k * k * delta_eff * TAU0 ** (-2 * n)
    n = math.ceil(11.0 * math.log(k) / (2.0 * math.log(tau_min)) + ETA * loglog)
    return n, delta_eff / (k * TAU0 ** (2 * n))


def _plan_problem(k: float, delta: float, n, alpha) -> str | None:
    n_ref, alpha_ref = selection_rule(k, delta)
    if int(n) != n_ref or abs(float(alpha) - alpha_ref) > 1e-12 * alpha_ref:
        return (f"k={k} delta={delta}: (N, alpha) = ({n}, {alpha}), "
                f"rule gives ({n_ref}, {alpha_ref})")
    return None


def _base_config(rng: random.Random, **fields) -> dict:
    angle = rng.uniform(0.0, 2.0 * math.pi)
    return {"curve": "kite", "eta": ETA, "tau0": TAU0, "M_q": "auto",
            "direction": [math.cos(angle), math.sin(angle)], **fields}


def _noise_seeds(rng: random.Random, count: int) -> list:
    return rng.sample(range(1, 2 ** 31), count)


# ---------------------------------------------------------------------------
# sweep-ref
# ---------------------------------------------------------------------------
def _sweep_config(rng: random.Random) -> dict:
    return _base_config(rng, k=list(SWEEP_K), delta=list(SWEEP_DELTA),
                        seeds=_noise_seeds(rng, SWEEP_SEEDS),
                        grid_resolution=200)


def _check_sweep(path: Path, config: dict) -> Outcome:
    keys = [(k, d, s) for k in SWEEP_K for d in SWEEP_DELTA for s in config["seeds"]]
    index = {key: i for i, key in enumerate(keys)}
    out = Outcome(cases=len(keys))
    with open(path, encoding="utf-8") as handle:
        rows = [row for row in csv.DictReader(
            line for line in handle if not line.startswith("#"))
            if row["row_type"] == "cell"]
    seen, norms = set(), {}
    for row in rows:
        key = (float(row["k"]), float(row["delta"]), int(row["seed"]))
        if key not in index or key in seen:
            out.problems.append(f"unexpected row {key}")
            continue
        seen.add(key)
        case = index[key]
        if row["error"]:
            out.fail([case], f"{key}: failed with {row['error']}")
            continue
        why = _plan_problem(key[0], key[1], row["N"], row["alpha"])
        if why:
            out.fail([case], why)
        values = {name: float(row[name]) for name in NORMS}
        norms[key] = values
        if not all(math.isfinite(v) for v in values.values()):
            out.fail([case], f"{key}: non-finite norm {values}")
        elif key[1] == SWEEP_DELTA[0] and max(values.values()) > NOISE_FREE_MAX:
            out.fail([case], f"{key}: noise-free norm above {NOISE_FREE_MAX}: {values}")
        out.rel_l2_interior.append(values["rel_l2_interior"])
    missing = [index[key] for key in keys if key not in seen]
    if missing:
        out.fail(missing, f"{len(missing)} rows missing from {path.name}")

    def cell(k, d):
        return [index[(k, d, s)] for s in config["seeds"]]

    def median(k, d, name):
        return statistics.median([norms[(k, d, s)][name] for s in config["seeds"]
                                  if (k, d, s) in norms] or [math.nan])

    # acceptance criterion 2: k = 5, delta = 0.01 median band
    interior, normal = median(5.0, 0.01, NORMS[0]), median(5.0, 0.01, NORMS[3])
    if not (1e-4 <= interior <= 1e-1 and 1e-3 <= normal <= 0.5):
        out.fail(cell(5.0, 0.01), f"criterion 2: medians {interior:.3e}, "
                                  f"{normal:.3e} outside band")
    # acceptance criterion 3: k = 1 error grows >= 3x per noise step
    meds = [median(1.0, d, NORMS[0]) for d in SWEEP_DELTA]
    if not (meds[1] >= 3.0 * meds[0] and meds[2] >= 3.0 * meds[1]):
        out.fail([c for d in SWEEP_DELTA for c in cell(1.0, d)],
                 f"criterion 3: k=1 medians {meds} not 3x monotone")
    return out


# ---------------------------------------------------------------------------
# solve-highk
# ---------------------------------------------------------------------------
def _highk_config(rng: random.Random) -> dict:
    return _base_config(rng, k=20.0, delta=1e-16, seeds=_noise_seeds(rng, 1),
                        grid_resolution=200)


def _check_highk(path: Path, config: dict) -> Outcome:
    out = Outcome(cases=1)
    with open(path, encoding="utf-8") as handle:
        report = json.load(handle)
    meta = report["metadata"]
    why = _plan_problem(config["k"], config["delta"], meta["N"], meta["alpha"])
    if why:
        out.fail([0], why)
    values = {name: float(report[name]) for name in NORMS}
    if not all(math.isfinite(v) and v <= HIGHK_NORM_MAX for v in values.values()):
        out.fail([0], f"norms not finite and <= {HIGHK_NORM_MAX}: {values}")
    out.rel_l2_interior.append(values["rel_l2_interior"])
    return out


# ---------------------------------------------------------------------------
# svd-decay
# ---------------------------------------------------------------------------
def _svd_config(rng: random.Random) -> dict:
    # the svd command reads neither direction nor noise seeds
    return _base_config(rng, k=1.0, delta=1e-16, seeds=_noise_seeds(rng, 1))


def _check_svd(path: Path, config: dict) -> Outcome:
    out = Outcome(cases=len(SVD_ORDERS))
    slope = math.nan
    rows = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("# fitted_slope="):
                slope = float(line.split("=", 1)[1])
            elif line[:1].isdigit():
                n, mu, _ = line.split(",")
                rows.append((int(n), float(mu)))
    orders = tuple(n for n, _ in rows)
    if orders != SVD_ORDERS:
        out.fail(range(out.cases), f"orders {orders} != requested {SVD_ORDERS}")
        return out
    mus = [mu for _, mu in rows]
    for i, mu in enumerate(mus):
        if not (math.isfinite(mu) and mu > 0.0):
            out.fail([i], f"N={orders[i]}: mu_min={mu}")
        elif i and mus[i - 1] > MU_FLOOR and not mu < mus[i - 1]:
            out.fail([i], f"N={orders[i]}: mu_min {mu:.3e} not below "
                          f"{mus[i - 1]:.3e} above the {MU_FLOOR} floor")
        elif i and mus[i - 1] <= MU_FLOOR and mu > MU_FLOOR:
            out.fail([i], f"N={orders[i]}: mu_min {mu:.3e} left the floor")
    # acceptance criterion 5: fitted decay rate
    lower = -1.10 * math.log(TAU0)
    if not lower <= slope <= 0.0:
        out.fail(range(out.cases), f"criterion 5: slope {slope} outside [{lower:.3f}, 0]")
    return out


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="sweep-ref",
        argv=("sweep",), output="sweep.csv",
        cases=len(SWEEP_K) * len(SWEEP_DELTA) * SWEEP_SEEDS, needs_grid=True,
        make_config=_sweep_config, check=_check_sweep),
    Workload(
        name="solve-highk",
        argv=("solve",), output="report.json", cases=1, needs_grid=True,
        make_config=_highk_config, check=_check_highk),
    Workload(
        name="svd-decay",
        argv=("svd", "--N", f"{SVD_ORDERS[0]}..{SVD_ORDERS[-1]}:2"),
        output="svd_study.csv", cases=len(SVD_ORDERS), needs_grid=False,
        make_config=_svd_config, check=_check_svd),
)}
