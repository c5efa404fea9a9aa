"""Benchmark of the fbm command line, run in-process on generated configs.

Usage, from the root of a checkout:

    python3 bench/run.py --workload sweep-ref --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1      # every workload in turn

One process runs one workload as a closed loop: ``fbm.cli.main(argv)``
is called again only after the previous call returned, serially, with
no ``--threads``/``FBM_THREADS`` and BLAS held to one thread. The loop
runs for ``--seconds`` seconds after set-up and one small warm-up call,
and every call's output is checked (see ``workloads.py``).

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` wraps the
public functions of ``fbm``'s layers (see ``spans.py``), alternates
traced and untraced calls, and reports per-layer metrics per call,
including the tracing overhead. The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it print every metric by name with its unit. The seed,
the generated configs, the environment, all samples and (traced) the
spans are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS, Outcome

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
# On two shared cores OpenBLAS's default of one thread per core made the
# SVD slower and its timings far noisier than one thread does.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# The machine's speed drifts over seconds, so set-up is sampled a few
# times after the first call and then again every SETUP_INTERVAL seconds
# of the run. Not before the first call: there, set-up measured about
# 1.5x slower than it does between calls.
SETUP_FIRST_SAMPLES = 3
SETUP_INTERVAL = 5.0
SETUP_SAMPLE_SECONDS = 0.2           # shortest timed batch of set-ups
WARMUP_CONFIG = {"curve": "kite", "k": 1.0, "delta": 0.01, "tau0": 2.2,
                 "seeds": [1], "grid_resolution": 32}

END_TO_END_UNITS = {"wall_s": "s", "cases_per_s": "1/s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def _get(name: str, key: str):
    return lambda summary, cases: summary.get(name, {}).get(key, 0)


# name -> (unit, value from one call's span summary and its case count)
PER_LAYER = {
    "special.basis_matrix.calls": ("count", _get("special.basis_matrix", "calls")),
    "special.basis_matrix.s": ("s", _get("special.basis_matrix", "s")),
    "special.basis_matrix.self_s": ("s", _get("special.basis_matrix", "self_s")),
    "special.radial_profiles.s": ("s", _get("special.radial_profiles", "s")),
    "special.basis_entries": ("count", _get("special.basis_matrix", "entries")),
    "special.basis_bytes": ("bytes", _get("special.basis_matrix", "bytes")),
    "special.basis_bytes_max": ("bytes", _get("special.basis_matrix", "bytes_max")),
    "special.basis_matrix.calls_per_case": (
        "calls/case",
        lambda summary, cases: summary.get("special.basis_matrix", {}).get("calls", 0) / cases),
    "fields.error_report.s": ("s", _get("fields.error_report", "s")),
    "fields.error_report.self_s": ("s", _get("fields.error_report", "self_s")),
    "fields.grid_points": ("count", _get("fields.build_interior_grid", "points_max")),
    "fields.build_interior_grid.self_s": ("s", _get("fields.build_interior_grid", "self_s")),
    "geometry.boundary_distance.s": ("s", _get("geometry.boundary_distance", "s")),
    "geometry.grid_interior_mask.s": ("s", _get("geometry.grid_interior_mask", "s")),
    "assembly.assemble_operator.calls": ("count", _get("assembly.assemble_operator", "calls")),
    "assembly.assemble_operator.self_s": ("s", _get("assembly.assemble_operator", "self_s")),
    "geometry.build_quadrature.s": ("s", _get("geometry.build_quadrature", "s")),
    "tikhonov.svd.calls": ("count", _get("tikhonov.svd", "calls")),
    "tikhonov.svd.s": ("s", _get("tikhonov.svd", "s")),
    "tikhonov.svd.flops": ("flop", _get("tikhonov.svd", "flops")),
    "tikhonov.tikhonov_solve.s": ("s", _get("tikhonov.tikhonov_solve", "s")),
    "assembly.add_noise.s": ("s", _get("assembly.add_noise", "s")),
    "cli.self_s": ("s", _get("cli.main", "self_s")),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------
def import_fbm():
    """Import fbm from this checkout's src/, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "fbm" / "__init__.py").is_file():
        raise SystemExit(f"bench: no fbm sources under {src}")
    sys.path.insert(0, str(src))
    import fbm
    import fbm.cli
    if not Path(fbm.__file__).resolve().is_relative_to(ROOT):
        raise SystemExit(f"bench: fbm imported from {fbm.__file__}, outside {ROOT}")
    return fbm


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():     # git would search the parent dirs
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(fbm) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    digest = hashlib.sha256()
    package = Path(fbm.__file__).parent
    for path in sorted(package.rglob("*.py")):
        digest.update(path.relative_to(package).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "git_commit": git_commit(),
        "fbm_sources_sha256": digest.hexdigest(),
        "fbm_file": str(Path(fbm.__file__).resolve().relative_to(ROOT)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "platform": platform.platform(),
    }


def peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 2 ** 20 if sys.platform == "darwin" else peak / 2 ** 10


# ---------------------------------------------------------------------------
# Measuring
# ---------------------------------------------------------------------------
class SetupTimer:
    """Seconds per set-up: load_config, compute_radii and, where the
    command builds one, the interior grid. A sample times a batch of
    set-ups lasting at least SETUP_SAMPLE_SECONDS."""

    def __init__(self, fbm, config_path: Path, needs_grid: bool):
        from fbm.fields import build_interior_grid
        from fbm.geometry import compute_radii
        self._load = fbm.cli.load_config
        self._radii = compute_radii
        self._grid = build_interior_grid if needs_grid else None
        self._path = str(config_path)
        self.batch = 0
        self.samples = []
        self.last = time.perf_counter()

    def _time(self, reps: int) -> float:
        t0 = time.perf_counter()
        for _ in range(reps):
            config = self._load(self._path)
            radii = self._radii(config.curve)
            if self._grid is not None:
                self._grid(config.curve, radii, config.grid_resolution)
        return (time.perf_counter() - t0) / reps

    def after_call(self) -> None:
        if not self.samples:
            self.batch = max(1, round(SETUP_SAMPLE_SECONDS / self._time(1)))
            self.samples = [self._time(self.batch) for _ in range(SETUP_FIRST_SAMPLES)]
        elif time.perf_counter() - self.last >= SETUP_INTERVAL:
            self.samples.append(self._time(self.batch))
        else:
            return
        self.last = time.perf_counter()


def invoke(fbm, workload, config: dict, config_path: Path, out_dir: Path,
           tracer=None) -> tuple[float, Outcome]:
    """One CLI call; returns its wall seconds and its checked cases."""
    output = out_dir / workload.output
    output.unlink(missing_ok=True)
    argv = [*workload.argv, "--config", str(config_path), "--out", str(out_dir)]
    error = None
    t0 = time.perf_counter()
    try:
        if tracer is None:
            code = fbm.cli.main(argv)
        else:
            tracer.invocation += 1
            code = tracer.call("cli.main", fbm.cli.main, argv)
    except Exception:                     # a crash fails the call's cases
        code, error = None, traceback.format_exc(limit=3)
    seconds = time.perf_counter() - t0
    if code != 0:
        outcome = Outcome(cases=workload.cases)
        outcome.fail(range(workload.cases), f"exit {code}: {error or ''}".strip())
        return seconds, outcome
    try:
        return seconds, workload.check(output, config)
    except (OSError, ValueError, KeyError) as exc:
        outcome = Outcome(cases=workload.cases)
        outcome.fail(range(workload.cases), f"unreadable {output.name}: {exc!r}")
        return seconds, outcome


def run_workload(fbm, args) -> tuple[dict, dict]:
    """Returns the result object and the detailed record."""
    workload = WORKLOADS[args.workload]
    out_dir = OUT / workload.name
    out_dir.mkdir(parents=True, exist_ok=True)
    config = workload.make_config(random.Random(f"{workload.name}/{args.seed}"))
    config_path = out_dir / "config.json"
    config_path.write_text(json.dumps(config, indent=1) + "\n")
    warmup_path = OUT / "warmup.json"
    warmup_path.write_text(json.dumps(WARMUP_CONFIG) + "\n")
    record = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "config": config, "argv": list(workload.argv),
              "environment": environment(fbm)}

    fbm.cli.main(["solve", "--config", str(warmup_path), "--out", str(OUT / "warmup")])
    setup = None if args.trace else SetupTimer(fbm, config_path, workload.needs_grid)

    outcomes, walls, traced_walls = [], [], []
    tracer = None
    deadline = time.perf_counter() + args.seconds
    if args.trace:
        from spans import Tracer, summarize
        tracer = Tracer()
        while True:
            # alternate which side of the pair runs first
            pair_start = time.perf_counter()
            for traced in ((False, True) if len(walls) % 2 == 0 else (True, False)):
                if traced:
                    tracer.install()
                try:
                    seconds, outcome = invoke(fbm, workload, config, config_path,
                                              out_dir, tracer if traced else None)
                finally:
                    tracer.uninstall()
                (traced_walls if traced else walls).append(seconds)
                outcomes.append(outcome)
            if time.perf_counter() + (time.perf_counter() - pair_start) > deadline:
                break
    else:
        while not walls or time.perf_counter() < deadline:
            seconds, outcome = invoke(fbm, workload, config, config_path, out_dir)
            walls.append(seconds)
            outcomes.append(outcome)
            setup.after_call()

    attempted = sum(o.cases for o in outcomes)
    failed = sum(len(o.failed) for o in outcomes)
    problems = [p for o in outcomes for p in o.problems]
    rel_errors = outcomes[0].rel_l2_interior
    samples = {"wall_s": walls, "setup_s": setup.samples if setup else [],
               "setup_batch": setup.batch if setup else 0}
    if args.trace:
        per_call = []
        for invocation in range(1, tracer.invocation + 1):
            summary = summarize(tracer.spans, invocation)
            per_call.append({name: fn(summary, workload.cases)
                             for name, (_, fn) in PER_LAYER.items()})
        metrics = {name: statistics.median(call[name] for call in per_call)
                   for name in PER_LAYER}
        metrics["trace.overhead_s"] = (statistics.median(traced_walls)
                                       - statistics.median(walls))
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        units["trace.overhead_s"] = "s"
        samples["traced_wall_s"] = traced_walls
        samples["per_call"] = per_call
        spans_path = OUT / f"{workload.name}-seed{args.seed}-spans.json"
        spans_path.write_text(json.dumps(tracer.as_records()) + "\n")
        record["spans_file"] = spans_path.name
    else:
        metrics = {"wall_s": statistics.median(walls),
                   "cases_per_s": statistics.median(
                       (o.cases - len(o.failed)) / seconds
                       for o, seconds in zip(outcomes, walls)),
                   "setup_s": statistics.median(setup.samples),
                   "peak_rss_mb": peak_rss_mb()}
        units = END_TO_END_UNITS
    record["samples"] = samples
    record["extra"] = {
        "fail_frac": failed / attempted,
        "rel_err_med": statistics.median(rel_errors) if rel_errors else None,
        "calls": len(walls) + len(traced_walls),
        "setup_samples": len(samples["setup_s"]),
    }
    record["problems"] = problems[:50]
    result = {"correct": failed == 0 and not problems, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    record["result"] = result
    return result, record


def print_table(result: dict, record: dict) -> None:
    for name, metric in result["metrics"].items():
        print(f"{name:40s} {metric['value']:.6g} {metric['unit']}")
    extra = record["extra"]
    print(f"{'fail_frac':40s} {extra['fail_frac']:.6g} "
          f"({result['failed']} of {result['attempted']} cases)")
    if extra["rel_err_med"] is not None:
        print(f"{'rel_err_med':40s} {extra['rel_err_med']:.6g} 1")
    print(f"{'samples':40s} {extra['calls']} calls, {extra['setup_samples']} set-up samples")
    for problem in record["problems"][:5]:
        print(f"check failed: {problem}")


def run_all(args) -> int:
    """Each workload in its own process, so peak memory stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode != 0 or not lines:
            print(done.stderr[-2000:], file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))  # before numpy loads
    fbm = import_fbm()
    if args.workload == "all":
        return run_all(args)
    result, record = run_workload(fbm, args)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print_table(result, record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    logging.basicConfig(level=logging.WARNING)
    sys.exit(main())
