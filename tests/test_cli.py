import csv
import dataclasses
import json
import logging
import math
import os
import random
import statistics
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from fbm import assembly, cli, fields, tikhonov
from fbm.cli import (build_config, load_config, main, resolve_tau0,
                     run_solve, run_sweep, run_svd_study, run_trace_plot,
                     _parse_order_list)
from fbm.errors import NumericalError, ValidationError
from fbm.fields import PlaneWave, error_report
from fbm.geometry import compute_radii
from fbm.special import nested_values

from oracles import basis_values


def _write_config(path, **overrides):
    raw = {
        "curve": "kite",
        "k": 1.0,
        "delta": 1e-16,
        "eta": 5.0,
        "tau0": 2.2,
        "seeds": [1],
        "grid_resolution": 200,
    }
    raw.update(overrides)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(raw, handle)
    return path


class TestConfigParsing:
    def test_defaults(self):
        cfg = build_config({"curve": "circle:1", "k": 1.0, "delta": 0.01})
        assert cfg.eta == 5.0
        assert cfg.tau0 == "auto"
        assert cfg.seeds == list(range(1, 11))
        assert cfg.node_count == "auto"
        assert cfg.grid_resolution == 200
        assert np.hypot(*cfg.direction) == pytest.approx(1.0, abs=1e-12)

    def test_lists_accepted(self):
        cfg = build_config({"curve": "kite", "k": [0.5, 1.0], "delta": [0.01, 0.05]})
        assert cfg.k_list == [0.5, 1.0]
        assert cfg.delta_list == [0.01, 0.05]

    def test_custom_fourier_curve(self):
        cfg = build_config({
            "curve": {"x1_cos": [0.0, 1.2], "x2_sin": [0.0, 1.2], "name": "disc"},
            "k": 1.0, "delta": 0.0})
        assert cfg.curve.name == "disc"

    @pytest.mark.parametrize("series", ["x1_cos", "x1_sin", "x2_cos",
                                        "x2_sin"])
    def test_fourier_degree_cap(self, tmp_path, capsys, series):
        # 64 terms per series are accepted, 65 in any one of them exit 2
        disc = {"x1_cos": [0.0, 1.2], "x1_sin": [], "x2_cos": [],
                "x2_sin": [0.0, 1.2]}
        longest = {name: (c + [0.0] * 64)[:64] for name, c in disc.items()}
        assert build_config({"curve": longest, "k": 1.0,
                             "delta": 0.0}).curve.x1_cos.size == 64
        too_long = {**longest, series: longest[series] + [0.0]}
        path = _write_config(tmp_path / "cfg.json", curve=too_long,
                             grid_resolution=32)
        code = main(["solve", "--config", str(path), "--out", str(tmp_path / "o")])
        records = [json.loads(ln) for ln in capsys.readouterr().err.splitlines()
                   if ln.startswith("{")]
        assert code == 2
        assert [r["error"] for r in records] == ["curve_too_complex"]

    def test_missing_field(self):
        with pytest.raises(ValidationError) as err:
            build_config({"curve": "kite", "k": 1.0})
        assert err.value.code == "missing_field"

    def test_bad_delta(self):
        with pytest.raises(ValidationError):
            build_config({"curve": "kite", "k": 1.0, "delta": 1.0})

    def test_empty_seeds(self):
        with pytest.raises(ValidationError) as err:
            build_config({"curve": "kite", "k": 1.0, "delta": 0.0, "seeds": []})
        assert err.value.code == "seeds_empty"

    def test_direction_must_be_unit(self):
        with pytest.raises(ValidationError) as err:
            build_config({"curve": "kite", "k": 1.0, "delta": 0.0,
                          "direction": [1.0, 1.0]})
        assert err.value.code == "direction_not_unit"

    def test_odd_node_count_rejected(self):
        with pytest.raises(ValidationError):
            build_config({"curve": "kite", "k": 1.0, "delta": 0.0, "M_q": 99})

    def test_auto_tau0(self):
        kite_cfg = build_config({"curve": "kite", "k": 1.0, "delta": 0.0})
        assert resolve_tau0(kite_cfg, compute_radii(kite_cfg.curve)) == 2.2
        circ_cfg = build_config({"curve": "circle:1", "k": 1.0, "delta": 0.0})
        # 1.02 * tau_min rounded up to two decimals, tau_min = 1
        assert resolve_tau0(circ_cfg, compute_radii(circ_cfg.curve)) == pytest.approx(1.02)

    def test_auto_tau0_ignores_the_curve_name(self):
        # 2.2 belongs to the built-in kite, not to any curve named "kite"
        taus = []
        for name in ("kite", "disc"):
            cfg = build_config({"curve": {"x1_cos": [0, 1], "x2_sin": [0, 1],
                                          "name": name}, "k": 1.0, "delta": 0.0})
            taus.append(resolve_tau0(cfg, compute_radii(cfg.curve)))
        assert taus == [pytest.approx(1.02)] * 2

    def test_order_list_parsing(self):
        assert _parse_order_list("4..12:2") == [4, 6, 8, 10, 12]
        assert _parse_order_list("4..6") == [4, 5, 6]
        assert _parse_order_list("3,7,11") == [3, 7, 11]
        with pytest.raises(ValidationError):
            _parse_order_list("a..b")


class TestRunSolve:
    def test_kite_noise_free(self, tmp_path):
        cfg = load_config(_write_config(tmp_path / "cfg.json"))
        out = run_solve(cfg, str(tmp_path / "out"))
        assert out["rel_l2_interior"] <= 1e-8
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        for key in ("k", "delta", "eta", "tau0", "N", "alpha", "M_q",
                    "grid_resolution", "seed", "m_overridden"):
            assert key in report["metadata"]
        coeff_lines = (tmp_path / "out" / "coefficients.csv").read_text().splitlines()
        data_lines = [ln for ln in coeff_lines if not ln.startswith("#")]
        assert data_lines[0] == "n,real,imag"
        assert len(data_lines) == 1 + 2 * report["metadata"]["N"] + 1

    def test_circle_noise_free(self, tmp_path):
        path = _write_config(tmp_path / "cfg.json", curve="circle:1", delta=0.0,
                             tau0="auto")
        out = run_solve(load_config(path), str(tmp_path / "out"))
        assert out["rel_l2_interior"] <= 1e-8
        assert out["rel_l2_boundary"] <= 1e-8

    def test_multi_value_config_rejected(self, tmp_path):
        path = _write_config(tmp_path / "cfg.json", k=[1.0, 2.0])
        with pytest.raises(ValidationError) as err:
            run_solve(load_config(path), str(tmp_path / "out"))
        assert err.value.code == "expected_single_case"


class TestExitCodes:
    def test_success(self, tmp_path, capsys):
        path = _write_config(tmp_path / "cfg.json", curve="circle:1",
                             tau0="auto", grid_resolution=64)
        assert main(["solve", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 0

    def test_tau0_too_small(self, tmp_path, capsys):
        path = _write_config(tmp_path / "cfg.json", tau0=2.0)
        code = main(["solve", "--config", str(path), "--out", str(tmp_path / "o")])
        record = json.loads(capsys.readouterr().err.strip())
        assert code == 2
        assert record["error"] == "tau0_too_small"

    @pytest.mark.parametrize("command", ["solve", "plot"])
    def test_tau0_whose_alpha_overflows(self, tmp_path, capsys, command):
        # tau0^(2N) beyond the float range on the large-k branch gives
        # alpha = 0, and the unregularized solve is rank deficient
        path = _write_config(tmp_path / "cfg.json", k=5.0, delta=0.01,
                             tau0=1e10, grid_resolution=32)
        code = main([command, "--config", str(path), "--out", str(tmp_path / "o")])
        [record] = [json.loads(ln) for ln in capsys.readouterr().err.splitlines()
                    if ln.startswith("{")]
        assert code == 3
        assert record["error"] == "rank_deficient"

    def test_sweep_marks_the_cell_whose_alpha_overflows(self, tmp_path,
                                                        capsys):
        path = _write_config(tmp_path / "cfg.json", k=[1.0, 5.0], delta=0.01,
                             tau0=1e10, seeds=[1, 2], grid_resolution=32)
        code = main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")])
        capsys.readouterr()
        assert code == 0
        rows = _data_rows(tmp_path / "o" / "sweep.csv")
        assert rows[0].startswith("cell,1.0,0.01,1,")
        assert rows[2].startswith("median,1.0,0.01,")
        assert rows[3:] == ["cell,5.0,0.01,1,,,,,,,,,,rank_deficient",
                            "cell,5.0,0.01,2,,,,,,,,,,rank_deficient"]

    @pytest.mark.parametrize("command", ["solve", "sweep"])
    def test_unresolvable_curve_builds_no_grid(self, tmp_path, capsys,
                                               command):
        # k r_ex_min ~ 1e300 > N_MAX rejects every cell in make_problem,
        # before the interior grid, whose arithmetic overflows on this curve
        curve = {"x1_cos": [0, 1e300], "x1_sin": [0, 1e300],
                 "x2_sin": [0, 1e300]}
        path = _write_config(tmp_path / "cfg.json", curve=curve, delta=0.01,
                             tau0="auto", grid_resolution=32)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([command, "--config", str(path),
                         "--out", str(tmp_path / "o")])
        records = [json.loads(ln) for ln in capsys.readouterr().err.splitlines()
                   if ln.startswith("{")]
        assert code == 2
        assert [r["error"] for r in records] == ["wavenumber_unresolvable"]
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []

    def test_unreadable_config(self, tmp_path, capsys):
        code = main(["solve", "--config", str(tmp_path / "missing.json")])
        assert code == 2
        assert json.loads(capsys.readouterr().err.strip())["error"] == "config_unreadable"

    @pytest.mark.parametrize("text", [
        b"{not json",
        # Latin-1, not UTF-8
        b'{"curve": "kite", "k": 1.0, "delta": 0.01, "grid_resolution": 32, '
        b'"output_dir": "\xe9"}',
        # deeper than the decoder's recursion limit
        b'{"curve": "kite", "k": 1.0, "delta": 0.01, "grid_resolution": 32, '
        b'"direction": ' + b"[" * 10_000 + b"]" * 10_000 + b"}"],
        ids=["not_json", "latin1", "deep"])
    def test_bad_json(self, tmp_path, capsys, text):
        path = tmp_path / "bad.json"
        path.write_bytes(text)
        assert main(["solve", "--config", str(path)]) == 2
        [record] = [json.loads(ln) for ln in capsys.readouterr().err.splitlines()
                    if ln.startswith("{")]
        assert record["error"] == "config_not_json"

    @pytest.mark.parametrize("command", [
        ["solve"], ["sweep"], ["svd", "--N", "4"],
        ["plot"]],
        ids=["solve", "sweep", "svd", "plot"])
    def test_unwritable_output(self, tmp_path, capsys, command):
        # the output directory would sit below a regular file
        blocker = tmp_path / "file"
        blocker.write_text("")
        path = _write_config(tmp_path / "cfg.json", grid_resolution=32)
        code = main([command[0], "--config", str(path),
                     "--out", str(blocker / "out"), *command[1:]])
        records = [json.loads(ln) for ln in capsys.readouterr().err.splitlines()
                   if ln.startswith("{")]
        assert code == 2
        assert [r["error"] for r in records] == ["output_unwritable"]


class TestArgumentExit:
    # plot takes its case from the config, as solve does, and has no case
    # flags of its own
    @pytest.mark.parametrize("args, overrides, error", [
        (["plot"], {"k": math.nan}, "bad_field"),
        (["plot"], {"seeds": [-3]}, "bad_field"),
        (["plot"], {"k": "abc"}, "bad_field"),
        (["plot"], {"delta": [0.01, 0.05]}, "expected_single_case"),
        (["plot", "--k", "1", "--delta", "0.01"], {}, "bad_arguments"),
        (["sweep", "--threads", "2"], {}, "bad_arguments"),
    ], ids=["plot_k_nan", "plot_seed_negative", "plot_k_text",
            "plot_delta_list", "plot_case_flags", "sweep_threads"])
    def test_exits_2_with_one_record(self, tmp_path, capsys, args, overrides,
                                     error):
        path = _write_config(tmp_path / "cfg.json",
                             **{"grid_resolution": 32, **overrides})
        code = main([args[0], "--config", str(path), "--out",
                     str(tmp_path / "o"), *args[1:]])
        records = [json.loads(ln) for ln in capsys.readouterr().err.splitlines()
                   if ln.startswith("{")]
        assert code == 2
        assert [r["error"] for r in records] == [error]

    @pytest.mark.parametrize("args", [["--help"], ["--version"],
                                      ["sweep", "--help"]])
    def test_help_and_version_exit_0(self, capsys, args):
        with pytest.raises(SystemExit) as stop:
            main(args)
        assert stop.value.code == 0


class TestConfigValidationExit:
    @pytest.mark.parametrize("override", [
        {"k": math.nan}, {"eta": math.nan}, {"k": 1e308}, {"seeds": [-1]},
        {"tau0": math.nan}, {"eta": "five"}, {"M_q": 10 ** 8},
        {"grid_resolution": 10 ** 6}, {"k": 1e6}, {"output_dir": None},
        {"output_dir": ""}, {"output_dir": 5},
    ], ids=["k_nan", "eta_nan", "k_huge", "seed_negative", "tau0_nan",
            "eta_text", "m_q_huge", "grid_huge", "k_unresolvable",
            "output_dir_null", "output_dir_empty", "output_dir_number"])
    def test_exits_2_with_one_record(self, tmp_path, capsys, override):
        path = _write_config(tmp_path / "cfg.json",
                             **{"grid_resolution": 64, **override})
        code = main(["solve", "--config", str(path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        records = [json.loads(ln) for ln in err.splitlines() if ln.startswith("{")]
        assert code == 2
        assert len(records) == 1 and "error" in records[0]

    @pytest.mark.parametrize("override", [
        {"k": True}, {"delta": [False]}, {"eta": True}, {"tau0": True},
        {"seeds": [True]}, {"direction": [True, False]}, {"k": 10 ** 400},
        {"seeds": [1.7]}, {"seeds": ["3"]}, {"seeds": [2.0]},
    ], ids=["k_bool", "delta_bool", "eta_bool", "tau0_bool", "seed_bool",
            "direction_bool", "k_int_overflow", "seed_fraction",
            "seed_text", "seed_float"])
    def test_non_numbers_are_bad_fields(self, tmp_path, capsys, override):
        # float() takes JSON true/false as 1/0 and fails on an integer
        # beyond the double range; both are malformed numbers. A seed must
        # be a JSON integer: int() would truncate 1.7 and parse "3"
        path = _write_config(tmp_path / "cfg.json",
                             **{"grid_resolution": 32, **override})
        code = main(["solve", "--config", str(path), "--out", str(tmp_path / "o")])
        records = [json.loads(ln) for ln in capsys.readouterr().err.splitlines()
                   if ln.startswith("{")]
        assert code == 2
        assert [r["error"] for r in records] == ["bad_field"]

    @pytest.mark.parametrize("override, key", [
        ({"seed": [3]}, "seed"), ({"grid_resolutoin": 64}, "grid_resolutoin"),
        ({"curve": {"x1_cos": [0.0, 1.0], "x2_sin": [0.0, 1.0],
                    "x2_sine": [0.0, 2.0]}}, "x2_sine"),
    ], ids=["seed", "grid_resolution_typo", "curve_key"])
    def test_unknown_keys_rejected(self, tmp_path, capsys, override, key):
        # a misspelt key would otherwise run its default silently
        path = _write_config(tmp_path / "cfg.json",
                             **{"grid_resolution": 32, **override})
        code = main(["solve", "--config", str(path), "--out", str(tmp_path / "o")])
        records = [json.loads(ln) for ln in capsys.readouterr().err.splitlines()
                   if ln.startswith("{")]
        assert code == 2
        assert [r["error"] for r in records] == ["unknown_field"]
        assert repr(key) in records[0]["message"]
        assert not (tmp_path / "o").exists()

    def test_basis_over_budget_rejected_before_evaluation(
            self, tmp_path, capsys, monkeypatch, basis_calls):
        # k=1, delta=1e-16 selects N=19 on the kite: 41 rows at 1022
        # grid points and 368 quadrature nodes count about 1.0 MB
        monkeypatch.setattr(cli, "BASIS_BUDGET_BYTES", 10 ** 5)
        path = _write_config(tmp_path / "cfg.json", grid_resolution=64)
        code = main(["solve", "--config", str(path), "--out", str(tmp_path / "o")])
        records = [json.loads(ln) for ln in capsys.readouterr().err.splitlines()
                   if ln.startswith("{")]
        assert code == 2
        assert [r["error"] for r in records] == ["problem_too_large"]
        assert basis_calls == []

    @pytest.mark.parametrize("command, solved, spare, status", [
        ("sweep", 3, 0, 0), ("sweep", 3, -1, 2),
        ("solve", 1, 0, 0), ("solve", 1, -1, 2)],
        ids=["at_limit", "one_byte_over", "solve_at_limit",
             "solve_one_byte_over"])
    def test_basis_budget_counts_values_and_error_pass(
            self, tmp_path, capsys, monkeypatch, command, solved, spare,
            status):
        # k=1, delta=0.01 selects N=8 on the kite; grid 64 keeps 1022
        # points and "auto" takes 256 nodes. The cell holds 19 nested rows,
        # 8 bytes per point each, the boundary's complex values and the
        # Householder reflectors the SVD keeps, 16 bytes per node and row
        # each, and one error pass over the seeds it solves, 48 bytes per
        # point and seed: the sweep's three seeds take 533,936 bytes in all,
        # solve's first seed alone 411,248
        rows, grid_points, nodes = 19, 1022, 256
        monkeypatch.setattr(cli, "BASIS_BUDGET_BYTES",
                            8 * rows * (grid_points + nodes)
                            + 2 * 16 * rows * nodes
                            + 48 * solved * (grid_points + nodes) + spare)
        path = _write_config(tmp_path / "cfg.json", delta=0.01,
                             grid_resolution=64, seeds=[1, 2, 3])
        code = main([command, "--config", str(path), "--out", str(tmp_path / "o")])
        records = [json.loads(ln) for ln in capsys.readouterr().err.splitlines()
                   if ln.startswith("{")]
        assert code == status
        assert [r["error"] for r in records] == (
            [] if status == 0 else ["problem_too_large"])


@pytest.fixture
def basis_calls(monkeypatch):
    """Record (function name, order, point count) of each nested_values
    call through every fbm module that binds it, the one evaluator of the
    basis: the pipeline evaluates the interior grid's basis once per k and
    each cell's boundary basis once."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(("nested_values", args[1], len(args[2])))
        return nested_values(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if (name == "fbm" or name.startswith("fbm.")) and \
                getattr(module, "nested_values", None) is nested_values:
            monkeypatch.setattr(module, "nested_values", counted)
    return calls


class TestCellPipeline:
    def test_each_basis_evaluated_once_per_cell(self, tmp_path, basis_calls):
        path = _write_config(tmp_path / "cfg.json", k=[0.5, 1.0], delta=[0.01],
                             seeds=[1, 2, 3], grid_resolution=64)
        run_sweep(load_config(path), str(tmp_path / "sweep"))
        # N = 8 at both k: per k the cell's boundary (256 nodes), then one
        # grid basis (1022 points)
        assert basis_calls == [("nested_values", 9, 256),
                               ("nested_values", 9, 1022)] * 2
        basis_calls.clear()
        run_solve(load_config(_write_config(tmp_path / "one.json",
                                            grid_resolution=64)),
                  str(tmp_path / "solve"))
        # N = 19: one k and one delta of the sweep's path, so the cell's
        # boundary (368 nodes) first, then the grid basis
        assert basis_calls == [("nested_values", 20, 368),
                               ("nested_values", 20, 1022)]

    def test_solve_runs_svd_before_grid_basis(self, tmp_path, monkeypatch,
                                              basis_calls):
        # the grid basis is evaluated after the cell's SVD, so it is not
        # allocated while the trace operator and the SVD's workspace are
        svd = cli.svd

        def counted(matrix):
            basis_calls.append(("svd", matrix.shape))
            return svd(matrix)

        monkeypatch.setattr(cli, "svd", counted)
        run_solve(load_config(_write_config(tmp_path / "one.json",
                                            grid_resolution=64)),
                  str(tmp_path / "solve"))
        # N = 19: 368 nodes, 39 columns
        assert basis_calls == [("nested_values", 20, 368),
                               ("svd", (368, 39)),
                               ("nested_values", 20, 1022)]

    def test_sweep_holds_one_cell_at_a_time(self, tmp_path, monkeypatch):
        # no cell of the sweep is alive while the next one is built
        built, alive = [], []
        make_cell = cli.make_cell

        def tracked(*args):
            alive.append(sum(ref() is not None for ref in built))
            cell = make_cell(*args)
            built.append(weakref.ref(cell))
            return cell

        monkeypatch.setattr(cli, "make_cell", tracked)
        path = _write_config(tmp_path / "cfg.json", k=[1.0, 5.0],
                             delta=[1e-16, 0.01, 0.05], seeds=[1, 2],
                             grid_resolution=64)
        run_sweep(load_config(path), str(tmp_path / "sweep"))
        assert alive == [0] * 6

    def test_sweep_holds_no_failed_cell(self, tmp_path, monkeypatch):
        # the errors a sweep keeps hold neither their cells nor their k's
        # WaveGrid: delta = 0.01 fails in Cell.solve at k = 1e-20, and
        # delta = 1e-16 reaches the order cap at every k (eta = 40), so
        # each make_cell below builds its k's first cell and grid
        built, alive = [], []
        make_cell = cli.make_cell

        def tracked(*args):
            alive.append(sum(ref() is not None for ref in built))
            cell = make_cell(*args)
            built.extend([weakref.ref(cell), weakref.ref(cell.shared)])
            return cell

        monkeypatch.setattr(cli, "make_cell", tracked)
        path = _write_config(tmp_path / "cfg.json", k=[1e-20, 1.0, 5.0],
                             delta=[1e-16, 0.01], eta=40.0, seeds=[1, 2],
                             grid_resolution=64)
        assert main(["sweep", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 0
        assert alive == [0] * 3

    def test_exact_solution_sampled_once_per_cell(self, tmp_path, monkeypatch):
        calls = []
        value = PlaneWave.value

        def counted(self, points):
            calls.append(len(points))
            return value(self, points)

        monkeypatch.setattr(PlaneWave, "value", counted)
        counts = []
        for seeds in ([1], [1, 2, 3]):
            calls.clear()
            path = _write_config(tmp_path / "cfg.json", k=[0.5, 1.0],
                                 delta=[0.01], seeds=seeds, grid_resolution=64)
            run_sweep(load_config(path), str(tmp_path / "sweep"))
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0

    @pytest.mark.parametrize("k, deltas", [
        (1.0, [1e-16, 0.01]), (5.0, [0.05]), (20.0, [1e-16])])
    def test_data_is_the_impedance_data_of_the_boundary_samples(
            self, tmp_path, k, deltas):
        # each cell's data is the shared impedance formula applied to the
        # exact samples it keeps, bit for bit, and stays so after its seeds,
        # which all read that one array
        config = load_config(_write_config(tmp_path / "cfg.json", k=k,
                                           delta=deltas, seeds=[1, 2],
                                           grid_resolution=32))
        for cell, _ in cli.wavenumber_cells(cli._prepare(config), k, deltas,
                                            config.seeds):
            formed = assembly.impedance_data(k, cell.rule, cell.boundary_exact)
            assert np.array_equal(cell.data, formed)
            assert np.array_equal(cell.boundary_exact[0],
                                  cell.shared.wave.value(cell.rule.points))
            cell.solve(config.seeds)
            assert cell.data.tobytes() == formed.tobytes()

    def test_sweep_row_matches_single_solve(self, tmp_path):
        path = _write_config(tmp_path / "cfg.json", k=[1.0], delta=[0.01],
                             seeds=[1, 2, 3], grid_resolution=96)
        out = run_sweep(load_config(path), str(tmp_path / "sweep"))
        with open(out, encoding="utf-8") as handle:
            row = [ln.split(",") for ln in handle if ln.startswith("cell,")][1]
        assert row[3] == "2"
        single = run_solve(load_config(_write_config(
            tmp_path / "one.json", k=1.0, delta=0.01, seeds=[2],
            grid_resolution=96)), str(tmp_path / "solve"))
        assert [float(v) for v in row[9:13]] == [
            single["rel_l2_interior"], single["rel_h1semi_interior"],
            single["rel_l2_boundary"], single["rel_l2_normal_derivative"]]


class TestWaveGrid:
    # the cells of one k share its nested grid basis, of the largest order
    # among its deltas; a cell of order N reads its leading 2N + 3 rows
    @pytest.mark.parametrize("k, deltas", [
        (0.5, [1e-16, 0.01, 0.05]), (5.0, [1e-16, 0.01, 0.05]),
        (20.0, [1e-16, 1e-3, 0.2])])
    def test_rows_equal_fresh_evaluation(self, tmp_path, k, deltas):
        config = load_config(_write_config(tmp_path / "cfg.json", k=k,
                                           delta=deltas, grid_resolution=96))
        setup = cli._prepare(config)
        grid = setup.grid
        cells = [cell for cell, _ in cli.wavenumber_cells(setup, k, deltas,
                                                          config.seeds)]
        top = max(cell.plan.N for cell in cells)
        # the k's (2 N_top + 3, P) rows
        shared = cells[0].shared.rows(cells[0].plan.N).base
        assert shared.shape == (2 * top + 3, grid.points.shape[0])
        for cell in cells:
            n = cell.plan.N + 1
            view = cell.shared.rows(cell.plan.N)
            assert view.base is shared
            assert view.flags.c_contiguous
            assert np.array_equal(view, nested_values(cell.problem.basis, n,
                                                      grid.points))
            # Re phi_0, Re phi_1, Im phi_1, ... of the oracle's complex basis
            fresh = basis_values(cell.problem.basis, n, grid.points)
            assert np.array_equal(view[0], fresh[:, n].real)
            assert np.array_equal(view[1::2], fresh[:, n + 1:].real.T)
            assert np.array_equal(view[2::2], fresh[:, n + 1:].imag.T)
            # the boundary's rows, as nested_values evaluates them
            assert np.array_equal(cell.boundary_basis, nested_values(
                cell.problem.basis, n, cell.rule.points))

    def test_grid_basis_evaluated_once_per_wavenumber(
            self, tmp_path, monkeypatch, basis_calls):
        sampled = []
        value = PlaneWave.value

        def counted(self, points):
            sampled.append(len(points))
            return value(self, points)

        monkeypatch.setattr(PlaneWave, "value", counted)
        # N = 19, 8 and 6 on the kite with M_q 368, 256 and 256; grid 64
        # keeps 1022 points
        path = _write_config(tmp_path / "cfg.json", k=[1.0],
                             delta=[1e-16, 0.01, 0.05], seeds=[1, 2],
                             grid_resolution=64)
        run_sweep(load_config(path), str(tmp_path / "sweep"))
        # the first boundary, the grid's, then the other 2 boundaries
        assert basis_calls == [("nested_values", 20, 368),
                               ("nested_values", 20, 1022),
                               ("nested_values", 9, 256),
                               ("nested_values", 7, 256)]
        assert sampled == [368, 1022, 256, 256]

    @pytest.mark.parametrize("k", [1.0, 5.0])
    def test_multi_delta_rows_match_single_solve(self, tmp_path, k):
        # each row's norms are bitwise those of solving its (k, delta, seed)
        # alone, whose grid basis is evaluated at the cell's own order
        deltas, seeds = [1e-16, 0.01, 0.05], [1, 2]
        path = _write_config(tmp_path / "cfg.json", k=[k], delta=deltas,
                             seeds=seeds, grid_resolution=96)
        rows = [row.split(",") for row in _data_rows(
            run_sweep(load_config(path), str(tmp_path / "sweep")))
            if row.startswith("cell,")]
        assert [(float(r[2]), int(r[3])) for r in rows] == [
            (d, s) for d in deltas for s in seeds]
        for row in rows:
            single = run_solve(load_config(_write_config(
                tmp_path / "one.json", k=k, delta=float(row[2]),
                seeds=[int(row[3])], grid_resolution=96)),
                str(tmp_path / "solve"))
            assert [float(v) for v in row[9:13]] == [
                single["rel_l2_interior"], single["rel_h1semi_interior"],
                single["rel_l2_boundary"], single["rel_l2_normal_derivative"]]

    def test_failed_cells_keep_their_codes(self, tmp_path, capsys,
                                           basis_calls):
        # eta = 40 sends delta = 1e-16 past the order cap at both k and
        # selects N = 44 and 20 for the others; k = 65 exceeds
        # N_MAX / r_ex_min on the kite, so its cells that pass the cap fail
        # as unresolvable and it evaluates no basis at all
        path = _write_config(tmp_path / "cfg.json", k=[1.0, 65.0],
                             delta=[1e-16, 0.05, 0.2], eta=40.0,
                             seeds=[1, 2], grid_resolution=64)
        code = main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")])
        capsys.readouterr()
        assert code == 0
        # the first k = 1 boundary, the k = 1 grid, the second boundary
        assert basis_calls == [("nested_values", 45, 768),
                               ("nested_values", 45, 1022),
                               ("nested_values", 21, 384)]
        failed = [row for row in _data_rows(tmp_path / "o" / "sweep.csv")
                  if not row.endswith(",")]
        expected = [(1.0, 1e-16, "order_cap_reached"),
                    (65.0, 1e-16, "order_cap_reached"),
                    (65.0, 0.05, "wavenumber_unresolvable"),
                    (65.0, 0.2, "wavenumber_unresolvable")]
        assert failed == [f"cell,{k!r},{d!r},{seed},,,,,,,,,,{code}"
                          for k, d, code in expected for seed in (1, 2)]

    def test_wavenumber_whose_cells_all_fail_evaluates_no_grid_basis(
            self, tmp_path, capsys, monkeypatch, basis_calls):
        # the SVD fails on both k = 1 operators (N = 8 and 6: 17 and 13
        # columns) and on none of k = 5's, so only k = 5 evaluates a grid
        svd = cli.svd

        def failing(matrix):
            if matrix.shape[1] < 20:
                raise NumericalError("svd_failed", "no convergence")
            return svd(matrix)

        monkeypatch.setattr(cli, "svd", failing)
        path = _write_config(tmp_path / "cfg.json", k=[1.0, 5.0],
                             delta=[0.01, 0.05], seeds=[1, 2],
                             grid_resolution=64)
        code = main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")])
        capsys.readouterr()
        assert code == 0
        # the two k = 1 boundaries, then k = 5's first boundary, its grid
        # and its second boundary
        assert basis_calls == [("nested_values", 9, 256),
                               ("nested_values", 7, 256),
                               ("nested_values", 21, 384),
                               ("nested_values", 21, 1022),
                               ("nested_values", 19, 352)]
        failed = [row for row in _data_rows(tmp_path / "o" / "sweep.csv")
                  if not row.endswith(",")]
        assert failed == ["cell,1.0,0.01,1,,,,,,,,,,svd_failed",
                          "cell,1.0,0.01,2,,,,,,,,,,svd_failed",
                          "cell,1.0,0.05,1,,,,,,,,,,svd_failed",
                          "cell,1.0,0.05,2,,,,,,,,,,svd_failed"]

    def test_capped_order_warns_once_per_cell(self, tmp_path, caplog,
                                              monkeypatch):
        # the sweep above: delta = 1e-16 reaches the order cap at k = 1 and
        # k = 65, and each cell is planned once, so each warns once
        planned = []
        select_parameters = cli.select_parameters

        def counted(k, delta, *args):
            planned.append((k, delta))
            return select_parameters(k, delta, *args)

        monkeypatch.setattr(cli, "select_parameters", counted)
        path = _write_config(tmp_path / "cfg.json", k=[1.0, 65.0],
                             delta=[1e-16, 0.05, 0.2], eta=40.0,
                             seeds=[1, 2], grid_resolution=64)
        with caplog.at_level(logging.WARNING, logger="fbm"):
            run_sweep(load_config(path), str(tmp_path / "o"))
        capped = [r.getMessage() for r in caplog.records
                  if "selects N >= N_MAX=128" in r.getMessage()]
        assert capped == [
            f"sweep cell (k={k:g}, delta=1e-16) failed: k={k}, delta=1e-16 "
            "selects N >= N_MAX=128, beyond what the basis can resolve"
            for k in (1.0, 65.0)]
        assert planned == [(k, d) for k in (1.0, 65.0)
                           for d in (1e-16, 0.05, 0.2)]


def _norms(report) -> list:
    return [report.rel_l2_interior, report.rel_h1semi_interior,
            report.rel_l2_boundary, report.rel_l2_normal_derivative]


def _data_rows(path) -> list[str]:
    return [ln for ln in Path(path).read_text(encoding="utf-8").splitlines()
            if ln.startswith(("cell,", "median,"))]


class TestBatchedSeeds:
    # a cell evaluates all of its seeds by one product per point set; the
    # product's layout keeps each seed's norms bitwise independent of the
    # others in the batch
    @pytest.mark.parametrize("k, delta, order", [
        (1.0, 0.01, 8), (5.0, 0.01, 20), (20.0, 1e-16, 40)])
    def test_batch_width_does_not_change_norms(self, tmp_path, k, delta,
                                               order):
        config = load_config(_write_config(tmp_path / "cfg.json", k=k,
                                           delta=delta))
        seeds = [3, 1, 4, 5, 9]
        [(cell, results)] = cli.wavenumber_cells(cli._prepare(config), k,
                                                 [delta], seeds)
        assert cell.plan.N == order
        for seed, batched in zip(seeds, results):
            [alone] = cell.solve([seed])
            assert batched.seed == alone.seed == seed
            assert np.array_equal(batched.coefficients.coeffs,
                                  alone.coefficients.coeffs)
            assert _norms(batched.report) == _norms(alone.report)
            library = error_report(cell.problem, batched.coefficients,
                                   cell.shared.wave, cell.shared.grid,
                                   cell.rule)
            assert _norms(library) == _norms(batched.report)

    @pytest.mark.parametrize("tiny, code", [
        (1e-20, "degenerate_exact_norm"),    # the error pass: |grad u| ~ k
        (1e-301, "degenerate_data")])        # the noise: ||f|| < 1e-300
    def test_failed_cell_marks_every_seed_row(self, tmp_path, caplog, tiny,
                                              code):
        # a tiny k fails in Cell.solve for every seed alike, so the cell
        # writes one marked row per seed, no median row and one warning,
        # and leaves the rows of the k beside it as they are alone
        base = dict(delta=[0.01], seeds=[1, 2], grid_resolution=64)
        path = _write_config(tmp_path / "cfg.json", k=[1.0], **base)
        assert main(["sweep", "--config", str(path),
                     "--out", str(tmp_path / "without")]) == 0
        path = _write_config(tmp_path / "cfg.json", k=[tiny, 1.0], **base)
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="fbm"):
            assert main(["sweep", "--config", str(path),
                         "--out", str(tmp_path / "with")]) == 0
        rows = _data_rows(tmp_path / "with" / "sweep.csv")
        assert rows[:2] == [f"cell,{tiny!r},0.01,{seed},,,,,,,,,,{code}"
                            for seed in (1, 2)]
        assert rows[2:] == _data_rows(tmp_path / "without" / "sweep.csv")
        assert len([r for r in caplog.records
                    if r.levelno == logging.WARNING]) == 1

    def test_degenerate_norm_fails_every_seed(self, tmp_path, capsys,
                                              monkeypatch):
        calls = []

        def degenerate(basis, coefficients, *args):
            calls.append(len(coefficients))
            raise NumericalError("degenerate_exact_norm", "zero exact field")

        monkeypatch.setattr(cli, "error_norms", degenerate)
        config = load_config(_write_config(
            tmp_path / "cfg.json", k=[1.0], delta=[0.01], seeds=[1, 2, 3],
            grid_resolution=64))
        [outcome] = cli.wavenumber_cells(cli._prepare(config), 1.0, [0.01],
                                         config.seeds)
        assert calls == [3]                   # one error pass for the cell
        rows, error = cli._cell_rows(config, 1.0, 0.01, outcome)
        assert rows == ["cell,1.0,0.01,1,,,,,,,,,,degenerate_exact_norm",
                        "cell,1.0,0.01,2,,,,,,,,,,degenerate_exact_norm",
                        "cell,1.0,0.01,3,,,,,,,,,,degenerate_exact_norm"]
        assert error.code == "degenerate_exact_norm"
        path = _write_config(tmp_path / "cfg.json", k=[1.0], delta=[0.01],
                             seeds=[1, 2, 3], grid_resolution=64)
        code = main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")])
        record = json.loads(capsys.readouterr().err.strip())
        assert code == 3
        assert record["error"] == "all_cells_failed"

    def test_sliced_error_pass_matches_one_pass(self, tmp_path, monkeypatch):
        # a seed block of two splits the error pass over five seeds into
        # products of 2 + 2 + 1 seeds, and every row stays bitwise
        config = load_config(_write_config(
            tmp_path / "cfg.json", k=[1.0], delta=[0.01], seeds=[3, 1, 4, 5, 9],
            grid_resolution=64))
        outputs, widths = [], []
        ladder_coefficients = fields.ladder_coefficients

        def counted(basis, coeffs):
            widths.append(coeffs.shape[0])
            return ladder_coefficients(basis, coeffs)

        monkeypatch.setattr(fields, "ladder_coefficients", counted)
        for block in (fields._SEED_BLOCK, 2):
            monkeypatch.setattr(fields, "_SEED_BLOCK", block)
            widths.clear()
            out = run_sweep(config, str(tmp_path / str(block)))
            outputs.append(Path(out).read_bytes())
        assert widths == [2, 2, 1]
        assert outputs[0] == outputs[1]

    def test_more_seeds_than_a_block_match_one_seed_passes(self, tmp_path):
        # 35 seeds take blocks of 16, 16 and 3; each report is bitwise its
        # one-seed pass's. Grid 64 keeps 1022 points, not a multiple of 8,
        # where OpenBLAS 0.3.31 rounds a row of one product over several
        # seeds unlike one over a single seed
        seeds = list(range(2 * fields._SEED_BLOCK + 3))
        config = load_config(_write_config(
            tmp_path / "cfg.json", k=[5.0], delta=[0.01], seeds=seeds,
            grid_resolution=64))
        [(cell, results)] = cli.wavenumber_cells(cli._prepare(config), 5.0,
                                                 [0.01], seeds)
        coeffs = [result.coefficients for result in results]
        args = (cell.shared.grid, cell.rule, cell.shared.rows(cell.plan.N),
                cell.boundary_basis, cell.shared.exact, cell.boundary_exact)
        together = fields.error_norms(cell.problem.basis, coeffs, *args)
        assert len(together) == len(seeds)
        for c, report in zip(coeffs, together):
            [alone] = fields.error_norms(cell.problem.basis, [c], *args)
            assert _norms(report) == _norms(alone)


class TestRunSweep:
    def test_row_and_summary_counts(self, tmp_path):
        path = _write_config(tmp_path / "cfg.json", k=[1.0], delta=[1e-16, 0.01],
                             seeds=[1, 2, 3], grid_resolution=96)
        out = run_sweep(load_config(path), str(tmp_path / "out"))
        lines = [ln for ln in Path(out).read_text(encoding="utf-8").splitlines()
                 if ln and not ln.startswith("#")]
        cells = [ln for ln in lines if ln.startswith("cell,")]
        medians = [ln for ln in lines if ln.startswith("median,")]
        assert len(cells) == 6
        assert len(medians) == 2

    def test_determinism(self, tmp_path):
        path = _write_config(tmp_path / "cfg.json", k=[1.0], delta=[0.01],
                             seeds=[1, 2], grid_resolution=96)
        out1 = run_sweep(load_config(path), str(tmp_path / "a"))
        out2 = run_sweep(load_config(path), str(tmp_path / "b"))
        assert Path(out1).read_bytes() == Path(out2).read_bytes()

    def test_median_errors_in_noise_band(self, tmp_path):
        # medians for (k=1, delta=0.01) land between 1e-4 and 1e-1
        path = _write_config(tmp_path / "cfg.json", k=[1.0], delta=[0.01],
                             seeds=list(range(1, 11)), grid_resolution=128)
        out = run_sweep(load_config(path), str(tmp_path / "out"))
        median = [ln for ln in Path(out).read_text(encoding="utf-8").splitlines()
                  if ln.startswith("median,")][0].split(",")
        rel_l2_interior = float(median[9])
        assert 1e-4 <= rel_l2_interior <= 1e-1

    def test_median_row_is_the_seed_rows_median(self, tmp_path):
        # the median row repeats k, delta, N, alpha, M_q and m_overridden of
        # the seed rows, blanks the seed, and gives mu_min and each norm
        # column's median over the four seed rows as %.6e
        path = _write_config(tmp_path / "cfg.json", k=1.0, delta=0.01,
                             seeds=[1, 2, 3, 4], grid_resolution=32)
        out = run_sweep(load_config(path), str(tmp_path / "out"))
        *seeds, median = _data_rows(out)
        cells = [row.split(",") for row in seeds]
        assert [cell[3] for cell in cells] == ["1", "2", "3", "4"]
        first = cells[0]
        assert all(cell[4:9] == first[4:9] for cell in cells)
        norms = [f"{statistics.median(float(cell[i]) for cell in cells):.6e}"
                 for i in range(9, 13)]
        assert median == ",".join(["median", "1.0", "0.01", "", *first[4:8],
                                   f"{float(first[8]):.6e}", *norms, ""])

    def test_full_reference_lattice_counts(self, tmp_path):
        # the full 3 x 3 x 10 lattice: 90 cell rows plus 9 median rows
        path = _write_config(tmp_path / "cfg.json", k=[0.5, 1.0, 5.0],
                             delta=[1e-16, 0.01, 0.05],
                             seeds=list(range(1, 11)), grid_resolution=128)
        out = run_sweep(load_config(path), str(tmp_path / "out"))
        lines = Path(out).read_text(encoding="utf-8").splitlines()
        assert sum(ln.startswith("cell,") for ln in lines) == 90
        assert sum(ln.startswith("median,") for ln in lines) == 9
        assert not any(ln.startswith("cell,") and not ln.endswith(",")
                       for ln in lines)  # no marked failures

    def test_every_row_has_the_header_shape(self, tmp_path, capsys):
        # k = 1e-20 fails (degenerate_exact_norm) and k = 1 solves: every
        # row, marked, solved or median, has the header's fields
        path = _write_config(tmp_path / "cfg.json", k=[1e-20, 1.0],
                             delta=0.01, seeds=[1, 2], grid_resolution=32)
        code = main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")])
        capsys.readouterr()
        assert code == 0
        lines = [ln for ln in (tmp_path / "o" / "sweep.csv").read_text(
            encoding="utf-8").splitlines() if not ln.startswith("#")]
        header = lines[0].split(",")
        assert len(lines) == 6
        assert all(len(ln.split(",")) == len(header) for ln in lines[1:])
        rows = list(csv.DictReader(lines))
        assert [row["error"] for row in rows] == [
            "degenerate_exact_norm"] * 2 + [""] * 3
        for row in rows:
            assert None not in row
            assert None not in row.values()

    def test_value_columns_are_the_records_fields(self, tmp_path):
        # the value columns are the cell record's fields, then the seed
        # record's, in order, and the header a sweep writes carries them
        names = [f.name for f in (*dataclasses.fields(cli.CellValues),
                                  *dataclasses.fields(fields.ErrorReport))]
        assert names == ["N", "alpha", "M_q", "m_overridden", "mu_min",
                         "rel_l2_interior", "rel_h1semi_interior",
                         "rel_l2_boundary", "rel_l2_normal_derivative"]
        assert cli._value_columns() == names
        path = _write_config(tmp_path / "cfg.json", k=1.0, delta=0.01,
                             seeds=[1], grid_resolution=32)
        out = run_sweep(load_config(path), str(tmp_path / "o"))
        [header] = [ln for ln in Path(out).read_text(encoding="utf-8")
                    .splitlines() if ln.startswith("row_type,")]
        assert header.split(",")[4:-1] == names

    def test_records_drive_every_output(self, tmp_path, monkeypatch):
        # one more measured field on the cell record, and no other edit,
        # reaches the sweep.csv header, every seed row as repr, the median
        # row as %.6e, a failed cell's rows as a blank, report.json's
        # metadata and the coefficients.csv header; every other column
        # and key is as without it
        @dataclasses.dataclass(frozen=True)
        class Extended(cli.CellValues):
            extra: float = dataclasses.field(default=0.1,
                                             metadata={"measured": True})

        sweep = _write_config(tmp_path / "sweep.json", k=[1e-20, 1.0],
                              delta=0.01, seeds=[1, 2], grid_resolution=32)
        solve = _write_config(tmp_path / "solve.json", delta=0.01,
                              grid_resolution=32)

        def outputs(name):
            out = tmp_path / name
            assert main(["sweep", "--config", str(sweep), "--out",
                         str(out)]) == 0
            report = run_solve(load_config(solve), str(out))
            lines = (out / "sweep.csv").read_text(encoding="utf-8")
            header = [ln for ln in (out / "coefficients.csv").read_text(
                encoding="utf-8").splitlines() if ln.startswith("#")]
            return ([ln.split(",") for ln in lines.splitlines()
                     if not ln.startswith("#")], report["metadata"], header)

        rows, meta, header = outputs("plain")
        monkeypatch.setattr(cli, "CellValues", Extended)
        extended, extended_meta, extended_header = outputs("extended")
        # column 9 follows mu_min
        assert [row[9] for row in extended] == [
            "extra", "", "", "0.1", "0.1", "1.000000e-01"]
        assert [row[:9] + row[10:] for row in extended] == rows
        assert extended_meta == {**meta, "extra": 0.1}
        assert "# extra=0.1" in extended_header
        assert [ln for ln in extended_header if ln != "# extra=0.1"] == header

    def test_all_cells_failing_is_numerical_failure(self, tmp_path, capsys,
                                                    monkeypatch):
        # a sweep whose every cell fails numerically exits with code 3
        def failing(*args):
            raise NumericalError("svd_failed", "no convergence")

        monkeypatch.setattr(cli, "make_cell", failing)
        path = _write_config(tmp_path / "cfg.json", k=[0.5, 1.0], seeds=[1])
        code = main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")])
        record = json.loads(capsys.readouterr().err.strip())
        assert code == 3
        assert record["error"] == "all_cells_failed"

    @pytest.mark.parametrize("override, error", [
        ({"M_q": 8}, "system_not_tall"),
        ({"tau0": -0.001}, "tau0_too_small"),
    ], ids=["m_q_8", "tau0_negative"])
    def test_all_cells_failing_validation_exits_2(self, tmp_path, capsys,
                                                  override, error):
        # every cell fails the same config check, so the sweep exits as
        # solve does: code 2 with that check's record
        path = _write_config(tmp_path / "cfg.json", seeds=[1],
                             k=[0.5, 1.0], **override)
        code = main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")])
        record = json.loads(capsys.readouterr().err.strip())
        assert code == 2
        assert record["error"] == error
        assert not (tmp_path / "o" / "sweep.csv").exists()

    def test_mixed_failures_are_numerical_failure(self, tmp_path, capsys,
                                                  monkeypatch):
        # one cell fails validation (M_q = 8), the other numerically
        make_cell = cli.make_cell

        def failing(setup, wave, shared, top, plan, nodes, problem):
            if problem.k == 1.0:
                raise NumericalError("svd_failed", "no convergence")
            return make_cell(setup, wave, shared, top, plan, nodes, problem)

        monkeypatch.setattr(cli, "make_cell", failing)
        path = _write_config(tmp_path / "cfg.json", k=[0.5, 1.0], M_q=8,
                             seeds=[1])
        code = main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")])
        record = json.loads(capsys.readouterr().err.strip())
        assert code == 3
        assert record["error"] == "all_cells_failed"


class TestRunSvdStudy:
    @pytest.mark.parametrize("orders", ["4..130", "4,6,129", "4,-6"])
    def test_order_outside_cap_rejected_before_any_svd(
            self, tmp_path, capsys, monkeypatch, orders):
        def study(*args, **kwargs):
            raise AssertionError("svd_decay_study called")

        monkeypatch.setattr(cli, "svd_decay_study", study)
        path = _write_config(tmp_path / "cfg.json")
        code = main(["svd", "--config", str(path), "--N", orders,
                     "--out", str(tmp_path / "o")])
        records = [json.loads(ln) for ln in capsys.readouterr().err.splitlines()
                   if ln.startswith("{")]
        assert code == 2
        assert [r["error"] for r in records] == ["bad_order_list"]

    def test_singular_leading_block_exits_3_with_one_record(
            self, tmp_path, capsys, monkeypatch):
        # a zero operator column (order n = 1) gives R an exact zero on its
        # diagonal, so R cannot be inverted
        assemble = tikhonov.assemble_operator

        def with_zero_column(problem, rule):
            matrix = assemble(problem, rule)
            matrix[:, problem.N + 1] = 0.0
            return matrix

        monkeypatch.setattr(tikhonov, "assemble_operator", with_zero_column)
        path = _write_config(tmp_path / "cfg.json")
        code = main(["svd", "--config", str(path), "--N", "4..12:2",
                     "--out", str(tmp_path / "o")])
        records = [json.loads(ln) for ln in capsys.readouterr().err.splitlines()
                   if ln.startswith("{")]
        assert code == 3
        assert [r["error"] for r in records] == ["svd_failed"]
        assert not (tmp_path / "o" / "svd_study.csv").exists()

    def test_svd_builds_no_interior_grid(self, tmp_path, monkeypatch):
        # svd starts from the Setup of solve and sweep, whose grid is lazy
        def no_grid(*args, **kwargs):
            raise AssertionError("build_interior_grid called")

        monkeypatch.setattr(cli, "build_interior_grid", no_grid)
        path = _write_config(tmp_path / "cfg.json")
        code = main(["svd", "--config", str(path), "--N", "4..8:2",
                     "--out", str(tmp_path / "o")])
        assert code == 0
        assert (tmp_path / "o" / "svd_study.csv").stat().st_size > 0

    def test_rows_and_slope_footer(self, tmp_path):
        path = _write_config(tmp_path / "cfg.json")
        out = run_svd_study(load_config(path), str(tmp_path / "out"),
                            list(range(4, 25, 2)))
        lines = Path(out).read_text(encoding="utf-8").splitlines()
        data = [ln for ln in lines if ln and not ln.startswith("#")]
        assert data[0] == "N,mu_min,bound_product"
        assert len(data) == 1 + 11
        assert lines[-1].startswith("# fitted_slope=-")

    @pytest.mark.parametrize("node_count, orders, written", [
        ("auto", list(range(4, 81, 2)), 1344), (512, [4, 8, 12], 512)])
    def test_node_count_recorded(self, tmp_path, node_count, orders, written):
        # "auto" sizes one rule for the largest order and writes its size
        path = _write_config(tmp_path / "cfg.json", M_q=node_count)
        out = run_svd_study(load_config(path), str(tmp_path / "out"), orders)
        lines = Path(out).read_text(encoding="utf-8").splitlines()
        assert f"# M_q={written}" in lines

    def test_single_order_footer(self, tmp_path):
        path = _write_config(tmp_path / "cfg.json")
        out = run_svd_study(load_config(path), str(tmp_path / "out"), [6])
        assert Path(out).read_text(encoding="utf-8").splitlines()[-1] \
            == "# fitted_slope=n/a"

    def test_orders_on_the_rounding_floor_footer(self, tmp_path):
        # mu_min at N = 78 and 80 sits on the floor (~1e-14 at k = 1): no
        # two orders above it, so no slope
        path = _write_config(tmp_path / "cfg.json")
        out = run_svd_study(load_config(path), str(tmp_path / "out"), [78, 80])
        assert Path(out).read_text(encoding="utf-8").splitlines()[-1] \
            == "# fitted_slope=n/a"

    def test_unresolvable_wavenumber_exits_2(self, tmp_path, capsys):
        # the study selects no order, so only the resolution bound stops
        # k = 1e12 before a Bessel recurrence of ~2e12 steps
        path = _write_config(tmp_path / "cfg.json", k=1e12)
        code = main(["svd", "--config", str(path), "--N", "4",
                     "--out", str(tmp_path / "o")])
        record = json.loads(capsys.readouterr().err.strip())
        assert code == 2
        assert record["error"] == "wavenumber_unresolvable"

    def test_large_k_all_positive(self, tmp_path):
        path = _write_config(tmp_path / "cfg.json", k=5.0)
        out = run_svd_study(load_config(path), str(tmp_path / "out"), [4, 8, 12])
        rows = [ln.split(",") for ln in Path(out).read_text(encoding="utf-8").splitlines()
                if ln and not ln.startswith("#") and not ln.startswith("N,")]
        assert all(float(r[1]) > 0.0 for r in rows)


class TestRunTracePlot:
    def test_noise_free_curves_coincide(self, tmp_path):
        path = _write_config(tmp_path / "cfg.json", grid_resolution=96)
        exact_path, numeric_path = run_trace_plot(load_config(path),
                                                  str(tmp_path / "out"))
        exact = np.loadtxt(exact_path)
        numeric = np.loadtxt(numeric_path)
        assert exact.shape == (512, 2)
        assert numeric.shape == (512, 2)
        assert exact[0, 0] == 0.0
        assert exact[-1, 0] == pytest.approx(2 * np.pi * (1 - 1 / 512), abs=1e-14)
        assert np.max(np.abs(exact[:, 1] - numeric[:, 1])) < 1e-6

    def test_high_wavenumber_with_noise(self, tmp_path):
        # k=7 is plottable even though no reference table value exists
        path = _write_config(tmp_path / "cfg.json", k=7.0, delta=0.01,
                             grid_resolution=96)
        exact_path, numeric_path = run_trace_plot(load_config(path),
                                                  str(tmp_path / "out"))
        exact = np.loadtxt(exact_path)
        numeric = np.loadtxt(numeric_path)
        gap = np.max(np.abs(exact[:, 1] - numeric[:, 1]))
        assert gap < 0.5  # same order as the boundary L2 error

    def test_metadata_header(self, tmp_path):
        path = _write_config(tmp_path / "cfg.json", grid_resolution=96)
        exact_path, _ = run_trace_plot(load_config(path), str(tmp_path / "out"))
        header = [ln for ln in Path(exact_path).read_text(encoding="utf-8")
                  .splitlines() if ln.startswith("#")]
        keys = {ln.split("=", 1)[0].lstrip("# ") for ln in header}
        for need in ("k", "delta", "eta", "tau0", "N", "alpha", "M_q",
                     "grid_resolution", "seed", "m_overridden"):
            assert need in keys

    def test_case_is_solves(self, tmp_path):
        # plot solves the config's case for its first seed, as solve does,
        # and writes solve's metadata with the command added
        path = _write_config(tmp_path / "cfg.json", k=5.0, delta=0.01,
                             seeds=[3, 1], grid_resolution=64)
        report = run_solve(load_config(path), str(tmp_path / "solve"))
        exact_path, numeric_path = run_trace_plot(load_config(path),
                                                  str(tmp_path / "plot"))
        for trace in (exact_path, numeric_path):
            header = dict(ln[2:].split("=", 1) for ln in Path(trace).read_text(
                encoding="utf-8").splitlines() if ln.startswith("#"))
            assert {key: json.loads(value) for key, value in header.items()} \
                == {**report["metadata"], "command": "plot"}


class TestConfigFuzz:
    # Seeded mutations of a small config (wrong types, non-finite,
    # negative, empty, huge and text values, missing fields) under solve,
    # svd and sweep: every run keeps the exit-code contract.
    BASE = {"curve": "kite", "k": 1.0, "delta": 0.01, "eta": 5.0,
            "tau0": 2.2, "seeds": [1], "M_q": "auto", "grid_resolution": 32,
            "direction": [0.6, 0.8]}
    MUTANTS = ["abc", "", "1.0", None, True, {"a": 1}, [], [1, "x"], [[1.0]],
               float("nan"), float("inf"), -float("inf"), -1, -1e-3, 0,
               1e308, 10 ** 12, -(10 ** 12), 2.5, [5.0, 0.5], [1e-16, 0.05],
               "kite", "circle:abc", "ellipse:1,2,3", "circle:-1",
               {"x1_cos": [0.0, float("nan")], "x2_sin": [0.0, 1.0]},
               {"x1_cos": "abc"}, [float("nan"), 1.0]]

    def test_exit_contract(self, tmp_path, capsys):
        rng = random.Random(20261018)
        for case in range(40):
            raw = dict(self.BASE)
            for name in rng.sample(sorted(raw), rng.choice([1, 1, 2])):
                if rng.random() < 0.1:
                    del raw[name]
                else:
                    raw[name] = rng.choice(self.MUTANTS)
            path = tmp_path / f"cfg{case}.json"
            path.write_text(json.dumps(raw), encoding="utf-8")
            rng.choice([1, 2])  # discarded; dropping it would change the cases
            command = rng.choice([["solve"], ["svd", "--N", "4..12:4"],
                                  ["sweep"]])
            out = str(tmp_path / f"out{case}")
            code = main([command[0], "--config", str(path), "--out", out,
                         *command[1:]])
            err = capsys.readouterr().err
            records = [json.loads(ln) for ln in err.splitlines()
                       if ln.startswith("{")]
            assert code in (0, 2, 3), (raw, command, code)
            if code:
                assert len(records) == 1 and "error" in records[0], (raw, err)

    # entries that make a k, delta or seeds list invalid
    BAD_ENTRIES = ["x", None, True, float("nan"), float("inf"), -1, 1.0, 2.5,
                   [1.0]]

    def test_long_lists_exit_contract(self, tmp_path, capsys):
        # Fourier series of 65..200 terms exit 2 as curve_too_complex under
        # every command; sweeps over long seeds, k and delta lists, valid or
        # with one bad entry, keep the exit-code contract
        rng = random.Random(20261019)
        cases = [("curve", False)] * 5 + [(name, bad) for bad in (False, False, True)
                                          for name in ("seeds", "k", "delta")]
        for case, (name, bad) in enumerate(cases):
            raw = dict(self.BASE)
            command = ["sweep"]
            if name == "curve":
                command = rng.choice([["solve"], ["svd", "--N", "4..12:4"],
                                      ["sweep"]])
                curve = {"x1_cos": [0.0, 1.0], "x2_sin": [0.0, 1.0]}
                series = rng.choice(["x1_cos", "x1_sin", "x2_cos", "x2_sin"])
                head = curve.get(series, [])
                curve[series] = head + [rng.uniform(-1e-3, 1e-3) for _ in
                                        range(rng.randint(65, 200) - len(head))]
                raw["curve"] = curve
            else:
                if name == "seeds":
                    items = rng.sample(range(2 ** 31), rng.randint(100, 300))
                elif name == "k":
                    items = [rng.uniform(0.05, 80.0)
                             for _ in range(rng.randint(20, 40))]
                else:
                    items = [10.0 ** rng.uniform(-16.0, -0.01)
                             for _ in range(rng.randint(20, 40))]
                if bad:
                    items[rng.randrange(len(items))] = rng.choice(self.BAD_ENTRIES)
                raw[name] = items
            path = tmp_path / f"cfg{case}.json"
            path.write_text(json.dumps(raw), encoding="utf-8")
            code = main([command[0], "--config", str(path),
                         "--out", str(tmp_path / f"out{case}"), *command[1:]])
            records = [json.loads(ln) for ln in
                       capsys.readouterr().err.splitlines() if ln.startswith("{")]
            assert code in (0, 2, 3), (raw, command, code)
            assert len(records) == (1 if code else 0), (raw, command, records)
            if name == "curve":
                assert code == 2 and records[0]["error"] == "curve_too_complex"
